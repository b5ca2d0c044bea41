import csv
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rts_secrecy import simulator
from rts_secrecy.analytics import nzr_oracle, sop_oracle
from rts_secrecy.params import KnowledgeMode, Metric, Scheme, SystemParams, secrecy_rate
from rts_secrecy.simulator import (
    ChannelRealization,
    MetricEstimate,
    outage_indicators,
    realization_from_uniforms,
    sample_realization,
    select,
    simulate_grid,
    simulate_point,
    trial_stride,
    uniform_block,
)

AVAIL = KnowledgeMode.AVAILABLE
UNAVAIL = KnowledgeMode.UNAVAILABLE


def params(k=3, delta=0.9, snr_db=10.0, **kw):
    return SystemParams.from_db(k=k, delta=delta, snr_db=snr_db, **kw)


# --- stream contract ---------------------------------------------------------


def test_trial_stride_rounds_to_counter_step():
    assert trial_stride(1) == 4
    assert trial_stride(2) == 8
    assert trial_stride(3) == 12
    assert trial_stride(4) == 12
    assert trial_stride(5) == 16


def test_uniform_block_shape_and_range():
    u = uniform_block(seed=1, k=3, start=0, count=100)
    assert u.shape == (100, 9)
    assert (u >= 0.0).all() and (u < 1.0).all()


def test_uniform_block_partition_invariance():
    full = uniform_block(seed=7, k=5, start=0, count=1000)
    parts = [
        uniform_block(seed=7, k=5, start=0, count=1),
        uniform_block(seed=7, k=5, start=1, count=332),
        uniform_block(seed=7, k=5, start=333, count=667),
    ]
    assert np.array_equal(full, np.vstack(parts))


def test_different_seeds_differ():
    a = uniform_block(seed=1, k=2, start=0, count=10)
    b = uniform_block(seed=2, k=2, start=0, count=10)
    assert not np.array_equal(a, b)


def test_block_size_invariance_of_estimates():
    p = params()
    reference = simulate_point(p, Scheme.RTS, AVAIL, 30_000, seed=3, block=1 << 16)
    for block in (1, 7, 997, 30_000, 1 << 20):
        assert simulate_point(p, Scheme.RTS, AVAIL, 30_000, seed=3, block=block) == reference


def test_estimates_reproducible_across_calls():
    p = params()
    a = simulate_point(p, Scheme.TTS, UNAVAIL, 10_000, seed=11)
    b = simulate_point(p, Scheme.TTS, UNAVAIL, 10_000, seed=11)
    assert a == b


# --- grid engine -------------------------------------------------------------


def mixed_grid(k=3):
    """Every scheme and mode over extreme SNRs, deltas, r_th and lambda_e."""
    settings = [
        dict(delta=0.0, snr_db=15.0),
        dict(delta=0.6, snr_db=-30.0),
        dict(delta=0.6, snr_db=15.0),
        dict(delta=0.6, snr_db=15.0, r_th=0.0),
        dict(delta=0.6, snr_db=15.0, lambda_e_db=3.0),
        dict(delta=0.6, snr_db=80.0),
        dict(delta=1.0, snr_db=15.0),
    ]
    return [
        (params(k=k, **kw), scheme, mode)
        for kw in settings
        for scheme in Scheme
        for mode in KnowledgeMode
    ]


@pytest.mark.parametrize("block, trials", [(1, 300), (1000, 2500), (1 << 14, 2500), (1 << 16, 2500)])
def test_grid_engine_equals_point_by_point(block, trials):
    points = mixed_grid()
    expected = [simulate_point(p, s, m, trials, seed=19) for p, s, m in points]
    assert simulate_grid(points, trials, seed=19, block=block) == expected


def test_grid_engine_groups_shuffled_repeated_points():
    """Grouping by selection key keeps every point's own estimate, in the caller's order.

    The grid comes shuffled, some points twice, and the unavailable-mode
    points at four deltas share one key per scheme.
    """
    shared = [
        (params(delta=delta, snr_db=snr), scheme, UNAVAIL)
        for delta in (0.1, 0.35, 0.6, 1.0)
        for snr in (5.0, 15.0)
        for scheme in Scheme
    ]
    points = mixed_grid() + shared
    points += points[::5]
    np.random.default_rng(7).shuffle(points)
    keys = {simulator._selection_key(*point) for point in shared}
    assert len(keys) == len(Scheme)  # 4 deltas and 2 SNRs share each scheme's key
    expected = [simulate_point(p, s, m, 2500, seed=23) for p, s, m in points]
    assert simulate_grid(points, 2500, seed=23, block=1000) == expected


def test_grid_engine_counts_match_per_trial_arrays():
    trials = 3000
    points = mixed_grid(k=2)
    for (p, scheme, mode), est in zip(points, simulate_grid(points, trials, seed=5, block=700)):
        nzr, _ = simulator._all_outcomes(p, scheme, mode, trials, seed=5)
        outage = outage_indicators(p, scheme, mode, trials, seed=5)
        assert est[Metric.NZR].value == np.count_nonzero(nzr) / trials
        assert est[Metric.SOP].value == np.count_nonzero(outage) / trials


def test_grid_engine_memory_is_flat_in_trials():
    points = [
        (params(k=3, snr_db=snr), scheme, mode)
        for snr in (0.0, 30.0)
        for scheme in (Scheme.RTS, Scheme.MIN_ES)
        for mode in KnowledgeMode
    ]
    peaks = []
    for trials in (100_000, 1_000_000):
        tracemalloc.start()
        try:
            simulate_grid(points, trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_grid_engine_needs_one_k():
    with pytest.raises(ValueError):
        simulate_grid([(params(k=2), Scheme.RTS, AVAIL), (params(k=3), Scheme.RTS, AVAIL)], 10, seed=1)
    with pytest.raises(ValueError):
        simulate_grid([], 10, seed=1)


# --- vectorised selection kernel ---------------------------------------------

# scores drawn from a few values, so exact ties (+0.0 against -0.0 too) are common
_SCORE_VALUES = st.lists(
    st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.25, 7.0, np.finfo(np.float64).max, np.inf])
    | st.floats(allow_nan=False, width=64),
    min_size=1,
    max_size=4,
)


@settings(max_examples=80, deadline=None)
@given(
    k=st.sampled_from([1, 2, 5, 16, 64]),
    trials=st.sampled_from([1, 1 << 14]),
    values=_SCORE_VALUES,
    dead=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=2, trials=1 << 14, values=[np.inf, np.finfo(np.float64).max], dead=0.3, seed=0)
def test_first_argmax_equals_row_argmax(k, trials, values, dead, seed):
    rng = np.random.default_rng(seed)
    score = rng.choice(np.array(values), size=(trials, k))
    active = rng.random((trials, k)) >= dead
    score_t = np.ascontiguousarray(score.T)
    active_t = np.ascontiguousarray(active.T)
    assert np.array_equal(simulator._first_argmax(score_t), np.argmax(score, axis=1))
    gated = simulator._first_argmax(score_t, active_t)
    assert np.array_equal(gated, np.argmax(np.where(active, score, -np.inf), axis=1))
    assert np.array_equal(score_t, score.T) and np.array_equal(active_t, active.T)  # inputs left alone


def _tied_rows():
    """Uniform rows in which transmitters 1 and 2 tie exactly under some rule.

    Gains: (u_d, u_e) per transmitter; gate uniforms below delta = 0.5 are up.
    """
    gains = [
        ([0.5, 0.9, 0.9], [0.5, 0.1, 0.7]),   # tts tie, different rates
        ([0.5, 0.2, 0.8], [0.5, 0.01, 0.01]),  # min-es tie, different rates
        ([0.9, 0.2, 0.7], [0.3, 0.0, 0.0]),   # rts tie at +inf (g_e = 0)
        ([0.0, 0.0, 0.5], [0.0, 0.0, 0.5]),   # rts 0/0 scores +inf, as in `select`
        ([0.1, 0.9, 0.9], [0.5, 0.2, 0.2]),   # identical links: every rule ties
    ]
    gates = [[0.1, 0.1, 0.1], [0.1, 0.9, 0.1], [0.9, 0.9, 0.1], [0.9, 0.9, 0.9]]
    return np.array([u_d + u_e + g for u_d, u_e in gains for g in gates])


def _assert_engine_matches_select(p, u, seed):
    """Per scheme and mode, `select` on the rows `u` of stream `seed` gives the engine's picks and outcomes.

    Picks and hit counts come from `_select_outcomes`, which feeds `select`
    the gains the engine picks on; a trial has a non-zero rate where that
    pick is live and `secrecy_rate` of its scaled gains exceeds 0.
    """
    trials = u.shape[0]
    e_d, e_e = simulator._unit_gains(u, p.k)
    g_d, g_e = e_d / p.lambda_d, e_e / p.lambda_e
    up = simulator._gates(u, p.k, p.delta)
    for scheme in Scheme:
        for mode in KnowledgeMode:
            nonzero, outage = simulator._all_outcomes(p, scheme, mode, trials, seed=seed, block=trials)
            picks, nzr, sop = _select_outcomes(p, scheme, mode, u)
            transmitted = up.any(axis=0) if mode is AVAIL else np.ones(trials, dtype=bool)
            assert transmitted.tolist() == [i is not None for i in picks]
            chosen = simulator._choose(p, scheme, e_d, e_e, up if mode is AVAIL else None).tolist()
            assert picks == [c if sent else None for c, sent in zip(chosen, transmitted)]
            expected = [i is not None and up[i, t] and secrecy_rate(g_d[i, t], g_e[i, t], p.sigma_d, p.sigma_e) > 0.0
                        for t, i in enumerate(picks)]
            assert nonzero.tolist() == expected
            assert (np.count_nonzero(nonzero), np.count_nonzero(outage)) == (nzr, sop)
            est = simulate_grid([(p, scheme, mode)], trials, seed=seed, block=trials)[0]
            assert (est[Metric.NZR].value, est[Metric.SOP].value) == (nzr / trials, sop / trials)


def test_engine_matches_select_on_exact_ties(monkeypatch):
    u = _tied_rows()
    monkeypatch.setattr(simulator, "uniform_block", lambda seed, k, start, count: u[start : start + count])
    _assert_engine_matches_select(params(k=3, delta=0.5, snr_db=10.0), u, seed=1)


# --- selection shared across lambdas ------------------------------------------

_U_STEP = 2.0**-53  # Philox uniforms are multiples of this
_E_MAX = float(-np.log1p(-(1.0 - _U_STEP)))  # largest unit gain, 53 ln 2


def _gain(u):
    return float(-np.log1p(-np.float64(u)))


def _ulps(x):
    return int(np.float64(x).view(np.int64))  # monotone for x >= 0


def _nudged(u, score, target, gap):
    """A grid uniform near u whose score is `gap` ulps from `target`, or None."""
    base = round(u / _U_STEP)
    for j in sorted(range(-400, 401), key=abs):
        cand = (base + j) * _U_STEP
        if 0.0 < cand < 1.0 and _ulps(score(cand)) - _ulps(target) == gap:
            return cand
    return None


def _near_tie_rows(seed=3, reps=3):
    """Uniform rows (k = 3) whose links 0 and 1 tie exactly or lie 1-4 ulps apart.

    rts rows: equal or near-equal unit ratios e_d / e_e from different
    (e_d, e_e); tts rows: equal or near-equal e_d with different e_e.  Link
    1 sits `gap` ulps (-4..4) from link 0, link 2 is weak, and the gate
    uniforms cycle so that link 0 is dead at delta = 0.35 while link 1 is
    up, and the reverse.
    """
    rng = np.random.default_rng(seed)

    def draw(lo, hi):
        return int(rng.integers(round(lo / _U_STEP), round(hi / _U_STEP))) * _U_STEP

    gate_patterns = [(0.5, 0.2, 0.9), (0.2, 0.5, 0.9), (0.5, 0.5, 0.1)]
    rows = []
    for scheme in (Scheme.RTS, Scheme.TTS):
        for gap in range(-4, 5):
            made = 0
            while made < reps:
                u_d0, u_e0, u_e1 = draw(0.05, 0.95), draw(0.05, 0.95), draw(0.05, 0.95)
                if scheme is Scheme.RTS:
                    s0 = _gain(u_d0) / _gain(u_e0)
                    target = s0 * _gain(u_e1)
                    if target >= _E_MAX:
                        continue
                    u_d1 = _nudged(-math.expm1(-target), lambda c: _gain(c) / _gain(u_e1), s0, gap)
                else:
                    u_d1 = _nudged(u_d0, _gain, _gain(u_d0), gap)
                if u_d1 is None:
                    continue
                gates = gate_patterns[len(rows) % len(gate_patterns)]
                rows.append([u_d0, u_d1, 0.05, u_e0, u_e1, 0.95, *gates])
                made += 1
    # rts at +inf: a unique e_e = 0, two of them, and 0/0
    for u_d, u_e in (([0.3, 0.6, 0.2], [0.0, 0.4, 0.5]), ([0.3, 0.6, 0.2], [0.0, 0.0, 0.5]),
                     ([0.0, 0.6, 0.2], [0.0, 0.0, 0.5])):
        for gates in gate_patterns:
            rows.append([*u_d, *u_e, *gates])
    return np.array(rows)


def _near_tie_grid(snrs=(-30.0, 0.0, 5.0, 10.0, 15.0, 20.0, 50.0, 80.0)):
    return [
        (params(k=3, delta=delta, snr_db=snr, lambda_e_db=le, r_th=r_th), scheme, mode)
        for snr in snrs
        for le in (3.0, 8.0, 40.0)
        for delta in (0.35, 0.6, 1.0)
        for r_th in (0.0, 1.0)
        for scheme in (Scheme.RTS, Scheme.TTS)
        for mode in KnowledgeMode
    ]


def _select_outcomes(p, scheme, mode, u, scaled_picks=False):
    """(picks, NZR hits, SOP hits) of the scalar `select` on the engine's own gains of the rows `u`."""
    e_d, e_e = simulator._unit_gains(u, p.k)
    return _select_on_gains(p, scheme, mode, e_d, e_e, simulator._gates(u, p.k, p.delta), scaled_picks)


def _select_on_gains(p, scheme, mode, e_d, e_e, up, scaled_picks=False):
    """(picks, NZR hits, SOP hits) of the scalar `select` on (k, trials) unit gains and gate states `up`.

    The realization is built from the numpy gains, so both sides see the
    same floats: the scale-free rules pick on the unit gains (on the
    scaled ones with `scaled_picks`), the optimal rule on the scaled
    gains.  The outcome rule is the engine's, on the gains over noise
    a = g_d / sigma_d and b = g_e / sigma_e of the scaled gains: a non-zero
    rate where a > b, and an outage where a < b if rho == 1 and where
    X = (1 + a) / (1 + b) < rho otherwise, with NaN (inf / inf) neither.
    """
    with np.errstate(over="ignore"):  # a gain past the float range is +inf, as in the engine
        g_d, g_e = e_d / p.lambda_d, e_e / p.lambda_e
    on_d, on_e = (g_d, g_e) if scaled_picks or scheme is Scheme.OPTIMAL else (e_d, e_e)
    picks, nzr, sop = [], 0, 0
    for t, active in enumerate(up.T.tolist()):
        real = ChannelRealization(tuple(on_d[:, t].tolist()), tuple(on_e[:, t].tolist()), tuple(active))
        out = select(p, scheme, mode, real)
        picks.append(out.selected)
        if out.selected is None or not active[out.selected]:
            sop += 1
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = g_d[out.selected, t] / p.sigma_d, g_e[out.selected, t] / p.sigma_e
            below = a < b if p.rho == 1.0 else (1.0 + a) / (1.0 + b) < p.rho
        nzr += bool(a > b)
        sop += bool(below)
    return picks, nzr, sop


def _select_hits(p, scheme, mode, u):
    return _select_outcomes(p, scheme, mode, u)[1:]


def _engine_outcomes(points, u):
    """Per point, the engine's per-trial (non-zero rate, outage) indicators on the rows `u`.

    Checks on the way that simulate_grid equals one-point runs at another
    block size and counts exactly these indicators.
    """
    trials = u.shape[0]
    grid = simulate_grid(points, trials, seed=1, block=trials)
    assert grid == [simulate_point(p, s, m, trials, seed=1, block=max(1, trials // 3)) for p, s, m in points]
    outcomes = []
    for (p, scheme, mode), est in zip(points, grid):
        nzr, _ = simulator._all_outcomes(p, scheme, mode, trials, seed=1, block=trials)
        outage = outage_indicators(p, scheme, mode, trials, seed=1, block=trials)
        hits = (round(est[Metric.NZR].value * trials), round(est[Metric.SOP].value * trials))
        assert hits == (np.count_nonzero(nzr), np.count_nonzero(outage)), (p, scheme, mode)
        outcomes.append((nzr, outage))
    return outcomes


def _assert_engine_is_reference(points, u):
    """simulate_grid equals one-point runs, the per-trial path and `select`'s hit counts."""
    for (p, scheme, mode), (nzr, sop) in zip(points, _engine_outcomes(points, u)):
        hits = (np.count_nonzero(nzr), np.count_nonzero(sop))
        assert hits == _select_hits(p, scheme, mode, u), (p, scheme, mode)


def _patch_stream(monkeypatch, u):
    monkeypatch.setattr(simulator, "uniform_block", lambda seed, k, start, count: u[start : start + count])


def test_engine_matches_select_on_forged_near_ties(monkeypatch):
    u = _near_tie_rows()
    # the rows tell picks on unit gains from picks on scaled gains apart, so an
    # engine that picked on scaled gains would miss `select` here
    moved = hits_moved = 0
    for p, scheme, mode in _near_tie_grid():
        unit, scaled = (_select_outcomes(p, scheme, mode, u, scaled_picks) for scaled_picks in (False, True))
        moved += sum(a != b for a, b in zip(unit[0], scaled[0]))
        hits_moved += unit[1:] != scaled[1:]
    assert (moved, hits_moved) == (350, 24)
    _patch_stream(monkeypatch, u)
    _assert_engine_is_reference(_near_tie_grid(), u)
    for t in range(0, u.shape[0], 5):  # one trial alone: a one-column block
        _patch_stream(monkeypatch, u[t : t + 1])
        _assert_engine_is_reference(_near_tie_grid(snrs=(0.0, 10.0, 20.0)), u[t : t + 1])


# unit gains: 0, or -log1p(-u) for grid uniforms, in [2^-53, 53 ln 2]
_UNIT_GAINS = st.sampled_from([0.0, _U_STEP, _E_MAX]) | st.floats(_U_STEP, _E_MAX)


_NEAR = Fraction(1, 2**48)  # a relative distance within which rounding may decide an outcome
_FLOAT_MAX = Fraction(sys.float_info.max)


def _exact_links(p, e_d, e_e):
    """Per trial and link: (exact SNR ratio X, gain over noise g_d / sigma_d, g_e / sigma_e)."""
    a = 1 / (Fraction(p.lambda_d) * Fraction(p.sigma_d))
    c = 1 / (Fraction(p.lambda_e) * Fraction(p.sigma_e))
    trials = []
    for col_d, col_e in zip(e_d.T.tolist(), e_e.T.tolist()):
        links = []
        for x_d, x_e in zip(col_d, col_e):
            g_d, g_e = Fraction(x_d) * a, Fraction(x_e) * c
            links.append(((1 + g_d) / (1 + g_e), g_d, g_e))
        trials.append(links)
    return trials


def _exact_outcomes(p, scheme, mode, e_d, e_e, up, links):
    """Per trial, (non-zero rate, outage, excused) of exact arithmetic on the engine's unit gains.

    The pick is the exact argmax, ties to the lowest index, of e_d / e_e
    (inf where e_e = 0), e_d, -e_e or, for the optimal rule, the SNR ratio
    X.  With a = g_d / sigma_d and b = g_e / sigma_e of a live pick, the
    outcomes are a > b and, if rho = fl(2^r_th) is 1, a < b, else X < rho.
    A trial is excused, where rounding may decide it, only if the picked a
    and b lie within a relative 2^-48 of each other, or its X within 2^-48
    of rho > 1, or, under the optimal rule, which may pick any candidate
    whose S = X - 1 lies within a relative 2^-48 of the top S, if those
    candidates differ in their outcomes.
    """
    rho = Fraction(p.rho)
    e_d, e_e, up = e_d.T.tolist(), e_e.T.tolist(), up.T.tolist()
    out = []
    for t, terms in enumerate(links):
        cands = [i for i in range(p.k) if up[t][i] or mode is UNAVAIL]
        if not cands:
            out.append((False, True, False))
            continue
        ratio = [x for x, _, _ in terms]

        def outcome(i):
            x, a, b = terms[i]
            below, near = (a < b, False) if rho == 1 else (x < rho, abs(x - rho) <= _NEAR * rho)
            return up[t][i] and a > b, not up[t][i] or below, near or abs(a - b) <= _NEAR * max(a, b)

        if scheme is Scheme.RTS:
            score = [(1, 0) if x_e == 0.0 else (0, Fraction(x_d) / Fraction(x_e))  # (1, 0): inf
                     for x_d, x_e in zip(e_d[t], e_e[t])]
        elif scheme is Scheme.TTS:
            score = e_d[t]
        elif scheme is Scheme.MIN_ES:
            score = [-x for x in e_e[t]]
        else:
            score = ratio
        nzr, sop, excused = outcome(max(cands, key=score.__getitem__))  # the first of equal maxima
        if scheme is Scheme.OPTIMAL:
            top = max(ratio[i] for i in cands) - 1
            shared = {outcome(i) for i in cands if abs(ratio[i] - 1 - top) <= _NEAR * abs(top)}
            excused |= len(shared) > 1
        out.append((nzr, sop, excused))
    return out


@settings(max_examples=200, deadline=None)
@given(
    gains=st.lists(_UNIT_GAINS, min_size=1, max_size=8),
    lam=st.floats(-307.9, 307.9).map(lambda x: 10.0**x),
    sigma=st.floats(-307.9, 307.9).map(lambda x: 10.0**x),
)
@example(gains=[_E_MAX, 1.8, _U_STEP, 0.0], lam=1e-308, sigma=1e10)  # e / lambda overflows, the SNR does not
@example(gains=[_E_MAX, _U_STEP], lam=1e300, sigma=1e-300)  # e / lambda is subnormal, the SNR is not
def test_snr_rounds_like_one_division_and_overflows_only_past_the_float_range(gains, lam, sigma):
    """`_snr` is e / (lambda sigma) within two roundings, or inf where that exceeds the float range.

    With lambda and sigma in [1e-100, 1e100] it is e / lambda / sigma bit for bit.
    """
    e = np.array(gains)
    got = simulator._snr(e, lam, sigma)
    for x, y in zip(gains, got.tolist()):
        exact = Fraction(x) / (Fraction(lam) * Fraction(sigma))
        if y == math.inf:
            assert exact > _FLOAT_MAX * (1 - Fraction(1, 2**51))
        else:
            assert abs(Fraction(y) - exact) <= exact / 2**51 + Fraction(1, 2**1074)
    low, high = 1e-100, 1e100
    if low <= lam <= high and low <= sigma <= high:
        assert np.array_equal(got, e / lam / sigma)


def test_extreme_lambdas_select_on_their_own_gains():
    """At +-3000 and 3080 dB the engine decides each trial as exact arithmetic does, where rounding cannot.

    The optimal rule picks once per lambda_d on its scaled gains, and the
    scale-free rules pick on the unit gains at every lambda.  At
    3080 dB e / lambda overflows for the larger unit gains although the
    gain over noise may not.  A `Fraction` referee decides every trial on
    the engine's unit gains; it would excuse the trials in which rounding
    may decide the outcome, and there are none: the optimal rule picks on
    S = X - 1, which orders its links at (-3000, -3000) dB, where every
    ratio rounds to 1, and at 3080 dB, where gains over noise exceed the
    float range.  Every rule decides even the (-3000, -3000) dB trials on
    the gains over noise, with rho = 2 and rho = 1.
    """
    axis = (-3000.0, 10.0, 3000.0, 3080.0)
    cells = [
        ((snr, le), (params(k=3, delta=delta, snr_db=snr, lambda_e_db=le, r_th=r_th), scheme, mode))
        for snr in axis
        for le in axis
        for delta, r_th in ((0.35, 1.0), (1.0, 1.0), (0.35, 0.0))  # rho = 2, and rho = 1: outage is a < b
        for scheme in Scheme
        for mode in KnowledgeMode
    ]
    points = [point for _, point in cells]
    u = uniform_block(seed=1, k=3, start=0, count=400)
    e_d, e_e = simulator._unit_gains(u, 3)
    links, excused = {}, {}
    for (cell, (p, scheme, mode)), engine in zip(cells, _engine_outcomes(points, u)):
        if cell not in links:
            links[cell] = _exact_links(p, e_d, e_e)
        up = simulator._gates(u, 3, p.delta)
        for t, (nzr, sop, excuse) in enumerate(_exact_outcomes(p, scheme, mode, e_d, e_e, up, links[cell])):
            if excuse:
                key = cell, scheme, mode, p.delta, p.r_th
                excused[key] = excused.get(key, 0) + 1
            else:
                assert (engine[0][t], engine[1][t]) == (nzr, sop), (p, scheme, mode, t)
    assert excused == {}


_CLI_DB = st.floats(-3080.0, 3080.0)  # every value in it has a linear value and a reciprocal


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 4),
    dbs=st.tuples(_CLI_DB, _CLI_DB, _CLI_DB, _CLI_DB),
    delta=st.sampled_from([0.0, 0.35, 1.0]),
    r_th=st.sampled_from([0.0, 1.0, 3.0]),
)
@example(k=3, dbs=(-3000.0, -3000.0, 1.0, 10.0), delta=0.35, r_th=0.0)  # 1 + g / sigma rounds to 1
@example(k=4, dbs=(3080.0, 3080.0, -3080.0, -3080.0), delta=1.0, r_th=3.0)  # both gains over noise overflow
@example(k=4, dbs=(-3080.0, -3080.0, 3080.0, 3080.0), delta=0.35, r_th=1.0)  # both underflow to 0
@example(k=2, dbs=(3077.0, 3069.0, 0.0, 0.0), delta=1.0, r_th=3.0)  # a overflows, b within 8 of the float maximum
def test_engine_matches_the_exact_referee_over_the_cli_domain(k, dbs, delta, r_th):
    """Every scheme and mode decides each trial as exact arithmetic does, wherever `_exact_outcomes` does not excuse it."""
    snr, lambda_e, sigma_d, sigma_e = dbs
    p = SystemParams.from_db(k=k, delta=delta, snr_db=snr, lambda_e_db=lambda_e,
                             sigma_d_db=sigma_d, sigma_e_db=sigma_e, r_th=r_th)
    points = [(p, scheme, mode) for scheme in Scheme for mode in KnowledgeMode]
    u = uniform_block(seed=1, k=k, start=0, count=64)
    e_d, e_e = simulator._unit_gains(u, k)
    up = simulator._gates(u, k, delta)
    links = _exact_links(p, e_d, e_e)
    for (_, scheme, mode), (nzr, sop) in zip(points, _engine_outcomes(points, u)):
        for t, (want_nzr, want_sop, excused) in enumerate(_exact_outcomes(p, scheme, mode, e_d, e_e, up, links)):
            if not excused:
                assert (nzr[t], sop[t]) == (want_nzr, want_sop), (p, scheme, mode, t)


def test_overflowed_ratios_pick_on_unit_gains(tmp_path):
    """At snr 3000 dB and lambda_e -3000 dB every scaled rts ratio overflows to +inf.

    Scaled scores would all tie and pick link 0; the engine picks the
    largest unit ratio e_d / e_e, as `select` does on unit gains.  With
    every gate up and every rate above 900 bits the pick moves no CSV field.
    """
    out = tmp_path / "sweep.csv"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "rts_secrecy.cli", "sweep", "--k", "3", "--delta", "1", "--snr-db", "3000",
         "--lambda-e-db=-3000", "--trials", "1000", "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    p = params(k=3, delta=1.0, snr_db=3000.0, lambda_e_db=-3000.0)
    u = uniform_block(seed=1, k=3, start=0, count=1000)
    e_d, e_e = simulator._unit_gains(u, 3)
    with np.errstate(over="ignore"):
        assert np.isinf((e_d / p.lambda_d) / (e_e / p.lambda_e)).all()
    sel = simulator._choose(p, Scheme.RTS, e_d, e_e, None)
    assert sel.tolist() == _select_outcomes(p, Scheme.RTS, UNAVAIL, u)[0]
    scaled = _select_outcomes(p, Scheme.RTS, UNAVAIL, u, scaled_picks=True)[0]
    assert scaled == [0] * 1000 and sel.tolist() != scaled
    with open(out, encoding="utf-8") as handle:
        rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
    for row in rows:
        mode = KnowledgeMode(row["mode"])
        nzr, sop = _select_hits(p, Scheme.RTS, mode, u)
        assert (nzr, sop) == _select_outcomes(p, Scheme.RTS, mode, u, scaled_picks=True)[1:]
        assert float(row["simulated"]) == (nzr if row["metric"] == "nzr" else sop) / u.shape[0]


# --- the optimal rule on forged rate ratios ----------------------------------


def _ratio_rows(seed=5, bulk=400):
    """Uniform rows (k = 3) for the optimal rule: ties, near-ties and ratios at 1, among ordinary rows.

    Forged pairs of links 0 and 1: identical links (an exact tie at every
    SNR); equal e_e with e_d 1-4 ulps apart; link 1 with e_d == e_e, a rate
    ratio of exactly 1 where lambda_d sigma_d == lambda_e sigma_e, or with
    its uniforms 1-2 grid steps apart (just either side of 1), beside a link
    0 whose ratio is below 1; and links whose order crosses along the SNR
    axis.  Link 2 is weak.  Each pair comes with every gate pattern at
    delta = 0.5: all up, link 0 dead, link 1 the single live link, all dead.
    The `bulk` ordinary rows follow them.
    """
    rng = np.random.default_rng(seed)

    def draw(lo, hi):
        return int(rng.integers(round(lo / _U_STEP), round(hi / _U_STEP))) * _U_STEP

    pairs = []
    for _ in range(3):
        u_d, u_e = draw(0.05, 0.95), draw(0.05, 0.95)
        pairs.append(((u_d, u_d), (u_e, u_e)))
        for gap in (-4, -3, -2, -1, 1, 2, 3, 4):
            u_d1 = _nudged(u_d, _gain, _gain(u_d), gap)
            if u_d1 is not None:
                pairs.append(((u_d, u_d1), (u_e, u_e)))
        u = draw(0.3, 0.7)
        for step in (-2, -1, 0, 1, 2):
            pairs.append(((draw(0.01, 0.1), u + step * _U_STEP), (draw(0.6, 0.9), u)))
        pairs.append(((draw(0.9, 0.99), draw(0.2, 0.4)), (draw(0.8, 0.95), draw(0.01, 0.1))))
    gate_patterns = [(0.1, 0.1, 0.1), (0.9, 0.1, 0.1), (0.9, 0.1, 0.9), (0.9, 0.9, 0.9)]
    forged = [[*u_d, 0.02, *u_e, 0.97, *gates] for u_d, u_e in pairs for gates in gate_patterns]
    return np.concatenate([np.array(forged), uniform_block(seed=seed, k=3, start=0, count=bulk)])


def _ratio_grid(snrs=(-30.0, 0.0, 4.0, 8.0, 12.0, 20.0, 35.0, 50.0, 80.0)):
    """Optimal points along an SNR axis; at 8 dB with equal noise powers lambda_d == lambda_e."""
    return [
        (params(k=3, delta=delta, snr_db=snr, sigma_d_db=sigma_d, sigma_e_db=10.0, r_th=r_th), Scheme.OPTIMAL, mode)
        for snr in snrs
        for delta in (0.5, 1.0)
        for sigma_d in (1.0, 10.0)
        for r_th in (0.0, 0.3, 1.0)  # rho = fl(2^0.3) is no power of two
        for mode in KnowledgeMode
    ]


def test_engine_matches_select_on_forged_rate_ratios(monkeypatch):
    u = _ratio_rows()
    p = params(k=3, snr_db=8.0, sigma_d_db=10.0, sigma_e_db=10.0)
    assert (p.lambda_d, p.sigma_d) == (p.lambda_e, p.sigma_e)  # the ratio-1 rows read exactly 1 here
    _patch_stream(monkeypatch, u)
    _assert_engine_is_reference(_ratio_grid(), u)
    for t in range(0, 4 * 45, 3):  # one forged trial alone: a one-column block
        _patch_stream(monkeypatch, u[t : t + 1])
        _assert_engine_is_reference(_ratio_grid(snrs=(0.0, 8.0, 20.0, 50.0)), u[t : t + 1])


# --- counts read from sorted per-trial thresholds ------------------------------

_POOL = [0.0, _U_STEP, 0.01, 0.3, 1.0, 2.5, 7.0, _E_MAX]  # unit gains, 0 included


def _near_threshold_gains(rng, axis, trials):
    """(k, trials) unit gains, most of whose trials hold a link whose threshold lies near a grid c.

    The link's b is forged so that T = e_d / b, or U = e_d / theta with
    theta = (rho - 1) + rho b, lands on c = lambda_d sigma_d of a random
    point of `axis`, with e_e nudged by -4..4 ulps (a and b then agree to a
    few ulps, so X' rounds to 1 and `hits` must decide) or by a relative
    2^-20..2^-36, either side of the band _BAND.  The other links come from
    _POOL, weakened in half of the trials so that the forged link is every
    rule's pick.  A quarter of the trials hold gains of 0 and 2^-53 only:
    e_d = 0, b = 0, exact ties (a = b = 0), and, where c and lambda_e
    sigma_e are at least 1, links whose X' is 1 although a != b.
    """
    q, k = axis[0], axis[0].k
    e_d, e_e = rng.choice(_POOL, size=(2, k, trials))
    for t in range(trials):
        link, p = rng.integers(k), axis[rng.integers(len(axis))]
        if rng.random() < 0.25:
            e_d[:, t], e_e[:, t] = rng.choice(_POOL[:2], size=(2, k))
            continue
        if rng.random() < 0.5:
            e_d[:, t], e_e[:, t] = rng.choice(_POOL[:3], size=k), _E_MAX
        c, x = p.lambda_d * p.sigma_d, rng.choice(_POOL[1:])
        b = x / c  # T = c
        if q.rho > 1.0 and rng.random() < 0.5:  # U = c, b within 2^+-8 of rho - 1, where X' is near 1
            b = (q.rho - 1.0) * 2.0 ** float(rng.integers(-8, 9))
            x = min(max(((q.rho - 1.0) + q.rho * b) * c, _U_STEP), _E_MAX)
        e_d[link, t] = x
        y = b * q.lambda_e * q.sigma_e
        if rng.random() < 0.5:
            y += rng.integers(-4, 5) * np.spacing(y)
        else:
            y *= 1.0 + rng.choice([-1.0, 1.0]) * 2.0 ** -float(rng.integers(20, 37))
        if 0.0 < y <= _E_MAX:
            e_e[link, t] = y
    return e_d, e_e


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 4),
    dbs=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
    snrs=st.lists(st.floats(-30.0, 80.0), min_size=1, max_size=7, unique=True),
    r_th=st.sampled_from([0.0, 1e-9, 2e-6, 1.0, 3.0]),  # rho = 1, per-point fallback, just past _COUNT_RHO, 2, 8
    dead=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=3, dbs=(8.0, 1.0, 10.0), snrs=[0.0, 10.0, 20.0, 30.0], r_th=0.0, dead=1.0, seed=0)  # all gates dead
@example(k=3, dbs=(-40.0, 40.0, 40.0), snrs=[-30.0, 0.0, 20.0, 40.0], r_th=1.0, dead=0.0, seed=1)  # X' = 1, a != b
@example(k=2, dbs=(8.0, 1.0, 10.0), snrs=[0.0, 10.0, 20.0, 30.0, 40.0], r_th=1e-9, dead=0.5, seed=2)  # per point
# lambda_d and sigma_d far outside [1e-100, 1e100], their product near 1
@example(k=3, dbs=(8.0, 1500.0, 10.0), snrs=[1500.0 + 5.0 * i for i in range(13)], r_th=1.0, dead=0.5, seed=3)
def test_threshold_counts_equal_the_per_point_path(k, dbs, snrs, r_th, dead, seed):
    """On forged rows near the thresholds, a sub-axis counted from sorted thresholds equals `hits` and `select`.

    Every scheme in both modes, on sub-axes of one to seven points: the
    scale-free rules count on their shared pick, the optimal rule with gate
    knowledge on its best live link, and `_all_outcomes`, which runs `hits`
    on every trial, is the per-point reference.  The gated optimal rule is
    counted from thresholds wherever rho allows it, whatever its lambdas.
    """
    lambda_e, sigma_d, sigma_e = dbs
    axis = [SystemParams.from_db(k=k, delta=0.5, snr_db=snr, lambda_e_db=lambda_e, sigma_d_db=sigma_d,
                                 sigma_e_db=sigma_e, r_th=r_th) for snr in snrs]
    rng = np.random.default_rng(seed)
    trials = 48
    e_d, e_e = _near_threshold_gains(rng, axis, trials)
    up = rng.random((k, trials)) >= dead
    points = [(p, scheme, mode) for p in axis for scheme in Scheme for mode in KnowledgeMode]
    link_bounds, shapes = simulator._link_bounds, []

    def recording(e_d, b, live, rho, metrics):
        shapes.append(e_d.shape)
        return link_bounds(e_d, b, live, rho, metrics)

    with pytest.MonkeyPatch.context() as patch:  # the stream's rows are trial indices into the forged gains and gates
        patch.setattr(simulator, "uniform_block", lambda seed, k, start, count: np.arange(start, start + count)[:, None])
        patch.setattr(simulator, "_unit_gains", lambda u, k: (e_d[:, u[:, 0]], e_e[:, u[:, 0]]))
        patch.setattr(simulator, "_gates", lambda u, k, delta: up[:, u[:, 0]])
        patch.setattr(simulator, "_link_bounds", recording)
        grid = simulate_grid(points, trials, seed=1)
        grid_shapes = shapes.copy()
        alone = [simulate_point(p, scheme, mode, trials, seed=1, block=trials // 3) for p, scheme, mode in points]
        per_point = [simulator._all_outcomes(p, scheme, mode, trials, seed=1, block=trials // 3)
                     for p, scheme, mode in points]
    rho = axis[0].rho
    # the gated optimal rule's bounds on its k links, which the scale-free rules in both modes read at their pick
    assert grid_shapes == ([(k, trials)] if rho == 1.0 or rho >= simulator._COUNT_RHO else [])
    for (p, scheme, mode), est, one, outcomes in zip(points, grid, alone, per_point):
        assert est == one, (p, scheme, mode)
        counts = tuple(np.count_nonzero(hits) / trials for hits in outcomes)
        assert (est[Metric.NZR].value, est[Metric.SOP].value) == counts, (p, scheme, mode)
        _, nzr, sop = _select_on_gains(p, scheme, mode, e_d, e_e, up)
        assert (est[Metric.NZR].value, est[Metric.SOP].value) == (nzr / trials, sop / trials), (p, scheme, mode)


def test_compare_grid_selects_once_per_block_for_scale_free_rules(monkeypatch):
    """The compare defaults (k = 5, 13 SNRs, 4 schemes, available) make 3 full-width selections a block, not 40.

    rts, tts and min-es select once each, and every point of the four
    schemes reads its counts from one per-link bound set per block: the
    gated optimal rule's, which the scale-free rules read at their pick.
    The optimal rule needs no selection, and no trial's bound lies close
    enough to any point to need one.  Without gate knowledge the optimal
    rule is not counted from bounds: it selects once per SNR, and each
    scale-free rule forms the bounds of its own pick.
    """
    calls = {"full": 0, "band": 0, "links": 0, "picks": 0}
    built = []  # weak references to each block's e_d as a walker built it
    unit_gains, choose, link_bounds = simulator._unit_gains, simulator._choose, simulator._link_bounds

    def tracking_gains(u, k):
        e_d, e_e = unit_gains(u, k)
        built.append(weakref.ref(e_d))
        return e_d, e_e

    def counting_choose(p, scheme, e_d, *args):
        # a full-width selection reads a block's e_d as built, a band selection a gather of it
        if any(ref() is e_d for ref in built):
            calls["full"] += 1
        else:
            calls["band"] += e_d.shape[1]
        return choose(p, scheme, e_d, *args)

    def counting_bounds(e_d, *args):
        calls["links" if e_d.ndim == 2 else "picks"] += 1
        return link_bounds(e_d, *args)

    monkeypatch.setattr(simulator, "_unit_gains", tracking_gains)
    monkeypatch.setattr(simulator, "_choose", counting_choose)
    monkeypatch.setattr(simulator, "_link_bounds", counting_bounds)
    trials = 200_000
    blocks = -(-trials // simulator.DEFAULT_BLOCK)
    # rts 1, tts 1, min-es 1 and optimal 0 (available) or 13 (unavailable), against 13 + 13 + 1 + 13 per lambda
    for mode, full, links, picks in ((AVAIL, 3, 1, 0), (UNAVAIL, 16, 0, 3)):
        points = [
            (params(k=5, delta=0.9, snr_db=float(snr)), scheme, mode)
            for snr in range(0, 61, 5)
            for scheme in Scheme
        ]
        calls.update(dict.fromkeys(calls, 0))
        simulate_grid(points, trials, seed=1)
        assert calls == {"full": full * blocks, "band": 0, "links": links * blocks, "picks": picks * blocks}, mode


@pytest.mark.parametrize(
    "points, picks, full",
    [
        # the default `point` grid: one rts point in both modes, each counted from its pick's bounds
        ([(params(k=5, delta=0.9, snr_db=10.0), Scheme.RTS, mode) for mode in KnowledgeMode], 2, 0),
        # a default `validate` sub-axis: three SNRs, rts in both modes
        ([(params(k=3, delta=0.5, snr_db=snr), Scheme.RTS, mode) for snr in (10.0, 30.0, 50.0)
          for mode in KnowledgeMode], 2, 0),
        # where the bound proof fails: 1 < rho < _COUNT_RHO, the ungated optimal rule, |`_exponent`| > 960
        ([(params(k=5, snr_db=10.0, r_th=1e-9), Scheme.RTS, mode) for mode in KnowledgeMode], 0, 2),
        ([(params(k=5, snr_db=snr), Scheme.OPTIMAL, UNAVAIL) for snr in (10.0, 30.0, 50.0)], 0, 3),
        ([(params(k=5, snr_db=3000.0), Scheme.RTS, mode) for mode in KnowledgeMode], 0, 2),
    ],
    ids=["point", "validate-axis", "rho-near-1", "ungated-optimal", "exponent-past-960"],
)
def test_every_sub_axis_the_proof_covers_is_counted(monkeypatch, points, picks, full):
    """However few points share a sub-axis, each block forms its bounds once and runs no full-width `hits`.

    Only the points `_sub_axis` rejects take `hits` on every trial of a
    block, one call per point.
    """
    calls = []  # appended to by both walkers
    link_bounds, hits = simulator._link_bounds, simulator._Selection.hits

    def counting_bounds(e_d, *args):
        calls.append("links" if e_d.ndim == 2 else "picks")
        return link_bounds(e_d, *args)

    def counting_hits(self, p, active):
        if self.pick.size == active.shape[1]:  # a band of `_exact` is a gather of the block's trials
            calls.append("full")
        return hits(self, p, active)

    monkeypatch.setattr(simulator, "_link_bounds", counting_bounds)
    monkeypatch.setattr(simulator._Selection, "hits", counting_hits)
    blocks = 3
    simulate_grid(points, (blocks - 1) * simulator.DEFAULT_BLOCK + 1000, seed=1)
    assert [calls.count(call) for call in ("links", "picks", "full")] == [0, picks * blocks, full * blocks]


# --- block walkers and requested metrics ------------------------------------


class _Planted(Exception):
    pass


def _snr_axis():
    """The compare SNR axis at k = 3: 13 SNRs, every scheme, gate knowledge."""
    return [(params(snr_db=float(snr)), scheme, AVAIL) for snr in range(0, 61, 5) for scheme in Scheme]


def test_worker_error_reaches_the_caller(monkeypatch):
    """`_unit_gains` failing in the worker, on whichever block it takes, raises that error in the caller."""
    unit_gains, failed = simulator._unit_gains, []

    def failing(u, k):
        if threading.current_thread() is not threading.main_thread():
            failed.append(threading.current_thread())
            raise _Planted("worker")
        return unit_gains(u, k)

    monkeypatch.setattr(simulator, "_unit_gains", failing)
    before = threading.active_count()
    with pytest.raises(_Planted, match="worker"):
        simulate_grid(_snr_axis(), 5 * simulator.DEFAULT_BLOCK, seed=1)
    assert len(failed) == 1 and not failed[0].is_alive()
    assert threading.active_count() == before


def test_count_error_leaves_no_thread_behind(monkeypatch):
    """An error while the main thread counts a block joins the worker, which is still building its block."""
    unit_gains = simulator._unit_gains

    def slow(u, k):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.1)
        return unit_gains(u, k)

    def failing(*args):
        raise _Planted("count")

    monkeypatch.setattr(simulator, "_unit_gains", slow)
    monkeypatch.setattr(simulator, "_link_bounds", failing)
    before = threading.active_count()
    with pytest.raises(_Planted, match="count"):
        simulate_grid(_snr_axis(), 3 * simulator.DEFAULT_BLOCK, seed=1)
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", ["main", "worker"])
def test_walker_error_stops_the_other_within_one_block(monkeypatch, failing):
    """A build failing in either walker leaves the other at most one more block, and no thread behind."""
    unit_gains, builds, after = simulator._unit_gains, {"main": 0, "worker": 0}, []

    def tracked(u, k):
        walker = "main" if threading.current_thread() is threading.main_thread() else "worker"
        if after:
            after.append(walker)
        builds[walker] += 1
        if walker == failing and builds[walker] == 2 and not after:
            after.append(None)
            raise _Planted(walker)
        return unit_gains(u, k)

    monkeypatch.setattr(simulator, "_unit_gains", tracked)
    before = threading.active_count()
    block = simulator._AHEAD_BLOCK
    with pytest.raises(_Planted, match=failing):
        simulate_grid(_snr_axis(), 20 * block, seed=1, block=block)
    assert after[0] is None and len(after[1:]) <= 1 and failing not in after[1:]  # 17 blocks were left
    assert threading.active_count() == before


def test_walkers_count_like_one_walker(monkeypatch):
    """13 blocks of a mixed grid, split between two walkers, give estimates equal to one walker's, bit for bit.

    Every scheme in both modes, two deltas, and r_th 0 and 1: counted
    sub-axes, the gated optimal rule's shared bounds and positions read
    point by point.  The switch interval is shortened so that the walkers
    take turns often; every block is still built exactly once.
    """
    block = simulator._AHEAD_BLOCK
    trials = 12 * block + 1000
    points = [
        (params(k=3, delta=delta, snr_db=float(snr), r_th=r_th), scheme, mode)
        for delta in (0.5, 0.9)
        for r_th in (0.0, 1.0)
        for snr in ((0, 10, 20, 30, 40) if r_th else (5, 25))
        for scheme in Scheme
        for mode in KnowledgeMode
    ]
    uniforms, starts, started = simulator.uniform_block, [], []

    def recording(seed, k, start, count):
        starts.append(start)
        return uniforms(seed, k, start, count)

    def counting(self):
        started.append(self)
        thread_start(self)

    thread_start = threading.Thread.start
    monkeypatch.setattr(simulator, "uniform_block", recording)
    monkeypatch.setattr(threading.Thread, "start", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        walkers = simulate_grid(points, trials, seed=4, block=block, metrics=(Metric.SOP, Metric.NZR))
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 1 and sorted(starts) == list(range(0, trials, block))
    monkeypatch.setattr(simulator, "_AHEAD_BLOCK", block + 1)
    assert simulate_grid(points, trials, seed=4, block=block) == walkers
    assert len(started) == 1


@pytest.mark.parametrize(
    "trials, block, threads",
    [
        (100, simulator.DEFAULT_BLOCK, 0),  # one block
        (simulator.DEFAULT_BLOCK, simulator.DEFAULT_BLOCK, 0),  # one full block
        (5000, 1000, 0),  # blocks below _AHEAD_BLOCK
        (2 * simulator.DEFAULT_BLOCK, simulator.DEFAULT_BLOCK, 1),  # a second walker
        (3 * simulator.DEFAULT_BLOCK + 5, simulator.DEFAULT_BLOCK, 1),  # still one, whatever the blocks
    ],
)
def test_worker_threads_per_grid(monkeypatch, trials, block, threads):
    """A grid of one block, or of blocks below _AHEAD_BLOCK, starts no thread; a longer one exactly one."""
    started, start = [], threading.Thread.start

    def counting(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    simulate_grid(_snr_axis(), trials, seed=1, block=block)
    assert len(started) == threads


def test_grid_counts_only_the_metrics_asked_for(monkeypatch):
    """Each metric alone equals its entries of a two-metric run, and each dict holds only what was asked for.

    Unit rules and the gated optimal rule on counted sub-axes (13 and 3
    points) and point by point (r_th 1e-9, whose rho is below
    _COUNT_RHO), the optimal rule without gate knowledge, and
    r_th 0 (rho = 1, where no outage reads the non-zero-rate bounds).
    Away from rho = 1, the bounds of the metric not asked for are not
    formed; at rho = 1 SOP reads the non-zero-rate bounds, formed once.
    """
    link_bounds, formed = simulator._link_bounds, []

    def recording(e_d, b, live, rho, metrics):
        bounds = link_bounds(e_d, b, live, rho, metrics)
        formed.append((rho == 1.0, tuple(metrics), tuple(bounds)))
        return bounds

    monkeypatch.setattr(simulator, "_link_bounds", recording)
    points = [
        (params(snr_db=float(snr), r_th=r_th, **kw), scheme, mode)
        for r_th in (0.0, 1e-9, 1.0)
        for kw, snrs in (({}, range(0, 61, 5)), ({"lambda_e_db": 3.0}, (5, 15, 25)))
        for snr in snrs
        for scheme in Scheme
        for mode in KnowledgeMode
    ]
    trials = 20_000  # two blocks, one for each walker
    both = simulate_grid(points, trials, seed=3)
    assert all(list(est) == list(Metric) for est in both)
    for metric in Metric:
        assert simulate_grid(points, trials, seed=3, metrics=(metric,)) == [{metric: est[metric]} for est in both]
    assert set(formed) == {  # (rho = 1, metrics asked for, bounds formed)
        (False, tuple(Metric), tuple(Metric)), (True, tuple(Metric), (Metric.NZR,)),
        (False, (Metric.NZR,), (Metric.NZR,)), (True, (Metric.NZR,), (Metric.NZR,)),
        (False, (Metric.SOP,), (Metric.SOP,)), (True, (Metric.SOP,), (Metric.NZR,)),
    }


# --- scalar selection --------------------------------------------------------


def real(gd, ge, active):
    return ChannelRealization(tuple(gd), tuple(ge), tuple(active))


def test_select_rts_picks_best_ratio():
    p = params(k=3, delta=1.0)
    r = real([2.0, 9.0, 4.0], [1.0, 3.001, 1.9], [True, True, True])
    out = select(p, Scheme.RTS, AVAIL, r)
    assert out.selected == 1


def test_select_schemes_disagree_on_purpose():
    p = params(k=2, delta=1.0)
    # link 0: strong destination, strong eavesdropper; link 1: weak both
    r = real([10.0, 1.0], [5.0, 0.01], [True, True])
    assert select(p, Scheme.TTS, AVAIL, r).selected == 0
    assert select(p, Scheme.MIN_ES, AVAIL, r).selected == 1
    assert select(p, Scheme.RTS, AVAIL, r).selected == 1


def test_select_ties_break_to_lowest_index():
    p = params(k=3, delta=1.0)
    r = real([2.0, 2.0, 2.0], [1.0, 1.0, 1.0], [True, True, True])
    for scheme in Scheme:
        assert select(p, scheme, AVAIL, r).selected == 0


def test_select_available_skips_dead_gates():
    p = params(k=3)
    r = real([9.0, 1.0, 5.0], [1.0, 1.0, 1.0], [False, True, True])
    out = select(p, Scheme.RTS, AVAIL, r)
    assert out.selected == 2
    assert out.rate > 0.0


def test_select_available_all_dead_is_silent():
    p = params(k=2)
    r = real([9.0, 1.0], [1.0, 1.0], [False, False])
    out = select(p, Scheme.RTS, AVAIL, r)
    assert out.selected is None
    assert out.rate == 0.0


def test_select_unavailable_dead_winner_scores_zero():
    p = params(k=2)
    r = real([9.0, 1.0], [1.0, 1.0], [False, True])
    out = select(p, Scheme.RTS, UNAVAIL, r)
    assert out.selected == 0
    assert out.rate == 0.0


def test_select_noise_blind_schemes():
    # changing noise powers never moves the RTS/TTS/MIN-ES choice
    rng = np.random.default_rng(5)
    for _ in range(50):
        gd, ge = rng.exponential(1.0, 4), rng.exponential(1.0, 4)
        r = real(gd, ge, [True] * 4)
        for scheme in (Scheme.RTS, Scheme.TTS, Scheme.MIN_ES):
            picks = set()
            for sd_db, se_db in ((1.0, 10.0), (10.0, 1.0), (-5.0, 5.0)):
                p = params(k=4, delta=1.0, sigma_d_db=sd_db, sigma_e_db=se_db)
                picks.add(select(p, scheme, AVAIL, r).selected)
            assert len(picks) == 1


def test_select_scale_invariance():
    rng = np.random.default_rng(6)
    p = params(k=4, delta=1.0)
    for _ in range(50):
        gd, ge = rng.exponential(1.0, 4), rng.exponential(1.0, 4)
        base = {
            s: select(p, s, AVAIL, real(gd, ge, [True] * 4)).selected
            for s in (Scheme.RTS, Scheme.TTS, Scheme.MIN_ES)
        }
        for c in (0.01, 3.0, 250.0):
            scaled = real(gd * c, ge * c, [True] * 4)
            for s, expected in base.items():
                assert select(p, s, AVAIL, scaled).selected == expected


def test_single_transmitter_modes_equivalent():
    p = params(k=1, delta=0.5)
    for trial in range(200):
        r = sample_realization(p, seed=21, trial=trial)
        for scheme in Scheme:
            a = select(p, scheme, AVAIL, r)
            b = select(p, scheme, UNAVAIL, r)
            assert a.rate == b.rate
            # silent slot and dead selected gate are the same physical event
            assert (a.rate > 0.0) == (b.rate > 0.0)


def test_scalar_select_mirrors_vectorized_path():
    p = params(k=3, delta=0.7)
    u = uniform_block(seed=13, k=3, start=0, count=300)
    assert realization_from_uniforms(p, u[299]) == sample_realization(p, seed=13, trial=299)
    _assert_engine_matches_select(p, u, seed=13)


def test_select_rate_is_positive_where_gains_over_noise_lie_below_one_ulp():
    """At (-3000, -3000) dB 1 + g / sigma rounds to 1 on both sides, yet `select` reports the engine's rates."""
    p = params(k=3, delta=0.9, snr_db=-3000.0, lambda_e_db=-3000.0)
    n = 2_000
    hits = sum(select(p, Scheme.RTS, AVAIL, sample_realization(p, seed=1, trial=t)).rate > 0.0 for t in range(n))
    est = simulate_point(p, Scheme.RTS, AVAIL, n, seed=1)
    assert hits / n == est[Metric.NZR].value == 0.991


# --- estimates ---------------------------------------------------------------


def test_dead_backhaul_exact():
    p = params(k=3, delta=0.0)
    est = simulate_point(p, Scheme.RTS, AVAIL, 5_000, seed=1)
    assert est[Metric.NZR].value == 0.0
    assert est[Metric.SOP].value == 1.0
    assert est[Metric.NZR].std_err == 0.0


def test_perfect_backhaul_modes_identical():
    p = params(k=3, delta=1.0)
    a = simulate_point(p, Scheme.RTS, AVAIL, 20_000, seed=2)
    b = simulate_point(p, Scheme.RTS, UNAVAIL, 20_000, seed=2)
    assert a == b


def test_std_err_is_binomial():
    p = params()
    est = simulate_point(p, Scheme.RTS, AVAIL, 10_000, seed=5)[Metric.SOP]
    v = est.value
    assert est.std_err == pytest.approx(math.sqrt(v * (1 - v) / 10_000))


def test_wilson_interval_is_wide_at_zero_and_one():
    z, n = 5.0, 100_000
    for value, lo, hi in ((0.0, 0.0, z * z / (n + z * z)), (1.0, n / (n + z * z), 1.0)):
        est = MetricEstimate(value, n, seed=1)
        assert est.wilson_interval(z) == pytest.approx((lo, hi), abs=1e-15)
    # away from 0 and 1 it is close to value +- z std_err
    est = simulate_point(params(), Scheme.RTS, AVAIL, 10_000, seed=5)[Metric.SOP]
    lo, hi = est.wilson_interval(z)
    assert lo < est.value < hi
    assert (hi - lo) / 2.0 == pytest.approx(z * est.std_err, rel=0.05)


def test_estimates_match_oracle_small_grid():
    for k, delta in ((2, 0.5), (4, 0.9)):
        for mode in KnowledgeMode:
            p = params(k=k, delta=delta, snr_db=15.0)
            est = simulate_point(p, Scheme.RTS, mode, 200_000, seed=17)
            for metric, orc in (
                (Metric.NZR, nzr_oracle(p, mode)),
                (Metric.SOP, sop_oracle(p, mode)),
            ):
                gap = abs(est[metric].value - orc.value)
                assert gap <= 4.5 * est[metric].std_err + 1e-9


def test_optimal_outage_never_exceeds_any_scheme_per_trial():
    p = params(k=4, delta=0.8)
    n = 50_000
    best = outage_indicators(p, Scheme.OPTIMAL, AVAIL, n, seed=23)
    for scheme in (Scheme.RTS, Scheme.TTS, Scheme.MIN_ES):
        other = outage_indicators(p, scheme, AVAIL, n, seed=23)
        assert not (best & ~other).any()


def test_optimal_and_rts_share_the_nonzero_rate_event():
    # a positive best-rate pair exists iff the best ratio clears the bar
    p = params(k=4, delta=0.8)
    nzr_opt, _ = simulator._all_outcomes(p, Scheme.OPTIMAL, AVAIL, 50_000, seed=29)
    nzr_rts, _ = simulator._all_outcomes(p, Scheme.RTS, AVAIL, 50_000, seed=29)
    assert np.array_equal(nzr_opt, nzr_rts)


def test_zero_threshold_outage_is_zero_rate_event():
    p = params(k=3, delta=0.7, r_th=0.0)
    for mode in KnowledgeMode:
        est = simulate_point(p, Scheme.RTS, mode, 50_000, seed=31)
        assert est[Metric.NZR].value + est[Metric.SOP].value == pytest.approx(1.0)


def test_trials_validation():
    p = params()
    with pytest.raises(ValueError):
        simulate_point(p, Scheme.RTS, AVAIL, 0, seed=1)
    with pytest.raises(ValueError):
        simulate_point(p, Scheme.RTS, AVAIL, 100, seed=1, block=0)


def test_realization_consumption_order():
    # row layout is destination gains, then eavesdropper gains, then gates
    p = params(k=2, delta=0.5)
    u = uniform_block(seed=41, k=2, start=0, count=1)[0]
    r = sample_realization(p, seed=41, trial=0)
    assert r.gain_d[0] == pytest.approx(-math.log1p(-u[0]) / p.lambda_d)
    assert r.gain_d[1] == pytest.approx(-math.log1p(-u[1]) / p.lambda_d)
    assert r.gain_e[0] == pytest.approx(-math.log1p(-u[2]) / p.lambda_e)
    assert r.gain_e[1] == pytest.approx(-math.log1p(-u[3]) / p.lambda_e)
    assert r.active[0] == (u[4] < 0.5)
    assert r.active[1] == (u[5] < 0.5)
