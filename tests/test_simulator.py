import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rts_secrecy import simulator
from rts_secrecy.analytics import nzr_oracle, sop_oracle
from rts_secrecy.params import KnowledgeMode, Metric, Scheme, SystemParams
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


def test_grid_engine_counts_match_per_trial_arrays():
    trials = 3000
    points = mixed_grid(k=2)
    for (p, scheme, mode), est in zip(points, simulate_grid(points, trials, seed=5, block=700)):
        rates, _, _ = simulator._all_outcomes(p, scheme, mode, trials, seed=5)
        outage = outage_indicators(p, scheme, mode, trials, seed=5)
        assert est[Metric.NZR].value == np.count_nonzero(rates > 0.0) / trials
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

# scores drawn from a few values, so exact ties (+0.0 against -0.0 too) are common;
# the largest float overflows under a multiplied margin
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
    gated = simulator._first_argmax(score_t, simulator._penalty(active_t))
    assert np.array_equal(gated, np.argmax(np.where(active, score, -np.inf), axis=1))
    columns = rng.choice(trials, size=min(trials, 256), replace=False)
    for margin in (simulator._MARGIN, simulator._RATIO_MARGIN):
        for penalty in (None, simulator._penalty(active_t)):
            pick, unique, top = simulator._first_argmax(score_t, penalty, margin)
            assert np.array_equal(pick, gated if penalty is not None else np.argmax(score, axis=1))
            for t in columns.tolist():  # exactly one row within the margin of the column's top
                row = [x if penalty is None or up else -math.inf for x, up in zip(score[t].tolist(), active[t])]
                assert top[t] == max(row)
                assert unique[t] == (sum(x >= max(row) / margin for x in row) == 1)
    assert np.array_equal(score_t, score.T)  # the kernel leaves its input alone


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


def test_engine_matches_select_on_exact_ties(monkeypatch):
    u = _tied_rows()
    trials = u.shape[0]
    p = params(k=3, delta=0.5, snr_db=10.0)
    monkeypatch.setattr(simulator, "uniform_block", lambda seed, k, start, count: u[start : start + count])
    for scheme in Scheme:
        for mode in KnowledgeMode:
            rates, transmitted, _ = simulator._all_outcomes(p, scheme, mode, trials, seed=1, block=trials)
            outs = [select(p, scheme, mode, realization_from_uniforms(p, row)) for row in u]
            assert rates == pytest.approx([out.rate for out in outs], abs=1e-12)
            assert transmitted.tolist() == [out.transmitted for out in outs]
            est = simulate_grid([(p, scheme, mode)], trials, seed=1, block=trials)[0]
            assert est[Metric.NZR].value == sum(out.rate > 0.0 for out in outs) / trials
            assert est[Metric.SOP].value == sum(out.rate < p.r_th for out in outs) / trials


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


def _select_hits(p, scheme, mode, u):
    """(NZR, SOP) hit counts of the scalar `select` on the engine's own gains.

    The realization is built from the numpy unit gains, so both sides see
    the same floats; the outcome rule is the engine's (unclamped rate).
    """
    e_d, e_e = simulator._unit_gains(u, p.k)
    nzr = sop = 0
    for t, row in enumerate(u):
        g_d, g_e = (e_d[:, t] / p.lambda_d).tolist(), (e_e[:, t] / p.lambda_e).tolist()
        active = tuple(bool(x < p.delta) for x in row[2 * p.k :])
        out = select(p, scheme, mode, ChannelRealization(tuple(g_d), tuple(g_e), active))
        live = out.transmitted and active[out.selected]
        raw = np.log2((1.0 + g_d[out.selected] / p.sigma_d) / (1.0 + g_e[out.selected] / p.sigma_e)) if live else 0.0
        nzr += bool(live and raw > 0.0)
        sop += bool(not live or raw < p.r_th)
    return nzr, sop


def _assert_engine_is_reference(points, u):
    """simulate_grid equals one-point runs, the per-trial path and `select`, trial by trial."""
    trials = u.shape[0]
    grid = simulate_grid(points, trials, seed=1, block=trials)
    assert grid == [simulate_point(p, s, m, trials, seed=1, block=max(1, trials // 3)) for p, s, m in points]
    for (p, scheme, mode), est in zip(points, grid):
        rates, _, _ = simulator._all_outcomes(p, scheme, mode, trials, seed=1, block=trials)
        outage = outage_indicators(p, scheme, mode, trials, seed=1, block=trials)
        hits = (round(est[Metric.NZR].value * trials), round(est[Metric.SOP].value * trials))
        assert hits == (np.count_nonzero(rates > 0.0), np.count_nonzero(outage)), (p, scheme, mode)
        assert hits == _select_hits(p, scheme, mode, u), (p, scheme, mode)


def _patch_stream(monkeypatch, u):
    monkeypatch.setattr(simulator, "uniform_block", lambda seed, k, start, count: u[start : start + count])


def test_engine_matches_select_on_forged_near_ties(monkeypatch):
    u = _near_tie_rows()
    e_d, e_e = simulator._unit_gains(u, 3)
    for scheme in (Scheme.RTS, Scheme.TTS):  # the rows reach the per-point fallback
        _, redo = simulator._certified_choose(scheme, e_d, e_e, simulator._zeros(e_e), None)
        assert 0 < redo.size < u.shape[0]
    _patch_stream(monkeypatch, u)
    _assert_engine_is_reference(_near_tie_grid(), u)
    for t in range(0, u.shape[0], 5):  # one trial alone: a one-column block
        _patch_stream(monkeypatch, u[t : t + 1])
        _assert_engine_is_reference(_near_tie_grid(snrs=(0.0, 10.0, 20.0)), u[t : t + 1])


def test_certified_choose_classifies_columns():
    # columns: clear winner, unique +inf, single live link, all dead, exact finite
    # tie, top score 0, two +inf, 1 ulp apart, 0/0 (scores +inf) beside a finite one
    e_d = np.array([[2.0, 1.0, 5.0, 5.0, 2.0, 0.0, 1.0, 1.0, 0.0],
                    [1.0, 3.0, 9.0, 9.0, 4.0, 0.0, 3.0, np.nextafter(1.0, 2.0), 1.0]])
    e_e = np.array([[1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0],
                    [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 0.0, 1.0, 1.0]])
    up = np.array([[True] * 9, [True, True, False, False] + [True] * 5])
    up[0, 3] = False
    zero = simulator._zeros(e_e)
    sel, redo = simulator._certified_choose(Scheme.RTS, e_d, e_e, zero, simulator._penalty(up))
    assert sel.tolist() == [0, 0, 0, 0, 0, 0, 0, 1, 0]
    assert redo.tolist() == [4, 5, 6, 7]
    sel, redo = simulator._certified_choose(Scheme.TTS, e_d, e_e, zero, None)
    assert sel.tolist() == [0, 1, 1, 1, 1, 0, 1, 1, 1]
    assert redo.tolist() == [5, 7]


# unit gains: 0, or -log1p(-u) for grid uniforms, in [2^-53, 53 ln 2]
_UNIT_GAINS = st.sampled_from([0.0, _U_STEP, _E_MAX]) | st.floats(_U_STEP, _E_MAX)
_SAFE_LAMBDAS = st.sampled_from(list(simulator._SAFE_LAMBDA)) | st.floats(-100.0, 100.0).map(
    lambda x: min(max(10.0**x, simulator._SAFE_LAMBDA[0]), simulator._SAFE_LAMBDA[1])
)


@settings(max_examples=200, deadline=None)
@given(
    scheme=st.sampled_from([Scheme.RTS, Scheme.TTS]),
    k=st.integers(1, 5),
    gains=st.lists(st.tuples(_UNIT_GAINS, _UNIT_GAINS), min_size=5, max_size=5),
    gaps=st.lists(st.integers(-4, 4), max_size=4),
    dead=st.sampled_from([0.0, 0.4, 1.0]),
    lambda_d=_SAFE_LAMBDAS,
    lambda_e=_SAFE_LAMBDAS,
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_unit_pick_is_the_scaled_pick(scheme, k, gains, gaps, dead, lambda_d, lambda_e, seed):
    """On certified trials the unit-gain pick is the scaled first argmax, at any safe lambda.

    In every trial link b + 1 gets link 0's unit score moved by gaps[b] ulps
    of e_d, so near-ties are the rule, not the exception.
    """
    rng = np.random.default_rng(seed)
    trials = 64
    pool = np.array(gains)
    idx = rng.integers(0, len(pool), size=(k, trials))
    e_d, e_e = pool[idx, 0].copy(), pool[idx, 1].copy()
    for b, gap in enumerate(gaps[: k - 1], start=1):
        for t in range(trials):
            if scheme is Scheme.TTS:
                target = e_d[0, t]
            elif e_e[0, t] > 0.0:
                target = e_d[0, t] / e_e[0, t] * e_e[b, t]
            else:
                continue
            if _U_STEP <= target <= _E_MAX:
                e_d[b, t] = min(max(target + gap * np.spacing(target), _U_STEP), _E_MAX)
    up = rng.random((k, trials)) >= dead
    p = SystemParams(k=k, delta=0.5, lambda_d=lambda_d, lambda_e=lambda_e, sigma_d=1.0, sigma_e=1.0)
    g_d, g_e = e_d / lambda_d, e_e / lambda_e
    for penalty in (None, simulator._penalty(up)):
        sel, redo = simulator._certified_choose(scheme, e_d, e_e, simulator._zeros(e_e), penalty)
        scaled = simulator._choose(p, scheme, g_d, g_e, simulator._zeros(g_e), penalty)
        certified = np.ones(trials, dtype=bool)
        certified[redo] = False
        assert np.array_equal(sel[certified], scaled[certified])


def test_extreme_lambdas_select_on_their_own_gains():
    """Outside the safe range (+-3000 dB) every point selects on its scaled gains."""
    points = [
        (params(k=3, delta=delta, snr_db=snr, lambda_e_db=le), scheme, mode)
        for snr in (-3000.0, 10.0, 3000.0)
        for le in (-3000.0, 8.0, 3000.0)
        for delta in (0.35, 1.0)
        for scheme in Scheme
        for mode in KnowledgeMode
    ]
    for p, scheme, mode in points:
        extreme = p.lambda_d > 1e100 or p.lambda_d < 1e-100
        if scheme is Scheme.RTS:
            extreme |= p.lambda_e > 1e100 or p.lambda_e < 1e-100
        if scheme in (Scheme.RTS, Scheme.TTS):
            assert (simulator._selection_key(p, scheme, mode)[2] is None) is not extreme
        if scheme is Scheme.OPTIMAL:  # shared along lambda_d only while both lambdas are in range
            extreme |= p.lambda_e > 1e100 or p.lambda_e < 1e-100
            assert (simulator._selection_key(p, scheme, mode)[2][0] is None) is not extreme
    u = uniform_block(seed=1, k=3, start=0, count=400)
    _assert_engine_is_reference(points, u)


def test_overflowed_ratios_tie_at_inf_and_go_to_the_lowest_index(tmp_path):
    """At snr 3000 dB and lambda_e -3000 dB every rts ratio overflows to +inf, silently.

    The +inf scores tie and resolve to link 0, as the scalar `select` does.
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
    g_d, g_e = e_d / p.lambda_d, e_e / p.lambda_e
    with np.errstate(over="ignore"):
        assert np.isinf(g_d / g_e).all()
    sel = simulator._choose(p, Scheme.RTS, g_d, g_e, simulator._zeros(g_e), None)
    reals = [ChannelRealization(tuple(d), tuple(e), (True,) * 3) for d, e in zip(g_d.T.tolist(), g_e.T.tolist())]
    assert sel.tolist() == [select(p, Scheme.RTS, UNAVAIL, real).selected for real in reals]
    with open(out, encoding="utf-8") as handle:
        rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
    for row in rows:
        nzr, sop = _select_hits(p, Scheme.RTS, KnowledgeMode(row["mode"]), u)
        assert float(row["simulated"]) == (nzr if row["metric"] == "nzr" else sop) / u.shape[0]


# --- optimal picks shared along the SNR axis ---------------------------------


def test_numpy_log2_stays_within_the_assumed_error():
    """`_ratio_top` assumes |np.log2(x) - log2(x)| <= 2^-40; math.log2 is the referee.

    Also checked: a value's log2 does not depend on the array it sits in,
    which the engine relies on when it logs a few re-selected trials apart.
    """
    rng = np.random.default_rng(7)
    x = np.concatenate([
        2.0 ** rng.uniform(-1022.0, 1023.0, 20_000),  # the whole normal range
        rng.uniform(0.5, 2.0, 20_000),  # rate ratios near the clamp
        1.0 + np.arange(-64, 65) * 2.0**-52,  # within ulps of 1
    ])
    got = np.log2(x)
    ref = np.array([math.log2(v) for v in x])
    assert np.max(np.abs(got - ref)) <= simulator._LOG2_ERROR / 2
    picks = rng.integers(0, x.size, 500)
    assert all(np.log2(x[i : i + 1])[0] == got[i] for i in picks)
    assert np.array_equal(np.log2(x[picks]), got[picks])


def _ratio_rows(seed=5, bulk=400):
    """Uniform rows (k = 3) for the optimal rule: ties, near-ties and ratios at 1, among ordinary rows.

    Forged pairs of links 0 and 1: identical links (an exact tie at every
    SNR); equal e_e with e_d 1-4 ulps apart; link 1 with e_d == e_e, a rate
    ratio of exactly 1 where lambda_d sigma_d == lambda_e sigma_e, or with
    its uniforms 1-2 grid steps apart (just either side of 1), beside a link
    0 whose ratio is below 1; and links whose order crosses along the SNR
    axis.  Link 2 is weak.  Each pair comes with every gate pattern at
    delta = 0.5: all up, link 0 dead, link 1 the single live link, all dead.
    The `bulk` ordinary rows keep the share of uncertified trials small, so
    that points between anchors keep their anchor's picks and re-select the
    forged trials on their own.
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
        for r_th in (0.0, 1.0)
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


def test_anchored_plan_shares_and_re_selects_on_forged_rows():
    """The forged rows reach every branch: anchors, shared runs, re-selection and the clamp."""
    u = _ratio_rows()
    e_d, e_e = simulator._unit_gains(u, 3)
    grid = _ratio_grid()
    p = grid[0][0]
    lambdas = sorted({q.lambda_d for q, _, _ in grid})
    plan = simulator._anchored_plan(e_d, lambdas, p.sigma_d, simulator._inverse_snr(e_e, p, None), 0)
    anchors = {anchor for anchor, _, _ in plan}
    inner = [redo.size for t, (anchor, _, redo) in enumerate(plan) if t != anchor]
    assert 2 <= len(anchors) < len(lambdas)
    assert inner and all(0 < size < u.shape[0] for size in inner)
    inv = simulator._inverse_snr(e_e, p, None)
    _, unique, clamped = simulator._ratio_top(e_d, lambdas[0], p.sigma_d, inv)  # 80 dB
    assert (unique & ~clamped).any() and not unique.all()
    assert simulator._ratio_top(e_d, lambdas[-1], p.sigma_d, inv)[2].any()  # -30 dB


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 5),
    gains=st.lists(st.tuples(_UNIT_GAINS, _UNIT_GAINS), min_size=5, max_size=5),
    gaps=st.lists(st.integers(-4, 4), max_size=4),
    dead=st.sampled_from([0.0, 0.4, 1.0]),
    lambda_ds=st.lists(_SAFE_LAMBDAS, min_size=1, max_size=8, unique=True),
    lambda_e=_SAFE_LAMBDAS,
    sigma_d=_SAFE_LAMBDAS,
    sigma_e=_SAFE_LAMBDAS,
    seed=st.integers(0, 2**32 - 1),
)
def test_anchored_pick_is_the_per_point_pick(k, gains, gaps, dead, lambda_ds, lambda_e, sigma_d, sigma_e, seed):
    """On the trials a position does not re-select, the shared pick is `_choose`'s, at any safe axis.

    The shared pick stands where its rate is positive and the clamp
    fallback (first live link, or 0) elsewhere, as the engine counts it.
    In every trial link b + 1 gets link 0's e_e and its e_d moved by gaps[b]
    ulps, so near-ties are the rule.
    """
    rng = np.random.default_rng(seed)
    trials = 64
    pool = np.array(gains)
    idx = rng.integers(0, len(pool), size=(k, trials))
    e_d, e_e = pool[idx, 0].copy(), pool[idx, 1].copy()
    for b, gap in enumerate(gaps[: k - 1], start=1):
        e_e[b] = e_e[0]
        e_d[b] = np.clip(e_d[0] + gap * np.spacing(e_d[0]), 0.0, _E_MAX)
    up = rng.random((k, trials)) >= dead
    lambdas = sorted(lambda_ds)
    points = [SystemParams(k=k, delta=0.5, lambda_d=lam, lambda_e=lambda_e, sigma_d=sigma_d, sigma_e=sigma_e)
              for lam in lambdas]
    for penalty in (None, simulator._penalty(up)):
        fallback = 0 if penalty is None else up.argmax(axis=0).astype(np.uint8)
        inv = simulator._inverse_snr(e_e, points[0], penalty)
        plan = simulator._anchored_plan(e_d, lambdas, sigma_d, inv, fallback)
        for p, (_, sel, redo) in zip(points, plan):
            expected = simulator._choose(p, Scheme.OPTIMAL, e_d / p.lambda_d, e_e / p.lambda_e, None, penalty)
            at = sel.astype(np.intp) * trials + np.arange(trials)
            num = 1.0 + e_d.take(at) / p.lambda_d / p.sigma_d
            raw = np.log2(num / (1.0 + e_e.take(at) / p.lambda_e / p.sigma_e))
            kept = np.ones(trials, dtype=bool)
            kept[redo] = False
            assert np.array_equal(np.where(raw > 0.0, sel, fallback)[kept], expected[kept])


def test_compare_grid_selects_once_per_block_for_scale_free_rules(monkeypatch):
    """The compare defaults (k = 5, 13 SNRs, 4 schemes, available) make 7 full-width selections a block, not 40.

    rts, tts and min-es one each, and 4 anchors for the optimal rule's 13
    SNRs; its other points re-select only the trials the anchors leave.
    """
    calls = {"full": 0, "anchors": 0, "redo": 0, "unit_redo": 0}
    width = {}
    stream, certified_choose = simulator.uniform_block, simulator._certified_choose
    choose, ratio_top = simulator._choose, simulator._ratio_top

    def counting_stream(seed, k, start, count):
        width["block"] = count
        return stream(seed, k, start, count)

    def counting_certified_choose(scheme, e_d, *args):
        sel, redo = certified_choose(scheme, e_d, *args)
        calls["full"] += e_d.shape[1] == width["block"]
        calls["unit_redo"] += redo.size
        return sel, redo

    def counting_choose(p, scheme, g_d, *args):
        if g_d.shape[1] == width["block"]:
            calls["full"] += 1
        else:
            calls["redo"] += g_d.shape[1]
        return choose(p, scheme, g_d, *args)

    def counting_ratio_top(e_d, *args):
        calls["anchors"] += 1
        calls["full"] += e_d.shape[1] == width["block"]
        return ratio_top(e_d, *args)

    monkeypatch.setattr(simulator, "uniform_block", counting_stream)
    monkeypatch.setattr(simulator, "_certified_choose", counting_certified_choose)
    monkeypatch.setattr(simulator, "_choose", counting_choose)
    monkeypatch.setattr(simulator, "_ratio_top", counting_ratio_top)
    points = [
        (params(k=5, delta=0.9, snr_db=float(snr)), scheme, AVAIL)
        for snr in range(0, 61, 5)
        for scheme in Scheme
    ]
    trials = 200_000
    simulate_grid(points, trials, seed=1)
    blocks = -(-trials // simulator.DEFAULT_BLOCK)
    # rts 1, tts 1, min-es 1 and optimal 4 anchors, against 13 + 13 + 1 + 13 per lambda
    assert calls == {"full": 7 * blocks, "anchors": 4 * blocks, "redo": 62_440, "unit_redo": 0}


# --- scalar selection --------------------------------------------------------


def real(gd, ge, active):
    return ChannelRealization(tuple(gd), tuple(ge), tuple(active))


def test_select_rts_picks_best_ratio():
    p = params(k=3, delta=1.0)
    r = real([2.0, 9.0, 4.0], [1.0, 3.001, 1.9], [True, True, True])
    out = select(p, Scheme.RTS, AVAIL, r)
    assert out.selected == 1
    assert out.transmitted


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
    assert out.transmitted and out.rate > 0.0


def test_select_available_all_dead_is_silent():
    p = params(k=2)
    r = real([9.0, 1.0], [1.0, 1.0], [False, False])
    out = select(p, Scheme.RTS, AVAIL, r)
    assert out.selected is None
    assert not out.transmitted
    assert out.rate == 0.0


def test_select_unavailable_dead_winner_scores_zero():
    p = params(k=2)
    r = real([9.0, 1.0], [1.0, 1.0], [False, True])
    out = select(p, Scheme.RTS, UNAVAIL, r)
    assert out.selected == 0
    assert out.transmitted
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
    for scheme in Scheme:
        for mode in KnowledgeMode:
            rates, transmitted, _ = simulator._all_outcomes(p, scheme, mode, 300, seed=13)
            for i in range(300):
                out = select(p, scheme, mode, sample_realization(p, seed=13, trial=i))
                assert out.rate == pytest.approx(rates[i], abs=1e-12)
                assert out.transmitted == transmitted[i]


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
        est = MetricEstimate(Metric.SOP, value, 0.0, n, seed=1)
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
    r_opt, _, _ = simulator._all_outcomes(p, Scheme.OPTIMAL, AVAIL, 50_000, seed=29)
    r_rts, _, _ = simulator._all_outcomes(p, Scheme.RTS, AVAIL, 50_000, seed=29)
    assert np.array_equal(r_opt > 0.0, r_rts > 0.0)


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
