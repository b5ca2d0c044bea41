import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rts_secrecy import simulator
from rts_secrecy.analytics import nzr_oracle, sop_oracle
from rts_secrecy.params import KnowledgeMode, Metric, Scheme, SystemParams
from rts_secrecy.simulator import (
    ChannelRealization,
    MetricEstimate,
    estimate_metric,
    outage_indicators,
    realization_from_uniforms,
    sample_realization,
    select,
    simulate_grid,
    simulate_point,
    trial_outcomes,
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
        rates, _ = trial_outcomes(p, scheme, mode, trials, seed=5)
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

# scores drawn from a few values, so exact ties (+0.0 against -0.0 too) are common
_SCORE_VALUES = st.lists(
    st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.25, 7.0, np.inf])
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
def test_first_argmax_equals_row_argmax(k, trials, values, dead, seed):
    rng = np.random.default_rng(seed)
    score = rng.choice(np.array(values), size=(trials, k))
    active = rng.random((trials, k)) >= dead
    score_t = np.ascontiguousarray(score.T)
    active_t = np.ascontiguousarray(active.T)
    assert np.array_equal(simulator._first_argmax(score_t), np.argmax(score, axis=1))
    gated = simulator._first_argmax(score_t, simulator._penalty(active_t))
    assert np.array_equal(gated, np.argmax(np.where(active, score, -np.inf), axis=1))
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
            rates, transmitted = trial_outcomes(p, scheme, mode, trials, seed=1, block=trials)
            outs = [select(p, scheme, mode, realization_from_uniforms(p, row)) for row in u]
            assert rates == pytest.approx([out.rate for out in outs], abs=1e-12)
            assert transmitted.tolist() == [out.transmitted for out in outs]
            est = simulate_grid([(p, scheme, mode)], trials, seed=1, block=trials)[0]
            assert est[Metric.NZR].value == sum(out.rate > 0.0 for out in outs) / trials
            assert est[Metric.SOP].value == sum(out.rate < p.r_th for out in outs) / trials


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
            rates, transmitted = trial_outcomes(p, scheme, mode, 300, seed=13)
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


def test_estimate_metric_consistent_with_simulate_point():
    p = params()
    est = estimate_metric(p, Scheme.RTS, AVAIL, Metric.SOP, 8_000, seed=4)
    both = simulate_point(p, Scheme.RTS, AVAIL, 8_000, seed=4)
    assert est == both[Metric.SOP]


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
    r_opt, _ = trial_outcomes(p, Scheme.OPTIMAL, AVAIL, 50_000, seed=29)
    r_rts, _ = trial_outcomes(p, Scheme.RTS, AVAIL, 50_000, seed=29)
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
