import io
import math
import sys
from dataclasses import replace

import pytest
import quadrature_reference as reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rts_secrecy import analytics
from rts_secrecy.analytics import (
    DOCUMENTED_SERIES_DEVIATIONS,
    MATCH_TOL,
    MetricValue,
    VERDICT_MATCH,
    VERDICT_MISMATCH,
    VERDICT_OUT_OF_RANGE,
    asymptote,
    classify,
    closed_form,
    documented_series_deviation,
    nzr_closed_form,
    nzr_oracle,
    oracle,
    sop_closed_form,
    sop_oracle,
    summarize_validation,
    validate_point,
    write_validation_report,
)
from rts_secrecy.params import KnowledgeMode, Metric, SystemParams

AVAIL = KnowledgeMode.AVAILABLE
UNAVAIL = KnowledgeMode.UNAVAILABLE

# frozen oracle references, 30-digit quadrature of the defining integrals
FROZEN = [
    (dict(k=3, delta=0.9, snr_db=20.0), AVAIL, Metric.NZR, 0.99877177318240158),
    (dict(k=3, delta=0.9, snr_db=20.0), AVAIL, Metric.SOP, 0.0022586080724299989),
    (dict(k=3, delta=0.9, snr_db=20.0), UNAVAIL, Metric.NZR, 0.8999995595118544),
    (dict(k=3, delta=0.9, snr_db=20.0), UNAVAIL, Metric.SOP, 0.10023477706328694),
    (dict(k=5, delta=0.2, snr_db=30.0), AVAIL, Metric.NZR, 0.67199477234943741),
    (dict(k=5, delta=0.2, snr_db=30.0), AVAIL, Metric.SOP, 0.32884779695145558),
    (dict(k=5, delta=0.2, snr_db=30.0), UNAVAIL, Metric.SOP, 0.80000026423670772),
    (dict(k=1, delta=0.6, snr_db=15.0), AVAIL, Metric.NZR, 0.58529797946979841),
    (dict(k=1, delta=0.6, snr_db=15.0), AVAIL, Metric.SOP, 0.45099783150661417),
]


@pytest.mark.parametrize("kwargs,mode,metric,expected", FROZEN)
def test_oracle_frozen_references(kwargs, mode, metric, expected):
    p = SystemParams.from_db(**kwargs)
    result = oracle(p, metric, mode)
    assert result.ok
    assert result.value == pytest.approx(expected, abs=1e-12)


def test_oracle_values_in_range_and_converged():
    for k in (1, 4):
        for delta in (0.2, 0.9):
            for snr in (0.0, 40.0):
                p = SystemParams.from_db(k=k, delta=delta, snr_db=snr)
                for metric in Metric:
                    for mode in KnowledgeMode:
                        r = oracle(p, metric, mode)
                        assert r.ok, r.note
                        assert 0.0 <= r.value <= 1.0


def test_oracle_range_check_allows_its_own_error_estimate():
    # a quadrature value a few 1e-12 above 1 lies inside its own error
    # estimate; without that estimate it is out of range
    above = MetricValue(Metric.SOP, UNAVAIL, 1.0 + 7e-12, "quadrature", abserr=2e-11)
    assert analytics._flag_range(above).ok
    flagged = analytics._flag_range(replace(above, abserr=0.0))
    assert not flagged.ok
    assert flagged.note == "raw value outside [0, 1]"


# --- oracle routes: exact NZR, one region integral per SOP cell --------------


@pytest.fixture
def fresh_sop_cache():
    sop_oracle.cache_clear()
    yield
    sop_oracle.cache_clear()


def test_nzr_exact_matches_nested_quadrature_on_validate_grid():
    for k in (1, 2, 3, 4, 5):
        for delta in (0.2, 0.5, 0.9):
            for snr in (10.0, 30.0, 50.0):
                p = SystemParams.from_db(k=k, delta=delta, snr_db=snr)
                for mode in KnowledgeMode:
                    exact = nzr_oracle(p, mode)
                    assert (exact.source, exact.abserr) == ("exact", 0.0)
                    assert exact.value == pytest.approx(reference.nzr(p, mode)[0], abs=1e-10)


@pytest.mark.parametrize("k", [2, 3, 5, 8, 16])
@pytest.mark.parametrize("snr", [-30.0, 20.0, 80.0])
def test_collapsed_sop_matches_binomial_q_loop(k, snr):
    p = SystemParams.from_db(k=k, delta=0.9, snr_db=snr)
    collapsed = sop_oracle(p, AVAIL)
    value, err = reference.sop(p, AVAIL)
    assert collapsed.ok, collapsed.note
    assert abs(collapsed.value - value) <= collapsed.abserr + err


@pytest.mark.parametrize("mode", list(KnowledgeMode))
@pytest.mark.parametrize("delta", [0.0, 1.0])
@pytest.mark.parametrize("snr", [-30.0, 80.0])
def test_nzr_matches_mpmath_at_extremes(mode, delta, snr):
    mp = pytest.importorskip("mpmath")
    p = SystemParams.from_db(k=64, delta=delta, snr_db=snr, r_th=0.0)
    with mp.workdps(30):
        lam_d_c = mp.mpf(p.lambda_d) * mp.mpf(p.sigma_d) / mp.mpf(p.sigma_e)
        f1 = lam_d_c / (lam_d_c + mp.mpf(p.lambda_e))
        d = mp.mpf(p.delta)
        if mode is AVAIL:
            expected = float(1 - (1 - d + d * f1) ** p.k)
        else:
            expected = float(d * (1 - f1**p.k))
    assert abs(nzr_oracle(p, mode).value - expected) <= 1e-13 * abs(expected)


def test_nzr_when_every_ratio_clears_the_threshold():
    # at 200 dB the chance that one ratio exceeds c rounds to exactly 1
    p = SystemParams.from_db(k=3, delta=1.0, snr_db=200.0)
    for mode in KnowledgeMode:
        assert nzr_oracle(p, mode).value == 1.0


# 30-digit mpmath tanh-sinh quadrature of the same region integrals
SOP_REFEREES = [
    # a default `validate` cell, where the per-q integrals erred 12x their estimate
    (dict(k=3, delta=0.9, snr_db=50.0), 0.001000769596172592456),
    # a thin layer near t = 1 that the outer quadrature can step over unseen
    (dict(k=16, delta=1.0, snr_db=40.0, r_th=3.0), 4.435327719692854322e-07),
]


@pytest.mark.parametrize("kwargs,expected", SOP_REFEREES)
def test_sop_matches_mpmath_referee_within_its_error_estimate(kwargs, expected):
    r = sop_oracle(SystemParams.from_db(**kwargs), AVAIL)
    assert r.ok, r.note
    assert abs(r.value - expected) <= min(r.abserr, 1e-12)


@pytest.mark.parametrize("k", [2, 16])
@pytest.mark.parametrize("mode", list(KnowledgeMode))
def test_sop_certain_outage_at_low_snr_and_high_threshold(k, mode):
    # at -30 dB a destination gain above the outage bound has probability
    # below e^-8000, so the outage is certain; the inner interval in
    # lambda_d x is 8800 long, enough to hide f_D's peak between nodes
    r = sop_oracle(SystemParams.from_db(k=k, delta=0.9, snr_db=-30.0, r_th=3.0), mode)
    assert r.ok, r.note
    assert abs(r.value - 1.0) <= r.abserr


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_unconverged_quadrature_is_not_ok(monkeypatch, fresh_sop_cache):
    monkeypatch.setattr(analytics, "_QUAD_LIMIT", 1)
    r = sop_oracle(SystemParams.from_db(k=3, delta=0.9, snr_db=20.0), AVAIL)
    assert not r.ok
    assert "maximum number of subdivisions (1)" in r.note


@pytest.mark.parametrize("k", [1, 16, 64])
def test_each_sop_cell_integrates_one_region(monkeypatch, fresh_sop_cache, k):
    calls = []
    real = analytics._region_integral

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analytics, "_region_integral", counting)
    p = SystemParams.from_db(k=k, delta=0.9, snr_db=20.0)
    for mode in KnowledgeMode:
        calls.clear()
        sop_oracle(p, mode)
        assert len(calls) == 1
        calls.clear()
        nzr_oracle(p, mode)
        assert calls == []


# --- the 1-D SOP oracle over the valid domain --------------------------------

# a few ulps of a value in [0, 1]: the floating-point sums of both routes
_ROUNDING = 4 * sys.float_info.epsilon
# 15 applications of the 21-point Gauss-Kronrod rule; the most seen over
# k 1-64, delta 0-1, -30 to 80 dB, r_th 0-6 and three noise settings is 231
_NEVAL_BOUND = 21 * 15
WIDE_SNRS = [-30.0, -10.0, 10.0, 30.0, 50.0, 80.0]


@pytest.mark.parametrize("r_th", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("snr", WIDE_SNRS)
def test_sop_matches_nested_reference_on_wide_grid(snr, r_th):
    # the reference's per-q regions depend on neither k nor delta and are
    # cached; the q-loop runs with gate knowledge up to k = 5
    for k in (1, 2, 3, 5, 16, 64):
        for delta in (0.0, 0.35, 0.9, 1.0):
            p = SystemParams.from_db(k=k, delta=delta, snr_db=snr, r_th=r_th)
            for mode in (UNAVAIL, AVAIL) if k <= 5 else (UNAVAIL,):
                r = sop_oracle(p, mode)
                value, err = reference.sop(p, mode)
                assert r.ok, r.note
                assert abs(r.value - value) <= r.abserr + err + _ROUNDING, (k, delta, mode)


@pytest.mark.parametrize("mode", list(KnowledgeMode))
@pytest.mark.parametrize("k", [1, 3, 16, 64])
@pytest.mark.parametrize("delta", [0.0, 0.35, 1.0])
def test_zero_threshold_sop_and_nzr_sum_to_one(mode, k, delta):
    for snr in WIDE_SNRS:
        p = SystemParams.from_db(k=k, delta=delta, snr_db=snr, r_th=0.0)
        sop = sop_oracle(p, mode)
        assert sop.abserr == 0.0  # closed form: no tail above w_beta
        assert abs(sop.value + nzr_oracle(p, mode).value - 1.0) <= 1e-12


class _CountingIntegrate:
    """Stands in for `scipy.integrate` inside `analytics`, summing quadpack's
    `neval` and error estimates."""

    def __init__(self, integrate):
        self._integrate = integrate
        self.neval = 0
        self.abserr = 0.0

    def quad(self, *args, **kwargs):
        out = self._integrate.quad(*args, **kwargs)
        self.neval += out[2]["neval"]
        self.abserr += out[1]
        return out


@pytest.mark.parametrize("k", [1, 2, 3, 5, 16, 64])
def test_sop_cell_integrand_evaluations_are_bounded(monkeypatch, fresh_sop_cache, k):
    counter = _CountingIntegrate(analytics.integrate)
    monkeypatch.setattr(analytics, "integrate", counter)
    for snr in range(-30, 81, 10):
        for r_th in (0.0, 1.0, 3.0):
            for delta in (0.0, 0.9, 1.0):
                p = SystemParams.from_db(k=k, delta=delta, snr_db=float(snr), r_th=r_th)
                for mode in KnowledgeMode:
                    counter.neval, counter.abserr = 0, 0.0
                    r = sop_oracle(p, mode)
                    assert r.ok, r.note
                    assert counter.neval <= _NEVAL_BOUND, (snr, r_th, delta, mode)
                    # the tail's estimate, weighted like the tail itself
                    assert r.abserr == k * delta * counter.abserr


# near-certain outages at k = 64, found by the properties below: a head
# power rounded as a plain pow, or a head and tail that meet at two
# different w1, put these values up to 1.4e-14 above 1, beyond their
# error estimates
NEAR_CERTAIN = [
    dict(k=64, delta=0.25, snr_db=-16.0, lambda_e_db=0.0, sigma_d_db=0.0, sigma_e_db=0.0),
    dict(
        k=64, delta=1.0, snr_db=-10.34482307267304, r_th=5.440395184897779,
        lambda_e_db=0.7930051929077067, sigma_d_db=-9.658511425785775,
        sigma_e_db=8.295734545077234,
    ),
]


@pytest.mark.parametrize("kwargs", NEAR_CERTAIN)
def test_near_certain_outage_stays_within_its_estimate_of_one(kwargs):
    for mode in KnowledgeMode:
        r = sop_oracle(SystemParams.from_db(**kwargs), mode)
        assert r.ok, r.note
        assert r.value <= 1.0 + r.abserr


_DOMAIN = dict(
    k=st.sampled_from([1, 64]) | st.integers(1, 64),
    delta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    snr_db=st.floats(-30.0, 80.0),
    r_th=st.sampled_from([0.0]) | st.floats(0.0, 6.0),
    lambda_e_db=st.floats(-10.0, 20.0),
    sigma_d_db=st.floats(-10.0, 10.0),
    sigma_e_db=st.floats(-10.0, 10.0),
)


@settings(max_examples=150, deadline=None)
@given(**_DOMAIN)
def test_oracle_values_are_ok_and_probabilities(**kwargs):
    # in [0, 1] up to the value's own error estimate: the oracle does not
    # clamp, and a near-certain outage can land a few 1e-16 above 1
    p = SystemParams.from_db(**kwargs)
    for metric in Metric:
        for mode in KnowledgeMode:
            r = oracle(p, metric, mode)
            assert r.ok, r.note
            assert -r.abserr <= r.value <= 1.0 + r.abserr


@settings(max_examples=150, deadline=None)
@given(step=st.floats(0.0, 110.0), **_DOMAIN)
def test_sop_non_increasing_in_snr(step, **kwargs):
    low = SystemParams.from_db(**kwargs)
    kwargs["snr_db"] = min(kwargs["snr_db"] + step, 80.0)
    high = SystemParams.from_db(**kwargs)
    for mode in KnowledgeMode:
        a, b = sop_oracle(low, mode), sop_oracle(high, mode)
        assert b.value <= a.value + a.abserr + b.abserr + _ROUNDING


@settings(max_examples=150, deadline=None)
@given(other=st.floats(1e-200, 1.0), **_DOMAIN)
def test_nzr_without_knowledge_over_delta_does_not_depend_on_delta(other, **kwargs):
    # delta >= 1e-200 keeps NZR a normal float, with all of its digits
    assume(kwargs["delta"] >= 1e-200)
    a = nzr_oracle(SystemParams.from_db(**kwargs), UNAVAIL).value / kwargs["delta"]
    kwargs["delta"] = other
    b = nzr_oracle(SystemParams.from_db(**kwargs), UNAVAIL).value / other
    assert abs(a - b) <= _ROUNDING * max(a, b)


# --- series closed forms: exact cells ---------------------------------------


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("delta", [0.3, 0.8])
@pytest.mark.parametrize("snr", [5.0, 25.0])
def test_nzr_series_exact_with_gate_knowledge_small_k(k, delta, snr):
    p = SystemParams.from_db(k=k, delta=delta, snr_db=snr)
    series = nzr_closed_form(p, AVAIL)
    assert series.ok
    assert series.value == pytest.approx(nzr_oracle(p, AVAIL).value, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_nzr_series_exact_without_gate_knowledge_from_two(k):
    p = SystemParams.from_db(k=k, delta=0.7, snr_db=12.0)
    series = nzr_closed_form(p, UNAVAIL)
    assert series.ok
    assert series.value == pytest.approx(nzr_oracle(p, UNAVAIL).value, abs=1e-11)


@pytest.mark.parametrize("delta", [0.2, 0.9])
@pytest.mark.parametrize("snr", [5.0, 30.0])
def test_sop_series_exact_single_transmitter_with_knowledge(delta, snr):
    p = SystemParams.from_db(k=1, delta=delta, snr_db=snr)
    series = sop_closed_form(p, AVAIL)
    assert series.ok
    assert series.value == pytest.approx(sop_oracle(p, AVAIL).value, abs=1e-12)


# --- series closed forms: documented defect cells ---------------------------


def test_nzr_series_with_knowledge_drifts_at_three_transmitters():
    p = SystemParams.from_db(k=3, delta=0.9, snr_db=20.0)
    series = nzr_closed_form(p, AVAIL)
    diff = series.value - nzr_oracle(p, AVAIL).value
    assert diff == pytest.approx(-1.509e-4, rel=5e-3)
    assert documented_series_deviation(Metric.NZR, AVAIL, 3) is not None


def test_nzr_series_single_transmitter_without_knowledge_returns_delta():
    # the empty competitor sum collapses the series to delta exactly
    p = SystemParams.from_db(k=1, delta=0.7, snr_db=10.0)
    series = nzr_closed_form(p, UNAVAIL)
    assert series.value == pytest.approx(0.7, abs=1e-15)
    assert nzr_oracle(p, UNAVAIL).value < 0.7
    assert documented_series_deviation(Metric.NZR, UNAVAIL, 1) is not None


def test_sop_series_defect_cells_flagged_or_mismatched():
    for mode, k in ((AVAIL, 2), (AVAIL, 5), (UNAVAIL, 2), (UNAVAIL, 4)):
        p = SystemParams.from_db(k=k, delta=0.6, snr_db=10.0)
        series = sop_closed_form(p, mode)
        orc = sop_oracle(p, mode)
        verdict = classify(series, orc)
        assert verdict in (VERDICT_MISMATCH, VERDICT_OUT_OF_RANGE)
        assert documented_series_deviation(Metric.SOP, mode, k) is not None


def test_sop_series_blowup_is_flagged_not_clamped():
    p = SystemParams.from_db(k=3, delta=0.9, snr_db=10.0)
    series = sop_closed_form(p, UNAVAIL)
    assert not series.ok
    assert not 0.0 <= series.value <= 1.0


def test_sop_series_zero_threshold_flagged():
    p = SystemParams.from_db(k=2, delta=0.5, snr_db=10.0, r_th=0.0)
    series = sop_closed_form(p, AVAIL)
    assert not series.ok
    assert math.isnan(series.value)


# --- degenerate and limiting parameter checks --------------------------------


def test_dead_backhaul_with_knowledge():
    p = SystemParams.from_db(k=3, delta=0.0, snr_db=10.0)
    assert nzr_oracle(p, AVAIL).value == pytest.approx(0.0, abs=1e-12)
    assert sop_oracle(p, AVAIL).value == pytest.approx(1.0, abs=1e-12)


def test_perfect_backhaul_modes_coincide():
    p = SystemParams.from_db(k=4, delta=1.0, snr_db=10.0)
    assert nzr_oracle(p, AVAIL).value == pytest.approx(
        nzr_oracle(p, UNAVAIL).value, abs=1e-10
    )
    assert sop_oracle(p, AVAIL).value == pytest.approx(
        sop_oracle(p, UNAVAIL).value, abs=1e-10
    )


def test_zero_threshold_complementarity():
    # at r_th = 0 the outage event is exactly the zero-rate event
    p = SystemParams.from_db(k=3, delta=0.7, snr_db=10.0, r_th=0.0)
    for mode in KnowledgeMode:
        total = nzr_oracle(p, mode).value + sop_oracle(p, mode).value
        assert total == pytest.approx(1.0, abs=1e-7)


def test_nzr_unavailable_linear_in_delta():
    # scaling delta scales the whole expression; slope check at 1e-9
    base = SystemParams.from_db(k=4, delta=1.0, snr_db=15.0)
    full = nzr_oracle(base, UNAVAIL).value
    for delta in (0.25, 0.5, 0.75):
        p = SystemParams.from_db(k=4, delta=delta, snr_db=15.0)
        assert nzr_oracle(p, UNAVAIL).value == pytest.approx(delta * full, abs=1e-9)


def test_oracle_monotone_in_snr():
    for mode in KnowledgeMode:
        nzr_values = []
        sop_values = []
        for snr in (0.0, 10.0, 20.0, 30.0, 40.0):
            p = SystemParams.from_db(k=3, delta=0.8, snr_db=snr)
            nzr_values.append(nzr_oracle(p, mode).value)
            sop_values.append(sop_oracle(p, mode).value)
        assert nzr_values == sorted(nzr_values)
        assert sop_values == sorted(sop_values, reverse=True)


def test_gate_knowledge_never_hurts():
    for k in (2, 5):
        for delta in (0.2, 0.9):
            for snr in (5.0, 25.0):
                p = SystemParams.from_db(k=k, delta=delta, snr_db=snr)
                assert nzr_oracle(p, AVAIL).value >= nzr_oracle(p, UNAVAIL).value - 1e-10
                assert sop_oracle(p, AVAIL).value <= sop_oracle(p, UNAVAIL).value + 1e-10


def test_more_transmitters_help_with_knowledge():
    values = []
    for k in (1, 2, 3, 5):
        p = SystemParams.from_db(k=k, delta=0.8, snr_db=15.0)
        values.append(nzr_oracle(p, AVAIL).value)
    assert values == sorted(values)


# --- asymptotes --------------------------------------------------------------


def test_asymptote_formulas():
    assert asymptote(Metric.NZR, AVAIL, 3, 0.2).value == pytest.approx(1 - 0.8 ** 3)
    assert asymptote(Metric.NZR, UNAVAIL, 3, 0.2).value == 0.2
    assert asymptote(Metric.SOP, AVAIL, 3, 0.2).value == pytest.approx(0.8 ** 3)
    assert asymptote(Metric.SOP, UNAVAIL, 3, 0.2).value == pytest.approx(0.8)
    with pytest.raises(ValueError):
        asymptote(Metric.NZR, AVAIL, 0, 0.2)
    with pytest.raises(ValueError):
        asymptote(Metric.NZR, AVAIL, 3, 1.2)


@pytest.mark.parametrize("k,delta", [(3, 0.2), (5, 0.2), (3, 0.9)])
def test_oracle_approaches_asymptote_at_high_snr(k, delta):
    p = SystemParams.from_db(k=k, delta=delta, snr_db=60.0)
    for metric in Metric:
        for mode in KnowledgeMode:
            target = asymptote(metric, mode, k, delta).value
            assert oracle(p, metric, mode).value == pytest.approx(target, abs=1e-3)


# --- validation machinery -----------------------------------------------------


def test_classify_verdicts():
    from rts_secrecy.analytics import MetricValue

    good = MetricValue(Metric.NZR, AVAIL, 0.5, "series")
    target = MetricValue(Metric.NZR, AVAIL, 0.5 + 5e-7, "quadrature")
    far = MetricValue(Metric.NZR, AVAIL, 0.6, "quadrature")
    bad = MetricValue(Metric.NZR, AVAIL, 7.0, "series", ok=False, note="out")
    assert classify(good, target) == VERDICT_MATCH
    assert classify(good, far) == VERDICT_MISMATCH
    assert classify(bad, target) == VERDICT_OUT_OF_RANGE


def test_documented_deviation_table_covers_expected_cells():
    assert documented_series_deviation(Metric.NZR, AVAIL, 2) is None
    assert documented_series_deviation(Metric.NZR, AVAIL, 3) is not None
    assert documented_series_deviation(Metric.NZR, UNAVAIL, 1) is not None
    assert documented_series_deviation(Metric.NZR, UNAVAIL, 2) is None
    assert documented_series_deviation(Metric.SOP, AVAIL, 1) is None
    assert documented_series_deviation(Metric.SOP, AVAIL, 2) is not None
    assert documented_series_deviation(Metric.SOP, UNAVAIL, 1) is not None
    assert len(DOCUMENTED_SERIES_DEVIATIONS) == 4


def test_validate_point_rows_and_documentation():
    p = SystemParams.from_db(k=1, delta=0.5, snr_db=10.0)
    rows = validate_point(p, 10.0)
    assert len(rows) == 4
    by_cell = {(r.metric, r.mode): r for r in rows}
    assert by_cell[(Metric.NZR, AVAIL)].verdict == VERDICT_MATCH
    assert by_cell[(Metric.SOP, AVAIL)].verdict == VERDICT_MATCH
    assert by_cell[(Metric.NZR, UNAVAIL)].verdict == VERDICT_MISMATCH
    assert all(r.documented for r in rows)


def _validate_cells(ks, deltas, snrs_db):
    """`validate_point` rows over the cartesian grid, in (k, delta, snr) order."""
    return [
        row
        for k in ks
        for delta in deltas
        for snr_db in snrs_db
        for row in validate_point(SystemParams.from_db(k=k, delta=delta, snr_db=snr_db), snr_db)
    ]


def test_validate_grid_shape_and_no_undocumented():
    rows = _validate_cells(ks=[1, 2, 3], deltas=[0.5], snrs_db=[10.0, 30.0])
    assert len(rows) == 3 * 1 * 2 * 4
    counts = summarize_validation(rows)
    assert counts["UNDOCUMENTED"] == 0
    assert counts[VERDICT_MATCH] >= 1
    assert counts[VERDICT_MISMATCH] + counts[VERDICT_OUT_OF_RANGE] >= 1


def test_validation_report_format():
    rows = _validate_cells(ks=[1], deltas=[0.5], snrs_db=[10.0])
    buf = io.StringIO()
    write_validation_report(rows, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0].startswith("# validation summary: match=")
    assert lines[1].startswith("metric,mode,k,delta,snr_db,closed_form,oracle")
    assert len(lines) == 2 + len(rows)
    assert "MATCH" in text


def test_match_rows_meet_tolerance_against_oracle():
    rows = _validate_cells(ks=[1, 2, 4], deltas=[0.2, 0.9], snrs_db=[10.0, 50.0])
    for row in rows:
        if row.verdict == VERDICT_MATCH:
            assert row.abs_diff <= MATCH_TOL


def test_closed_form_dispatch():
    p = SystemParams.from_db(k=2, delta=0.5, snr_db=10.0)
    assert closed_form(p, Metric.NZR, AVAIL).value == nzr_closed_form(p, AVAIL).value
    assert closed_form(p, Metric.SOP, AVAIL).value == sop_closed_form(p, AVAIL).value
