import io
import math

import pytest

from rts_secrecy.analytics import (
    DOCUMENTED_SERIES_DEVIATIONS,
    MATCH_TOL,
    SopSeriesVariant,
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
    validate_grid,
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
    # at -30 dB the outage is certain up to quadrature error: the value
    # lands a few 1e-12 above 1, inside its own error estimate
    p = SystemParams.from_db(k=16, delta=0.9, snr_db=-30.0)
    r = sop_oracle(p, UNAVAIL)
    assert r.value > 1.0
    assert r.ok, r.note


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


def test_sop_series_variant_switches_change_nothing_material():
    # no reading of the ambiguous pieces rescues the k >= 2 cells
    p = SystemParams.from_db(k=3, delta=0.6, snr_db=10.0)
    target = sop_oracle(p, AVAIL).value
    for a_rule in ("same-side", "cross-side"):
        for gamma_rule in ("complete", "truncated"):
            for tail_rule in ("additive", "product"):
                variant = SopSeriesVariant(
                    a_rule=a_rule, gamma_rule=gamma_rule, tail_rule=tail_rule
                )
                series = sop_closed_form(p, AVAIL, variant)
                assert (not series.ok) or abs(series.value - target) > MATCH_TOL


def test_sop_series_variant_validation():
    with pytest.raises(ValueError):
        SopSeriesVariant(a_rule="bogus")
    with pytest.raises(ValueError):
        SopSeriesVariant(depth_rule="deep")


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


def test_validate_grid_shape_and_no_undocumented():
    rows = validate_grid(ks=[1, 2, 3], deltas=[0.5], snrs_db=[10.0, 30.0])
    assert len(rows) == 3 * 1 * 2 * 4
    counts = summarize_validation(rows)
    assert counts["UNDOCUMENTED"] == 0
    assert counts[VERDICT_MATCH] >= 1
    assert counts[VERDICT_MISMATCH] + counts[VERDICT_OUT_OF_RANGE] >= 1


def test_validation_report_format():
    rows = validate_grid(ks=[1], deltas=[0.5], snrs_db=[10.0])
    buf = io.StringIO()
    write_validation_report(rows, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0].startswith("# validation summary: match=")
    assert lines[1].startswith("metric,mode,k,delta,snr_db,closed_form,oracle")
    assert len(lines) == 2 + len(rows)
    assert "MATCH" in text


def test_match_rows_meet_tolerance_against_oracle():
    rows = validate_grid(ks=[1, 2, 4], deltas=[0.2, 0.9], snrs_db=[10.0, 50.0])
    for row in rows:
        if row.verdict == VERDICT_MATCH:
            assert row.abs_diff <= MATCH_TOL


def test_closed_form_dispatch():
    p = SystemParams.from_db(k=2, delta=0.5, snr_db=10.0)
    assert closed_form(p, Metric.NZR, AVAIL).value == nzr_closed_form(p, AVAIL).value
    assert closed_form(p, Metric.SOP, AVAIL).value == sop_closed_form(p, AVAIL).value
