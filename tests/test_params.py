import math

import pytest

from rts_secrecy.params import (
    KnowledgeMode,
    Metric,
    Scheme,
    SystemParams,
    db_to_linear,
    secrecy_rate,
)


def test_db_conversion_round_trip():
    for x in (-20.0, -3.0, 0.0, 1.0, 8.0, 10.0, 60.0):
        assert 10.0 * math.log10(db_to_linear(x)) == pytest.approx(x, abs=1e-12)
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(-10.0) == pytest.approx(0.1)


def test_from_db_maps_means_and_noise():
    p = SystemParams.from_db(k=3, delta=0.9, snr_db=10.0)
    assert p.lambda_d == pytest.approx(0.1)
    assert p.lambda_e == pytest.approx(10.0 ** -0.8)
    assert p.sigma_d == pytest.approx(10.0 ** 0.1)
    assert p.sigma_e == pytest.approx(10.0)
    assert p.r_th == 1.0
    assert p.rho == 2.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=0),
        dict(k=65),
        dict(k=2.0),
        dict(delta=-0.01),
        dict(delta=1.01),
        dict(delta=math.nan),
        dict(lambda_d=0.0),
        dict(lambda_d=-1.0),
        dict(lambda_e=math.inf),
        dict(sigma_d=0.0),
        dict(sigma_e=-2.0),
        dict(r_th=-0.5),
        dict(r_th=math.nan),
    ],
)
def test_invalid_parameters_rejected(kwargs):
    base = dict(k=2, delta=0.5, lambda_d=0.1, lambda_e=0.2, sigma_d=1.0, sigma_e=2.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        SystemParams(**base)


def test_params_frozen_and_hashable():
    p = SystemParams.from_db(k=2, delta=0.5, snr_db=10.0)
    with pytest.raises(Exception):
        p.k = 3
    assert p == SystemParams.from_db(k=2, delta=0.5, snr_db=10.0)
    assert hash(p) == hash(SystemParams.from_db(k=2, delta=0.5, snr_db=10.0))


def test_ratio_threshold_is_noise_ratio():
    p = SystemParams(k=1, delta=1.0, lambda_d=1.0, lambda_e=1.0, sigma_d=2.0, sigma_e=8.0)
    assert p.ratio_threshold == pytest.approx(0.25)


def test_outage_gain_bound_linear_in_eavesdropper_gain():
    p = SystemParams(k=1, delta=1.0, lambda_d=1.0, lambda_e=1.0, sigma_d=2.0, sigma_e=8.0, r_th=1.0)
    # bound(g_e) = (rho g_e + sigma_e (rho - 1)) sigma_d / sigma_e
    assert p.outage_gain_bound(0.0) == pytest.approx((0.0 + 8.0) * 0.25)
    assert p.outage_gain_bound(4.0) == pytest.approx((2.0 * 4.0 + 8.0) * 0.25)
    slope = (p.outage_gain_bound(5.0) - p.outage_gain_bound(1.0)) / 4.0
    assert slope == pytest.approx(p.rho * p.sigma_d / p.sigma_e)


def test_outage_bound_degenerates_to_ratio_threshold_at_zero_threshold():
    p = SystemParams(k=1, delta=1.0, lambda_d=1.0, lambda_e=1.0, sigma_d=2.0, sigma_e=8.0, r_th=0.0)
    for g_e in (0.5, 1.0, 7.0):
        assert p.outage_gain_bound(g_e) == pytest.approx(p.ratio_threshold * g_e)


def test_secrecy_rate_formula_and_clamp():
    # equal SNRs give rate 0; dominant destination SNR gives the log2 ratio
    assert secrecy_rate(1.0, 2.0, 1.0, 2.0) == 0.0
    assert secrecy_rate(3.0, 1.0, 1.0, 1.0) == pytest.approx(math.log2(4.0 / 2.0))
    assert secrecy_rate(0.0, 5.0, 1.0, 1.0) == 0.0
    assert secrecy_rate(0.0, 0.0, 1.0, 1.0) == 0.0


def test_secrecy_rate_domain_errors():
    with pytest.raises(ValueError):
        secrecy_rate(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        secrecy_rate(1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        secrecy_rate(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        secrecy_rate(1.0, 1.0, 1.0, -1.0)


def test_enum_wire_values():
    assert [m.value for m in KnowledgeMode] == ["available", "unavailable"]
    assert [s.value for s in Scheme] == ["rts", "tts", "min-es", "optimal"]
    assert [m.value for m in Metric] == ["nzr", "sop"]
