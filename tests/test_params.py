import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    "name, x_db",
    [
        ("snr_db", 4000.0),
        ("snr_db", -4000.0),
        ("snr_db", -3200.0),  # 1e-320 is representable, its reciprocal is not
        ("lambda_e_db", -math.inf),
        ("sigma_d_db", math.nan),
        ("sigma_e_db", 4000.0),
    ],
)
def test_from_db_names_a_db_value_without_a_linear_value(name, x_db):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SystemParams.from_db(**{"k": 2, "delta": 0.5, "snr_db": 10.0, name: x_db})


def test_from_db_accepts_the_extremes():
    p = SystemParams.from_db(k=64, delta=1.0, snr_db=3000.0, lambda_e_db=-3000.0,
                             sigma_d_db=-3000.0, sigma_e_db=3000.0, r_th=0.0)
    assert p.lambda_d == pytest.approx(1e-300) and p.sigma_e == pytest.approx(1e300)


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
        dict(r_th=1024.0),
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


def test_secrecy_rate_formula_and_clamp():
    # equal SNRs give rate 0; dominant destination SNR gives the log2 ratio
    assert secrecy_rate(1.0, 2.0, 1.0, 2.0) == 0.0
    assert secrecy_rate(3.0, 1.0, 1.0, 1.0) == pytest.approx(math.log2(4.0 / 2.0))
    assert secrecy_rate(0.0, 5.0, 1.0, 1.0) == 0.0
    assert secrecy_rate(0.0, 0.0, 1.0, 1.0) == 0.0
    # overflowed gains: inf / inf and a finite gain against inf are clamped, inf alone stays
    assert secrecy_rate(1.0, math.inf, 1.0, 1.0) == 0.0
    assert secrecy_rate(math.inf, math.inf, 1.0, 1.0) == 0.0
    assert secrecy_rate(math.inf, 1.0, 1.0, 1.0) == math.inf


def test_secrecy_rate_keeps_gains_over_noise_below_one_ulp():
    # 1 + a and 1 + b both round to 1, yet the rate is (a - b) / ln 2 to first order
    assert secrecy_rate(1e-300, 1e-301, 1.0, 1.0) == pytest.approx(1.298e-300, rel=1e-3, abs=0.0)
    assert secrecy_rate(1e-300, 1e-301, 1.0, 1.0) == pytest.approx(9e-301 / math.log(2.0), rel=1e-15, abs=0.0)
    # log1p(a) - log1p(b) rounds to 0 here, with a one ulp above b
    assert secrecy_rate(math.nextafter(1e10, math.inf), 1e10, 1.0, 1.0) > 0.0


@given(
    a=st.floats(0.0, allow_infinity=True, allow_nan=False),
    b=st.floats(0.0, allow_infinity=True, allow_nan=False),
)
@example(a=5e-324, b=0.0)
@example(a=1.0 + 2.0**-52, b=1.0)
@example(a=math.inf, b=1.7976931348623157e308)
def test_secrecy_rate_is_positive_exactly_where_the_engine_counts_a_non_zero_rate(a, b):
    """The engine counts a non-zero rate where a = g_d / sigma_d > b = g_e / sigma_e."""
    assert (secrecy_rate(a, b, 1.0, 1.0) > 0.0) == (a > b)


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
