import math

import pytest
from scipy import integrate, special

from rts_secrecy.specfun import (
    binomial,
    exp1,
    exp_integral_ei,
    expn,
    lower_incomplete_gamma,
    upper_incomplete_gamma,
)

# frozen references, evaluated at 30 significant digits with mpmath
EI_MINUS_ONE = -0.21938393439552027
LOWER_GAMMA_3_2P5 = 0.91237376823334096
UPPER_GAMMA_2_1P3 = 0.62682312397822899


def test_binomial_pascal_triangle():
    for n in range(0, 21):
        for k in range(0, n + 1):
            left = binomial(n - 1, k - 1) if 0 <= k - 1 <= n - 1 else 0
            right = binomial(n - 1, k) if k <= n - 1 else 0
            if n == 0:
                assert binomial(n, k) == 1
            else:
                assert binomial(n, k) == left + right


def test_binomial_bounds():
    assert binomial(64, 32) == math.comb(64, 32)
    with pytest.raises(ValueError):
        binomial(65, 1)
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(4, 5)
    with pytest.raises(ValueError):
        binomial(4.0, 2)


def test_lower_gamma_frozen_value():
    assert lower_incomplete_gamma(3, 2.5) == pytest.approx(LOWER_GAMMA_3_2P5, abs=1e-15)


def test_upper_gamma_frozen_value():
    assert upper_incomplete_gamma(2, 1.3) == pytest.approx(UPPER_GAMMA_2_1P3, abs=1e-15)


def test_ei_frozen_value():
    assert exp_integral_ei(-1.0) == pytest.approx(EI_MINUS_ONE, abs=1e-15)


@pytest.mark.parametrize("s", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 2.7, 10.0])
def test_gamma_complementarity(s, x):
    # gamma(s, x) + Gamma(s, x) = (s-1)!
    total = lower_incomplete_gamma(s, x) + upper_incomplete_gamma(s, x)
    assert total == pytest.approx(math.factorial(s - 1), rel=1e-10)


@pytest.mark.parametrize("s", [1, 2, 4, 7])
@pytest.mark.parametrize("x", [0.2, 1.0, 3.5, 20.0])
def test_gamma_against_scipy(s, x):
    assert lower_incomplete_gamma(s, x) == pytest.approx(
        special.gammainc(s, x) * math.factorial(s - 1), rel=1e-12
    )
    assert upper_incomplete_gamma(s, x) == pytest.approx(
        special.gammaincc(s, x) * math.factorial(s - 1), rel=1e-12
    )


@pytest.mark.parametrize("s", [0, -1, -2, -4])
@pytest.mark.parametrize("x", [0.3, 1.0, 2.0, 8.0])
def test_non_positive_order_against_quadrature(s, x):
    # defining integral int_x^inf t^(s-1) e^-t dt converges for x > 0;
    # shift to t = x + u and pull e^-x out so the tail stays well scaled
    tail, err = integrate.quad(
        lambda u: (x + u) ** (s - 1) * math.exp(-u), 0.0, math.inf,
        limit=400, epsabs=1e-14, epsrel=1e-12,
    )
    ref = math.exp(-x) * tail
    assert upper_incomplete_gamma(s, x) == pytest.approx(ref, rel=1e-9, abs=1e-13)


def test_non_positive_order_matches_scipy_expn():
    # Gamma(1-n, x) = x^(1-n) E_n(x) links the recurrence to scipy
    for n in range(1, 7):
        for x in (0.4, 1.0, 3.0):
            mine = upper_incomplete_gamma(1 - n, x)
            ref = special.expn(n, x) * x ** (1 - n)
            assert mine == pytest.approx(ref, rel=1e-10)


def test_non_positive_order_domain():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(0, 0.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(-3, -1.0)
    with pytest.raises(ValueError):
        lower_incomplete_gamma(0, 1.0)
    with pytest.raises(ValueError):
        lower_incomplete_gamma(2, -0.1)


@pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 1.5, 5.0, 30.0, 100.0, 700.0])
def test_exp1_against_scipy(x):
    assert exp1(x) == pytest.approx(special.exp1(x), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 17, 63])
def test_expn_against_scipy(n):
    for x in (1.0 + 2**-52, 1.5, 7.3, 63.5, 700.0):
        assert expn(n, x) == pytest.approx(special.expn(n, x), rel=1e-13)


def test_exp1_series_cf_crossover_is_smooth():
    # both branches agree where they meet
    assert exp1(1.0 - 1e-12) == pytest.approx(exp1(1.0 + 1e-12), rel=1e-9)


def test_exp1_domain():
    with pytest.raises(ValueError):
        exp1(0.0)
    with pytest.raises(ValueError):
        exp1(-2.0)
    with pytest.raises(ValueError):
        exp_integral_ei(1.0)


@pytest.mark.parametrize("x", [0.1, 0.9, 2.0, 12.0])
def test_ei_negative_axis_against_quadrature(x):
    # Ei(-x) = -int_x^inf e^-t / t dt, shifted as above for conditioning
    tail, _ = integrate.quad(
        lambda u: math.exp(-u) / (x + u), 0.0, math.inf, limit=200
    )
    assert exp_integral_ei(-x) == pytest.approx(-math.exp(-x) * tail, rel=1e-10)


def test_upper_gamma_large_x_underflow_is_clean():
    # complementary sum underflows to exactly zero without warnings
    assert upper_incomplete_gamma(3, 800.0) == 0.0
    assert lower_incomplete_gamma(3, 800.0) == pytest.approx(2.0)
