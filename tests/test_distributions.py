import math

import numpy as np
import pytest
from scipy import integrate

from rts_secrecy.distributions import MaxRatioLaw, single_ratio_cdf

LAM_D = 0.35
LAM_E = 1.4


def test_single_ratio_cdf_closed_form():
    # P[gd/ge <= x] for independent exponentials
    assert single_ratio_cdf(0.0, LAM_D, LAM_E) == 0.0
    assert single_ratio_cdf(-3.0, LAM_D, LAM_E) == 0.0
    assert single_ratio_cdf(math.inf, LAM_D, LAM_E) == 1.0
    x = 2.0
    assert single_ratio_cdf(x, LAM_D, LAM_E) == pytest.approx(
        LAM_D * x / (LAM_D * x + LAM_E)
    )


def test_single_ratio_cdf_against_quadrature():
    # P[gd < x ge] = int f_e(y) F_d(x y) dy
    for x in (0.1, 1.0, 4.0):
        ref, _ = integrate.quad(
            lambda y: LAM_E * math.exp(-LAM_E * y) * (1.0 - math.exp(-LAM_D * x * y)),
            0.0,
            math.inf,
        )
        assert single_ratio_cdf(x, LAM_D, LAM_E) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("k", range(1, 11))
@pytest.mark.parametrize("gate_p", [1.0, 0.6])
def test_product_and_expanded_cdf_agree(k, gate_p):
    law = MaxRatioLaw(k_links=k, lam_d=LAM_D, lam_e=LAM_E, gate_p=gate_p)
    for x in (0.0, 0.05, 0.5, 1.0, 3.0, 10.0, 80.0):
        a, b = law.cdf(x), law.cdf_expanded(x)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


def test_max_ratio_cdf_monotone_and_normalized():
    law = MaxRatioLaw(k_links=4, lam_d=LAM_D, lam_e=LAM_E, gate_p=0.8)
    xs = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 50.0, 1e6]
    values = [law.cdf(x) for x in xs]
    assert values == sorted(values)
    assert values[0] == pytest.approx(law.atom)
    assert law.cdf(math.inf) == pytest.approx(1.0)


def test_max_ratio_empty_competition():
    law = MaxRatioLaw(k_links=0, lam_d=LAM_D, lam_e=LAM_E, gate_p=0.5)
    assert law.atom == 1.0
    assert law.cdf(0.0) == 1.0
    assert law.pdf(1.0) == 0.0


@pytest.mark.parametrize("gate_p", [1.0, 0.7])
def test_pdf_matches_cdf_finite_difference(gate_p):
    law = MaxRatioLaw(k_links=5, lam_d=LAM_D, lam_e=LAM_E, gate_p=gate_p)
    h = 1e-6
    for x in (0.05, 0.3, 1.0, 2.5, 8.0):
        numeric = (law.cdf(x + h) - law.cdf(x - h)) / (2.0 * h)
        assert abs(law.pdf(x) - numeric) < 1e-5


def test_pdf_plus_atom_integrates_to_one():
    for gate_p in (1.0, 0.4):
        law = MaxRatioLaw(k_links=3, lam_d=LAM_D, lam_e=LAM_E, gate_p=gate_p)
        mass, _ = integrate.quad(law.pdf, 0.0, math.inf, limit=400)
        assert law.atom + mass == pytest.approx(1.0, abs=1e-8)


def test_max_ratio_law_matches_empirical_ks():
    # draw 10^6 max-ratio statistics and bound the KS distance by 0.002
    n, k = 1_000_000, 4
    rng = np.random.default_rng(987)
    gd = rng.exponential(1.0 / LAM_D, size=(n, k))
    ge = rng.exponential(1.0 / LAM_E, size=(n, k))
    stat = np.sort((gd / ge).max(axis=1))
    law = MaxRatioLaw(k_links=k, lam_d=LAM_D, lam_e=LAM_E)
    model = np.array([law.cdf(x) for x in stat])
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    ks = max(np.abs(empirical_hi - model).max(), np.abs(model - empirical_lo).max())
    assert ks <= 0.002


def test_gated_max_ratio_law_matches_empirical():
    # gate each pair off with probability 0.4 and check the cdf pointwise
    n, k, gate_p = 400_000, 3, 0.6
    rng = np.random.default_rng(321)
    gd = rng.exponential(1.0 / LAM_D, size=(n, k))
    ge = rng.exponential(1.0 / LAM_E, size=(n, k))
    on = rng.random(size=(n, k)) < gate_p
    ratios = np.where(on, gd / ge, 0.0)
    stat = ratios.max(axis=1)
    law = MaxRatioLaw(k_links=k, lam_d=LAM_D, lam_e=LAM_E, gate_p=gate_p)
    for x in (0.0, 0.2, 1.0, 3.0):
        frac = float(np.mean(stat <= x))
        se = math.sqrt(max(frac * (1.0 - frac), 1e-12) / n)
        assert abs(frac - law.cdf(x)) <= 5 * se + 1e-9


def test_domain_validation():
    with pytest.raises(ValueError):
        MaxRatioLaw(k_links=-1, lam_d=1.0, lam_e=1.0)
    with pytest.raises(ValueError):
        MaxRatioLaw(k_links=2, lam_d=0.0, lam_e=1.0)
    with pytest.raises(ValueError):
        MaxRatioLaw(k_links=2, lam_d=1.0, lam_e=1.0, gate_p=-0.2)
