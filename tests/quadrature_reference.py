"""Quadrature referees for the oracle tests.

Two routes the oracle took before it became exact, each reaching its
numbers by a different path, so the tests compare them:

* `nzr` and `sop`: one nested 2-D integral of the region per live-gate
  count q, weighted by the binomial law of q, both integrals in log
  variables (see `region_integral`);
* `sop_1d`: the sum over q folded into one weight, a closed-form head and
  one 1-D quadrature tail.

Every function returns (value, error estimate), and a nested estimate
includes the largest inner quadrature error and the mass its ends drop.
Each `quad` call reads quadpack's `ier`: a quadrature that did not
converge raises instead of returning a number with a loose error estimate.
"""
from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from typing import Callable

from scipy import integrate

from rts_secrecy.params import KnowledgeMode, SystemParams
from rts_secrecy.specfun import binomial

_E_FLOOR = 1e-16  # lambda x from which `region_integral` integrates, on both sides
_E_CEIL = 50.0  # and up to which
_LOG_FLOOR = math.log(_E_FLOOR)
_Z_CUT = 50.0  # sop_1d's head ends where z = _Z_CUT


def _quad(f: Callable[[float], float], a: float, b: float, **kw) -> tuple[float, float]:
    """(value, error estimate) of scipy's `quad`; ArithmeticError with quadpack's message if ier != 0."""
    out = integrate.quad(f, a, b, full_output=1, **kw)
    if len(out) > 3:  # quadpack's message comes only with ier != 0
        raise ArithmeticError(f"quad on [{a!r}, {b!r}]: {' '.join(out[3].split())}")
    return out[0], out[1]


def outage_gain_bound(p: SystemParams, g_e: float) -> float:
    """Destination gain below which the link is in secrecy outage.

    The outage region C_s < r_th is g_d < (rho*g_e + sigma_e*(rho-1))
    * sigma_d / sigma_e for a given eavesdropper gain g_e.
    """
    return (p.rho * g_e + p.sigma_e * (p.rho - 1.0)) * p.sigma_d / p.sigma_e


def region_integral(
    p: SystemParams, m: int, x_bound: Callable[[float], float]
) -> tuple[float, float]:
    """Integral of f_D(x) f_E(y) F1(x/y)^m over {x < x_bound(y)}, in log variables.

    The outer integral runs over s = log(lambda_e y) and the inner one over
    r = log(lambda_d x), so f_E(y) dy = e^(s - e^s) ds, f_D(x) dx the same
    in r, and F1(x/y) = 1/(1 + e^(s - r)).  In these variables every
    feature of the integrand is O(1) wide however thin it is in x or y:
    the rise of F1^m near r = s + log m (the inner integral breaks at
    r = s, where F1 = 1/2), and the edge where lambda_d x_bound(y) is
    O(1), which at low SNR or a threshold near 0 sits at a tiny y.  Each
    integral runs from e^r = _E_FLOOR to e^r = _E_CEIL; the mass it drops
    below and above, _E_FLOOR + e^-_E_CEIL at most, joins the error
    estimate twice (the inner integral is a probability), and so does the
    largest inner quadrature error.
    """
    lam_d, lam_e = p.lambda_d, p.lambda_e
    inner_err = 0.0

    def inner(s: float) -> float:
        nonlocal inner_err
        top = lam_d * x_bound(math.exp(s) / lam_e)
        if top <= _E_FLOOR:  # the region's mass here is below 1 - e^-top
            return 0.0
        hi = math.log(min(top, _E_CEIL))
        val, err = _quad(
            lambda r: math.exp(r - math.exp(r) - m * math.log1p(math.exp(s - r))),
            _LOG_FLOOR, hi, epsabs=1e-13, epsrel=1e-10, limit=200,
            points=[s] if _LOG_FLOOR < s < hi - 1e-6 else None,  # a break at an end upsets quadpack
        )
        inner_err = max(inner_err, err)
        return val

    val, err = _quad(
        lambda s: math.exp(s - math.exp(s)) * inner(s), _LOG_FLOOR, math.log(_E_CEIL),
        epsabs=1e-13, epsrel=1e-10, limit=200,
    )
    return val, err + inner_err + 2.0 * (_E_FLOOR + math.exp(-_E_CEIL))


@lru_cache(maxsize=None)
def outage_region(p: SystemParams, m: int) -> tuple[float, float]:
    """`region_integral` over the outage region, cached.

    `sop` passes k = 1 and delta = 1, on which the region does not depend,
    so one evaluation serves every (k, delta) of a channel point.
    """
    return region_integral(p, m, lambda g_e: outage_gain_bound(p, g_e))


def selected_event_probability(
    p: SystemParams, mode: KnowledgeMode, region: Callable[[int], tuple[float, float]]
) -> tuple[float, float]:
    """P[the ratio-selected link lands in the region], by live-gate count q.

    `region(m)` is the region's integral with m competitors.  With gate
    knowledge q is Binomial(k, delta) and the all-dead atom counts as being
    in the region; without it the competitor count is k-1 and a dead
    selected gate is left to the caller.
    """
    k, delta = p.k, p.delta
    if mode is KnowledgeMode.UNAVAILABLE:
        val, err = region(k - 1)
        return k * val, k * err
    total = (1.0 - delta) ** k
    err_total = 0.0
    for q in range(1, k + 1):
        weight = binomial(k, q) * delta**q * (1.0 - delta) ** (k - q)
        if weight == 0.0:
            continue
        val, err = region(q - 1)
        total += weight * q * val
        err_total += weight * q * err
    return total, err_total


def nzr(p: SystemParams, mode: KnowledgeMode) -> tuple[float, float]:
    c = p.sigma_d / p.sigma_e
    p_zero, err = selected_event_probability(
        p, mode, lambda m: region_integral(p, m, lambda y: c * y)
    )
    if mode is KnowledgeMode.AVAILABLE:
        return 1.0 - p_zero, err
    return p.delta * (1.0 - p_zero), p.delta * err


def sop(p: SystemParams, mode: KnowledgeMode) -> tuple[float, float]:
    base = replace(p, k=1, delta=1.0)
    p_region, err = selected_event_probability(p, mode, lambda m: outage_region(base, m))
    if mode is KnowledgeMode.AVAILABLE:
        return p_region, err
    return (1.0 - p.delta) + p.delta * p_region, p.delta * err


def sop_1d(p: SystemParams, mode: KnowledgeMode) -> tuple[float, float]:
    """SOP from the region integral R = int_0^1 (1 - g + g w)^(k-1) P(w) dw.

    g is the chance a competitor is live (delta with gate knowledge, else
    1), w = F1(g_d/g_e), and P(w) is 1 up to w_beta = F1(beta), then
    1 - e^-z (1 + z) with z = c/(w - w_beta); beta and c as in
    `analytics.sop_oracle`.  Up to w1 = min(w_beta + c/_Z_CUT, 1) P is 1
    within (1 + _Z_CUT) e^-_Z_CUT, so that head of R joins the gate atom in
    closed form, B = (1 - g + g w1)^k.  The tail above w1 is one quadrature
    over tau = log((w - w_beta)/(w1 - w_beta)), in which P's rise near
    w - w_beta = c is O(1) wide at every SNR.  There is no tail when w1 = 1
    (a certain outage) or c = 0 (r_th = 0).
    """
    k, delta = p.k, p.delta
    available = mode is KnowledgeMode.AVAILABLE
    g = delta if available else 1.0
    lam_d, lam_e = p.lambda_d, p.lambda_e
    beta = p.rho * p.sigma_d / p.sigma_e
    scale = lam_d * beta + lam_e
    above = lam_e / scale  # 1 - w_beta
    c = lam_d * lam_e * p.sigma_d * (p.rho - 1.0) / scale
    gap = c / _Z_CUT  # w1 - w_beta
    power, tail, err = 1.0, 0.0, 0.0
    if gap < above:
        drop = g * (above - gap)  # 1 - (1 - g + g w1)
        if drop < 0.5:  # log1p keeps the digits of a B near 1
            power = math.exp(k * math.log1p(-drop))
        else:  # and w1 = w_beta + gap those of a small B
            power = (1.0 - g + g * (lam_d * beta / scale + gap)) ** k
    if 0.0 < gap < above:

        def integrand(tau: float) -> float:
            # d = w - w_beta is exactly gap at tau = 0, where the head ends
            d = gap * math.exp(tau)
            z = c / d
            return (1.0 - g * (above - d)) ** (k - 1) * (-math.expm1(-z) - z * math.exp(-z)) * d

        tail, err = _quad(
            integrand, 0.0, math.log(above / gap), epsabs=1e-13, epsrel=1e-10, limit=200
        )
    head = power if available else 1.0 - delta + delta * power
    return head + k * delta * tail, k * delta * err
