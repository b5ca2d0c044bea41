"""Quadrature referees for the oracle tests.

Two routes the oracle took before it became exact, each reaching its
numbers by a different path, so the tests compare them:

* `nzr` and `sop`: one nested 2-D integral of the region per live-gate
  count q, weighted by the binomial law of q, with the two guards the
  collapsed 2-D oracle later added (see `region_integral`);
* `sop_1d`: the sum over q folded into one weight, a closed-form head and
  one 1-D quadrature tail.

Every function returns (value, error estimate), and a nested estimate
includes the largest inner quadrature error.  Each `quad` call reads
quadpack's `ier`: a quadrature that did not converge raises instead of
returning a number with a loose error estimate.
"""
from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from typing import Callable

from scipy import integrate

from rts_secrecy.distributions import single_ratio_cdf
from rts_secrecy.params import KnowledgeMode, SystemParams
from rts_secrecy.specfun import binomial

_T_FLOOR = 1e-11  # the outer quadrature's epsabs, and its smallest breakpoint
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
    """Integral of f_D(x) f_E(y) F1(x/y)^m over {x < x_bound(y)}.

    The inner x-interval stops at lambda_d x = 50 (dropped mass below
    e^-50), so that at low SNR its nodes cannot miss f_D's peak next to 0.
    It breaks at x = lambda_e y / lambda_d, where F1(x/y) = 1/2: for small y
    F1^m rises from 0 over a layer that thin next to x = 0.
    The outer loop runs over t = exp(-lambda_e y) with breakpoints at
    lambda_e y = lambda_d x_bound(0) 2^j, j = -3..5: at high SNR the region
    has a thin layer next to t = 1 that the quadrature can step over unseen.
    Breakpoints t <= _T_FLOOR are dropped.  The piece [0, t] adds at most t,
    because the inner integral is a probability, while at low SNR those
    points crowd next to 0 (down to t = 7e-307 at -10 dB and r_th = 3),
    and quadpack then reported extremely bad integrand behaviour.
    """
    lam_d, lam_e = p.lambda_d, p.lambda_e
    inner_err = 0.0

    def inner(y: float) -> float:
        nonlocal inner_err
        hi = min(x_bound(y), 50.0 / lam_d)
        if hi <= 0.0:
            return 0.0
        half = lam_e * y / lam_d
        val, err = _quad(
            lambda x: lam_d * math.exp(-lam_d * x) * single_ratio_cdf(x / y, lam_d, lam_e) ** m,
            0.0, hi, epsabs=1e-12, epsrel=1e-10, limit=200, points=[half] if 0.0 < half < hi else None,
        )
        inner_err = max(inner_err, err)
        return val

    layer = lam_d * x_bound(0.0)
    points = sorted(t for t in {math.exp(-layer * 2.0**j) for j in range(-3, 6)} if _T_FLOOR < t < 1.0)
    val, err = _quad(
        lambda t: inner(-math.log(t) / lam_e), 0.0, 1.0, epsabs=_T_FLOOR, epsrel=1e-10, limit=200,
        points=points or None,
    )
    return val, err + inner_err


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
    c = p.ratio_threshold
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
