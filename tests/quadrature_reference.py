"""Nested-quadrature reference for the oracle tests.

This is the route the oracle took before NZR became exact and the SOP sum
over live gates collapsed into one integral: one 2-D integral of the
region per live-gate count q, weighted by the binomial law of q.  It
reaches the oracle's numbers by a different path, so the tests compare
the two.  Every function returns (value, error estimate), and the
estimate includes the largest inner quadrature error.
"""
from __future__ import annotations

import math
from typing import Callable

from scipy import integrate

from rts_secrecy.distributions import single_ratio_cdf
from rts_secrecy.params import KnowledgeMode, SystemParams
from rts_secrecy.specfun import binomial


def region_integral(
    p: SystemParams, m: int, x_bound: Callable[[float], float]
) -> tuple[float, float]:
    """Integral of f_D(x) f_E(y) F1(x/y)^m over {x < x_bound(y)}."""
    lam_d, lam_e = p.lambda_d, p.lambda_e
    inner_err = 0.0

    def inner(y: float) -> float:
        nonlocal inner_err
        hi = x_bound(y)
        if hi <= 0.0:
            return 0.0
        val, err = integrate.quad(
            lambda x: lam_d * math.exp(-lam_d * x) * single_ratio_cdf(x / y, lam_d, lam_e) ** m,
            0.0, hi, epsabs=1e-12, epsrel=1e-10, limit=200,
        )
        inner_err = max(inner_err, err)
        return val

    val, err = integrate.quad(
        lambda t: inner(-math.log(t) / lam_e), 0.0, 1.0, epsabs=1e-11, epsrel=1e-10, limit=200
    )
    return val, err + inner_err


def selected_event_probability(
    p: SystemParams, mode: KnowledgeMode, x_bound: Callable[[float], float]
) -> tuple[float, float]:
    """P[the ratio-selected link lands in the region], by live-gate count q.

    With gate knowledge q is Binomial(k, delta) and the all-dead atom
    counts as being in the region; without it the competitor count is
    k-1 and a dead selected gate is left to the caller.
    """
    k, delta = p.k, p.delta
    if mode is KnowledgeMode.UNAVAILABLE:
        val, err = region_integral(p, k - 1, x_bound)
        return k * val, k * err
    total = (1.0 - delta) ** k
    err_total = 0.0
    for q in range(1, k + 1):
        weight = binomial(k, q) * delta**q * (1.0 - delta) ** (k - q)
        if weight == 0.0:
            continue
        val, err = region_integral(p, q - 1, x_bound)
        total += weight * q * val
        err_total += weight * q * err
    return total, err_total


def nzr(p: SystemParams, mode: KnowledgeMode) -> tuple[float, float]:
    c = p.ratio_threshold
    p_zero, err = selected_event_probability(p, mode, lambda y: c * y)
    if mode is KnowledgeMode.AVAILABLE:
        return 1.0 - p_zero, err
    return p.delta * (1.0 - p_zero), p.delta * err


def sop(p: SystemParams, mode: KnowledgeMode) -> tuple[float, float]:
    p_region, err = selected_event_probability(p, mode, p.outage_gain_bound)
    if mode is KnowledgeMode.AVAILABLE:
        return p_region, err
    return (1.0 - p.delta) + p.delta * p_region, p.delta * err
