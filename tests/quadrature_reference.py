"""Nested-quadrature reference for the oracle tests.

This is the route the oracle took before NZR became exact and the SOP sum
over live gates collapsed into one integral: one 2-D integral of the
region per live-gate count q, weighted by the binomial law of q, with the
two guards the collapsed 2-D oracle later added (see `region_integral`).
It reaches the oracle's numbers by a different path, so the tests compare
the two.  Every function returns (value, error estimate), and the
estimate includes the largest inner quadrature error.
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


def region_integral(
    p: SystemParams, m: int, x_bound: Callable[[float], float]
) -> tuple[float, float]:
    """Integral of f_D(x) f_E(y) F1(x/y)^m over {x < x_bound(y)}.

    The inner x-interval stops at lambda_d x = 50 (dropped mass below
    e^-50), so that at low SNR its nodes cannot miss f_D's peak next to 0.
    The outer loop runs over t = exp(-lambda_e y) with breakpoints at
    lambda_e y = lambda_d x_bound(0) 2^j, j = -3..5: at high SNR the region
    has a thin layer next to t = 1 that the quadrature can step over unseen.
    """
    lam_d, lam_e = p.lambda_d, p.lambda_e
    inner_err = 0.0

    def inner(y: float) -> float:
        nonlocal inner_err
        hi = min(x_bound(y), 50.0 / lam_d)
        if hi <= 0.0:
            return 0.0
        val, err = integrate.quad(
            lambda x: lam_d * math.exp(-lam_d * x) * single_ratio_cdf(x / y, lam_d, lam_e) ** m,
            0.0, hi, epsabs=1e-12, epsrel=1e-10, limit=200,
        )
        inner_err = max(inner_err, err)
        return val

    layer = lam_d * x_bound(0.0)
    points = sorted(t for t in {math.exp(-layer * 2.0**j) for j in range(-3, 6)} if 0.0 < t < 1.0)
    val, err = integrate.quad(
        lambda t: inner(-math.log(t) / lam_e), 0.0, 1.0, epsabs=1e-11, epsrel=1e-10, limit=200,
        points=points or None,
    )
    return val, err + inner_err


@lru_cache(maxsize=None)
def outage_region(p: SystemParams, m: int) -> tuple[float, float]:
    """`region_integral` over the outage region, cached.

    `sop` passes k = 1 and delta = 1, on which the region does not depend,
    so one evaluation serves every (k, delta) of a channel point.
    """
    return region_integral(p, m, p.outage_gain_bound)


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
