"""Self-contained scalar kernels: exact binomials, integer-order incomplete
gamma functions, and the exponential integral on the negative axis.

Everything here is elementary enough to evaluate with finite sums or a
continued fraction; the test suite cross-checks each routine against
quadrature of its defining integral.
"""
from __future__ import annotations

import math

EULER_GAMMA = 0.5772156649015328606

MAX_BINOMIAL_N = 64


def binomial(n: int, k: int) -> int:
    """Exact C(n, k) for 0 <= k <= n <= 64."""
    if not (isinstance(n, int) and isinstance(k, int)):
        raise ValueError("binomial arguments must be integers")
    if n < 0 or n > MAX_BINOMIAL_N:
        raise ValueError(f"binomial order must be in [0, {MAX_BINOMIAL_N}], got n={n}")
    if k < 0 or k > n:
        raise ValueError(f"binomial index out of range: k={k}, n={n}")
    return math.comb(n, k)


def _exp_partial_sum(s: int, x: float) -> float:
    """e^-x * sum_{m=0}^{s-1} x^m / m!, the regularized upper tail for integer s."""
    if x > 745.0:
        # e^-x underflows; every term is zero at double precision
        return 0.0
    term = 1.0
    total = 1.0
    for m in range(1, s):
        term *= x / m
        total += term
    return math.exp(-x) * total


def lower_incomplete_gamma(s: int, x: float) -> float:
    """gamma(s, x) = (s-1)! (1 - e^-x sum_{m<s} x^m/m!) for integer s >= 1, x >= 0."""
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"lower incomplete gamma needs integer s >= 1, got {s}")
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"lower incomplete gamma needs x >= 0, got {x}")
    return math.factorial(s - 1) * (1.0 - _exp_partial_sum(s, x))


def upper_incomplete_gamma(s: int, x: float) -> float:
    """Gamma(s, x) for integer s of either sign.

    s >= 1 uses the complementary finite sum (s-1)! e^-x sum_{m<s} x^m/m!,
    which has no cancellation.  s <= 0 needs x > 0 and walks the recurrence
    Gamma(s, x) = (Gamma(s+1, x) - x^s e^-x) / s downward from Gamma(0, x)
    = E1(x).  Overflow of the power term is reported, not masked.
    """
    if not isinstance(s, int):
        raise ValueError(f"upper incomplete gamma needs integer order, got {s}")
    if s >= 1:
        if not (math.isfinite(x) and x >= 0.0):
            raise ValueError(f"upper incomplete gamma needs x >= 0, got {x}")
        return math.factorial(s - 1) * _exp_partial_sum(s, x)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"upper incomplete gamma with s <= 0 needs x > 0, got {x}")
    val = exp1(x)
    k = 0
    emx = math.exp(-x)
    while k > s:
        k -= 1
        power = x ** k
        if math.isinf(power):
            raise OverflowError(f"x**{k} overflows in Gamma({s}, {x}) recurrence")
        val = (val - power * emx) / k
    return val


def exp1(x: float) -> float:
    """E1(x) for x > 0: power series below 1, `expn`'s continued fraction
    above; the series stops at relative change 1e-14, within 200 terms."""
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"exp1 needs x > 0, got {x}")
    if x <= 1.0:
        # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k k!)
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 201):
            term *= -x / k
            contrib = -term / k
            total += contrib
            if abs(contrib) < 1e-14 * abs(total) + 1e-300:
                return total
        raise ArithmeticError(f"exp1 series did not converge for x={x}")
    return expn(1, x)


def expn(n: int, x: float) -> float:
    """E_n(x) = x^(n-1) Gamma(1-n, x) for integer n >= 1 and x > 1.

    Modified Lentz evaluation of E_n(x) = e^-x / (x + n - 1 n/(x + n + 2 -
    2 (n + 1)/(x + n + 4 - ...))), stopped at relative change 1e-14 within
    200 terms (DLMF 8.9 and 8.19; Press et al., Numerical Recipes, section 6.3).
    """
    tiny = 1e-300
    b = x + n
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 201):
        a = -i * (n - 1 + i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        frac = c * d
        h *= frac
        if abs(frac - 1.0) < 1e-14:
            return h * math.exp(-x)
    raise ArithmeticError(f"E_{n} continued fraction did not converge for x={x}")


def exp_integral_ei(x: float) -> float:
    """Ei(x) on the negative real axis, via Ei(-t) = -E1(t) for t > 0."""
    if not (math.isfinite(x) and x < 0.0):
        raise ValueError(f"exp_integral_ei is defined here for x < 0 only, got {x}")
    return -exp1(-x)
