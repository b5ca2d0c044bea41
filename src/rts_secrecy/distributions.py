"""The gain-ratio laws: one destination/eavesdropper pair and the largest of k.

A backhaul gate that is down contributes a point mass at zero; that atom
is carried explicitly (weight + continuous part) rather than as a numeric
spike, so CDFs stay exact and integrable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


def single_ratio_cdf(x: float, lam_d: float, lam_e: float) -> float:
    """CDF of g_d/g_e for independent exponentials: lam_d x / (lam_d x + lam_e)."""
    if x < 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    return lam_d * x / (lam_d * x + lam_e)


@dataclass(frozen=True)
class MaxRatioLaw:
    """Law of the largest gain ratio among k_links independent pairs.

    gate_p < 1 gates each ratio (a gated-off pair contributes ratio 0),
    which is the competitor law when gate states are known; gate_p = 1 is
    the ungated law used when they are not.  k_links = 0 is the degenerate
    empty-competition case: all mass at zero, CDF identically 1.
    """

    k_links: int
    lam_d: float
    lam_e: float
    gate_p: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.k_links, int) or self.k_links < 0:
            raise ValueError(f"k_links must be a non-negative integer, got {self.k_links}")
        for name in ("lam_d", "lam_e"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {val}")
        if not 0.0 <= self.gate_p <= 1.0:
            raise ValueError(f"gate_p must lie in [0, 1], got {self.gate_p}")

    @property
    def atom(self) -> float:
        """Mass at exactly zero: every pair gated off (or no pairs at all)."""
        return (1.0 - self.gate_p) ** self.k_links

    def cdf(self, x: float) -> float:
        """Product form ((1-p) + p * F1(x))^k, numerically stable for any k."""
        if x < 0.0:
            return 0.0
        if self.k_links == 0:
            return 1.0
        f1 = single_ratio_cdf(x, self.lam_d, self.lam_e)
        return ((1.0 - self.gate_p) + self.gate_p * f1) ** self.k_links

    def cdf_expanded(self, x: float) -> float:
        """Alternating binomial expansion of the same CDF.

        1 - sum_{j>=1} C(k,j) (-1)^(j+1) p^j t^j with t = lam_e/(lam_d x + lam_e).
        Kept as an independent route for cross-checking the product form;
        large k loses digits to cancellation, so the product form is the
        one used for actual evaluation.
        """
        if x < 0.0:
            return 0.0
        if self.k_links == 0:
            return 1.0
        t = self.lam_e / (self.lam_d * x + self.lam_e) if not math.isinf(x) else 0.0
        acc = 1.0
        for j in range(1, self.k_links + 1):
            acc -= math.comb(self.k_links, j) * (-1.0) ** (j + 1) * (self.gate_p * t) ** j
        return acc

    def pdf(self, x: float) -> float:
        """Density of the continuous part: exact derivative of cdf().

        k p lam_d lam_e / (lam_d x + lam_e)^2 * ((1-p) + p F1(x))^(k-1).
        The atom at zero (if gate_p < 1) is reported via `atom`, not here.
        """
        if x < 0.0 or self.k_links == 0:
            return 0.0
        denom = self.lam_d * x + self.lam_e
        f1 = single_ratio_cdf(x, self.lam_d, self.lam_e)
        base = (1.0 - self.gate_p) + self.gate_p * f1
        return (
            self.k_links
            * self.gate_p
            * self.lam_d
            * self.lam_e
            / (denom * denom)
            * base ** (self.k_links - 1)
        )
