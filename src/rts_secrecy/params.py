"""System model: parameter set, operating modes, and the per-link secrecy rate.

Scenario: K transmitters forward a message to one destination while one
eavesdropper listens.  Every transmitter needs its backhaul feed to be up
(independent on/off gates, each on with probability delta) before it can
send anything.  Channel power gains are exponentially distributed on both
the destination and eavesdropper side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

MAX_TRANSMITTERS = 64  # exact-integer binomial budget; larger K is rejected


class KnowledgeMode(Enum):
    """Whether the selector knows which backhaul gates are up.

    AVAILABLE: selection runs over the transmitters whose gate is up.
    UNAVAILABLE: selection runs over all K; a dead gate is discovered
    only after selection and yields zero rate for the slot.
    """

    AVAILABLE = "available"
    UNAVAILABLE = "unavailable"


class Scheme(Enum):
    """Transmitter-selection rules."""

    RTS = "rts"          # largest destination/eavesdropper gain ratio
    TTS = "tts"          # largest destination gain, eavesdropper-blind
    MIN_ES = "min-es"    # smallest eavesdropper gain, destination-blind
    OPTIMAL = "optimal"  # largest instantaneous secrecy rate (genie bound)


class Metric(Enum):
    NZR = "nzr"  # probability of a strictly positive secrecy rate
    SOP = "sop"  # probability the secrecy rate falls below the threshold


def db_to_linear(x_db: float) -> float:
    """Map a dB quantity to linear scale, 10^(x/10)."""
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class SystemParams:
    """Static description of one operating point.

    lambda_d / lambda_e are the exponential rate parameters of the
    destination- and eavesdropper-side channel power gains (mean gain is
    the reciprocal), delta the probability a backhaul gate is up, sigma_d
    and sigma_e the receiver noise powers, and r_th the secrecy-rate
    threshold in bits/s/Hz used by the outage metric.
    """

    k: int
    delta: float
    lambda_d: float
    lambda_e: float
    sigma_d: float
    sigma_e: float
    r_th: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise ValueError("k must be an integer")
        if not 1 <= self.k <= MAX_TRANSMITTERS:
            raise ValueError(f"k must be in [1, {MAX_TRANSMITTERS}], got {self.k}")
        if not 0.0 <= self.delta <= 1.0 or math.isnan(self.delta):
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")
        for name in ("lambda_d", "lambda_e", "sigma_d", "sigma_e"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {val}")
        if not (math.isfinite(self.r_th) and self.r_th >= 0.0):
            raise ValueError(f"r_th must be finite and >= 0, got {self.r_th}")

    @classmethod
    def from_db(
        cls,
        k: int,
        delta: float,
        snr_db: float,
        lambda_e_db: float = 8.0,
        sigma_d_db: float = 1.0,
        sigma_e_db: float = 10.0,
        r_th: float = 1.0,
    ) -> "SystemParams":
        """Build from the dB conventions used throughout the CLI.

        snr_db and lambda_e_db give the mean channel gains 1/lambda in dB,
        sigma_*_db the noise powers in dB.
        """
        return cls(
            k=k,
            delta=delta,
            lambda_d=1.0 / db_to_linear(snr_db),
            lambda_e=1.0 / db_to_linear(lambda_e_db),
            sigma_d=db_to_linear(sigma_d_db),
            sigma_e=db_to_linear(sigma_e_db),
            r_th=r_th,
        )

    @property
    def rho(self) -> float:
        """Outage SNR-ratio threshold 2**r_th."""
        return 2.0 ** self.r_th

    @property
    def ratio_threshold(self) -> float:
        """Gain ratio g_d/g_e below which the secrecy rate is zero."""
        return self.sigma_d / self.sigma_e

    def outage_gain_bound(self, g_e: float) -> float:
        """Destination gain below which the link is in secrecy outage.

        The outage region C_s < r_th is g_d < (rho*g_e + sigma_e*(rho-1))
        * sigma_d / sigma_e for a given eavesdropper gain g_e.
        """
        return (self.rho * g_e + self.sigma_e * (self.rho - 1.0)) * self.sigma_d / self.sigma_e


def secrecy_rate(g_d: float, g_e: float, sigma_d: float, sigma_e: float) -> float:
    """Instantaneous secrecy rate, log2 ratio of the two SNR terms, floored at 0."""
    if g_d < 0.0 or g_e < 0.0:
        raise ValueError("channel gains must be non-negative")
    if sigma_d <= 0.0 or sigma_e <= 0.0:
        raise ValueError("noise powers must be positive")
    rate = math.log2((1.0 + g_d / sigma_d) / (1.0 + g_e / sigma_e))
    return rate if rate > 0.0 else 0.0
