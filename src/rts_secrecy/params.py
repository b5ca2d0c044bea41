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

MAX_TRANSMITTERS = 64  # the largest K every route is tested at; larger K is rejected
MAX_R_TH = 1024.0  # from here on the outage threshold 2**r_th overflows
DB_DOMAIN = "finite, with 10^(x/10) and its reciprocal both positive and finite"


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
    """Map a dB quantity to linear scale, 10^(x/10); inf where that overflows."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        return math.inf


def has_linear_value(x_db: float) -> bool:
    """Whether 10^(x/10) and its reciprocal are both positive and finite.

    Means in dB become rates 1/mean, so both directions must be representable.
    """
    linear = db_to_linear(x_db)
    return 0.0 < linear < math.inf and 1.0 / linear < math.inf


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
        if not 0.0 <= self.r_th < MAX_R_TH:
            raise ValueError(f"r_th must be in [0, {MAX_R_TH:g}), got {self.r_th}")

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
        sigma_*_db the noise powers in dB; each must pass `has_linear_value`.
        """
        named = {"snr_db": snr_db, "lambda_e_db": lambda_e_db,
                 "sigma_d_db": sigma_d_db, "sigma_e_db": sigma_e_db}
        for name, x_db in named.items():
            if not has_linear_value(x_db):
                raise ValueError(f"{name} must be {DB_DOMAIN}, got {x_db}")
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


def secrecy_rate(g_d: float, g_e: float, sigma_d: float, sigma_e: float) -> float:
    """log2((1 + a)/(1 + b)) where a = g_d/sigma_d > b = g_e/sigma_e, else 0, without rounding 1 + a or 1 + b."""
    if g_d < 0.0 or g_e < 0.0:
        raise ValueError("channel gains must be non-negative")
    if sigma_d <= 0.0 or sigma_e <= 0.0:
        raise ValueError("noise powers must be positive")
    a, b = g_d / sigma_d, g_e / sigma_e
    return math.log1p((a - b) / (1.0 + b)) / math.log(2.0) if a > b else 0.0
