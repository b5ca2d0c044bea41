"""Secrecy metrics for ratio-selected transmitters behind unreliable backhaul."""
from __future__ import annotations

from .analytics import asymptote, closed_form, oracle
from .params import KnowledgeMode, Metric, Scheme, SystemParams
from .simulator import simulate_grid, simulate_point

__version__ = "0.1.0"

__all__ = [
    "KnowledgeMode",
    "Metric",
    "Scheme",
    "SystemParams",
    "asymptote",
    "closed_form",
    "oracle",
    "simulate_grid",
    "simulate_point",
]
