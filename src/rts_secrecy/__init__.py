"""Secrecy metrics for ratio-selected transmitters behind unreliable backhaul."""
from __future__ import annotations

from .analytics import (
    DOCUMENTED_SERIES_DEVIATIONS,
    MetricValue,
    SopSeriesVariant,
    ValidationRow,
    asymptote,
    closed_form,
    documented_series_deviation,
    nzr_closed_form,
    nzr_oracle,
    oracle,
    sop_closed_form,
    sop_oracle,
    validate_point,
    write_validation_report,
)
from .distributions import MaxRatioLaw, single_ratio_cdf
from .params import (
    KnowledgeMode,
    Metric,
    Scheme,
    SystemParams,
    db_to_linear,
    secrecy_rate,
)
from .simulator import (
    ChannelRealization,
    MetricEstimate,
    SelectionOutcome,
    outage_indicators,
    sample_realization,
    select,
    simulate_grid,
    simulate_point,
    trial_outcomes,
    trial_stride,
    uniform_block,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization",
    "DOCUMENTED_SERIES_DEVIATIONS",
    "KnowledgeMode",
    "MaxRatioLaw",
    "Metric",
    "MetricEstimate",
    "MetricValue",
    "Scheme",
    "SelectionOutcome",
    "SopSeriesVariant",
    "SystemParams",
    "ValidationRow",
    "asymptote",
    "closed_form",
    "db_to_linear",
    "documented_series_deviation",
    "nzr_closed_form",
    "nzr_oracle",
    "oracle",
    "outage_indicators",
    "sample_realization",
    "secrecy_rate",
    "select",
    "simulate_grid",
    "simulate_point",
    "single_ratio_cdf",
    "sop_closed_form",
    "sop_oracle",
    "trial_outcomes",
    "trial_stride",
    "uniform_block",
    "validate_point",
    "write_validation_report",
]
