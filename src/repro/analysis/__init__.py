"""Metrics and trace analyses backing the paper's figures."""

from .correlation import (
    concordance,
    correlation_percent,
    mape,
    pearson,
)
from .l2comp import (
    composition_fractions,
    graphics_vs_compute,
    mean_fraction,
    summarize,
)
from .qos import (
    MTP_BUDGET_MS,
    QoSOutcome,
    QoSRequirement,
    all_met,
    cycles_to_ms,
    evaluate,
    summarize_policies,
    worst_slack,
)
from .working_set import binned_histogram, histogram, mean, mode

__all__ = [
    "MTP_BUDGET_MS",
    "QoSOutcome",
    "QoSRequirement",
    "all_met",
    "binned_histogram",
    "concordance",
    "cycles_to_ms",
    "evaluate",
    "summarize_policies",
    "worst_slack",
    "composition_fractions",
    "correlation_percent",
    "graphics_vs_compute",
    "histogram",
    "mape",
    "mean",
    "mean_fraction",
    "mode",
    "pearson",
    "summarize",
]
