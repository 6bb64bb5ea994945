"""Quality-of-Service analysis for concurrent XR workloads.

The paper's closing future-work: "XR workloads have distinct
quality-of-service requirements, which must be considered in the system
design as well."  This module provides that analysis layer on top of
per-stream results: express each workload's deadline (frame budget,
motion-to-photon bound, tracking period), evaluate a concurrent run
against those deadlines, and summarise slack/violations — so partition
policies can be compared on QoS, not just throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..config import GPUConfig
from ..timing.stats import GPUStats

#: Motion-to-photon budget the paper cites for XR comfort (Section V-B):
#: "the required 15-20 ms MTP to prevent user sickness".
MTP_BUDGET_MS = (15.0, 20.0)


@dataclass(frozen=True)
class QoSRequirement:
    """A deadline for one stream.

    ``deadline_ms`` is the wall-clock budget for the stream's whole kernel
    queue (e.g. one rendered frame at 90 Hz -> 11.1 ms; a VIO update at
    30 Hz -> 33.3 ms; an ATW pass must beat the next vsync).
    """

    stream: int
    name: str
    deadline_ms: float

    def __post_init__(self) -> None:
        if self.deadline_ms <= 0:
            raise ValueError("deadline must be positive")


@dataclass
class QoSOutcome:
    """Evaluation of one stream against its requirement."""

    requirement: QoSRequirement
    elapsed_ms: float

    @property
    def met(self) -> bool:
        return self.elapsed_ms <= self.requirement.deadline_ms

    @property
    def slack_ms(self) -> float:
        """Positive = margin remaining; negative = overrun."""
        return self.requirement.deadline_ms - self.elapsed_ms

    @property
    def utilisation(self) -> float:
        """Fraction of the budget consumed."""
        return self.elapsed_ms / self.requirement.deadline_ms


def cycles_to_ms(cycles: int, config: GPUConfig) -> float:
    """Convert core-clock cycles to milliseconds for a machine config."""
    return cycles / (config.core_clock_mhz * 1e3)


def evaluate(stats: GPUStats, config: GPUConfig,
             requirements: Sequence[QoSRequirement]) -> List[QoSOutcome]:
    """Check each stream's busy time against its deadline."""
    if not requirements:
        raise ValueError("no QoS requirements given")
    outcomes = []
    for req in requirements:
        cycles = stats.stream_cycles(req.stream)
        outcomes.append(QoSOutcome(req, cycles_to_ms(cycles, config)))
    return outcomes


def all_met(outcomes: Sequence[QoSOutcome]) -> bool:
    return all(o.met for o in outcomes)


def worst_slack(outcomes: Sequence[QoSOutcome]) -> QoSOutcome:
    if not outcomes:
        raise ValueError("no outcomes")
    return min(outcomes, key=lambda o: o.slack_ms)


def summarize_policies(
    results: Dict[str, GPUStats],
    config: GPUConfig,
    requirements: Sequence[QoSRequirement],
) -> Dict[str, Dict[str, object]]:
    """Compare policies on QoS: per policy, whether every deadline held
    and the tightest stream's slack."""
    out: Dict[str, Dict[str, object]] = {}
    for policy, stats in results.items():
        outcomes = evaluate(stats, config, requirements)
        tightest = worst_slack(outcomes)
        out[policy] = {
            "all_met": all_met(outcomes),
            "worst_stream": tightest.requirement.name,
            "worst_slack_ms": tightest.slack_ms,
            "outcomes": outcomes,
        }
    return out
