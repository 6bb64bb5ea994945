"""repro.validate — the simulator's correctness layer.

Four tools, one goal: every timing-model change is either provably neutral
or deliberately snapshotted.

* :mod:`~repro.validate.invariants` — an :class:`InvariantChecker`
  telemetry recorder asserting conservation laws during a run (instruction
  conservation, cache accounting, stall sums, event-heap monotonicity,
  partition disjointness, scoreboard drain).
* :mod:`~repro.validate.fuzz` — seeded random RunRequests over policy ×
  partition fractions × cache geometry × workload mix.
* :mod:`~repro.validate.differential` — runs each case plain and under
  the invariant checker, asserts the two are bit-identical and violation
  free, and shrinks failures to minimal repros.
* :mod:`~repro.validate.goldens` — regenerates/checks the
  ``tests/golden`` snapshots (``repro validate regen-goldens``).
"""

from .differential import (
    CaseResult,
    FuzzReport,
    check_case,
    first_difference,
    run_fuzz,
    shrink_case,
)
from .fuzz import FuzzCase, build_case, build_cases
from .goldens import check as check_goldens
from .goldens import regen as regen_goldens
from .invariants import InvariantChecker, InvariantViolation, check_run

__all__ = [
    "CaseResult",
    "FuzzCase",
    "FuzzReport",
    "InvariantChecker",
    "InvariantViolation",
    "build_case",
    "build_cases",
    "check_case",
    "check_goldens",
    "check_run",
    "first_difference",
    "regen_goldens",
    "run_fuzz",
    "shrink_case",
]
