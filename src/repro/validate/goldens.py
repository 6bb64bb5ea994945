"""Golden-snapshot manager for the reference workload.

The serial engine is pinned by six golden stats snapshots
(``tests/golden/sponza_hologram_nano_<policy>.json`` — the reference
workload under every partition policy).  This module owns their lifecycle:

* ``check(...)``  — recompute and diff against the snapshots on disk (the
  same comparison the tier-1 golden tests make, usable ad hoc).
* ``regen(...)``  — rewrite the snapshots after an *intentional* timing
  change, byte-identical format (sorted keys, indent=1, no trailing
  newline) so diffs stay reviewable.

Exposed as ``repro validate check-goldens`` / ``regen-goldens``, replacing
the ad-hoc regeneration scripts that previously lived outside the repo.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

from ..api import simulate
from ..config import GPUConfig, get_preset
from ..core.platform import POLICY_NAMES, collect_streams

__all__ = ["GOLDEN_POLICIES", "QOS_GOLDEN_SCENARIOS", "default_golden_dir",
           "golden_path", "qos_golden_path", "reference_workload",
           "compute_golden", "compute_qos_golden", "regen", "check"]

GOLDEN_POLICIES = POLICY_NAMES
_BASENAME = "sponza_hologram_nano_%s.json"

#: QoS report snapshots: short adaptive runs of the steady and bursty
#: scenarios, pinning the whole open-loop stack (arrival generation,
#: monitor accounting, controller decisions, report canonicalisation).
QOS_GOLDEN_SCENARIOS = ("steady", "bursty")
QOS_GOLDEN_SEED = 7
#: Requests-per-client override keeping the golden runs tier-1 fast
#: while still spanning several controller epochs.
QOS_GOLDEN_REQUESTS = 6
_QOS_BASENAME = "qos_%s_seed7_adaptive.json"


def default_golden_dir() -> str:
    """``tests/golden`` relative to the repository root (best effort)."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "golden")


def golden_path(policy: str, golden_dir: Optional[str] = None) -> str:
    return os.path.join(golden_dir or default_golden_dir(),
                        _BASENAME % policy)


def qos_golden_path(scenario: str, golden_dir: Optional[str] = None) -> str:
    return os.path.join(golden_dir or default_golden_dir(),
                        _QOS_BASENAME % scenario)


def compute_qos_golden(scenario: str) -> dict:
    """Canonical QoS report tree for one golden scenario (events kept —
    the per-frame rows are deterministic and pin completion ordering)."""
    from ..qos import run_scenario
    report = run_scenario(scenario, QOS_GOLDEN_SEED, policy="adaptive",
                          requests=QOS_GOLDEN_REQUESTS)
    return json.loads(json.dumps(report, sort_keys=True))


def reference_workload(config: Optional[GPUConfig] = None):
    """The pinned workload: sponza + hologram at nano on JetsonOrin-mini."""
    config = config or get_preset("JetsonOrin-mini")
    streams = collect_streams(config, scene="SPL", res="nano",
                              compute="HOLO")
    return config, streams


def compute_golden(policy: str, config: GPUConfig, streams) -> dict:
    """Canonical stats tree for one policy on the reference workload."""
    result = simulate(config=config, streams=streams, policy=policy)
    return json.loads(json.dumps(result.stats.to_dict(), sort_keys=True))


def _dump(tree: dict) -> str:
    # Exactly the historical snapshot format: regenerating an unchanged
    # engine must be a byte-level no-op.
    return json.dumps(tree, indent=1, sort_keys=True)


def regen(golden_dir: Optional[str] = None,
          policies: Sequence[str] = GOLDEN_POLICIES,
          config: Optional[GPUConfig] = None,
          qos_scenarios: Sequence[str] = QOS_GOLDEN_SCENARIOS) -> List[str]:
    """Recompute and write the golden snapshots; returns written paths."""
    config, streams = reference_workload(config)
    golden_dir = golden_dir or default_golden_dir()
    os.makedirs(golden_dir, exist_ok=True)
    written = []
    for policy in policies:
        tree = compute_golden(policy, config, streams)
        path = golden_path(policy, golden_dir)
        with open(path, "w", encoding="utf-8") as f:
            f.write(_dump(tree))
        written.append(path)
    for scenario in qos_scenarios:
        tree = compute_qos_golden(scenario)
        path = qos_golden_path(scenario, golden_dir)
        with open(path, "w", encoding="utf-8") as f:
            f.write(_dump(tree))
        written.append(path)
    return written


def check(golden_dir: Optional[str] = None,
          policies: Sequence[str] = GOLDEN_POLICIES,
          config: Optional[GPUConfig] = None,
          qos_scenarios: Sequence[str] = QOS_GOLDEN_SCENARIOS
          ) -> Dict[str, str]:
    """Diff current engine output against the snapshots.

    Returns ``{name: problem}`` — empty means every snapshot matches
    bit-for-bit.  Keys are policy names for the engine goldens and
    ``"qos:<scenario>"`` for the QoS report goldens; ``problem`` is
    ``"missing snapshot"`` or the locus of the first difference.
    """
    from .differential import first_difference

    config, streams = reference_workload(config)
    problems: Dict[str, str] = {}
    for policy in policies:
        path = golden_path(policy, golden_dir)
        if not os.path.exists(path):
            problems[policy] = "missing snapshot (%s)" % path
            continue
        with open(path, "r", encoding="utf-8") as f:
            want = json.load(f)
        got = compute_golden(policy, config, streams)
        diff = first_difference(want, got)
        if diff:
            problems[policy] = diff
    for scenario in qos_scenarios:
        key = "qos:%s" % scenario
        path = qos_golden_path(scenario, golden_dir)
        if not os.path.exists(path):
            problems[key] = "missing snapshot (%s)" % path
            continue
        with open(path, "r", encoding="utf-8") as f:
            want = json.load(f)
        got = compute_qos_golden(scenario)
        diff = first_difference(want, got)
        if diff:
            problems[key] = diff
    return problems
