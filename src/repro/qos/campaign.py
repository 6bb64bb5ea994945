"""Baseline QoS campaign: adaptive controller vs every static policy.

Runs the scenario suite under the adaptive controller and the static
partition policies (MPS, MiG, TAP, Warped-Slicer) at one seed, and
reduces each run to a comparison row: per-client p95 and p99 frame time
and SLO verdicts (p95 frame time within budget).  The headline the ROADMAP's serving framing needs falls out of
the table: scenarios where the adaptive controller meets an SLO that
*every* static policy misses.

Warped-Slicer models exactly two streams; on scenarios with more clients
it is scored ``n/a`` rather than silently skipped, so the table is honest
about coverage.
"""

from __future__ import annotations

import json
import os
from typing import Callable, List, Optional, Sequence

from .runner import qos_policy_names, run_scenario
from .scenario import scenario_names

__all__ = ["QOS_CAMPAIGN_SCHEMA", "adaptive_wins", "run_campaign",
           "write_campaign"]

QOS_CAMPAIGN_SCHEMA = 1


def _row(scenario: str, policy: str, report: dict) -> dict:
    clients = {}
    met_all = True
    worst_rate = 0.0
    for name, c in sorted(report["clients"].items()):
        slo = c["slo"]
        clients[name] = {
            "p99_frame_ms": c["frame_time_ms"]["p99"],
            "p99_frame_cycles": c["frame_time_cycles"]["p99"],
            "p95_frame_cycles": c["frame_time_cycles"]["p95"],
            "budget_ms": slo["budget_ms"],
            "budget_cycles": slo["budget_cycles"],
            "violations": slo["violations"],
            "violation_rate": slo["violation_rate"],
            "met": slo["met"],
        }
        if slo["budget_cycles"] is not None:
            met_all = met_all and slo["met"]
            worst_rate = max(worst_rate, slo["violation_rate"])
    return {
        "scenario": scenario,
        "policy": policy,
        "status": "ok",
        "clients": clients,
        "slo_met_all": met_all,
        "worst_violation_rate": worst_rate,
        "total_cycles": report["total_cycles"],
        "interventions": (report["controller"]["interventions"]
                          if report.get("controller") else 0),
    }


def run_campaign(scenarios: Optional[Sequence[str]] = None,
                 policies: Optional[Sequence[str]] = None,
                 seed: int = 7,
                 requests: Optional[int] = None,
                 progress: Optional[Callable[[str], None]] = None) -> dict:
    """Score every (scenario, policy) pair; returns the campaign document."""
    scenarios = list(scenarios) if scenarios else scenario_names()
    policies = list(policies) if policies else list(qos_policy_names())
    rows: List[dict] = []
    for scenario in scenarios:
        for policy in policies:
            try:
                report = run_scenario(scenario, seed, policy=policy,
                                      requests=requests)
            except ValueError as exc:
                # Warped-Slicer's two-stream model: score n/a, keep going.
                rows.append({"scenario": scenario, "policy": policy,
                             "status": "n/a", "reason": str(exc),
                             "clients": {}, "slo_met_all": False,
                             "worst_violation_rate": 0.0,
                             "total_cycles": 0, "interventions": 0})
                if progress:
                    progress("%s/%s: n/a (%s)" % (scenario, policy, exc))
                continue
            row = _row(scenario, policy, report)
            rows.append(row)
            if progress:
                progress("%s/%s: %s (worst violation rate %.1f%%)"
                         % (scenario, policy,
                            "SLOs met" if row["slo_met_all"] else "SLO MISS",
                            100 * row["worst_violation_rate"]))

    doc = {
        "schema": QOS_CAMPAIGN_SCHEMA,
        "kind": "qos-campaign",
        "seed": seed,
        "scenarios": scenarios,
        "policies": policies,
        "requests_override": requests,
        "rows": rows,
        "headline": {"adaptive_wins": adaptive_wins(rows, scenarios,
                                                    policies)},
    }
    return json.loads(json.dumps(doc, sort_keys=True))


def adaptive_wins(rows: List[dict], scenarios: Sequence[str],
                  policies: Sequence[str]) -> List[dict]:
    """The campaign headline: scenario/client pairs where adaptive meets
    the SLO and every runnable static policy misses it."""
    by_key = {(r["scenario"], r["policy"]): r for r in rows}
    wins: List[dict] = []
    statics = [p for p in policies if p != "adaptive"]
    for scenario in scenarios:
        adaptive = by_key.get((scenario, "adaptive"))
        if not adaptive or adaptive["status"] != "ok":
            continue
        for client, verdict in sorted(adaptive["clients"].items()):
            if verdict["budget_ms"] is None or not verdict["met"]:
                continue
            runnable = [by_key[(scenario, p)] for p in statics
                        if by_key.get((scenario, p), {}).get("status") == "ok"]
            if runnable and all(
                    not r["clients"][client]["met"] for r in runnable):
                # The verdict's own terms: p95 frame cycles vs budget.
                wins.append({
                    "scenario": scenario,
                    "client": client,
                    "adaptive_p95_cycles": verdict["p95_frame_cycles"],
                    "budget_cycles": verdict["budget_cycles"],
                    "static_p95_cycles": {
                        r["policy"]: r["clients"][client]["p95_frame_cycles"]
                        for r in runnable},
                })
    return wins


def write_campaign(doc: dict, path: str) -> str:
    out_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return path
