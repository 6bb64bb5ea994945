"""Run one QoS scenario under one policy and build the canonical report.

The report is the QoS subsystem's bit-identity currency: a plain JSON
tree (sorted keys, integers and deterministically-rounded floats only, no
kernel uids or wall-clock values) that must be byte-identical across
reruns of the same ``(scenario, seed, policy)`` — the same contract the
engine goldens and the differential fuzzer enforce for ``GPUStats``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Union

from ..api import RunRequest, simulate
from ..config import GPUConfig
from .controller import AdaptiveQoSPolicy, ControllerPolicy
from .scenario import Scenario, build_open_loop, get_scenario

__all__ = ["QOS_REPORT_SCHEMA", "qos_policy_names", "run_scenario",
           "write_report"]

QOS_REPORT_SCHEMA = 1

#: Policies the QoS runner/campaign can score: the adaptive controller
#: plus every static policy of the paper's evaluation.
_STATIC_POLICIES = ("mps", "mig", "tap", "warped-slicer")


def qos_policy_names():
    return ("adaptive",) + _STATIC_POLICIES


def cycles_to_ms(cycles: int, config: GPUConfig) -> float:
    return cycles / (config.core_clock_mhz * 1e3)


def _ms_tree(cycles_tree: dict, config: GPUConfig) -> dict:
    return {k: round(cycles_to_ms(v, config), 6)
            for k, v in cycles_tree.items() if k != "count"}


def _quota_floors(config: GPUConfig, streams) -> dict:
    """Per-stream largest single-CTA footprint — the quota floor below
    which the stream could never place its next CTA (deadlock)."""
    from ..isa import CTAResources
    floors = {}
    for sid, kernels in streams.items():
        t = r = s = w = 0
        for k in kernels:
            res = k.cta_resources(config.warp_size)
            t = max(t, res.threads)
            r = max(r, res.registers)
            s = max(s, res.shared_mem)
            w = max(w, res.warps)
        floors[sid] = CTAResources(threads=t, registers=r,
                                   shared_mem=s, warps=w)
    return floors


def _build_policy(name: str, config: GPUConfig, streams, monitor,
                  stream_clients, epoch_interval: int,
                  controller: Optional[ControllerPolicy]):
    if name == "adaptive":
        return AdaptiveQoSPolicy.even(
            config.num_sms, sorted(streams), monitor=monitor,
            stream_clients=stream_clients, controller=controller,
            epoch_interval=epoch_interval,
            floors=_quota_floors(config, streams))
    from ..core.platform import make_policy
    return make_policy(name, config, sorted(streams))


def run_scenario(scenario: Union[str, Scenario], seed: int,
                 policy: str = "adaptive",
                 clients: Optional[int] = None,
                 requests: Optional[int] = None,
                 sample_interval: Optional[int] = 2_000,
                 epoch_interval: Optional[int] = None,
                 controller: Optional[ControllerPolicy] = None,
                 ) -> Dict[str, object]:
    """Execute one open-loop scenario run; returns the canonical report.

    The returned dict carries an extra non-canonical ``"events"`` list
    (per-frame JSONL rows) that :func:`write_report` persists separately;
    it is stripped before canonicalisation, so two runs are compared on
    ``json.dumps(report, sort_keys=True)`` minus that key — but the
    events themselves are deterministic too.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if policy not in qos_policy_names():
        raise KeyError("unknown QoS policy %r; known: %s"
                       % (policy, list(qos_policy_names())))
    config, streams, arrivals, monitor, stream_clients = build_open_loop(
        scenario, seed, clients=clients, requests=requests)
    epoch = epoch_interval or scenario.epoch_interval
    policy_obj = _build_policy(policy, config, streams, monitor,
                               stream_clients, epoch, controller)
    result = simulate(RunRequest(
        config=config, streams=streams, policy=policy_obj,
        arrivals=arrivals, telemetry=monitor,
        sample_interval=sample_interval))
    stats = result.stats

    # Mean occupancy share per stream across the sampled trace.
    occupancy: Dict[int, float] = {}
    trace = stats.occupancy_trace
    if trace:
        for sid in streams:
            occupancy[sid] = round(
                sum(s.fraction(sid) for s in trace) / len(trace), 4)

    client_reports: Dict[str, dict] = {}
    for sid in sorted(streams):
        name = stream_clients[sid]
        summary = monitor.client_summary(name)
        sstat = stats.streams.get(sid)
        budget = summary["slo"]["budget_cycles"]
        summary["slo"]["budget_ms"] = (
            round(cycles_to_ms(budget, config), 6)
            if budget is not None else None)
        summary["frame_time_ms"] = _ms_tree(
            summary["frame_time_cycles"], config)
        summary["kernel_turnaround_ms"] = _ms_tree(
            summary["kernel_turnaround_cycles"], config)
        summary["stream"] = sid
        summary["requests"] = summary["frame_time_cycles"]["count"]
        summary["instructions"] = sstat.instructions if sstat else 0
        summary["ipc"] = round(sstat.ipc, 4) if sstat else 0.0
        summary["mean_occupancy"] = occupancy.get(sid, 0.0)
        client_reports[name] = summary

    controller_report = None
    if isinstance(policy_obj, AdaptiveQoSPolicy):
        controller_report = {
            "name": policy_obj.controller.name,
            "epoch_interval": epoch,
            "interventions": len(policy_obj.decision_history),
            "history": [[cycle, decision]
                        for cycle, decision in policy_obj.decision_history],
            "final_compute_shares": {str(s): n for s, n in
                                     sorted(policy_obj.compute_slots.items())},
            "final_l2_shares": {str(s): n for s, n in
                                sorted(policy_obj.l2_shares.items())},
        }

    report = {
        "schema": QOS_REPORT_SCHEMA,
        "kind": "qos-report",
        "scenario": scenario.describe(),
        "seed": seed,
        "policy": policy,
        "overrides": {"clients": clients, "requests": requests,
                      "sample_interval": sample_interval,
                      "epoch_interval": epoch},
        "config": {"name": config.name,
                   "fingerprint": config.fingerprint()},
        "total_cycles": stats.cycles,
        "clients": client_reports,
        "controller": controller_report,
    }
    report = json.loads(json.dumps(report, sort_keys=True))
    report["events"] = list(monitor.events)
    return report


def canonical_report(report: Dict[str, object]) -> str:
    """The byte string two same-seed runs must agree on."""
    stripped = {k: v for k, v in report.items() if k != "events"}
    return json.dumps(stripped, sort_keys=True)


def write_report(report: Dict[str, object], out_dir: str) -> Dict[str, str]:
    """Persist ``report.json`` + per-frame ``events.jsonl`` under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    events = report.get("events", [])
    stripped = {k: v for k, v in report.items() if k != "events"}
    paths = {}
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w", encoding="utf-8") as f:
        json.dump(stripped, f, indent=1, sort_keys=True)
        f.write("\n")
    paths["report"] = report_path
    events_path = os.path.join(out_dir, "events.jsonl")
    with open(events_path, "w", encoding="utf-8") as f:
        for ev in events:
            f.write(json.dumps(ev, sort_keys=True))
            f.write("\n")
    paths["events"] = events_path
    return paths
