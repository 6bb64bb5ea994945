"""The benchmark's workloads, each driven through public entry points.

Every workload runs under the default ``ExecutionPlan`` (the serial
engine) and never names the plan, so it runs unchanged whether or not
the sharded engine exists.  An *operation* is one closed-loop
repetition: the benchmark starts the next only after the previous one
has ended.  ``op`` returns the operation's checked outputs:

* ``key``: which pinned entry of ``expected.json`` the outputs must
  match;
* ``digests``: sha256 of each simulated output;
* ``counters``: deterministic work counters;
* ``instructions``, ``jobs`` and ``failed``: simulated warp
  instructions, jobs attempted, and the jobs the program itself
  reported as failed;
* ``execution``: the engine that ran, which must be ``"serial"``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
from typing import Dict, List

from layers import Tracer, stats_counters, warps_of

#: Scenario seeds of ``qos-bursty`` pinned in ``expected.json``.
QOS_SEEDS = 16
SIZES = ("full", "tiny")


def sha256_json(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Frame4k:
    """One 4k SPH frame with 8-map PBR texturing plus VIO under TAP."""

    name = "frame-4k"
    jobs_per_op = 1

    def __init__(self, size: str, scratch: str) -> None:
        from repro.api import RunRequest, WorkloadSpec, simulate
        self._simulate = simulate
        self._request = RunRequest(
            config="JetsonOrin-mini",
            workload=WorkloadSpec(scene="SPH",
                                  res="4k" if size == "full" else "nano",
                                  compute="VIO"),
            policy="tap")

    def op(self, seed: int, index: int, tracer: Tracer) -> dict:
        result = self._simulate(self._request)
        # RunResult.execution is the sharded engine's report; without that
        # engine there is no report and the run was serial.
        sharded = getattr(getattr(result, "execution", None), "engaged", False)
        return {
            "key": "frame",
            "digests": {"stats": sha256_json(result.stats.to_dict())},
            "counters": dict(tracer.counts),
            "instructions": result.stats.total_instructions,
            "jobs": 1,
            "failed": [],
            "execution": "sharded" if sharded else "serial",
        }

    def cleanup(self) -> None:
        pass


class QosBursty:
    """Three open-loop tenants (bursty render, VIO, NN), adaptive policy."""

    name = "qos-bursty"
    jobs_per_op = 1

    def __init__(self, size: str, scratch: str) -> None:
        from repro.qos.runner import canonical_report, run_scenario
        from repro.qos.scenario import build_open_loop, get_scenario
        self._run = run_scenario
        self._canonical = canonical_report
        self._requests = None if size == "full" else 2
        # Scene and compute templates are cached per process and every
        # request clones them, so tracing and lowering happen once, here.
        _, streams, _, _, _ = build_open_loop(
            get_scenario("bursty"), 0, requests=self._requests)
        for warp in warps_of(streams):
            warp.issue_stream()

    def op(self, seed: int, index: int, tracer: Tracer) -> dict:
        scenario_seed = (seed + index) % QOS_SEEDS
        report = self._run("bursty", scenario_seed, policy="adaptive",
                           requests=self._requests)
        canonical = json.loads(self._canonical(report))
        # Which engine ran is provenance, not output: the digest must not
        # change if the sharded engine (and this report key) goes away.
        fallback = canonical.pop("parallel_fallback", "serial")
        clients = canonical["clients"].values()
        counters = dict(tracer.counts)
        counters["qos.requests"] = sum(c["requests"] for c in clients)
        counters["qos.interventions"] = \
            canonical["controller"]["interventions"]
        return {
            "key": "seed-%d" % scenario_seed,
            "digests": {"report": sha256_json(canonical)},
            "counters": counters,
            "instructions": sum(c["instructions"] for c in clients),
            "jobs": 1,
            "failed": [],
            "execution": "serial" if fallback else "sharded",
        }

    def cleanup(self) -> None:
        pass


class PolicySweep:
    """Every partition policy on SPL+VIO @ nano, as one cold campaign.

    The campaign runs its jobs in the benchmark process (``workers=1``):
    a process pool as wide as a small shared box times the box's other
    tenants more than the campaign path, and its runs spread past any
    usable bound.
    """

    name = "policy-sweep"
    #: Seconds one job may take before it counts as failed.  In-process
    #: jobs arm their own interval timer, which replaces the benchmark's
    #: per-operation one, so this also bounds the operation.
    JOB_TIMEOUT_S = 10.0

    def __init__(self, size: str, scratch: str) -> None:
        from repro.campaign import CampaignRunner, Job, ResultCache
        from repro.core.platform import POLICY_NAMES
        from repro.service import RunRepository
        self._runner_cls = CampaignRunner
        self._job_cls = Job
        self._cache_cls = ResultCache
        self._repo_cls = RunRepository
        self.policies = POLICY_NAMES if size == "full" else ("mps", "tap")
        self.jobs_per_op = len(self.policies)
        self._scratch = scratch
        self._dirs: List[str] = []

    def op(self, seed: int, index: int, tracer: Tracer) -> dict:
        # The seed sets the order the jobs run in, which changes what is
        # warm in the process but not what any of them computes.
        order = list(self.policies)
        random.Random("%d/%d" % (seed, index)).shuffle(order)
        jobs = [self._job_cls(scene="SPL", compute="VIO", res="nano",
                              policy=policy) for policy in order]
        tmp = os.path.join(self._scratch, "sweep-%d" % index)
        self._dirs.append(tmp)
        runner = self._runner_cls(
            workers=1,
            cache=self._cache_cls(os.path.join(tmp, "cache")),
            repository=self._repo_cls(os.path.join(tmp, "runs.db")),
            timeout=self.JOB_TIMEOUT_S)
        tracer.watch_campaign(runner)
        campaign = runner.run(jobs)
        digests: Dict[str, str] = {}
        counters: Dict[str, int] = {}
        failed = []
        for job, result in zip(campaign.jobs, campaign.results):
            if not result.ok:
                failed.append("%s: %s" % (job.policy, result.status))
                continue
            digests[job.policy] = sha256_json(result.stats)
            for name, value in stats_counters(result.stats).items():
                counters[name] = counters.get(name, 0) + value
        counters["campaign.jobs_executed"] = campaign.executed
        counters["campaign.jobs_failed"] = campaign.failed
        plans = {getattr(job.execution, "workers", 1) for job in jobs}
        return {
            "key": "sweep",
            "digests": digests,
            "counters": counters,
            "instructions": counters.get("timing.instructions", 0),
            "jobs": len(jobs),
            "failed": failed,
            "execution": "serial" if plans == {1} else "sharded",
            "job_p50_s": statistics.median(
                r.wall_seconds for r in campaign.results),
        }

    def cleanup(self) -> None:
        """Remove the op's cache and database (called outside the timing)."""
        while self._dirs:
            shutil.rmtree(self._dirs.pop(), ignore_errors=True)


WORKLOADS = {w.name: w for w in (Frame4k, QosBursty, PolicySweep)}
