"""Job execution: the functions campaign worker processes actually run.

Jobs run in groups that share one trace key: the group's streams are
collected once and every job simulates on them.  Everything in this
module is top-level and operates on plain data, so it pickles cleanly
into a ``ProcessPoolExecutor``.  A worker never raises: failures
(including per-job timeouts, enforced with ``SIGALRM`` inside the worker
process itself) come back as a failed :class:`JobResult`, which keeps
crash handling and retry logic in the parent deterministic.
"""

from __future__ import annotations

import signal
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..api import simulate
from ..core.platform import collect_streams
from ..isa import KernelTrace
from .job import Job

#: Terminal job states.
STATUS_OK = "ok"            # simulated in this run
STATUS_CACHED = "cached"    # served from the result cache, no simulation
STATUS_FAILED = "failed"    # raised (twice, if retries were available)
STATUS_TIMEOUT = "timeout"  # exceeded the per-job wall-clock budget


class JobTimeoutError(Exception):
    """A job exceeded its per-job wall-clock budget."""


@dataclass
class JobResult:
    """Outcome of one job, aligned by index with the campaign's job list."""

    fingerprint: str
    label: str
    status: str
    #: Wall time of this job's attempt.  Jobs that share a trace key run
    #: as one group on shared streams, and the time spent collecting them
    #: is charged to the group's first job alone.
    wall_seconds: float = 0.0
    #: ``GPUStats.to_dict()`` of the run (None on failure).
    stats: Optional[dict] = None
    #: Policy-object state that outlives the run (Warped-Slicer decisions,
    #: TAP's final sets-per-bank ratio, ...), JSON-safe.
    extras: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_CACHED)

    @property
    def total_cycles(self) -> int:
        if not self.stats:
            raise ValueError("job %s has no stats (status %s)"
                             % (self.label, self.status))
        return self.stats["cycles"]

    def stream_cycles(self, stream: int) -> int:
        st = (self.stats or {}).get("streams", {}).get(str(stream))
        if st is None:
            return 0
        if st["first_issue_cycle"] is None:
            return 0
        return max(0, st["last_commit_cycle"] - st["first_issue_cycle"])

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "label": self.label,
            "status": self.status,
            "wall_seconds": self.wall_seconds,
            "stats": self.stats,
            "extras": self.extras,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        return cls(**data)


def _policy_extras(policy) -> Dict[str, object]:
    """JSON-safe dump of post-run policy state worth keeping."""
    extras: Dict[str, object] = {}
    if policy is None:
        return extras
    decisions = getattr(policy, "decisions", None)
    if decisions is not None:
        extras["decisions"] = [list(d) for d in decisions]
    samples = getattr(policy, "samples_taken", None)
    if samples is not None:
        extras["samples_taken"] = samples
    ratio_fn = getattr(policy, "current_ratio", None)
    if callable(ratio_fn):
        ratio = ratio_fn()
        extras["final_ratio"] = (
            {str(s): n for s, n in ratio.items()} if ratio else None)
    return extras


def _collect(job: Job) -> Dict[int, List[KernelTrace]]:
    return collect_streams(
        job.resolved_config(),
        scene=job.scene, res=job.res, lod_enabled=job.lod_enabled,
        compute=job.compute, compute_args=job.compute_args,
        graphics_trace=job.graphics_trace, compute_trace=job.compute_trace,
    )


def _simulate(job: Job, streams: Dict[int, List[KernelTrace]],
              start: float) -> JobResult:
    result = simulate(
        config=job.resolved_config(), streams=streams, policy=job.policy,
        sample_interval=job.sample_interval)
    return JobResult(
        fingerprint=job.fingerprint(),
        label=job.display_label,
        status=STATUS_OK,
        wall_seconds=time.perf_counter() - start,
        stats=result.stats.to_dict(),
        extras=_policy_extras(result.policy),
    )


def run_job(job: Job) -> JobResult:
    """Simulate one job to completion; raises on any failure."""
    start = time.perf_counter()
    return _simulate(job, _collect(job), start)


def _alarm_handler(signum, frame):  # pragma: no cover - fires only on timeout
    raise JobTimeoutError()


def _guarded(job: Job, timeout: Optional[float],
             step: Callable[[float], JobResult]) -> JobResult:
    """Call ``step(start)`` under the job's timer, converting every
    failure into a failed JobResult.

    The timeout is armed *inside* the (worker) process with an interval
    timer, so a wedged simulation cannot outlive its budget no matter how
    the parent schedules futures.
    """
    start = time.perf_counter()
    use_alarm = timeout is not None and hasattr(signal, "SIGALRM")
    old_handler = None
    if use_alarm:
        old_handler = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return step(start)
    except JobTimeoutError:
        return JobResult(
            fingerprint=job.fingerprint(), label=job.display_label,
            status=STATUS_TIMEOUT,
            wall_seconds=time.perf_counter() - start,
            error="timed out after %.3gs" % timeout)
    except Exception:
        return JobResult(
            fingerprint=job.fingerprint(), label=job.display_label,
            status=STATUS_FAILED,
            wall_seconds=time.perf_counter() - start,
            error=traceback.format_exc(limit=8))
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)


def run_group_guarded(jobs: Sequence[Job],
                      timeout: Optional[float] = None
                      ) -> Iterator[JobResult]:
    """Run jobs that share one :meth:`Job.trace_key`, yielding each
    job's result the moment it finishes.  Never raises.

    The streams are collected once, inside the first job's timer, so the
    trace time counts against that job's budget and wall time; every job
    then simulates on the same streams under its own timer.  If tracing
    fails or times out, every job of the group gets that status.
    """
    streams: Optional[Dict[int, List[KernelTrace]]] = None
    failure: Optional[JobResult] = None
    for job in jobs:
        if failure is not None:
            yield replace(failure, fingerprint=job.fingerprint(),
                          label=job.display_label, wall_seconds=0.0)
            continue

        def step(start: float, job: Job = job) -> JobResult:
            nonlocal streams
            if streams is None:
                streams = _collect(job)
            return _simulate(job, streams, start)

        result = _guarded(job, timeout, step)
        if streams is None:
            failure = result
        yield result


def run_job_guarded(job: Job, timeout: Optional[float] = None) -> JobResult:
    """Run one job, converting every failure into a failed JobResult."""
    return next(run_group_guarded([job], timeout))
