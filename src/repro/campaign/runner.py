"""The campaign runner: fan out, cache, retry, resume.

Execution model:

* Every job gets a content fingerprint; cache hits short-circuit without
  simulating (this is also what makes a killed campaign resumable — finished
  work is already on disk).
* Misses are grouped by :meth:`Job.trace_key`, so jobs that simulate the
  same streams (a policy or config sweep of one workload) trace once, and
  run either in-process (``workers=1``) or across a
  ``ProcessPoolExecutor``.  Results are indexed by the job's position in
  the submitted list, never by completion order, so a parallel campaign's
  output is identical to the serial one job-for-job.
* A job that crashes (including a died worker process) is retried once by
  default; per-job timeouts are enforced inside the worker itself.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..telemetry.runlog import RunLog
from ..timing import GPUStats
from .cache import ResultCache
from .execute import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    JobResult,
    run_group_guarded,
)
from .job import Job
from .manifest import CampaignManifest
from .progress import ProgressReporter


@dataclass
class CampaignResult:
    """All results of one campaign, aligned with the submitted job list."""

    campaign_id: str
    jobs: List[Job]
    results: List[JobResult]
    wall_seconds: float = 0.0
    manifest_path: Optional[str] = None
    _counts: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Duplicate specs share one JobResult; count each unique job once.
        seen = set()
        for r in self.results:
            if r.fingerprint in seen:
                continue
            seen.add(r.fingerprint)
            self._counts[r.status] = self._counts.get(r.status, 0) + 1

    @property
    def executed(self) -> int:
        """Unique jobs simulated to completion in this invocation."""
        return self._counts.get(STATUS_OK, 0)

    @property
    def cached(self) -> int:
        """Unique jobs served from the on-disk result cache."""
        return self._counts.get(STATUS_CACHED, 0)

    @property
    def failed(self) -> int:
        return sum(n for status, n in self._counts.items()
                   if status not in (STATUS_OK, STATUS_CACHED))

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def failures(self) -> List[JobResult]:
        return [r for r in self.results if not r.ok]

    def stats_for(self, index: int) -> GPUStats:
        """Reconstructed :class:`GPUStats` of one job."""
        result = self.results[index]
        if not result.stats:
            raise ValueError("job %d (%s) has no stats: %s"
                             % (index, result.label, result.status))
        return GPUStats.from_dict(result.stats)

    def to_dict(self) -> dict:
        """Machine-readable campaign summary (see docs/ARCHITECTURE.md)."""
        return {
            "campaign_id": self.campaign_id,
            "generated_unix": time.time(),
            "totals": {
                "jobs": len(self.jobs),
                "executed": self.executed,
                "cached": self.cached,
                "failed": self.failed,
                "wall_seconds": self.wall_seconds,
            },
            "jobs": [
                dict(r.to_dict(), spec=j.to_dict())
                for j, r in zip(self.jobs, self.results)
            ],
        }

    def write_summary(self, path: str) -> None:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=1)


#: Heartbeat log name inside a campaign telemetry directory.
HEARTBEAT_FILE = "heartbeats.jsonl"


class CampaignRunner:
    """Runs job lists; construct once, reuse across campaigns."""

    def __init__(self, workers: int = 1,
                 cache: Optional[ResultCache] = None,
                 cache_dir: Optional[str] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 progress: bool = False,
                 telemetry_dir: Optional[str] = None,
                 repository=None,
                 heartbeat_sink=None) -> None:
        if cache is None and cache_dir is not None:
            cache = ResultCache(cache_dir)
        self.workers = max(1, int(workers))
        self.cache = cache
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.progress = progress
        self.telemetry_dir = telemetry_dir
        self.heartbeat_path = (os.path.join(telemetry_dir, HEARTBEAT_FILE)
                               if telemetry_dir else None)
        #: Optional :class:`~repro.service.repository.RunRepository`; every
        #: finished-ok job (cache hits included — ingest is content-keyed,
        #: so re-runs dedupe) is stored as it completes.
        self.repository = repository
        #: Optional callable receiving every heartbeat record as emitted
        #: (the job queue forwards these to ``/events`` subscribers).
        self.heartbeat_sink = heartbeat_sink
        self._hb: Optional[RunLog] = None

    def _heartbeat(self, kind: str, **fields) -> None:
        if self._hb is not None:
            self._hb.emit(kind, unix_time=time.time(), **fields)

    # -- execution ------------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> CampaignResult:
        jobs = list(jobs)
        started = time.perf_counter()
        fingerprints = [job.fingerprint() for job in jobs]
        labels = [job.display_label for job in jobs]
        manifest = CampaignManifest.open(
            fingerprints, labels,
            self.cache.manifests_dir if self.cache is not None else None)
        reporter = ProgressReporter(len(jobs), enabled=self.progress)
        if self.heartbeat_path is not None or self.heartbeat_sink is not None:
            if self.telemetry_dir is not None:
                os.makedirs(self.telemetry_dir, exist_ok=True)
            self._hb = RunLog(self.heartbeat_path,
                              live=self.heartbeat_path is not None,
                              sink=self.heartbeat_sink)
            self._heartbeat("campaign_start",
                            campaign_id=manifest.campaign_id,
                            jobs=len(jobs), workers=self.workers,
                            labels=labels)

        results: List[Optional[JobResult]] = [None] * len(jobs)

        # 1. Serve cache hits (includes everything a previous, possibly
        #    killed, invocation of the same campaign already finished).
        pending: List[Tuple[int, Job, str]] = []
        claimed: Dict[str, int] = {}
        for i, (job, fp) in enumerate(zip(jobs, fingerprints)):
            cached = self.cache.get(fp) if self.cache is not None else None
            if cached is not None:
                cached.label = labels[i]
                results[i] = cached
                self._finish(manifest, reporter, job, fp, cached)
            elif fp in claimed:
                pass  # duplicate spec: simulate once, share the result
            else:
                claimed[fp] = i
                pending.append((i, job, fp))

        # 2. Simulate misses, retrying crashes/timeouts once by default.
        #    Each result is persisted and reported the moment it completes
        #    (not at wave end), so a killed campaign loses at most the
        #    jobs that were still in flight.
        wave = pending
        for attempt in range(1, self.retries + 2):
            if not wave:
                break

            def on_complete(job: Job, fp: str, result: JobResult,
                            attempt: int = attempt) -> None:
                result.attempts = attempt
                if result.ok and self.cache is not None:
                    self.cache.put(job, result)
                if result.ok or attempt > self.retries:
                    self._finish(manifest, reporter, job, fp, result)

            outcomes = self._execute_wave(wave, on_complete)
            retry: List[Tuple[int, Job, str]] = []
            for (i, job, fp), result in zip(wave, outcomes):
                if not result.ok and attempt <= self.retries:
                    retry.append((i, job, fp))
                    continue
                results[i] = result
            wave = retry

        # 3. Fill duplicate specs from their first occurrence.
        for i, fp in enumerate(fingerprints):
            if results[i] is None:
                results[i] = results[claimed[fp]]

        manifest.save()
        reporter.close()
        campaign = CampaignResult(
            campaign_id=manifest.campaign_id,
            jobs=jobs,
            results=[r for r in results if r is not None],
            wall_seconds=time.perf_counter() - started,
            manifest_path=manifest.path,
        )
        if self._hb is not None:
            self._heartbeat("campaign_end",
                            campaign_id=manifest.campaign_id,
                            executed=campaign.executed,
                            cached=campaign.cached,
                            failed=campaign.failed,
                            wall_seconds=campaign.wall_seconds)
            self._hb.close()
            self._hb = None
        return campaign

    def _finish(self, manifest: CampaignManifest,
                reporter: ProgressReporter, job: Job, fingerprint: str,
                result: JobResult) -> None:
        manifest.update(fingerprint, result.status,
                        wall_seconds=result.wall_seconds,
                        error=result.error)
        manifest.save()
        if self.repository is not None:
            # No-op for failed/statless results; content-keyed, so cache
            # hits map onto the already-stored row.
            self.repository.ingest_job_result(job, result)
        self._heartbeat("job_done", fingerprint=fingerprint,
                        label=result.label, status=result.status,
                        wall_seconds=result.wall_seconds,
                        attempts=result.attempts)
        reporter.job_done(result)

    def _chunks(self, wave: Sequence[Tuple[int, Job, str]]
                ) -> List[List[int]]:
        """Positions in ``wave`` grouped by trace key, in first-occurrence
        order.  A group is split only when it holds more than
        ``ceil(len(wave) / workers)`` jobs (one worker's share), so a
        sweep of a single workload still spreads across the pool."""
        groups: Dict[str, List[int]] = {}
        for pos, (_, job, _) in enumerate(wave):
            groups.setdefault(job.trace_key(), []).append(pos)
        cap = -(-len(wave) // self.workers)
        return [group[at:at + cap] for group in groups.values()
                for at in range(0, len(group), cap)]

    def _execute_wave(self, wave: Sequence[Tuple[int, Job, str]],
                      on_complete) -> List[JobResult]:
        chunks = self._chunks(wave)
        results: List[Optional[JobResult]] = [None] * len(wave)
        if self.workers <= 1 or len(chunks) <= 1:
            for chunk in chunks:
                # Rebinding ``outcomes`` drops the previous chunk's
                # streams before this chunk starts tracing.
                outcomes = run_group_guarded(
                    [wave[pos][1] for pos in chunk], self.timeout)
                for pos in chunk:
                    _, job, fp = wave[pos]
                    self._heartbeat("job_start", fingerprint=fp,
                                    label=job.display_label)
                    results[pos] = next(outcomes)
                    on_complete(job, fp, results[pos])
            return [r for r in results if r is not None]
        with ProcessPoolExecutor(
                max_workers=min(self.workers, len(chunks))) as pool:
            futures = {}
            for chunk in chunks:
                for pos in chunk:
                    _, job, fp = wave[pos]
                    self._heartbeat("job_start", fingerprint=fp,
                                    label=job.display_label)
                futures[pool.submit(_run_chunk,
                                    [wave[pos][1] for pos in chunk],
                                    self.timeout)] = chunk
            for future in as_completed(futures):
                chunk = futures[future]
                try:
                    outcomes = future.result()
                except BrokenProcessPool:
                    # The worker died outright (OOM kill, segfault): the
                    # guarded wrapper never got to report, so synthesise
                    # the failure here and let the retry wave — which
                    # builds a fresh pool — take another shot.
                    outcomes = [JobResult(
                        fingerprint=wave[pos][2],
                        label=wave[pos][1].display_label,
                        status=STATUS_FAILED,
                        error="worker process died before returning")
                        for pos in chunk]
                for pos, result in zip(chunk, outcomes):
                    _, job, fp = wave[pos]
                    results[pos] = result
                    on_complete(job, fp, result)
        return [r for r in results if r is not None]


def _run_chunk(jobs: Sequence[Job],
              timeout: Optional[float] = None) -> List[JobResult]:
    """Pool task: one chunk's results as a list (a generator does not
    pickle back to the parent)."""
    return list(run_group_guarded(jobs, timeout))


def run_campaign(jobs: Sequence[Job], workers: int = 1,
                 cache_dir: Optional[str] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 progress: bool = False,
                 telemetry_dir: Optional[str] = None,
                 repository=None) -> CampaignResult:
    """One-shot convenience wrapper around :class:`CampaignRunner`."""
    return CampaignRunner(workers=workers, cache_dir=cache_dir,
                          timeout=timeout, retries=retries,
                          progress=progress,
                          telemetry_dir=telemetry_dir,
                          repository=repository).run(jobs)
