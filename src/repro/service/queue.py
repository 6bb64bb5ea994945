"""The async job queue: submit → dedupe → simulate → repository.

Submissions are campaign :class:`~repro.campaign.job.Job` specs (plain
dicts accepted), so the queue inherits the campaign layer's content
fingerprints.  Dedupe is two-level:

* a submission whose fingerprint already has a stored run in the
  repository comes back immediately as ``cached`` with that run's id —
  no simulation;
* a submission whose fingerprint is already queued/running attaches to
  the in-flight job instead of enqueuing a duplicate.

Every submission is a campaign: :meth:`JobQueue.submit` is a one-job
:meth:`JobQueue.submit_campaign`.  A queue thread hands the fresh jobs to
:class:`~repro.campaign.runner.CampaignRunner`, which, called off the
main thread, runs them in its worker processes.  So every job is bounded
by :data:`JOB_TIMEOUT_S` (armed inside its worker), a crashed or killed
worker ends its jobs ``failed`` instead of taking the server down, and
the dashboard never waits on a simulation.  The runner's heartbeat RunLog
records are appended to the queue's event log.

Every state transition (``queued`` / ``running`` / ``done`` / ``failed``
/ ``cached``) is appended to a monotonic event log that ``/events``
serves over SSE and :meth:`events` reads in-process.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from .repository import RunRepository

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CACHED = "cached"

#: States a new identical submission may attach to.
_ATTACHABLE = (STATE_QUEUED, STATE_RUNNING)

#: Wall-clock budget of one queue job, enforced inside its worker
#: process.  The runner retries a timed-out job once, so a hung job ends
#: ``failed`` after about twice this.
JOB_TIMEOUT_S = 600.0


@dataclass
class QueueJob:
    """One tracked submission."""

    job_id: int
    fingerprint: str
    label: str
    state: str = STATE_QUEUED
    submitted_unix: float = field(default_factory=time.time)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    #: Repository run id once the result is stored (or was already there).
    run_id: Optional[int] = None
    #: True when the repository served the result without simulating.
    cached: bool = False
    error: Optional[str] = None
    #: Duplicate submissions that attached to this job.
    attached: int = 0

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "label": self.label,
            "state": self.state,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "run_id": self.run_id,
            "cached": self.cached,
            "error": self.error,
            "attached": self.attached,
        }


class JobQueue:
    """Campaign submission service over one :class:`RunRepository`.

    ``workers`` bounds both the campaigns in flight and the worker
    processes one campaign may use.
    """

    def __init__(self, repository: RunRepository, workers: int = 2) -> None:
        self.repository = repository
        self.workers = max(1, int(workers))
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-queue")
        self._lock = threading.Lock()
        self._jobs: Dict[int, QueueJob] = {}
        self._by_fingerprint: Dict[str, int] = {}
        self._events: List[dict] = []
        self._event_cond = threading.Condition(self._lock)
        self._next_id = 1
        self._simulated = 0
        self._closed = False
        #: Runners of the campaigns in flight, for shutdown(wait=False).
        self._runners: List = []

    # -- events ---------------------------------------------------------------
    def _emit(self, kind: str, **fields) -> None:
        """Append one event (caller must hold the lock)."""
        event = {"seq": len(self._events) + 1, "kind": kind,
                 "unix_time": time.time()}
        event.update(fields)
        self._events.append(event)
        self._event_cond.notify_all()

    def heartbeat(self, record: dict) -> None:
        """Append one campaign RunLog heartbeat record to the event log;
        the record's own kind travels as ``beat``."""
        with self._lock:
            self._emit("heartbeat", beat=record["kind"],
                       **{k: v for k, v in record.items()
                          if k not in ("kind", "seq")})

    def events(self, since: int = 0, limit: int = 500) -> List[dict]:
        """Events with ``seq > since`` (the SSE poll and JSON feed)."""
        with self._lock:
            return self._events[since:since + limit]

    def wait_events(self, since: int, timeout: float = 10.0) -> List[dict]:
        """Block until an event newer than ``since`` exists (or timeout)."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while len(self._events) <= since and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._event_cond.wait(remaining)
            return self._events[since:]

    # -- submission -----------------------------------------------------------
    def _enqueue(self, job, fingerprint: str):
        """Dedupe + create one entry (no scheduling).

        Dedupe order: stored run in the repository (→ ``cached``, no
        simulation), then in-flight job with the same fingerprint
        (→ attach).  Returns ``(entry, created)``.
        """
        stored = self.repository.find_job(fingerprint)
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is shut down")
            existing_id = self._by_fingerprint.get(fingerprint)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                if existing.state in _ATTACHABLE:
                    existing.attached += 1
                    self._emit("job_attached", job_id=existing.job_id,
                               fingerprint=fingerprint,
                               label=job.display_label)
                    return existing, False
            entry = QueueJob(job_id=self._next_id, fingerprint=fingerprint,
                             label=job.display_label)
            self._next_id += 1
            self._jobs[entry.job_id] = entry
            self._by_fingerprint[fingerprint] = entry.job_id
            if stored is not None:
                entry.state = STATE_CACHED
                entry.cached = True
                entry.run_id = stored["id"]
                entry.finished_unix = time.time()
                self._emit("job_cached", job_id=entry.job_id,
                           fingerprint=fingerprint, label=entry.label,
                           run_id=entry.run_id)
            else:
                self._emit("job_queued", job_id=entry.job_id,
                           fingerprint=fingerprint, label=entry.label)
            return entry, True

    def submit(self, job: Union[dict, object]) -> QueueJob:
        """Submit one job spec; returns its (possibly pre-existing) entry."""
        return self.submit_campaign([job])[0]

    def submit_campaign(self, jobs: Sequence[Union[dict, object]],
                        workers: int = 1) -> List[QueueJob]:
        """Fan a job list out to the campaign runner (one queue slot).

        Already-stored and in-flight fingerprints are deduped by
        :meth:`_enqueue`; the remainder run as one campaign on up to
        ``workers`` processes (clamped to ``[1, self.workers]``), whose
        heartbeats land in the event log and whose results land in the
        repository.
        """
        from ..campaign.job import Job
        workers = min(max(1, int(workers)), self.workers)
        specs = [Job.from_dict(j) if isinstance(j, dict) else j
                 for j in jobs]
        entries: List[QueueJob] = []
        fresh: List[tuple] = []
        seen: Dict[str, QueueJob] = {}
        for job in specs:
            fingerprint = job.fingerprint()
            if fingerprint in seen:
                entries.append(seen[fingerprint])
                continue
            entry, created = self._enqueue(job, fingerprint)
            seen[fingerprint] = entry
            entries.append(entry)
            if created and entry.state == STATE_QUEUED:
                fresh.append((entry, job))
        if fresh:
            self._pool.submit(self._run_campaign, fresh, workers)
        return entries

    # -- execution ------------------------------------------------------------
    def _mark_finished(self, entry: QueueJob, run_id: Optional[int],
                       error: Optional[str]) -> None:
        with self._lock:
            self._finish_locked(entry, run_id, error)

    def _finish_locked(self, entry: QueueJob, run_id: Optional[int],
                       error: Optional[str]) -> None:
        """Move a queued or running ``entry`` to done/failed (caller must
        hold the lock); an entry already finished is left as it is."""
        if entry.state not in _ATTACHABLE:
            return
        entry.finished_unix = time.time()
        entry.run_id = run_id
        entry.error = error
        entry.state = STATE_DONE if error is None else STATE_FAILED
        self._emit("job_done" if error is None else "job_failed",
                   job_id=entry.job_id, fingerprint=entry.fingerprint,
                   label=entry.label, run_id=run_id, error=error)

    def _run_campaign(self, fresh, workers: int) -> None:
        from ..campaign.runner import CampaignRunner
        by_fp = {entry.fingerprint: entry for entry, _ in fresh}
        runner = CampaignRunner(workers=workers, timeout=JOB_TIMEOUT_S,
                                repository=self.repository,
                                heartbeat_sink=self.heartbeat)
        with self._lock:
            # shutdown(wait=False) fails every unfinished entry; only the
            # entries still queued run (a graceful shutdown runs them all).
            fresh = [(entry, job) for entry, job in fresh
                     if entry.state == STATE_QUEUED]
            if not fresh:
                return
            self._runners.append(runner)
            for entry, _ in fresh:
                entry.state = STATE_RUNNING
                entry.started_unix = time.time()
                self._emit("job_running", job_id=entry.job_id,
                           fingerprint=entry.fingerprint, label=entry.label)
        try:
            campaign = runner.run([job for _, job in fresh])
        except Exception as exc:  # pragma: no cover - runner guards jobs
            for entry, _ in fresh:
                self._mark_finished(entry, None, str(exc))
            return
        finally:
            with self._lock:
                self._runners.remove(runner)
        for result in campaign.results:
            entry = by_fp.get(result.fingerprint)
            if entry is None or entry.state != STATE_RUNNING:
                continue
            if result.ok:
                stored = self.repository.find_job(result.fingerprint)
                with self._lock:
                    self._simulated += 1
                self._mark_finished(
                    entry, stored["id"] if stored else None, None)
            else:
                self._mark_finished(entry, None,
                                    result.error or result.status)

    # -- introspection --------------------------------------------------------
    @property
    def simulated(self) -> int:
        """Jobs actually simulated (cache hits excluded) — the dedupe
        test's witness."""
        with self._lock:
            return self._simulated

    def get(self, job_id: int) -> Optional[QueueJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def snapshot(self) -> dict:
        """Queue state for ``/queue``: jobs newest-first plus totals."""
        with self._lock:
            jobs = [self._jobs[jid].to_dict()
                    for jid in sorted(self._jobs, reverse=True)]
            by_state: Dict[str, int] = {}
            for j in jobs:
                by_state[j["state"]] = by_state.get(j["state"], 0) + 1
            return {"jobs": jobs, "by_state": by_state,
                    "simulated": self._simulated,
                    "workers": self.workers,
                    "events": len(self._events)}

    def join(self, timeout: float = 60.0) -> bool:
        """Wait until no job is queued/running; True when drained."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                busy = any(j.state in _ATTACHABLE
                           for j in self._jobs.values())
            if not busy:
                return True
            time.sleep(0.02)
        return False

    def shutdown(self, wait: bool = True) -> None:
        """Stop taking submissions.  ``wait=True`` lets every queued and
        running job finish first.  ``wait=False`` (what ``repro serve``
        does on Ctrl-C) ends them now: each unfinished job fails with
        "shut down", running campaigns' worker processes are terminated,
        and queued campaigns never start, so the process can exit at
        once instead of waiting out a hung job."""
        with self._lock:
            self._closed = True
            self._event_cond.notify_all()
            runners = list(self._runners)
            if not wait:
                for entry in self._jobs.values():
                    self._finish_locked(entry, None, "shut down")
        if not wait:
            for runner in runners:
                runner.cancel()
        self._pool.shutdown(wait=wait, cancel_futures=not wait)
