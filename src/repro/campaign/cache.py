"""On-disk result cache keyed by job fingerprint.

Layout (shardy, so a big campaign doesn't pile thousands of entries into
one directory)::

    <root>/
      results/<fp[:2]>/<fp>.json    one JSON blob per simulated job

Nothing else is written under the root; a ``manifests/`` directory left
there by older versions is ignored.  A blob stores the canonical job spec
alongside the result so entries are self-describing and auditable.
Writes are atomic (temp file + ``rename``) — a campaign killed mid-write
never leaves a truncated entry behind, which is what makes kill-and-resume
safe: a re-submitted campaign simulates only the jobs missing here.
Failures are not cached; an attached run repository keeps their status
and error.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterator, Optional

from .execute import STATUS_CACHED, JobResult
from .job import Job

#: Environment override for the default cache root.
CACHE_ENV_VAR = "REPRO_CAMPAIGN_CACHE"


def default_cache_dir() -> str:
    return os.path.expanduser(os.environ.get(CACHE_ENV_VAR)
                              or "~/.cache/repro-campaign")


class ResultCache:
    """Fingerprint-addressed store of completed job results."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = os.path.expanduser(root) if root else default_cache_dir()

    @property
    def results_dir(self) -> str:
        return os.path.join(self.root, "results")

    def path_for(self, fingerprint: str) -> str:
        return os.path.join(self.results_dir, fingerprint[:2],
                            fingerprint + ".json")

    def __contains__(self, fingerprint: str) -> bool:
        return os.path.exists(self.path_for(fingerprint))

    def get(self, fingerprint: str) -> Optional[JobResult]:
        """Fetch a cached result, re-labelled ``cached``; None on miss."""
        path = self.path_for(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as f:
                blob = json.load(f)
        except (OSError, ValueError):
            return None
        result = JobResult.from_dict(blob["result"])
        result.status = STATUS_CACHED
        return result

    def put(self, job: Job, result: JobResult) -> str:
        """Store one successful result atomically; returns the entry path."""
        path = self.path_for(result.fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        blob = {"spec": job.spec_dict(), "result": result.to_dict()}
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(blob, f, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def fingerprints(self) -> Iterator[str]:
        """All cached fingerprints (for inspection/GC tooling)."""
        if not os.path.isdir(self.results_dir):
            return
        for shard in sorted(os.listdir(self.results_dir)):
            shard_dir = os.path.join(self.results_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json") and not name.startswith("."):
                    yield name[:-len(".json")]

    def __len__(self) -> int:
        return sum(1 for _ in self.fingerprints())
