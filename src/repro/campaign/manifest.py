"""Campaign manifests: durable per-job status for resume and audit.

A campaign's identity is a hash of its (sorted, deduplicated) job
fingerprints, so re-submitting the same sweep — after a crash, a ctrl-C,
or on another day — maps onto the same manifest.  A resumed campaign
reads job *results* from the cache (the source of truth) and uses the
manifest for bookkeeping: what already ran, what failed and why, how long
everything took.

On disk: a snapshot ``<campaign_id>.json`` and an append-only journal
``<campaign_id>.log`` with one ``[fingerprint, entry]`` line per finished
job.  An append costs no disk flush; the snapshot is rewritten, and the
journal deleted, once at campaign end, and only when an entry changed:
a warm re-run whose every job is a cache hit of a result the manifest
already records writes nothing.  :meth:`CampaignManifest.open` replays a
killed campaign's journal over its snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Dict, Optional, Sequence

from .execute import STATUS_CACHED, STATUS_OK


def campaign_id(fingerprints: Sequence[str]) -> str:
    """Stable identity of a job set (order- and duplicate-insensitive)."""
    h = hashlib.sha256()
    for fp in sorted(set(fingerprints)):
        h.update(fp.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()[:16]


class CampaignManifest:
    """Mutable record of one campaign's per-job status."""

    def __init__(self, cid: str, path: Optional[str] = None) -> None:
        self.campaign_id = cid
        self.path = path
        self.journal = path[:-len(".json")] + ".log" if path else None
        self.created_at = time.time()
        #: fingerprint -> {"label", "status", "wall_seconds", "error"}
        self.jobs: Dict[str, dict] = {}
        #: True once the snapshot on disk no longer holds ``jobs``.
        self._dirty = True

    @classmethod
    def open(cls, fingerprints: Sequence[str], labels: Sequence[str],
             directory: Optional[str]) -> "CampaignManifest":
        """Create or reload the manifest for this job set."""
        cid = campaign_id(fingerprints)
        path = (os.path.join(directory, cid + ".json")
                if directory else None)
        manifest = cls(cid, path)
        if path:
            os.makedirs(directory, exist_ok=True)
            manifest._load()
        for fp, label in zip(fingerprints, labels):
            manifest.jobs.setdefault(fp, {
                "label": label, "status": "pending",
                "wall_seconds": 0.0, "error": None,
            })
        return manifest

    def _load(self) -> None:
        """Read the snapshot, then replay the journal over it."""
        try:
            with open(self.path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            self.created_at = doc.get("created_at", self.created_at)
            self.jobs = doc.get("jobs", {})
            self._dirty = False
        except (OSError, ValueError):
            pass  # a missing or torn snapshot is rebuilt from the journal
        try:
            with open(self.journal, "r+b") as f:
                *lines, torn = f.read().split(b"\n")
                if torn:  # cut off, so the next append starts a new line
                    f.truncate(f.tell() - len(torn))
            self._dirty = True  # save() folds the journal in
            self.jobs.update(json.loads(line) for line in lines)
        except (OSError, ValueError):
            pass  # no journal, or a corrupt line: keep what came before

    def update(self, fingerprint: str, status: str,
               wall_seconds: float = 0.0,
               error: Optional[str] = None) -> None:
        """Record one job's outcome and append it to the journal.

        A cache hit on a job the entry already holds as done changes
        nothing: the cached result is the one the entry describes.
        """
        entry = self.jobs.setdefault(fingerprint, {"label": fingerprint[:12]})
        if status == STATUS_CACHED and entry.get("status") in (
                STATUS_OK, STATUS_CACHED):
            return
        entry.update(status=status, wall_seconds=wall_seconds, error=error)
        self._dirty = True
        if self.journal:
            with open(self.journal, "a", encoding="utf-8") as f:
                f.write(json.dumps([fingerprint, entry]) + "\n")

    def to_dict(self) -> dict:
        return {
            "campaign_id": self.campaign_id,
            "created_at": self.created_at,
            "updated_at": time.time(),
            "jobs": self.jobs,
        }

    def save(self) -> None:
        """Write the snapshot atomically, then delete the journal it now
        holds (no-op when the campaign has no directory or nothing changed
        since the snapshot was loaded)."""
        if not self.path or not self._dirty:
            return
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(self.path),
                                   prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(self.to_dict(), f, indent=1)
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        if os.path.exists(self.journal):
            os.unlink(self.journal)
        self._dirty = False
