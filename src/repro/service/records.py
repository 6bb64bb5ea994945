"""Schema-tolerant record readers — the repository's single migration point.

Every persisted observability artifact the project has accumulated flows
through here on its way into (or out of) the run repository: schema-1/2
sim-rate records, ``BENCH_*.json`` documents, QoS reports, golden
``GPUStats`` snapshots and campaign manifests.  When a record layout is
bumped, this module is the one place that learns to read the old shape —
``repro profile --out``, ``repro db ingest`` and the dashboard all share
these readers instead of carrying private copies.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

#: Version of the sim-rate record layout.  Schema 2 added ``schema`` itself
#: and ``config_fingerprint`` so BENCH_timing.json rows from different
#: presets are distinguishable; schema-1 rows (no ``schema`` key) are still
#: accepted by :func:`normalize_simrate_record`.
SIMRATE_SCHEMA = 2

#: Version of the repository run-record layout produced by
#: :meth:`repro.api.RunResult.to_record`.
RUN_RECORD_SCHEMA = 1


def normalize_simrate_record(record: dict) -> dict:
    """Upgrade an old (schema-1) record in place to the current layout.

    Pre-schema rows carry neither ``schema`` nor ``config_fingerprint``;
    both are filled with explicit markers so readers can group rows by
    fingerprint without special-casing missing keys.  Schema-1 rows also
    used ``workload`` where schema 2 says ``label``.
    """
    if "schema" not in record:
        record["schema"] = 1
    if "config_fingerprint" not in record:
        record["config_fingerprint"] = None
    if "label" not in record and "workload" in record:
        record["label"] = record["workload"]
    return record


def load_bench_doc(path: str) -> dict:
    """Read a BENCH_*.json document, tolerating old-schema rows and a
    missing/corrupt file (returns an empty document in that case)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return {"baseline": None, "runs": []}
    if not isinstance(doc, dict):
        return {"baseline": None, "runs": []}
    doc.setdefault("baseline", None)
    doc.setdefault("runs", [])
    if isinstance(doc["baseline"], dict):
        normalize_simrate_record(doc["baseline"])
    doc["runs"] = [normalize_simrate_record(r) for r in doc["runs"]
                   if isinstance(r, dict)]
    return doc


# -- document classification (repro db ingest) ------------------------------

DOC_BENCH = "bench"              # {"baseline":..., "runs": [...]}
DOC_QOS_REPORT = "qos-report"    # runner.run_scenario canonical report
DOC_QOS_CAMPAIGN = "qos-campaign"  # qos campaign doc ({"rows": [...]})
DOC_CAMPAIGN_SUMMARY = "campaign-summary"  # CampaignResult.write_summary
DOC_CAMPAIGN_MANIFEST = "campaign-manifest"  # CampaignManifest.save
DOC_STATS = "stats"              # bare GPUStats.to_dict (golden snapshots)
DOC_RUN_RECORD = "run-record"    # RunResult.to_record()


def classify_document(doc: object) -> Optional[str]:
    """Identify which persisted artifact shape ``doc`` is, or None."""
    if not isinstance(doc, dict):
        return None
    if doc.get("kind") == "qos-report":
        return DOC_QOS_REPORT
    if doc.get("kind") == "run" and "stats" in doc:
        return DOC_RUN_RECORD
    if "runs" in doc and isinstance(doc["runs"], list):
        return DOC_BENCH
    if "rows" in doc and "headline" in doc:
        return DOC_QOS_CAMPAIGN
    if "campaign_id" in doc and isinstance(doc.get("jobs"), list):
        return DOC_CAMPAIGN_SUMMARY
    if "campaign_id" in doc and isinstance(doc.get("jobs"), dict):
        return DOC_CAMPAIGN_MANIFEST
    if "cycles" in doc and isinstance(doc.get("streams"), dict):
        return DOC_STATS
    return None


#: Volatile keys excluded from content identity so re-ingesting the same
#: logical run (e.g. a re-run campaign served from cache) stays idempotent.
_VOLATILE_KEYS = ("recorded_unix", "generated_unix", "unix_time",
                  "wall_seconds", "created_at", "updated_at", "attempts")


def content_key(*parts: object) -> str:
    """Stable identity hash of a record's non-volatile content.

    Dict parts are canonicalised (sorted keys, volatile timing keys
    stripped at the top level); the result keys the repository's UNIQUE
    column, which is what makes backfill idempotent.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, dict):
            part = {k: v for k, v in part.items() if k not in _VOLATILE_KEYS}
            payload = json.dumps(part, sort_keys=True, separators=(",", ":"),
                                 default=str)
        else:
            payload = str(part)
        h.update(payload.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()
