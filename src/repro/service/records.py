"""Record layouts the run repository reads: versions, shapes, identity.

Every persisted observability artifact the project has accumulated flows
through here on its way into the run repository: run records, QoS
reports, golden ``GPUStats`` snapshots and campaign summaries.
:func:`classify_document` names a document's shape for
``repro db ingest``; :func:`content_key` gives a record the identity that
makes ingest idempotent.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

#: Version of the repository run-record layout produced by
#: :meth:`repro.api.RunResult.to_record`.
RUN_RECORD_SCHEMA = 1


# -- document classification (repro db ingest) ------------------------------

DOC_QOS_REPORT = "qos-report"    # runner.run_scenario canonical report
DOC_QOS_CAMPAIGN = "qos-campaign"  # qos campaign doc ({"rows": [...]})
DOC_CAMPAIGN_SUMMARY = "campaign-summary"  # CampaignResult.write_summary
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
    if "rows" in doc and "headline" in doc:
        return DOC_QOS_CAMPAIGN
    if "campaign_id" in doc and isinstance(doc.get("jobs"), list):
        return DOC_CAMPAIGN_SUMMARY
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
