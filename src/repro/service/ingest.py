"""Backfill: import existing loose observability files into the repository.

``repro db ingest PATH...`` walks files and directories and routes every
recognised artifact through the tolerant readers in
:mod:`repro.service.records`:

* run records (``RunResult.to_record()``),
* QoS scenario reports and campaign documents,
* campaign summaries (``--out``),
* golden ``GPUStats`` snapshots under ``tests/golden``,
* telemetry directories (``metrics.jsonl`` + ``trace.json``), whose
  kernel spans / stall attribution / IPC series are extracted into the
  stored views so the dashboard renders them with no loose files left.

Ingest is idempotent: re-running over the same tree inserts nothing new
(content-keyed UNIQUE rows).
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional

from .records import (
    DOC_CAMPAIGN_SUMMARY,
    DOC_QOS_CAMPAIGN,
    DOC_QOS_REPORT,
    DOC_RUN_RECORD,
    DOC_STATS,
    classify_document,
)
from .repository import RunRepository

#: Telemetry directory marker (``repro simulate --telemetry DIR``).
METRICS_FILE = "metrics.jsonl"

Progress = Optional[Callable[[str], None]]


def _say(progress: Progress, msg: str) -> None:
    if progress is not None:
        progress(msg)


def ingest_stats_snapshot(repo: RunRepository, path: str, doc: dict) -> int:
    """Import one golden ``GPUStats.to_dict()`` snapshot.

    Goldens predate config fingerprints; the filename stem doubles as the
    label (``sponza_hologram_nano_mps`` → policy ``mps``).
    """
    stem = os.path.splitext(os.path.basename(path))[0]
    policy = stem.rsplit("_", 1)[-1] if "_" in stem else None
    instructions = sum(s.get("instructions", 0)
                      for s in doc.get("streams", {}).values())
    record = {
        "label": stem,
        "policy": policy,
        "cycles": doc.get("cycles"),
        "instructions": instructions,
        "stats": doc,
    }
    repo.add_record(record, source="golden")
    return 1


def ingest_qos_campaign(repo: RunRepository, path: str, doc: dict) -> int:
    """Import each scored row of a QoS campaign document."""
    n = 0
    for row in doc.get("rows", []):
        if row.get("status") != "ok":
            continue
        report = dict(row)
        report.setdefault("kind", "qos-report")
        report.setdefault("seed", doc.get("seed"))
        report.setdefault("scenario", {"name": row.get("scenario", "?")})
        if not isinstance(report["scenario"], dict):
            report["scenario"] = {"name": report["scenario"]}
        repo.add_qos(report, source=os.path.basename(path))
        n += 1
    return n


def ingest_campaign_summary(repo: RunRepository, path: str, doc: dict) -> int:
    """Import a campaign ``--out`` summary: full stats rows where present,
    bookkeeping-only rows otherwise."""
    from ..campaign.job import Job

    created = doc.get("generated_unix")
    n = 0
    for entry in doc.get("jobs", []):
        stats = entry.get("stats")
        fp = entry.get("fingerprint", "")
        if stats:
            job = None
            if isinstance(entry.get("spec"), dict):
                try:
                    job = Job.from_dict(entry["spec"])
                except (ValueError, TypeError):
                    job = None
            record = {
                "label": entry.get("label", ""),
                "policy": job.policy if job else None,
                "config_fingerprint": (
                    job.resolved_config().fingerprint() if job else None),
                "config_name": (job.resolved_config().name if job else None),
                "job_fingerprint": fp,
                "cycles": stats.get("cycles"),
                "instructions": sum(
                    s.get("instructions", 0)
                    for s in stats.get("streams", {}).values()),
                "wall_seconds": entry.get("wall_seconds") or None,
                "stats": stats,
                "extras": entry.get("extras") or None,
            }
            repo.add_record(record, source="campaign",
                            created_unix=created)
        else:
            repo.add_campaign_entry(fp, entry, created_unix=created)
        n += 1
    return n


def ingest_telemetry_dir(repo: RunRepository, directory: str) -> int:
    """Import one telemetry directory as a run with rendered views.

    The kernel timeline, stall attribution and IPC series are extracted
    (via the same loader ``repro telemetry`` renders with) and stored in
    the database, so the dashboard needs no loose files afterwards; the
    original artifact paths are kept alongside for provenance.
    """
    from ..harness.report import load_telemetry_views

    views = load_telemetry_views(directory)
    header = views.get("header") or {}
    final = views.get("final") or {}
    artifacts = {}
    for name in (METRICS_FILE, "trace.json", "heartbeats.jsonl"):
        path = os.path.join(directory, name)
        if os.path.exists(path):
            artifacts[name] = os.path.abspath(path)
    record = {
        "label": header.get("label") or os.path.basename(
            os.path.abspath(directory)),
        "config_fingerprint": header.get("config_fingerprint"),
        "config_name": header.get("config"),
        "policy": header.get("policy"),
        "cycles": final.get("cycles"),
        "instructions": final.get("total_instructions"),
        "stats": {"summary": final.get("summary", {})},
        "views": views,
        "artifacts": artifacts,
    }
    repo.add_record(record, source="telemetry",
                    created_unix=header.get("unix_time"))
    return 1


def ingest_file(repo: RunRepository, path: str,
                progress: Progress = None) -> int:
    """Classify and import one JSON file; returns records ingested."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return 0
    shape = classify_document(doc)
    if shape is None:
        return 0
    if shape == DOC_QOS_REPORT:
        n = repo.add_qos(doc, source=os.path.basename(path)) and 1
    elif shape == DOC_QOS_CAMPAIGN:
        n = ingest_qos_campaign(repo, path, doc)
    elif shape == DOC_CAMPAIGN_SUMMARY:
        n = ingest_campaign_summary(repo, path, doc)
    elif shape == DOC_STATS:
        n = ingest_stats_snapshot(repo, path, doc)
    elif shape == DOC_RUN_RECORD:
        n = repo.add_record(doc, source="record") and 1
    else:  # pragma: no cover - classify_document is exhaustive
        return 0
    _say(progress, "%-18s %-40s %d record(s)"
         % (shape, os.path.basename(path)[:40], n))
    return n


def backfill(repo: RunRepository, paths: List[str],
             progress: Progress = None) -> Dict[str, int]:
    """Walk ``paths`` (files or directories) and import everything
    recognised.  Returns ``{"files": scanned, "records": ingested}``."""
    files = 0
    records = 0
    for root in paths:
        if os.path.isfile(root):
            files += 1
            records += ingest_file(repo, root, progress)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames
                           if d not in ("__pycache__", ".git")]
            if METRICS_FILE in filenames:
                files += 1
                records += ingest_telemetry_dir(repo, dirpath)
                _say(progress, "%-18s %-40s 1 record(s)"
                     % ("telemetry", os.path.basename(dirpath)[:40]))
                # JSON files inside a telemetry dir (trace.json) are part
                # of the run, not standalone documents.
                continue
            for name in sorted(filenames):
                if not name.endswith(".json"):
                    continue
                files += 1
                records += ingest_file(
                    repo, os.path.join(dirpath, name), progress)
    return {"files": files, "records": records}
