"""The persistent run repository: sqlite-backed, fingerprint-keyed.

One table, ``runs``, holds every kind of stored observability artifact —
full ``RunResult`` records, bare sim-rate rows, QoS reports, campaign job
outcomes and telemetry-derived views — keyed by
``GPUConfig.fingerprint()`` + workload label.  Component payloads live in
JSON columns so the schema survives record-layout bumps: the tolerant
readers in :mod:`repro.service.records` are the only migration point.

Concurrency: the database runs in WAL mode and every public method opens
a short-lived connection, so the job queue's worker threads, the
dashboard's request threads and a CLI ingest can all touch the same file
safely (single writer at a time, arbitrated by sqlite's busy handler).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Dict, List, Optional

from .records import content_key, normalize_simrate_record

DB_ENV_VAR = "REPRO_DB"

#: Bumped when the table layout changes; old files are migrated in
#: :meth:`RunRepository._init_schema` (so far: created-at-version only).
DB_SCHEMA = 1

_TABLE = """
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    run_key TEXT UNIQUE NOT NULL,
    kind TEXT NOT NULL,
    source TEXT NOT NULL,
    label TEXT NOT NULL DEFAULT '',
    config_fingerprint TEXT,
    config_name TEXT,
    policy TEXT,
    job_fingerprint TEXT,
    created_unix REAL NOT NULL,
    cycles INTEGER,
    instructions INTEGER,
    instructions_per_second REAL,
    wall_seconds REAL,
    stats_json TEXT,
    simrate_json TEXT,
    qos_json TEXT,
    views_json TEXT,
    artifacts_json TEXT,
    extras_json TEXT
);
"""

_INDEXES = (
    "CREATE INDEX IF NOT EXISTS idx_runs_fp ON runs(config_fingerprint)",
    "CREATE INDEX IF NOT EXISTS idx_runs_jobfp ON runs(job_fingerprint)",
    "CREATE INDEX IF NOT EXISTS idx_runs_label ON runs(label)",
)

#: Summary columns returned by list-style queries (JSON payloads excluded).
_SUMMARY_COLS = ("id", "run_key", "kind", "source", "label",
                 "config_fingerprint", "config_name", "policy",
                 "job_fingerprint", "created_unix", "cycles", "instructions",
                 "instructions_per_second", "wall_seconds")

_JSON_COLS = ("stats_json", "simrate_json", "qos_json", "views_json",
              "artifacts_json", "extras_json")


def default_db_path() -> str:
    env = os.environ.get(DB_ENV_VAR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "runs.sqlite")


class RunRepository:
    """Fingerprint-keyed store of completed runs and their observables."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path or default_db_path()
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._init_schema()

    # -- connection management ------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        con = sqlite3.connect(self.path, timeout=30.0)
        con.row_factory = sqlite3.Row
        con.execute("PRAGMA journal_mode=WAL")
        con.execute("PRAGMA synchronous=NORMAL")
        return con

    def _init_schema(self) -> None:
        con = self._connect()
        try:
            with con:
                con.execute(_TABLE)
                for idx in _INDEXES:
                    con.execute(idx)
                con.execute(
                    "CREATE TABLE IF NOT EXISTS meta "
                    "(key TEXT PRIMARY KEY, value TEXT)")
                con.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    ("db_schema", str(DB_SCHEMA)))
        finally:
            con.close()

    # -- writes ---------------------------------------------------------------
    def _insert(self, run_key: str, row: Dict[str, object]) -> int:
        """Insert one row; an existing ``run_key`` returns its id instead
        (idempotent ingest).  Returns the (possibly pre-existing) run id."""
        cols = ["run_key"] + list(row)
        sql = ("INSERT OR IGNORE INTO runs (%s) VALUES (%s)"
               % (", ".join(cols), ", ".join("?" * len(cols))))
        con = self._connect()
        try:
            with con:
                cur = con.execute(sql, [run_key] + list(row.values()))
                if cur.rowcount:
                    return int(cur.lastrowid)
            found = con.execute("SELECT id FROM runs WHERE run_key = ?",
                                (run_key,)).fetchone()
            return int(found["id"])
        finally:
            con.close()

    def add_record(self, record: Dict[str, object], source: str = "api",
                   created_unix: Optional[float] = None) -> int:
        """Store one :meth:`repro.api.RunResult.to_record` document."""
        stats = record.get("stats") or {}
        wall = record.get("wall_seconds")
        instructions = record.get("instructions")
        simrate = record.get("simrate")
        if simrate is not None:
            simrate = normalize_simrate_record(dict(simrate))
        ips = (simrate or {}).get("instructions_per_second")
        if ips is None and wall and instructions:
            ips = instructions / wall
        key = content_key("run", source, record.get("label", ""),
                          record.get("config_fingerprint"), stats,
                          record.get("qos") or {}, record.get("views") or {})
        row = {
            "kind": "run",
            "source": source,
            "label": record.get("label", "") or "",
            "config_fingerprint": record.get("config_fingerprint"),
            "config_name": record.get("config_name"),
            "policy": record.get("policy"),
            "job_fingerprint": record.get("job_fingerprint"),
            "created_unix": created_unix or time.time(),
            "cycles": record.get("cycles"),
            "instructions": instructions,
            "instructions_per_second": ips,
            "wall_seconds": wall,
            "stats_json": json.dumps(stats, sort_keys=True) if stats else None,
            "simrate_json": (json.dumps(simrate, sort_keys=True)
                             if simrate else None),
            "qos_json": (json.dumps(record["qos"], sort_keys=True)
                         if record.get("qos") else None),
            "views_json": (json.dumps(record["views"], sort_keys=True)
                           if record.get("views") else None),
            "artifacts_json": (json.dumps(record["artifacts"], sort_keys=True)
                               if record.get("artifacts") else None),
            "extras_json": (json.dumps(record["extras"], sort_keys=True)
                            if record.get("extras") else None),
        }
        return self._insert(key, row)

    def add_simrate(self, record: Dict[str, object], source: str = "bench",
                    created_unix: Optional[float] = None) -> int:
        """Store one (possibly old-schema) sim-rate record."""
        record = normalize_simrate_record(dict(record))
        key = content_key("simrate", source, record)
        row = {
            "kind": "simrate",
            "source": source,
            "label": record.get("label", "") or "",
            "config_fingerprint": record.get("config_fingerprint"),
            "created_unix": created_unix or time.time(),
            "cycles": record.get("cycles"),
            "instructions": record.get("instructions"),
            "instructions_per_second": record.get("instructions_per_second"),
            "wall_seconds": record.get("wall_seconds"),
            "simrate_json": json.dumps(record, sort_keys=True),
        }
        return self._insert(key, row)

    def add_qos(self, report: Dict[str, object], source: str = "qos",
                created_unix: Optional[float] = None) -> int:
        """Store one QoS scenario report (runner.run_scenario shape)."""
        stripped = {k: v for k, v in report.items() if k != "events"}
        scenario = (stripped.get("scenario") or {}).get("name", "?")
        label = "qos %s policy=%s seed=%s" % (
            scenario, stripped.get("policy"), stripped.get("seed"))
        key = content_key("qos", source, stripped)
        row = {
            "kind": "qos",
            "source": source,
            "label": label,
            "config_fingerprint": (stripped.get("config") or {}
                                   ).get("fingerprint"),
            "config_name": (stripped.get("config") or {}).get("name"),
            "policy": stripped.get("policy"),
            "created_unix": created_unix or time.time(),
            "cycles": stripped.get("total_cycles"),
            "qos_json": json.dumps(stripped, sort_keys=True),
        }
        return self._insert(key, row)

    def add_campaign_entry(self, job_fingerprint: str,
                           entry: Dict[str, object],
                           source: str = "manifest",
                           created_unix: Optional[float] = None) -> int:
        """Store one campaign manifest/summary job entry (no stats)."""
        key = content_key("campaign", source, job_fingerprint, entry)
        row = {
            "kind": "campaign",
            "source": source,
            "label": str(entry.get("label", job_fingerprint[:12])),
            "job_fingerprint": job_fingerprint,
            "created_unix": created_unix or time.time(),
            "wall_seconds": entry.get("wall_seconds"),
            "extras_json": json.dumps(entry, sort_keys=True),
        }
        return self._insert(key, row)

    def ingest_job_result(self, job, result) -> Optional[int]:
        """Campaign sink: store one finished
        :class:`~repro.campaign.execute.JobResult` as a full run.

        Identity excludes wall-clock, so a re-run campaign whose jobs come
        back from the result cache maps onto the already-stored rows.
        """
        if not result.ok or not result.stats:
            return None
        config = job.resolved_config()
        record = {
            "label": result.label,
            "config_fingerprint": config.fingerprint(),
            "config_name": config.name,
            "policy": job.policy,
            "job_fingerprint": result.fingerprint,
            "cycles": result.stats.get("cycles"),
            "instructions": sum(
                s.get("instructions", 0)
                for s in result.stats.get("streams", {}).values()),
            "wall_seconds": result.wall_seconds or None,
            "stats": result.stats,
            "extras": result.extras or None,
        }
        return self.add_record(record, source="campaign")

    # -- reads ----------------------------------------------------------------
    @staticmethod
    def _summary(row: sqlite3.Row) -> Dict[str, object]:
        return {col: row[col] for col in _SUMMARY_COLS}

    def get(self, run_id: int) -> Optional[Dict[str, object]]:
        """Full detail of one run: summary + parsed JSON payloads."""
        con = self._connect()
        try:
            row = con.execute("SELECT * FROM runs WHERE id = ?",
                              (run_id,)).fetchone()
        finally:
            con.close()
        if row is None:
            return None
        detail = self._summary(row)
        for col in _JSON_COLS:
            name = col[:-5]  # strip _json
            detail[name] = json.loads(row[col]) if row[col] else None
        return detail

    def list_runs(self, kind: Optional[str] = None,
                  fingerprint: Optional[str] = None,
                  label: Optional[str] = None,
                  source: Optional[str] = None,
                  limit: int = 200) -> List[Dict[str, object]]:
        """Newest-first run summaries, optionally filtered."""
        clauses, params = [], []
        for col, val in (("kind", kind), ("config_fingerprint", fingerprint),
                         ("label", label), ("source", source)):
            if val is not None:
                clauses.append("%s = ?" % col)
                params.append(val)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        sql = ("SELECT %s FROM runs%s ORDER BY id DESC LIMIT ?"
               % (", ".join(_SUMMARY_COLS), where))
        params.append(int(limit))
        con = self._connect()
        try:
            rows = con.execute(sql, params).fetchall()
        finally:
            con.close()
        return [self._summary(r) for r in rows]

    def find_job(self, job_fingerprint: str) -> Optional[Dict[str, object]]:
        """Newest stored run for one campaign-job fingerprint (queue dedupe)."""
        con = self._connect()
        try:
            row = con.execute(
                "SELECT %s FROM runs WHERE job_fingerprint = ? AND "
                "stats_json IS NOT NULL ORDER BY id DESC LIMIT 1"
                % ", ".join(_SUMMARY_COLS), (job_fingerprint,)).fetchone()
        finally:
            con.close()
        return self._summary(row) if row else None

    def compare(self, fingerprint: Optional[str] = None,
                label: Optional[str] = None,
                limit: int = 1000) -> List[Dict[str, object]]:
        """Sim-rate trend groups across stored runs.

        Returns one group per ``(config_fingerprint, label)`` with the
        runs in insertion order — the dashboard's cross-run trend lines
        read this.
        """
        clauses = ["instructions_per_second IS NOT NULL"]
        params: List[object] = []
        if fingerprint is not None:
            clauses.append("config_fingerprint = ?")
            params.append(fingerprint)
        if label is not None:
            clauses.append("label = ?")
            params.append(label)
        sql = ("SELECT %s FROM runs WHERE %s ORDER BY id ASC LIMIT ?"
               % (", ".join(_SUMMARY_COLS), " AND ".join(clauses)))
        params.append(int(limit))
        con = self._connect()
        try:
            rows = con.execute(sql, params).fetchall()
        finally:
            con.close()
        groups: Dict[tuple, Dict[str, object]] = {}
        for row in rows:
            gkey = (row["config_fingerprint"], row["label"])
            group = groups.get(gkey)
            if group is None:
                group = groups[gkey] = {
                    "config_fingerprint": row["config_fingerprint"],
                    "label": row["label"],
                    "runs": [],
                }
            group["runs"].append({
                "id": row["id"],
                "created_unix": row["created_unix"],
                "instructions_per_second": row["instructions_per_second"],
                "cycles": row["cycles"],
                "wall_seconds": row["wall_seconds"],
                "kind": row["kind"],
                "source": row["source"],
            })
        out = sorted(groups.values(),
                     key=lambda g: -len(g["runs"]))
        for group in out:
            rates = [r["instructions_per_second"] for r in group["runs"]]
            group["best_instructions_per_second"] = max(rates)
            group["latest_instructions_per_second"] = rates[-1]
        return out

    def counts(self) -> Dict[str, object]:
        """Totals per kind/source plus distinct fingerprints (stat tiles)."""
        con = self._connect()
        try:
            total = con.execute("SELECT COUNT(*) AS n FROM runs"
                                ).fetchone()["n"]
            by_kind = {r["kind"]: r["n"] for r in con.execute(
                "SELECT kind, COUNT(*) AS n FROM runs GROUP BY kind")}
            by_source = {r["source"]: r["n"] for r in con.execute(
                "SELECT source, COUNT(*) AS n FROM runs GROUP BY source")}
            fps = con.execute(
                "SELECT COUNT(DISTINCT config_fingerprint) AS n FROM runs "
                "WHERE config_fingerprint IS NOT NULL").fetchone()["n"]
        finally:
            con.close()
        return {"runs": total, "by_kind": by_kind, "by_source": by_source,
                "fingerprints": fps, "db_path": self.path}

    # -- maintenance ----------------------------------------------------------
    def gc(self, keep: Optional[int] = None,
           before_unix: Optional[float] = None,
           source: Optional[str] = None) -> int:
        """Delete rows: everything but the newest ``keep``, and/or rows
        older than ``before_unix``, and/or rows from one ``source``.
        Returns the number of rows removed."""
        clauses, params = [], []
        if keep is not None:
            clauses.append(
                "id NOT IN (SELECT id FROM runs ORDER BY id DESC LIMIT ?)")
            params.append(int(keep))
        if before_unix is not None:
            clauses.append("created_unix < ?")
            params.append(float(before_unix))
        if source is not None:
            clauses.append("source = ?")
            params.append(source)
        if not clauses:
            return 0
        con = self._connect()
        try:
            with con:
                cur = con.execute(
                    "DELETE FROM runs WHERE " + " AND ".join(clauses), params)
                removed = cur.rowcount
            con.execute("VACUUM")
        finally:
            con.close()
        return removed
