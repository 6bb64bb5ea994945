"""Simulation-as-a-service: run repository, job queue, dashboard.

The repository and record readers import eagerly (stdlib-only, no
simulator dependencies); the queue and server are exposed lazily because
they pull in the campaign/execution stack.
"""

from .records import (
    RUN_RECORD_SCHEMA,
    classify_document,
    content_key,
)
from .repository import DB_ENV_VAR, RunRepository, default_db_path

__all__ = [
    "RUN_RECORD_SCHEMA",
    "classify_document",
    "content_key",
    "DB_ENV_VAR",
    "RunRepository",
    "default_db_path",
    "backfill",
    "JobQueue",
    "DashboardServer",
    "DASHBOARD_HTML",
]

_LAZY = {
    "backfill": ("repro.service.ingest", "backfill"),
    "JobQueue": ("repro.service.queue", "JobQueue"),
    "DashboardServer": ("repro.service.server", "DashboardServer"),
    "DASHBOARD_HTML": ("repro.service.dashboard", "DASHBOARD_HTML"),
}


def __getattr__(name):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    import importlib
    return getattr(importlib.import_module(target[0]), target[1])
