"""Shared helpers for the benchmark suite.

Benchmarks run their experiment once (through pytest-benchmark, so wall
time is recorded), print the rows/series they measure and assert *shape*
claims (who wins, direction of effects), not absolute numbers, since the
substrate is a simulator, not the authors' testbed (see EXPERIMENTS.md).
The paper's own table/figure claims are the ``RUNNERS`` rows of
``repro.harness.reproduce``, run by ``make reproduce``.
"""

from __future__ import annotations

import json
import os
import time


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


HERE = os.path.dirname(os.path.abspath(__file__))
#: Where benchmark runs write their records (gitignored).  The tracked
#: ``BENCH_*.json`` files beside this module hold the baselines and the
#: recorded trajectory; they change only by a deliberate commit.
OUT_DIR = os.path.join(HERE, "out")


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def tracked_bench_json(name: str) -> dict:
    """The tracked ``BENCH_<name>.json`` (baselines are read from here)."""
    return _load(os.path.join(HERE, "BENCH_%s.json" % name))


def write_record(name: str, doc: dict) -> str:
    """Write ``out/BENCH_<name>.json``; returns its path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "BENCH_%s.json" % name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return path


def append_run(name: str, record: dict) -> str:
    """Append one run to ``out/BENCH_<name>.json``, which starts as a copy
    of the tracked document, so it reads like it (``repro db ingest``)."""
    path = os.path.join(OUT_DIR, "BENCH_%s.json" % name)
    doc = _load(path) if os.path.exists(path) else tracked_bench_json(name)
    doc.setdefault("runs", []).append(record)
    return write_record(name, doc)


def write_bench_json(name: str, payload: dict) -> str:
    """Record a benchmark's measurements as ``out/BENCH_<name>.json``."""
    return write_record(name, dict(payload, recorded_unix=time.time()))


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)

