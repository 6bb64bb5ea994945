"""Shared helpers for the benchmark suite.

The files here are speed harnesses: they time the simulator (sim-rate,
telemetry overhead, cache replay, campaign throughput), print what they
measure and write their records.  They make no claim about the paper;
every claim, the ablations, counter-baselines and extensions included, is
a ``RUNNERS`` row of ``repro.harness.reproduce``, run by ``make
reproduce``.
"""

from __future__ import annotations

import json
import os
import time


HERE = os.path.dirname(os.path.abspath(__file__))
#: Where benchmark runs write their records (gitignored).  The tracked
#: ``BENCH_*.json`` files beside this module hold earlier measurements and
#: change only by a deliberate commit.
OUT_DIR = os.path.join(HERE, "out")


def write_record(name: str, doc: dict) -> str:
    """Write ``out/BENCH_<name>.json``; returns its path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "BENCH_%s.json" % name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return path


def write_bench_json(name: str, payload: dict) -> str:
    """Record a benchmark's measurements as ``out/BENCH_<name>.json``."""
    return write_record(name, dict(payload, recorded_unix=time.time()))


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)

