"""Shared helpers for the benchmark suite.

Benchmarks run their experiment once (through pytest-benchmark, so wall
time is recorded), print the rows/series they measure and assert *shape*
claims (who wins, direction of effects), not absolute numbers, since the
substrate is a simulator, not the authors' testbed (see EXPERIMENTS.md).
The paper's own table/figure claims are ``test_claims.py``.
"""

from __future__ import annotations

import json
import os
import time



def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def write_bench_json(name: str, payload: dict) -> str:
    """Record a benchmark's measurements as ``BENCH_<name>.json`` next to
    the benchmark suite, so successive PRs can track the trajectory."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_%s.json" % name)
    doc = dict(payload, recorded_unix=time.time())
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    return path


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)

