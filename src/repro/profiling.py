"""Simulator self-profiling: sim-rate measurement and cProfile reports.

The timing core's throughput (simulated instructions per wall-clock second)
bounds every figure the reproduction can produce, so it is tracked as a
first-class observable.  This module backs the ``repro profile`` CLI
subcommand and ``benchmarks/test_timing_simrate.py``:

* :func:`measure_simrate` times one simulation and returns a
  machine-readable record (instructions/sec, cycles/sec, wall-clock).
* :func:`profile_simulation` runs the same simulation under ``cProfile``
  and returns the top-N cumulative report alongside the sim-rate record.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from typing import Dict, List, Optional, Tuple

from .config import GPUConfig
from .isa import KernelTrace

# The schema-tolerant readers live in repro.service.records (the run
# repository's single migration point); re-exported here because this was
# their historical home and callers/tests import them from repro.profiling.
from .service.records import (  # noqa: F401 - re-exports
    SIMRATE_SCHEMA,
    load_bench_doc,
    normalize_simrate_record,
)


def _run(config: GPUConfig, streams: Dict[int, List[KernelTrace]],
         policy: Optional[str], sample_interval: Optional[int]):
    from .api import simulate
    result = simulate(config=config, streams=streams, policy=policy,
                      sample_interval=sample_interval)
    return result.stats, result.policy


def simrate_record(stats, wall_seconds: float, label: str = "",
                   config: Optional[GPUConfig] = None) -> dict:
    """Build the machine-readable sim-rate record from a finished run."""
    instructions = stats.total_instructions
    cycles = stats.cycles
    return {
        "schema": SIMRATE_SCHEMA,
        "label": label,
        "config_fingerprint": config.fingerprint() if config else None,
        "instructions": instructions,
        "cycles": cycles,
        "wall_seconds": wall_seconds,
        "instructions_per_second": (
            instructions / wall_seconds if wall_seconds else 0.0),
        "cycles_per_second": cycles / wall_seconds if wall_seconds else 0.0,
    }


def _reference_candidates(record: dict, bench_path: str) -> List[dict]:
    """Reference runs matching ``record``'s fingerprint + label.

    ``bench_path`` may be a BENCH_*.json document or a run-repository
    database (``.db`` / ``.sqlite``), in which case the stored sim-rate
    rows are the references — one history for the gate and the dashboard.
    """
    fp = record.get("config_fingerprint")
    label = record.get("label")
    if bench_path.endswith((".db", ".sqlite", ".sqlite3")):
        from .service.repository import RunRepository
        rows = RunRepository(bench_path).list_runs(limit=100000)
        return [r for r in rows
                if r.get("config_fingerprint") == fp
                and r.get("label") == label
                and r.get("instructions_per_second")]
    doc = load_bench_doc(bench_path)
    candidates = [
        r for r in doc["runs"]
        if r.get("config_fingerprint") == fp and r.get("label") == label
        and r.get("instructions_per_second")
    ]
    if not candidates and isinstance(doc["baseline"], dict) \
            and doc["baseline"].get("instructions_per_second"):
        candidates = [doc["baseline"]]
    return candidates


def compare_simrate(record: dict, bench_path: str,
                    max_regression_pct: float) -> Tuple[bool, str]:
    """Gate a fresh sim-rate ``record`` against stored reference runs.

    The reference rate is the fastest ``instructions_per_second`` among the
    stored runs with the same ``config_fingerprint`` and ``label`` as
    ``record`` (apples-to-apples: same preset, same workload).
    ``bench_path`` is either a BENCH_*.json document (where, with no
    matching run, the document ``baseline`` is used) or a run-repository
    sqlite database.  When no reference exists the comparison is vacuously
    OK, so the gate can be enabled before any history has accumulated.

    Returns ``(ok, message)`` where ``ok`` is False when the fresh rate is
    more than ``max_regression_pct`` percent below the reference.
    """
    candidates = _reference_candidates(record, bench_path)
    if not candidates:
        return True, ("no matching reference runs in %s; comparison skipped"
                      % bench_path)
    ref = max(r["instructions_per_second"] for r in candidates)
    rate = record["instructions_per_second"]
    drop_pct = (ref - rate) / ref * 100.0
    msg = ("sim-rate %.0f instr/s vs reference %.0f instr/s "
           "(%+.1f%%, regression threshold %.1f%%)"
           % (rate, ref, -drop_pct, max_regression_pct))
    return drop_pct <= max_regression_pct, msg


def measure_simrate(
    config: GPUConfig,
    streams: Dict[int, List[KernelTrace]],
    policy: Optional[str] = None,
    sample_interval: Optional[int] = None,
    repeats: int = 1,
    label: str = "",
) -> dict:
    """Time the simulation (best wall-clock of ``repeats`` runs).

    Every repeat builds a fresh GPU, so runs are independent; the best of N
    suppresses scheduler/allocator noise on loaded machines.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best_wall = None
    best_stats = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        stats, _ = _run(config, streams, policy, sample_interval)
        wall = time.perf_counter() - t0
        if best_wall is None or wall < best_wall:
            best_wall = wall
            best_stats = stats
    return simrate_record(best_stats, best_wall, label=label, config=config)


def profile_simulation(
    config: GPUConfig,
    streams: Dict[int, List[KernelTrace]],
    policy: Optional[str] = None,
    sample_interval: Optional[int] = None,
    top: int = 20,
    sort: str = "cumulative",
    label: str = "",
) -> Tuple[str, dict]:
    """Run one simulation under cProfile.

    Returns ``(report_text, simrate_record)``: the top-``top`` entries of
    the profile sorted by ``sort``, and the sim-rate record of the profiled
    run (wall-clock includes profiler overhead — use
    :func:`measure_simrate` for clean rates).
    """
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    stats, _ = _run(config, streams, policy, sample_interval)
    profiler.disable()
    wall = time.perf_counter() - t0
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats(sort).print_stats(top)
    record = simrate_record(stats, wall, label=label, config=config)
    record["profiled"] = True
    return buf.getvalue(), record
