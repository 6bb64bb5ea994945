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
from .service.records import SIMRATE_SCHEMA


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
