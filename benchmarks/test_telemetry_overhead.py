"""Telemetry overhead benchmark: enabled-vs-disabled wall clock.

The telemetry acceptance contract is two-sided: disabled telemetry must be
free (the golden-stats gate proves bit-identity; the sim-rate benchmark
proves speed), and *enabled* telemetry — interval sampling at 1000 cycles
plus span tracing — must cost <= 10% wall clock on the reference workload
(sponza + hologram at nano, mps, JetsonOrin-mini).  The measured overhead
is written to ``out/BENCH_telemetry.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_telemetry_overhead.py -m bench -s
"""

from __future__ import annotations

import time

import pytest

from repro.api import simulate
from repro.config import get_preset
from repro.core.platform import collect_streams
from repro.telemetry import Telemetry

from bench_util import print_header, write_record

#: Acceptance ceiling for enabled-telemetry overhead on the reference run.
MAX_OVERHEAD = 0.10
REPEATS = 3
SAMPLE_INTERVAL = 1000


def _best_of(config, streams, telemetry_factory):
    """Best wall-clock of REPEATS runs; a fresh recorder per run so span
    and sample buffers never accumulate across repeats."""
    best = None
    cycles = 0
    for _ in range(REPEATS):
        tel = telemetry_factory()
        started = time.perf_counter()
        stats = simulate(config=config, streams=streams, policy="mps",
                         telemetry=tel).stats
        wall = time.perf_counter() - started
        best = wall if best is None else min(best, wall)
        cycles = stats.cycles
    return best, cycles


@pytest.mark.bench
def test_telemetry_overhead():
    config = get_preset("JetsonOrin-mini")
    streams = collect_streams(config, scene="SPL", res="nano",
                              compute="HOLO")

    off_wall, off_cycles = _best_of(config, streams, lambda: None)
    on_wall, on_cycles = _best_of(
        config, streams,
        lambda: Telemetry(sample_interval=SAMPLE_INTERVAL))

    overhead = on_wall / off_wall - 1.0
    print_header("telemetry overhead (best of %d)" % REPEATS)
    print("telemetry off: %.3fs wall  (%d cycles)" % (off_wall, off_cycles))
    print("telemetry on:  %.3fs wall  (%d cycles, interval %d + spans)"
          % (on_wall, on_cycles, SAMPLE_INTERVAL))
    print("overhead:      %+.1f%%  (gate: <= %.0f%%)"
          % (100.0 * overhead, 100.0 * MAX_OVERHEAD))

    doc = {
        "workload": "SPL+HOLO @ nano, policy=mps, JetsonOrin-mini",
        "sample_interval": SAMPLE_INTERVAL,
        "repeats": REPEATS,
        "config_fingerprint": config.fingerprint(),
        "telemetry_off_wall_seconds": round(off_wall, 4),
        "telemetry_on_wall_seconds": round(on_wall, 4),
        "overhead_fraction": round(overhead, 4),
        "gate_max_overhead": MAX_OVERHEAD,
        "cycles": off_cycles,
    }
    write_record("telemetry", doc)

    # Telemetry observes, never perturbs: same simulated outcome.
    assert on_cycles == off_cycles
    assert overhead <= MAX_OVERHEAD, (
        "enabled-telemetry overhead too high: %.1f%% > %.0f%%"
        % (100.0 * overhead, 100.0 * MAX_OVERHEAD))
