"""Sim-rate regression benchmark for the timing core.

Measures simulated instructions per wall-clock second on the reference
workload (sponza + hologram at nano, mps, JetsonOrin-mini), appends the
record to ``out/BENCH_timing.json`` (a copy of the tracked
``BENCH_timing.json`` plus new runs), and asserts the cumulative hot-path
speedup over the tracked pre-optimisation baseline has not regressed.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_timing_simrate.py -m bench -s
"""

from __future__ import annotations

import pytest

from repro.config import get_preset
from repro.core.platform import collect_streams
from repro.profiling import measure_simrate

from bench_util import append_run, print_header, tracked_bench_json

#: Ongoing regression gate, bumped per optimisation PR: the issue-tuple
#: overhaul measured 2.1x over the stored baseline, the structure-of-arrays
#: core 3.3x; the floor keeps headroom for slow/noisy CI runners while
#: making it impossible to silently give either win back.
MIN_SPEEDUP = 2.5


@pytest.mark.bench
def test_timing_simrate():
    baseline = tracked_bench_json("timing")["baseline"]

    config = get_preset("JetsonOrin-mini")
    streams = collect_streams(config, scene="SPL", res="nano",
                              compute="HOLO")
    record = measure_simrate(
        config, streams, policy="mps", repeats=5,
        label="SPL+HOLO @ nano, policy=mps, JetsonOrin-mini")

    print_header("timing core sim-rate (best of 5)")
    print("baseline: %10.0f instr/s  (%.2fs wall)"
          % (baseline["instructions_per_second"], baseline["wall_seconds"]))
    print("current:  %10.0f instr/s  (%.2fs wall)"
          % (record["instructions_per_second"], record["wall_seconds"]))
    speedup = (record["instructions_per_second"]
               / baseline["instructions_per_second"])
    print("speedup:  %10.2fx  (gate: >= %.1fx)" % (speedup, MIN_SPEEDUP))

    append_run("timing", dict(record, speedup=round(speedup, 3)))

    # The workload must be the baseline's workload or the ratio is
    # meaningless.
    assert record["instructions"] == baseline["instructions"]
    assert speedup >= MIN_SPEEDUP, (
        "timing core sim-rate regressed: %.2fx < %.1fx"
        % (speedup, MIN_SPEEDUP))
