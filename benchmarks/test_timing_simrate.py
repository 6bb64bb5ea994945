"""Sim-rate regression benchmark for the timing core.

Times ``repro.api.simulate`` on the reference workload (sponza + hologram
at nano, mps, JetsonOrin-mini), best of 5, and asserts the cumulative
hot-path speedup over the pre-optimisation baseline has not regressed.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_timing_simrate.py -m bench -s
"""

from __future__ import annotations

import time

import pytest

from repro.api import simulate
from repro.config import get_preset
from repro.core.platform import collect_streams

from bench_util import print_header

#: The reference workload as the pre-optimisation core measured it: its
#: instruction count (the workload must be this one or the ratio is
#: meaningless) and its sim-rate, 98,120 instructions in 1.04 s.
BASELINE_INSTRUCTIONS = 98120
BASELINE_INSTR_PER_S = 94310.37339731454

#: Ongoing regression gate, bumped per optimisation PR: the issue-tuple
#: overhaul measured 2.1x over the stored baseline, the structure-of-arrays
#: core 3.3x; the floor keeps headroom for slow/noisy CI runners while
#: making it impossible to silently give either win back.
MIN_SPEEDUP = 2.5
REPEATS = 5


@pytest.mark.bench
def test_timing_simrate():
    config = get_preset("JetsonOrin-mini")
    streams = collect_streams(config, scene="SPL", res="nano",
                              compute="HOLO")
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        stats = simulate(config=config, streams=streams, policy="mps").stats
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    rate = stats.total_instructions / best
    speedup = rate / BASELINE_INSTR_PER_S

    print_header("timing core sim-rate (best of %d)" % REPEATS)
    print("baseline: %10.0f instr/s" % BASELINE_INSTR_PER_S)
    print("current:  %10.0f instr/s  (%.2fs wall)" % (rate, best))
    print("speedup:  %10.2fx  (gate: >= %.1fx)" % (speedup, MIN_SPEEDUP))

    assert stats.total_instructions == BASELINE_INSTRUCTIONS
    assert speedup >= MIN_SPEEDUP, (
        "timing core sim-rate regressed: %.2fx < %.1fx"
        % (speedup, MIN_SPEEDUP))
