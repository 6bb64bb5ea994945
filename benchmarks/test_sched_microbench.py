"""Scheduler-core microbenchmark: issue-loop throughput in isolation.

The reference workload in ``test_timing_simrate.py`` exercises the whole
machine — caches, DRAM, raster — so scheduler-path regressions can hide
behind memory time.  This benchmark saturates every SM with ALU-only warps
(no memory, no barriers, dense dependency chains), so nearly all simulation
wall-clock is the pick/issue loop itself: the greedy re-validation, the
bucket-queue sweep, and the fused issue commit in ``SM.tick``.

The measured record is appended to ``out/BENCH_timing.json`` (schema-2,
its own label, so the run repository's trend groups keep it apart from
the reference workload).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_sched_microbench.py -m bench -s
"""

from __future__ import annotations

import pytest

from repro.config import get_preset
from repro.isa import CTATrace, KernelTrace, Op, WarpInstruction, WarpTrace
from repro.profiling import measure_simrate

from bench_util import append_run, print_header

LABEL = "sched-microbench: ALU-only warp storm, JetsonOrin-mini"

NUM_CTAS = 64
WARPS_PER_CTA = 8
INSTRS_PER_WARP = 48


def _warp_storm() -> KernelTrace:
    """ALU-only kernel that keeps every warp slot contended.

    Each warp alternates a short FFMA dependency chain with independent
    instructions, so at any cycle some warps are ready and some are
    scoreboard-blocked — the exact mix that stresses both the greedy
    fast path and the bucket-queue re-sort in the GTO scheduler.
    """
    ctas = []
    for c in range(NUM_CTAS):
        warps = []
        for w in range(WARPS_PER_CTA):
            instrs = []
            for i in range(INSTRS_PER_WARP):
                if i % 3 == 2:
                    # Dependent: reads the previous instruction's dst.
                    instrs.append(WarpInstruction(
                        Op.FFMA, dst=8 + (i % 8), srcs=(8 + ((i - 1) % 8),)))
                else:
                    instrs.append(WarpInstruction(
                        Op.FFMA, dst=8 + (i % 8), srcs=(0, 1)))
            warps.append(WarpTrace(instrs))
        ctas.append(CTATrace(warps, cta_id=c))
    return KernelTrace("warp_storm", ctas, threads_per_cta=32 * WARPS_PER_CTA,
                       regs_per_thread=16)


@pytest.mark.bench
def test_sched_microbench():
    config = get_preset("JetsonOrin-mini")
    kernel = _warp_storm()
    expected = kernel.num_instructions

    record = measure_simrate(config, {0: [kernel]}, repeats=3, label=LABEL)

    print_header("scheduler microbench sim-rate (best of 3)")
    print("workload: %d CTAs x %d warps x %d ALU instrs = %d instructions"
          % (NUM_CTAS, WARPS_PER_CTA, INSTRS_PER_WARP, expected))
    print("current:  %10.0f instr/s  (%.2fs wall)"
          % (record["instructions_per_second"], record["wall_seconds"]))

    append_run("timing", record)

    # Shape assertions only — absolute speed is tracked, not gated, here
    # (the gated workload lives in test_timing_simrate.py).
    assert record["instructions"] == expected
    assert record["instructions_per_second"] > 0
    assert record["schema"] == 2 and record["config_fingerprint"]
