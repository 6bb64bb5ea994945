"""Stall-reason taxonomy and the sampled warp-state classifier.

The paper's occupancy-limiter discussion (Figs 12-13) needs to know *why*
resident warps are not issuing, not just that IPC dropped.  Rather than
instrumenting the per-issue hot path (which would tax every simulated
instruction), telemetry uses a sampling profiler: at every metrics tick it
classifies the issue state of every resident warp through read-only pull
hooks (`GTOScheduler.stall_reason`, `SM.sample_stalls`).  Each observation
is one *warp-sample*; per-stream breakdowns therefore sum exactly to the
number of stalled warp-samples taken, which is the invariant the test
suite asserts.

Reasons mirror the classic Accel-Sim issue-stall buckets:

* ``scoreboard``      — a source/destination register is not ready (RAW/WAW),
                        including memory loads still in flight;
* ``pipe_busy``       — the target execution pipe's initiation interval has
                        not elapsed (structural hazard on FP/INT/SFU/TENSOR);
* ``ldst_queue``      — the LDST pipe is occupied (memory-queue back-pressure);
* ``barrier``         — the warp is parked at a CTA barrier;
* ``no_instruction``  — the warp has retired its whole trace but its CTA is
                        still resident (tail effect).

``READY`` marks a warp that *could* issue at the sampled cycle and is kept
separate so breakdowns never double-count issuable warps as stalled.
"""

from __future__ import annotations

from typing import Dict

STALL_SCOREBOARD = "scoreboard"
STALL_PIPE_BUSY = "pipe_busy"
STALL_LDST_QUEUE = "ldst_queue"
STALL_BARRIER = "barrier"
STALL_NO_INSTRUCTION = "no_instruction"
READY = "ready"

#: Every stall bucket a breakdown may contain (``READY`` excluded).
STALL_REASONS = (
    STALL_SCOREBOARD,
    STALL_PIPE_BUSY,
    STALL_LDST_QUEUE,
    STALL_BARRIER,
    STALL_NO_INSTRUCTION,
)


def sample_stalls(gpu, cycle: int) -> Dict[int, Dict[str, int]]:
    """Classify every resident warp on every SM at ``cycle``.

    Returns ``{stream: {reason: warp_samples}}`` including the ``READY``
    bucket.  Read-only: nothing in the simulation state is touched.
    """
    out: Dict[int, Dict[str, int]] = {}
    for sm in gpu.sms:
        sm.sample_stalls(cycle, out)
    return out
