"""Host-work regression gate for the timing core.

Counts the bytecodes CPython executes in ``repro.api.simulate`` on the
reference workload (sponza + hologram at nano, mps, JetsonOrin-mini) and
fails if the count per simulated instruction grows more than 2% past the
pinned value.  The counter is ``scripts/opcount.py``'s tracer, so the
gate and ``make opcount`` count the same way.  Unlike a wall-clock rate,
the count repeats exactly on any machine for one CPython version, so the
gate is pinned for CPython 3.11 and skips on the others.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_timing_simrate.py -m bench -s
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.api import simulate
from repro.config import get_preset
from repro.core.platform import collect_streams

from bench_util import print_header

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts"))
from opcount import count_opcodes  # noqa: E402

#: The reference workload's instruction count: the workload must be this
#: one or the count per instruction is meaningless.
BASELINE_INSTRUCTIONS = 98120

#: Bytecodes per simulated instruction of one warm ``simulate()`` of the
#: reference workload under CPython 3.11 (measured on 3.11.7), and the
#: growth the gate allows.  A change that moves the count on purpose
#: re-pins it.
PINNED_PYTHON = (3, 11)
PINNED_BYTECODES_PER_INSTRUCTION = 470.4
TOLERANCE = 0.02


def _run(config, streams):
    return simulate(config=config, streams=streams, policy="mps").stats


@pytest.mark.bench
def test_timing_host_work():
    if sys.version_info[:2] != PINNED_PYTHON:
        pytest.skip("bytecode counts are pinned for CPython %d.%d; this is "
                    "%d.%d" % (PINNED_PYTHON + sys.version_info[:2]))
    config = get_preset("JetsonOrin-mini")
    streams = collect_streams(config, scene="SPL", res="nano",
                              compute="HOLO")
    # A warm run first: what a cold one adds (first-call imports) is not
    # per-instruction work.
    _run(config, streams)
    stats, counts, intact = count_opcodes(lambda: _run(config, streams))
    assert intact, "the opcode tracer was dropped during the run"
    per = sum(counts.values()) / stats.total_instructions
    limit = PINNED_BYTECODES_PER_INSTRUCTION * (1 + TOLERANCE)

    print_header("timing core host work (bytecodes per instruction)")
    print("pinned:   %8.1f  (CPython %d.%d)" % (
        PINNED_BYTECODES_PER_INSTRUCTION, *PINNED_PYTHON))
    print("current:  %8.1f  (gate: <= %.1f)" % (per, limit))

    assert stats.total_instructions == BASELINE_INSTRUCTIONS
    assert per <= limit, (
        "timing core host work grew: %.1f bytecodes per instruction > %.1f"
        % (per, limit))
