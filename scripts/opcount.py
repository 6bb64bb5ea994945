"""Deterministic host-work counter: bytecodes per simulated instruction.

Usage, from the root of a checkout::

    python3 scripts/opcount.py --workload qos-bursty [--size full|tiny]

(or ``make opcount WORKLOAD=qos-bursty``).  Builds one workload of
``perfbench/`` the way ``perfbench/run.py`` does, runs one warm
operation (op index 0, seed ``SEED``), then counts every bytecode the interpreter
executes during op index 1 with ``sys.settrace`` and
``f_trace_opcodes``.  Prints the total, the simulated warp instructions
the operation reports, their ratio, and the functions that executed the
most bytecodes.

Wall clock on a shared box swings by a quarter between runs of the same
code; this count repeats exactly for one CPython version and one
workload and size (the seed is fixed at ``SEED``), so it shows a change
in host work that a timing cannot resolve.  Counting slows the operation
about two-hundredfold, so the workload's per-job timeout (``policy-sweep``
arms one) is lifted on the counted instance: a job that timed out inside
the tracer would drop the tracer and be retried uncounted.  The script
exits 1 if its tracer is no longer installed when the operation ends.
The script reads ``perfbench/`` and writes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
#: The perfbench seed the counted operations run with.
SEED = 3
#: Functions listed in the per-function table.
TOP = 15


def count_opcodes(fn):
    """Run ``fn()`` under an opcode tracer; returns (result, counts,
    intact) where ``counts`` maps each code object to the bytecodes it
    executed and ``intact`` says the tracer was still installed at the
    end (CPython drops a tracer an exception escapes from, as a timer's
    does when it fires inside it)."""
    counts = defaultdict(int)

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        result = fn()
        intact = sys.gettrace() is start
    finally:
        sys.settrace(None)
    return result, counts, intact


def _label(code) -> str:
    path = code.co_filename
    marker = os.sep + "repro" + os.sep
    if marker in path:
        path = "repro/" + path.split(marker, 1)[1]
    else:
        path = os.path.basename(path)
    return "%s:%s" % (path, getattr(code, "co_qualname", code.co_name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, PERFBENCH)
    from layers import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(sorted(WORKLOADS))))

    with tempfile.TemporaryDirectory(prefix="opcount-") as scratch:
        workload = WORKLOADS[args.workload](args.size, scratch)
        if hasattr(workload, "JOB_TIMEOUT_S"):
            workload.JOB_TIMEOUT_S = None
        tracer = Tracer()
        try:
            workload.op(SEED, 0, tracer)
            workload.cleanup()
            out, counts, intact = count_opcodes(
                lambda: workload.op(SEED, 1, tracer))
        finally:
            workload.cleanup()
    if not intact:
        print("%s: the opcode tracer was dropped during the operation; "
              "its count is incomplete" % args.workload, file=sys.stderr)
        return 1

    total = sum(counts.values())
    instructions = out["instructions"]
    per = total / instructions if instructions else 0.0
    print("%s %s seed=%d op=1: %d bytecodes, %d instructions, "
          "%.1f per instruction" % (args.workload, args.size, SEED,
                                    total, instructions, per))
    by_label = defaultdict(int)
    for code, n in counts.items():
        by_label[_label(code)] += n
    ranked = sorted(by_label.items(), key=lambda kv: (-kv[1], kv[0]))
    print("%12s %8s %7s  %s" % ("bytecodes", "/instr", "share", "function"))
    for label, n in ranked[:TOP]:
        print("%12d %8.1f %6.1f%%  %s" % (
            n, n / instructions if instructions else 0.0,
            100.0 * n / total if total else 0.0, label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
