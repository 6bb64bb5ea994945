"""Re-pin ``expected.json``: the digests and work counters every benchmark
operation is checked against.

Run from the root of a checkout, only when the simulated outputs are
meant to change::

    python3 perfbench/pin.py

It runs every workload at both sizes once per pinned key (every
``qos-bursty`` scenario seed) and overwrites ``perfbench/expected.json``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import Tracer  # noqa: E402
from workloads import QOS_SEEDS, SIZES, WORKLOADS  # noqa: E402


def pin_workload(name: str, size: str, scratch: str) -> dict:
    workload = WORKLOADS[name](size, scratch)
    tracer = Tracer()
    tracer.install()
    pinned = {}
    try:
        seeds = range(QOS_SEEDS) if name == "qos-bursty" else (0,)
        for seed in seeds:
            tracer.begin_op(seed, False)
            out = workload.op(seed, 0, tracer)
            workload.cleanup()
            if out["failed"] or out["execution"] != "serial":
                raise RuntimeError("%s/%s: %s on %s" % (
                    name, size, out["failed"], out["execution"]))
            pinned[out["key"]] = {"digests": out["digests"],
                                  "counters": out["counters"]}
            print("%s/%s %s %s" % (name, size, out["key"],
                                   json.dumps(out["counters"])))
    finally:
        tracer.close()
    return pinned


def main() -> int:
    expected = {}
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        for name in WORKLOADS:
            expected[name] = {size: pin_workload(name, size, scratch)
                              for size in SIZES}
    with open(os.path.join(HERE, "expected.json"), "w",
              encoding="utf-8") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
