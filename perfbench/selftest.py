"""Self-test of the benchmark itself, on tiny inputs (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that, for every workload:

* ``run.py`` exits 0 at ``--trace 0`` and ``--trace 1`` and its last
  stdout line is a correct result carrying exactly the metrics that
  ``BENCHMARK.json`` names, each with its unit;
* a tampered pinned digest turns into failed operations (``failed`` and
  the row's ``failed_frac`` above 0, ``correct`` false);

and that ``run.py`` exits non-zero without printing a result in a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_cli(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_metrics(workload: str, bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_cli(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (workload, key, sorted(set(got) ^ set(want)))
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
        print("ok   %-13s --trace %d: %d metrics, %d attempted"
              % (workload, trace, len(got), result["attempted"]))


def check_tamper(workload: str, expected: dict) -> None:
    import run
    tampered = copy.deepcopy(expected)
    for pin in tampered[workload]["tiny"].values():
        for name in pin["digests"]:
            pin["digests"][name] = "0" * 64
    row = run.run_benchmark(workload, 3, 0.0, False, "tiny", tampered)
    assert row["failed"] > 0 and row["failed_frac"] > 0, row
    print("ok   %-13s tampered digest: failed=%d of %d, failed_frac=%.3g"
          % (workload, row["failed"], row["attempted"], row["failed_frac"]))


def check_bare_directory() -> None:
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_cli("frame-4k", 0, cwd=bare)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print("ok   bare directory: exit %d, no result" % proc.returncode)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        expected = json.load(f)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    for workload in (w["name"] for w in bench["workloads"]):
        check_metrics(workload, bench)
        check_tamper(workload, expected)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
