"""Same-machine A/B of the end-to-end benchmark: a base commit vs this tree.

Usage, from the root of a checkout::

    python3 scripts/bench_ab.py --workload frame-4k --pairs 10 --base main

(or ``make bench-ab WORKLOAD=frame-4k PAIRS=10 BASE=main``).  Extracts
``--base`` into a temporary directory with ``git archive`` (a plain
directory, so an interrupted run leaves nothing registered in ``.git``),
warms both trees the same way (:func:`warm`), then runs the command
``BENCHMARK.json`` declares, for its ``run_seconds``, alternately in
that tree and in the working tree:
pair ``i`` uses seed ``i`` on both sides, and odd pairs run the working
tree first.  Prints each end-to-end metric's median and quartiles on
both sides, how many pairs the working tree won, whether the gap
between medians exceeds the base's interquartile range, and a verdict
(see :func:`verdict`).  Exits nonzero if any run failed or reported
incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(tree: str, command: List[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in ``tree``; returns its final JSON line."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s in %s exited %d:\n%s" % (
            " ".join(argv), tree, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def warm(tree: str, command: List[str], workload: str) -> None:
    """Byte-compile ``tree``'s sources and run one untimed set-up in it.

    Before pair 1 the freshly extracted base tree and the working tree
    can differ in what a run does not measure: compiled bytecode (the
    working tree may hold ``__pycache__`` from earlier runs, the base
    tree never does) and file pages in the page cache.  Warming both the
    same way leaves neither side a head start in set-up.
    """
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "perfbench"], cwd=tree, capture_output=True, check=True)
    subprocess.run(command + ["--workload", workload, "--setup-only"],
                   cwd=tree, capture_output=True, check=True)


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(spec: dict, base: List[float], change: List[float]) -> str:
    """Judge one metric by the same-box A/B rule.

    * ``improved``: the change wins at least 9 of 10 pairs (ties count
      for neither side) and its median beats the base's by more than the
      base's interquartile range;
    * ``unresolved``: the run-to-run spread (either side's interquartile
      range, relative to its median) is wider than the metric's bound and
      the change does not win every pair;
    * ``no worse``: the change's median is within the bound of the base's;
    * ``worse``: otherwise.
    """
    lower = spec["better"] == "lower"
    wins = sum(1 for x, y in zip(base, change) if (y < x if lower else y > x))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = bmed - cmed if lower else cmed - bmed
    if 10 * wins >= 9 * len(base) and gain > bq3 - bq1:
        return "improved"
    bound = spec["bound"]
    spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                 (cq3 - cq1) / cmed if cmed else 0.0)
    if spread > bound and wins < len(base):
        return "unresolved"
    if -gain <= bound * abs(bmed):
        return "no worse"
    return "worse"


def summarize(metrics: Dict[str, dict], base: List[dict],
              change: List[dict]) -> List[str]:
    out = ["%-14s %-7s %28s %28s %7s %6s %-14s %s" % (
        "metric", "better", "base median [q1, q3]",
        "change median [q1, q3]", "ratio", "wins", "gap > base IQR",
        "verdict")]
    for name, spec in metrics.items():
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        lower = spec["better"] == "lower"
        wins = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        out.append("%-14s %-7s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] "
                   "%7.3f %3d/%-2d %-14s %s" % (
                       name, spec["better"], bmed, bq1, bq3, cmed, cq1, cq3,
                       cmed / bmed if bmed else float("nan"), wins, len(b),
                       abs(cmed - bmed) > bq3 - bq1,
                       verdict(spec, b, c)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD",
                        help="commit to compare the working tree against")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error("unknown workload %r; known: %s" % (args.workload, names))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    command = bench["command"]
    seconds = bench["run_seconds"]

    base_tree = tempfile.mkdtemp(prefix="bench-ab-base-")
    try:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive,
                       check=True)
        for tree in (base_tree, ROOT):
            warm(tree, command, args.workload)
        base: List[dict] = []
        change: List[dict] = []
        for seed in range(1, args.pairs + 1):
            sides = [("base", base_tree, base), ("change", ROOT, change)]
            if seed % 2:
                sides.reverse()
            for label, tree, results in sides:
                row = run_once(tree, command, args.workload, seed, seconds)
                results.append(row)
                print("pair %2d %-6s wall_s=%.4g correct=%s failed=%d"
                      % (seed, label, row["metrics"]["wall_s"]["value"],
                         row["correct"], row["failed"]),
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    print("%s: %d pairs of %gs runs, base %s vs working tree" % (
        args.workload, args.pairs, seconds, args.base))
    for line in summarize(metrics, base, change):
        print(line)
    bad = [r for r in base + change if not r["correct"] or r["failed"]]
    print("runs correct: %d/%d, failed ops: base %d, change %d" % (
        len(base) + len(change) - len(bad), len(base) + len(change),
        sum(r["failed"] for r in base), sum(r["failed"] for r in change)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
