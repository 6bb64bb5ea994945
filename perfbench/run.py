"""End-to-end, layer-attributed benchmark of the CRISP reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload frame-4k --seed 1 --seconds 30 --trace 0

Runs closed-loop operations of one workload for ``--seconds`` seconds,
checks every simulated output against the digests and work counters
pinned in ``expected.json``, and prints one JSON object as the last line
of stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, from operations that
alternate untraced and traced, plus one profiled operation.  Every run
also appends a row with its provenance to ``perfbench/out/results.jsonl``;
traced runs write their spans to ``perfbench/out/`` as Chrome trace JSON.

See ``RATIONALE.md`` for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from layers import SHARE_LAYERS, Tracer, profile_shares, share_metric  # noqa: E402
from workloads import SIZES, WORKLOADS, usable_cpus  # noqa: E402

#: An operation that runs longer than this counts as failed.
OP_TIMEOUT_S = 60
#: Set-up is timed this many times per run: once here and the rest in
#: fresh processes, since imports only happen once per process.
SETUP_SAMPLES = 6

SPAN_METRICS = ("scenes.build", "graphics.trace", "compute.trace",
                "isa.lower", "timing.build", "timing.run", "core.epoch",
                "qos.build", "campaign.fingerprint", "campaign.cache_get",
                "campaign.cache_put", "service.ingest")
COUNTER_METRICS = ("graphics.kernels", "graphics.fragments",
                   "compute.instructions", "isa.warps", "timing.cycles",
                   "timing.instructions", "timing.ctas",
                   "memory.l1_accesses", "memory.l1_hits",
                   "memory.l1_tex_accesses", "memory.l2_accesses",
                   "memory.l2_hits", "memory.l2_misses", "memory.dram_bytes",
                   "core.epochs", "qos.requests", "qos.interventions",
                   "campaign.jobs_executed", "campaign.jobs_failed")


@contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise TimeoutError("operation exceeded %gs" % seconds)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def fastest(values) -> float:
    values = list(values)
    return min(values) if values else 0.0


# -- one operation ------------------------------------------------------------

def check(out: dict, pinned: Dict[str, dict]) -> List[str]:
    """Mismatches between one operation's outputs and the pinned ones."""
    pin = pinned.get(out["key"])
    if pin is None:
        return ["no pinned outputs for %s" % out["key"]]
    problems = []
    for name, digest in sorted(pin["digests"].items()):
        got = out["digests"].get(name)
        if got is not None and got != digest:
            problems.append("digest %s/%s differs" % (out["key"], name))
    differ = {name: [out["counters"].get(name), value]
              for name, value in sorted(pin["counters"].items())
              if out["counters"].get(name) != value}
    if differ:
        problems.append("counters %s differ (got, pinned): %s"
                        % (out["key"], json.dumps(differ)))
    if out["execution"] != "serial":
        problems.append("ran on the %s engine, not serial" % out["execution"])
    return problems


def run_op(workload, tracer: Tracer, seed: int, index: int, timed: bool,
           pinned: Dict[str, dict]) -> dict:
    """Run, time and check one operation; never raises."""
    first = tracer.begin_op(index, timed)
    start = time.perf_counter()
    try:
        with time_limit(OP_TIMEOUT_S):
            out = tracer.span("op", workload.op, seed, index, tracer)
    except Exception as exc:  # any failure of the program is a result
        wall = time.perf_counter() - start
        return {"index": index, "timed": timed, "wall": wall,
                "attempted": workload.jobs_per_op,
                "failed": workload.jobs_per_op, "ok_jobs": 0,
                "problems": ["%s: %s" % (type(exc).__name__, exc)],
                "instructions": 0, "counters": {}, "spans": {}}
    finally:
        tracer.timed = False
    wall = time.perf_counter() - start
    workload.cleanup()
    problems = out["failed"] + check(out, pinned)
    failed = min(out["jobs"], len(problems))
    return {"index": index, "timed": timed, "wall": wall,
            "attempted": out["jobs"], "failed": failed,
            "ok_jobs": out["jobs"] - failed, "problems": problems,
            "instructions": out["instructions"], "counters": out["counters"],
            "spans": tracer.span_seconds(first),
            "job_p50_s": out.get("job_p50_s", 0.0),
            "key": out["key"], "execution": out["execution"]}


# -- metrics ------------------------------------------------------------------

def end_to_end(ops: List[dict], setup: List[float], rss_mb: float) -> dict:
    # Timings are of the run's fastest operation or set-up: on a shared
    # box other tenants only ever add time (the vCPU runs slower, so CPU
    # time grows with wall time), in phases of tens of seconds that can
    # cover most of a run and move its median by half.  Failed operations
    # are excluded so that a fast crash cannot pass for a fast run.
    good = [op for op in ops if not op["failed"] and op["wall"] > 0] or ops
    return {
        "wall_s": (min(op["wall"] for op in good), "s"),
        "instr_per_s": (max(op["instructions"] / op["wall"]
                            for op in good), "1/s"),
        "jobs_per_s": (max(op["ok_jobs"] / op["wall"] for op in good),
                       "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (min(setup), "s"),
    }


def per_layer(pairs: List[tuple], shares: Dict[str, float]) -> dict:
    """Per-layer timings are each layer's fastest traced operation, for the
    reason given in :func:`end_to_end`; counters are exact."""
    traced = [t for _, t in pairs]
    metrics = {}
    for name in SPAN_METRICS:
        metrics[name + "_s"] = (fastest(op["spans"].get(name, 0.0)
                                        for op in traced), "s")
    metrics["timing.host_ns_per_instr"] = (fastest(
        1e9 * op["spans"].get("timing.run", 0.0)
        / op["counters"]["timing.instructions"]
        if op["counters"].get("timing.instructions") else 0.0
        for op in traced), "ns")
    metrics["campaign.job_p50_s"] = (fastest(
        op.get("job_p50_s", 0.0) for op in traced), "s")
    counters = traced[0]["counters"] if traced else {}
    for name in COUNTER_METRICS:
        metrics[name] = (counters.get(name, 0),
                         "bytes" if name.endswith("_bytes") else "count")
    metrics["trace.overhead_ratio"] = (median(
        t["wall"] / u["wall"] for u, t in pairs if u["wall"] > 0), "ratio")
    for layer in SHARE_LAYERS:
        name = share_metric(layer)
        metrics[name] = (shares.get(name, 0.0), "share")
    return metrics


# -- provenance ---------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (None outside a clone)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over every file under ``src/repro``: identifies the code
    measured even where the checkout has no git metadata."""
    h = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode("utf-8") + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance(engines) -> dict:
    return {
        "nproc": usable_cpus(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "execution_plan": sorted(engines),
    }


# -- the run ------------------------------------------------------------------

def setup_in_child(name: str, size: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--size", size, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  size: str, expected: dict) -> dict:
    pinned = expected[name][size]
    scratch = os.path.join(OUT, "tmp-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    start = time.perf_counter()
    workload = WORKLOADS[name](size, scratch)
    setup = [time.perf_counter() - start]
    tracer = Tracer()
    ops: List[dict] = []
    pairs: List[tuple] = []
    shares: Dict[str, float] = {}
    try:
        tracer.install()
        begin = time.perf_counter()
        deadline = begin + seconds
        index = 0
        while True:
            untimed = run_op(workload, tracer, seed, index, False, pinned)
            ops.append(untimed)
            if trace:
                timed = run_op(workload, tracer, seed, index, True, pinned)
                ops.append(timed)
                pairs.append((untimed, timed))
                if timed["counters"] != untimed["counters"]:
                    timed["problems"].append("traced counters differ")
                    timed["failed"] = timed["attempted"]
            index += 1
            now = time.perf_counter()
            # Set-ups are spread over the run, outside its measured time,
            # so that they meet the box in more than one phase of its load.
            if (not trace and len(setup) < SETUP_SAMPLES
                    and now >= begin + len(setup) * seconds / SETUP_SAMPLES):
                setup.append(setup_in_child(name, size))
                deadline += time.perf_counter() - now
            if time.perf_counter() >= deadline:
                break
        if trace:
            shares = profile_shares(
                lambda: ops.append(run_op(workload, tracer, seed, index,
                                          False, pinned)))
    finally:
        tracer.close()
        workload.cleanup()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not trace:
        setup += [setup_in_child(name, size)
                  for _ in range(SETUP_SAMPLES - len(setup))]
    try:
        os.rmdir(scratch)
    except OSError:
        pass

    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    metrics = (per_layer(pairs, shares) if trace
               else end_to_end(ops, setup, rss_kb / 1024.0))
    row = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": size,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": sorted({p for op in ops for p in op["problems"]}),
        "ops": [{"index": op["index"], "timed": op["timed"],
                 "wall_s": op["wall"], "key": op.get("key")} for op in ops],
        "setup_samples_s": setup,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "provenance": provenance({op["execution"] for op in ops
                                  if "execution" in op}),
    }
    if trace:
        os.makedirs(OUT, exist_ok=True)
        tracer.write_chrome_trace(
            os.path.join(OUT, "trace-%s-seed%d.json" % (name, seed)),
            {k: row[k] for k in ("workload", "seed", "size",
                                 "provenance")})
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny: small inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program at %s; run from the root of a "
              "checkout" % os.path.join(SRC, "repro"), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_only:
        start = time.perf_counter()
        WORKLOADS[args.workload](args.size, OUT)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        expected = json.load(f)
    row = run_benchmark(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.size, expected)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")

    print("%s seed=%d trace=%d: %d ops, attempted=%d failed=%d "
          "failed_frac=%.4g" % (args.workload, args.seed, args.trace,
                                len(row["ops"]), row["attempted"],
                                row["failed"], row["failed_frac"]))
    for problem in row["problems"]:
        print("  FAILED: " + problem)
    for metric, entry in row["metrics"].items():
        print("  %-28s %14.6g %s" % (metric, entry["value"], entry["unit"]))
    print("  provenance: " + json.dumps(row["provenance"], sort_keys=True))
    print(json.dumps({"correct": row["failed"] == 0,
                      "attempted": row["attempted"],
                      "failed": row["failed"],
                      "metrics": row["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
