"""Layer probes attached from outside the program.

Every probe wraps a public function or method of one layer of ``repro``
for the life of a :class:`Tracer`, and removes the wrapper on
:meth:`Tracer.close`.  Nothing under ``src/`` knows about them.

Two things are recorded:

* counts of deterministic work (kernels traced, warps lowered, epochs,
  L2 accesses, ...), always.  They are read from return values and
  public stat objects, so they cost a handful of calls per operation and
  an untraced run records exactly the same counts as a traced one;
* spans (name, start, end, parent, run id), only while ``timed`` is
  true.  They stay in memory and are written once, at exit, as Chrome
  trace-event JSON that Perfetto loads.

``profile_shares`` is the third, coarser view: a cProfile pass whose
self time is grouped by source file.  It is the only one that splits
``GPU.run`` across the timing and memory modules, and it is reported as
shares because the profiler inflates absolute seconds.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Source files whose profiled self time is reported, as path prefixes
#: below ``repro/``; a directory prefix covers every file in it.
SHARE_LAYERS = ("timing/sm", "timing/scheduler", "timing/gpu", "timing/ldst",
                "timing/cta", "memory", "isa", "graphics", "compute",
                "scenes", "core", "qos", "campaign", "service")


def share_metric(layer: str) -> str:
    return "self_share." + layer.replace("/", "_")


def stats_counters(stats: dict) -> Dict[str, int]:
    """Work counters readable from ``GPUStats.to_dict()``."""
    streams = stats["streams"].values()
    return {
        "timing.cycles": stats["cycles"],
        "timing.instructions": sum(s["instructions"] for s in streams),
        "timing.ctas": sum(s["ctas_completed"] for s in streams),
        "memory.l1_accesses": sum(s["l1_accesses"] for s in streams),
        "memory.l1_hits": sum(s["l1_hits"] for s in streams),
        "memory.l1_tex_accesses": sum(s["l1_tex_accesses"] for s in streams),
    }


def warps_of(streams) -> List:
    return [warp for kernels in streams.values() for kernel in kernels
            for cta in kernel.ctas for warp in cta.warps]


class Tracer:
    """Probes, spans and counters for one benchmark process."""

    def __init__(self) -> None:
        self.timed = False
        self.run_id = 0
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []
        self._origin = time.perf_counter()

    # -- spans ----------------------------------------------------------------
    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn``; while timed, record a span named ``name`` around it."""
        if not self.timed:
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent,
                                   self.run_id)

    def begin_op(self, run_id: int, timed: bool) -> int:
        """Start one operation; returns the span index it starts at."""
        self.run_id = run_id
        self.timed = timed
        self.counts = defaultdict(int)
        return len(self.spans)

    def span_seconds(self, first: int) -> Dict[str, float]:
        """Summed duration per span name since span index ``first``."""
        out: Dict[str, float] = defaultdict(float)
        for _, name, start, end, _, _ in self.spans[first:]:
            out[name] += end - start
        return dict(out)

    def write_chrome_trace(self, path: str, meta: dict) -> None:
        pid = os.getpid()
        events = [{
            "name": name, "ph": "X", "pid": pid, "tid": 1,
            "ts": (start - self._origin) * 1e6,
            "dur": (end - start) * 1e6,
            "args": {"span": span_id, "parent": parent, "run": run},
        } for span_id, name, start, end, parent, run in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta}, f)

    # -- patching -------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper_for) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(wrapper_for(original))
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _timed(self, name: str):
        def wrapper_for(original):
            def wrapped(*args, **kwargs):
                return self.span(name, original, *args, **kwargs)
            return wrapped
        return wrapper_for

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        import repro.api
        import repro.compute
        import repro.core.platform as platform
        import repro.qos.runner
        from repro.graphics.pipeline import GraphicsPipeline
        from repro.timing.gpu import GPU

        tracer = self
        self._patch(platform, "build_scene", self._timed("scenes.build"))

        def graphics(original):
            def render_frame(*args, **kwargs):
                frame = tracer.span("graphics.trace", original,
                                    *args, **kwargs)
                tracer.counts["graphics.kernels"] += len(frame.kernels)
                tracer.counts["graphics.fragments"] += sum(
                    d.fragments for d in frame.draw_stats)
                return frame
            return render_frame
        self._patch(GraphicsPipeline, "render_frame", graphics)

        def compute(original):
            def build_compute_workload(*args, **kwargs):
                kernels = tracer.span("compute.trace", original,
                                      *args, **kwargs)
                tracer.counts["compute.instructions"] += sum(
                    k.num_instructions for k in kernels)
                return kernels
            return build_compute_workload
        self._patch(platform, "build_compute_workload", compute)
        self._patch(repro.compute, "build_compute_workload", compute)

        def collect(original):
            def collect_streams(spec, *args, **kwargs):
                streams = original(spec, *args, **kwargs)
                tracer.lower(streams)
                return streams
            return collect_streams
        self._patch(repro.api.WorkloadSpec, "collect", collect)

        def open_loop(original):
            def build_open_loop(*args, **kwargs):
                built = tracer.span("qos.build", original, *args, **kwargs)
                tracer.lower(built[1])
                return built
            return build_open_loop
        self._patch(repro.qos.runner, "build_open_loop", open_loop)

        def gpu_init(original):
            def __init__(gpu, *args, **kwargs):
                tracer.span("timing.build", original, gpu, *args, **kwargs)
                tracer.probe_epochs(gpu.policy)
            return __init__
        self._patch(GPU, "__init__", gpu_init)
        self._patch(GPU, "add_stream", self._timed("timing.build"))

        def gpu_run(original):
            def run(gpu, *args, **kwargs):
                stats = tracer.span("timing.run", original, gpu,
                                    *args, **kwargs)
                tracer.count_gpu(gpu, stats)
                return stats
            return run
        self._patch(GPU, "run", gpu_run)

        from repro.campaign.job import Job
        self._patch(Job, "fingerprint", self._timed("campaign.fingerprint"))

    def watch_campaign(self, runner) -> None:
        """Time one campaign runner's result cache and run-repository
        ingest."""
        self._patch(runner.cache, "get", self._timed("campaign.cache_get"))
        self._patch(runner.cache, "put", self._timed("campaign.cache_put"))
        self._patch(runner.repository, "ingest_job_result",
                    self._timed("service.ingest"))

    # -- counters -------------------------------------------------------------
    def lower(self, streams) -> None:
        """Lower every warp to issue entries before the GPU is built, so
        lowering shows as its own span instead of inside ``timing.run``.
        Issue entries are cached on each trace, so an untraced run does
        the same work later, inside the simulation."""
        warps = warps_of(streams)
        self.counts["isa.warps"] += len(warps)
        if self.timed:
            self.span("isa.lower", lambda: [w.issue_stream() for w in warps])

    def probe_epochs(self, policy) -> None:
        if policy is None or "on_epoch" in vars(policy):
            return
        original = policy.on_epoch
        tracer = self

        def on_epoch(*args, **kwargs):
            tracer.counts["core.epochs"] += 1
            return tracer.span("core.epoch", original, *args, **kwargs)
        policy.on_epoch = on_epoch

    def count_gpu(self, gpu, stats) -> None:
        for name, value in stats_counters(stats.to_dict()).items():
            self.counts[name] += value
        l2 = gpu.l2.aggregate_stats()
        self.counts["memory.l2_accesses"] += l2.accesses
        self.counts["memory.l2_hits"] += l2.hits
        self.counts["memory.l2_misses"] += l2.misses
        self.counts["memory.dram_bytes"] += gpu.l2.dram.aggregate_bytes()


def profile_shares(fn: Callable[[], object]) -> Dict[str, float]:
    """Run ``fn`` under cProfile; self-time share per ``SHARE_LAYERS`` entry."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    per_file: Dict[str, float] = defaultdict(float)
    total = 0.0
    for (filename, _, _), row in pstats.Stats(profiler).stats.items():
        total += row[2]
        per_file[filename] += row[2]
    shares = {share_metric(layer): 0.0 for layer in SHARE_LAYERS}
    for filename, seconds in per_file.items():
        layer = _layer_of(filename)
        if layer is not None and total:
            shares[share_metric(layer)] += seconds / total
    return shares


def _layer_of(filename: str) -> Optional[str]:
    marker = os.sep + "repro" + os.sep
    at = filename.rfind(marker)
    if at < 0:
        return None
    rel = filename[at + len(marker):].replace(os.sep, "/")
    for layer in SHARE_LAYERS:
        if rel == layer + ".py" or rel.startswith(layer + "/"):
            return layer
    return None
