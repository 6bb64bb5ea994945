"""Telemetry recorder: the null object and the live implementation.

The timing core calls telemetry through whatever object sits on
``gpu.telemetry``.  By default that is :data:`NULL_TELEMETRY`, a module
singleton whose hooks are all no-ops and whose ``sample_interval`` is
``None``, so the GPU loop never ticks it — the zero-overhead-when-off
contract.  The hot issue path (``SM.tick``'s select-and-commit step)
carries *no* telemetry calls at all; the only call sites are event-rate
sites (kernel start/complete, CTA retire, repartition, the sample tick),
so a disabled run adds nothing per simulated instruction and a handful of
attribute loads per event.

:class:`Telemetry` buffers everything in memory during the run and writes
``metrics.jsonl`` + ``trace.json`` on :meth:`close` (or keeps them
in-memory when no ``out_dir`` was given, which is what the tests use).
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional

from .metrics import MetricsRecorder
from .runlog import KIND_FINAL, KIND_HEADER, KIND_SAMPLE, RunLog
from .sink import PID_SMS, PID_STREAMS, TraceSink

METRICS_SCHEMA = 1
METRICS_FILE = "metrics.jsonl"
TRACE_FILE = "trace.json"


class NullTelemetry:
    """Disabled telemetry: every hook is a no-op, and nothing is sampled."""

    sample_interval: Optional[int] = None

    def on_run_start(self, gpu) -> None:
        pass

    def on_sample(self, gpu, cycle: int) -> None:
        pass

    def on_kernel_start(self, stream: int, kernel, cycle: int) -> None:
        pass

    def on_kernel_complete(self, stream: int, uid: int, name: str,
                           start_cycle: int, end_cycle: int) -> None:
        pass

    def on_cta_retire(self, sm, cta, cycle: int) -> None:
        pass

    def on_repartition(self, cycle: int, policy_name: str,
                       detail: Dict[str, Any]) -> None:
        pass

    def on_instant(self, cycle: int, name: str,
                   args: Optional[Dict[str, Any]] = None) -> None:
        pass

    def on_run_end(self, gpu) -> None:
        pass

    def close(self) -> Dict[str, str]:
        return {}


#: The default recorder on every GPU: shared, stateless, free.
NULL_TELEMETRY = NullTelemetry()


class Telemetry(NullTelemetry):
    """Live recorder: counter sampling + span tracing + structured run log.

    ``sample_interval=None`` records spans and events but no samples.
    """

    def __init__(self, out_dir: Optional[str] = None,
                 sample_interval: Optional[int] = 1000,
                 label: str = "") -> None:
        self.out_dir = out_dir
        self.sample_interval = sample_interval
        self.label = label
        self.metrics = MetricsRecorder()
        self.sink = TraceSink()
        self.runlog = RunLog()
        self._open_kernels: Dict[Any, int] = {}
        self._closed = False

    # -- run lifecycle -----------------------------------------------------
    def on_run_start(self, gpu) -> None:
        config = gpu.config
        self.runlog.emit(
            KIND_HEADER,
            schema=METRICS_SCHEMA,
            label=self.label,
            config=getattr(config, "name", ""),
            config_fingerprint=config.fingerprint(),
            policy=gpu.policy.name,
            streams=sorted(gpu.cta_scheduler.streams),
            num_sms=config.num_sms,
            sample_interval=self.sample_interval,
            unix_time=time.time(),
        )

    def on_run_end(self, gpu) -> None:
        stall_totals = {str(sid): dict(sorted(reasons.items()))
                        for sid, reasons in
                        sorted(self.metrics.stall_totals.items())}
        self.runlog.emit(
            KIND_FINAL,
            cycles=gpu.stats.cycles,
            total_instructions=gpu.stats.total_instructions,
            samples=len(self.metrics.samples),
            stall_totals=stall_totals,
            summary={str(sid): row
                     for sid, row in gpu.stats.summary().items()},
        )

    # -- sampling ----------------------------------------------------------
    def on_sample(self, gpu, cycle: int) -> None:
        record = self.metrics.sample(gpu, cycle)
        self.runlog.emit(KIND_SAMPLE, **record)

    # -- spans -------------------------------------------------------------
    def on_kernel_start(self, stream: int, kernel, cycle: int) -> None:
        tid = self.sink.stream_row(stream)
        span_id = self.sink.span_begin(
            "kernel", kernel.name, PID_STREAMS, tid, cycle,
            args={"uid": kernel.uid, "stream": stream,
                  "num_ctas": kernel.num_ctas})
        self._open_kernels[(stream, kernel.uid)] = span_id

    def on_kernel_complete(self, stream: int, uid: int, name: str,
                           start_cycle: int, end_cycle: int) -> None:
        tid = self.sink.stream_row(stream)
        span_id = self._open_kernels.pop((stream, uid), None)
        if span_id is None:
            # Kernel started before tracing attached: emit a closed span.
            self.sink.span("kernel", name, PID_STREAMS, tid,
                           start_cycle, end_cycle, args={"uid": uid})
            return
        self.sink.span_end("kernel", name, PID_STREAMS, tid, end_cycle,
                           span_id)

    def on_cta_retire(self, sm, cta, cycle: int) -> None:
        tid = self.sink.sm_row(sm.sm_id)
        self.sink.span("cta", "%s cta" % cta.kernel.name, PID_SMS, tid,
                       cta.launch_cycle, cycle,
                       args={"stream": cta.stream,
                             "warps": len(cta.warps)})

    def on_repartition(self, cycle: int, policy_name: str,
                       detail: Dict[str, Any]) -> None:
        self.sink.stream_row(0)
        self.sink.instant("partition", "repartition:%s" % policy_name,
                          PID_STREAMS, 0, cycle, args=detail)
        self.runlog.emit("repartition", cycle=cycle, policy=policy_name,
                         detail=detail)

    def on_instant(self, cycle: int, name: str,
                   args: Optional[Dict[str, Any]] = None) -> None:
        self.sink.stream_row(0)
        self.sink.instant("event", name, PID_STREAMS, 0, cycle, args=args)

    # -- output ------------------------------------------------------------
    def close(self) -> Dict[str, str]:
        """Flush buffered records to ``out_dir``; returns written paths."""
        if self._closed or self.out_dir is None:
            return {}
        self._closed = True
        os.makedirs(self.out_dir, exist_ok=True)
        paths = {}
        metrics_path = os.path.join(self.out_dir, METRICS_FILE)
        self.runlog.write(metrics_path)
        paths["metrics"] = metrics_path
        trace_path = os.path.join(self.out_dir, TRACE_FILE)
        self.sink.write(trace_path)
        paths["trace"] = trace_path
        return paths
