"""repro.telemetry — pluggable instrumentation for the simulation stack.

Three pillars (ISSUE 3 / ROADMAP "observability"):

* **counter sampling** — :class:`~repro.telemetry.metrics.MetricsRecorder`
  turns the timing core's cumulative counters and pull hooks into
  per-interval time series (IPC, occupancy, hit rates, MSHR/queue depths,
  DRAM bandwidth) plus sampled per-warp stall-reason attribution;
* **span tracing** — :class:`~repro.telemetry.sink.TraceSink` buffers
  kernel/CTA/repartition/campaign events as Chrome trace-event JSON
  loadable in Perfetto;
* **structured run logs** — :class:`~repro.telemetry.runlog.RunLog` emits
  JSONL records (header / sample / final / heartbeats).

All hooks route through :data:`NULL_TELEMETRY` when disabled — a module
singleton whose methods are no-ops — so an uninstrumented run is
bit-identical and pays no per-instruction cost.
"""

from .recorder import (
    METRICS_FILE, NULL_TELEMETRY, NullTelemetry, Telemetry, TRACE_FILE,
)
from .runlog import RunLog, read_jsonl
from .sink import TraceSink
from .stall import READY, STALL_REASONS, sample_stalls

__all__ = [
    "METRICS_FILE",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "READY",
    "RunLog",
    "STALL_REASONS",
    "Telemetry",
    "TRACE_FILE",
    "TraceSink",
    "read_jsonl",
    "sample_stalls",
]
