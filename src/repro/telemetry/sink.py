"""Buffered Chrome trace-event sink (Perfetto / chrome://tracing).

Spans are emitted in the Trace Event Format's JSON-object flavour:
``{"traceEvents": [...], "displayTimeUnit": "ms"}``.  Simulated cycles are
written directly as the ``ts`` microsecond field — one cycle renders as one
microsecond, which keeps timelines proportional without a clock-rate
conversion step.

Kernel and CTA spans overlap without nesting (two kernels can be in flight
on one stream's row; many CTAs share one SM row), so they use *async* event
pairs (``ph: "b"`` / ``"e"``) with unique ids rather than complete ``"X"``
events, which Perfetto would otherwise try to stack as a call tree.
Repartition decisions are instant events (``ph: "i"``); process/thread
metadata events name the rows.

Events are buffered in memory and written once by :meth:`write` — the sink
never does I/O during the simulation.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

# Process ids grouping the timeline rows in the trace viewer.
PID_STREAMS = 0
PID_SMS = 1


class TraceSink:
    """Accumulates Chrome trace events; flushed once at end of run."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self._next_id = 1
        self._named_threads: set = set()
        self._named_pids: set = set()

    # -- metadata ----------------------------------------------------------
    def _name_pid(self, pid: int, name: str) -> None:
        if pid in self._named_pids:
            return
        self._named_pids.add(pid)
        self.events.append({"ph": "M", "pid": pid, "name": "process_name",
                            "args": {"name": name}})

    def _name_thread(self, pid: int, tid: int, name: str) -> None:
        key = (pid, tid)
        if key in self._named_threads:
            return
        self._named_threads.add(key)
        self.events.append({"ph": "M", "pid": pid, "tid": tid,
                            "name": "thread_name", "args": {"name": name}})

    # -- spans -------------------------------------------------------------
    def span_begin(self, cat: str, name: str, pid: int, tid: int,
                   ts: int, args: Optional[Dict[str, Any]] = None) -> int:
        """Open an async span; returns the id to pass to :meth:`span_end`."""
        span_id = self._next_id
        self._next_id += 1
        ev: Dict[str, Any] = {"ph": "b", "cat": cat, "name": name,
                              "pid": pid, "tid": tid, "ts": ts,
                              "id": span_id}
        if args:
            ev["args"] = args
        self.events.append(ev)
        return span_id

    def span_end(self, cat: str, name: str, pid: int, tid: int,
                 ts: int, span_id: int,
                 args: Optional[Dict[str, Any]] = None) -> None:
        ev: Dict[str, Any] = {"ph": "e", "cat": cat, "name": name,
                              "pid": pid, "tid": tid, "ts": ts,
                              "id": span_id}
        if args:
            ev["args"] = args
        self.events.append(ev)

    def span(self, cat: str, name: str, pid: int, tid: int,
             ts_begin: int, ts_end: int,
             args: Optional[Dict[str, Any]] = None) -> None:
        """Emit a closed span as a balanced begin/end pair."""
        span_id = self.span_begin(cat, name, pid, tid, ts_begin, args)
        self.span_end(cat, name, pid, tid, ts_end, span_id)

    def instant(self, cat: str, name: str, pid: int, tid: int, ts: int,
                args: Optional[Dict[str, Any]] = None) -> None:
        ev: Dict[str, Any] = {"ph": "i", "cat": cat, "name": name,
                              "pid": pid, "tid": tid, "ts": ts, "s": "g"}
        if args:
            ev["args"] = args
        self.events.append(ev)

    # -- row naming helpers ------------------------------------------------
    def stream_row(self, stream: int) -> int:
        self._name_pid(PID_STREAMS, "streams")
        self._name_thread(PID_STREAMS, stream, "stream %d" % stream)
        return stream

    def sm_row(self, sm_id: int) -> int:
        self._name_pid(PID_SMS, "SMs")
        self._name_thread(PID_SMS, sm_id, "SM %d" % sm_id)
        return sm_id

    # -- output ------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"traceEvents": self.events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f)
            f.write("\n")
