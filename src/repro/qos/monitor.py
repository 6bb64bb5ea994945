"""Streaming SLO monitors riding the telemetry hook points.

:class:`StreamingPercentiles` is the latency recorder: exact nearest-rank
percentiles over everything observed so far, order-insensitive and
deterministic regardless of how observations are chunked — the properties
the bit-identical QoS report contract needs (an approximate sketch would
make the report depend on insertion order).

:class:`QoSMonitor` is a :class:`~repro.telemetry.recorder.NullTelemetry`
subclass (the same pattern as the invariant checker): the timing core
calls it through the existing zero-overhead hook points, so closed-loop
runs pay nothing and open-loop runs pay one dict lookup per *kernel
completion* — an event-rate site, never the issue path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..telemetry.recorder import NullTelemetry

__all__ = ["StreamingPercentiles", "QoSMonitor"]


class StreamingPercentiles:
    """Exact streaming percentile recorder (nearest-rank).

    ``add`` is O(1); ``percentile`` sorts lazily and caches until the next
    ``add``.  For the observation counts QoS runs produce (requests, not
    instructions) exactness is affordable, and it keeps reports
    bit-reproducible where an approximate quantile sketch would not be.
    """

    def __init__(self) -> None:
        self._values: List[int] = []
        self._sorted: Optional[List[int]] = None

    def add(self, value: int) -> None:
        self._values.append(value)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        return sum(self._values) / len(self._values) if self._values else 0.0

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile: smallest value with at least ``p``%
        of observations at or below it.  0 when empty."""
        if not self._values:
            return 0
        if not 0 < p <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if self._sorted is None:
            self._sorted = sorted(self._values)
        rank = max(1, -(-len(self._sorted) * p // 100))  # ceil
        return self._sorted[int(rank) - 1]

    def to_dict(self, percentiles: Tuple[int, ...] = (50, 95, 99)) -> dict:
        out = {"count": self.count,
               "mean": round(self.mean, 2),
               "min": min(self._values) if self._values else 0,
               "max": max(self._values) if self._values else 0}
        for p in percentiles:
            out["p%d" % p] = self.percentile(p)
        return out


class _ClientLatency:
    """Per-client recorders plus the controller's epoch window."""

    __slots__ = ("frame_time", "kernel_turnaround", "violations",
                 "slo_budget", "window_frames", "window_violations",
                 "window_frame_sum", "window_frame_max",
                 "arrival_cycles", "arrival_ptr")

    def __init__(self, slo_budget: Optional[int]) -> None:
        self.frame_time = StreamingPercentiles()
        self.kernel_turnaround = StreamingPercentiles()
        self.violations = 0
        self.slo_budget = slo_budget
        self.window_frames = 0
        self.window_violations = 0
        self.window_frame_sum = 0
        self.window_frame_max = 0
        #: Every request's arrival cycle (non-decreasing, registered up
        #: front) and the window pointer over it — the controller's
        #: feed-forward demand signal: arrivals are known the moment they
        #: happen, a full frame time before the latency signal reacts.
        self.arrival_cycles: List[int] = []
        self.arrival_ptr = 0


class QoSMonitor(NullTelemetry):
    """SLO telemetry recorder for open-loop runs.

    The scenario builder registers every injected kernel with
    :meth:`track`; the timing core then reports completions through
    ``on_kernel_complete`` and the monitor turns them into per-client
    kernel-turnaround and frame-time (request latency) distributions,
    counted against each client's SLO budget.
    """

    enabled = True

    def __init__(self) -> None:
        #: uid -> (client, request idx, arrival cycle, is_last, is_warmup)
        self._by_uid: Dict[int, Tuple[str, int, int, bool, bool]] = {}
        self.clients: Dict[str, _ClientLatency] = {}
        #: Completed-frame event records, in completion order (JSONL rows).
        self.events: List[dict] = []

    # -- registration ------------------------------------------------------
    def add_client(self, client: str, slo_budget: Optional[int] = None) -> None:
        if client in self.clients:
            raise ValueError("client %r already registered" % client)
        self.clients[client] = _ClientLatency(slo_budget)

    def track(self, uid: int, client: str, request: int,
              arrival_cycle: int, last: bool, warmup: bool = False) -> None:
        """Register one injected kernel instance for latency accounting.

        ``warmup`` requests are injected and traced like any other (the
        queueing they cause is real) but excluded from the latency
        distributions and SLO verdicts — the standard discard-the-warmup
        convention, applied identically under every policy.
        """
        if client not in self.clients:
            raise KeyError("unknown client %r" % client)
        if uid in self._by_uid:
            raise ValueError("kernel uid %d tracked twice" % uid)
        self._by_uid[uid] = (client, request, arrival_cycle, last, warmup)
        if last:
            self.clients[client].arrival_cycles.append(arrival_cycle)

    # -- telemetry hooks ---------------------------------------------------
    def on_kernel_complete(self, stream: int, uid: int, name: str,
                           start_cycle: int, end_cycle: int) -> None:
        entry = self._by_uid.get(uid)
        if entry is None:
            return
        client, request, arrival, last, warmup = entry
        rec = self.clients[client]
        if warmup:
            if last:
                self.events.append({
                    "client": client,
                    "request": request,
                    "arrival_cycle": arrival,
                    "complete_cycle": end_cycle,
                    "frame_cycles": end_cycle - arrival,
                    "violated": False,
                    "warmup": True,
                })
            return
        rec.kernel_turnaround.add(end_cycle - arrival)
        if not last:
            return
        frame = end_cycle - arrival
        rec.frame_time.add(frame)
        violated = rec.slo_budget is not None and frame > rec.slo_budget
        if violated:
            rec.violations += 1
            rec.window_violations += 1
        rec.window_frames += 1
        rec.window_frame_sum += frame
        if frame > rec.window_frame_max:
            rec.window_frame_max = frame
        self.events.append({
            "client": client,
            "request": request,
            "arrival_cycle": arrival,
            "complete_cycle": end_cycle,
            "frame_cycles": frame,
            "violated": violated,
        })

    # -- controller interface ----------------------------------------------
    def take_window(self, cycle: Optional[int] = None) -> Dict[str, dict]:
        """Per-client stats since the last call (the controller's epoch
        observation); resets the window.  ``cycle`` additionally reports
        ``arrivals`` — requests that *arrived* during the window, whether
        or not they completed.  Completions lag arrivals by a full frame
        time, so the arrival count is the controller's earliest warning
        of a demand shift."""
        out: Dict[str, dict] = {}
        for name in sorted(self.clients):
            rec = self.clients[name]
            arrived = 0
            if cycle is not None:
                cycles = rec.arrival_cycles
                while (rec.arrival_ptr < len(cycles)
                       and cycles[rec.arrival_ptr] <= cycle):
                    rec.arrival_ptr += 1
                    arrived += 1
            out[name] = {
                "frames": rec.window_frames,
                "violations": rec.window_violations,
                "frame_sum": rec.window_frame_sum,
                "frame_max": rec.window_frame_max,
                "arrivals": arrived,
                "slo_budget": rec.slo_budget,
            }
            rec.window_frames = 0
            rec.window_violations = 0
            rec.window_frame_sum = 0
            rec.window_frame_max = 0
        return out

    # -- report ------------------------------------------------------------
    def client_summary(self, client: str) -> dict:
        rec = self.clients[client]
        frames = rec.frame_time.count
        return {
            "frame_time_cycles": rec.frame_time.to_dict(),
            "kernel_turnaround_cycles": rec.kernel_turnaround.to_dict(),
            "slo": {
                "budget_cycles": rec.slo_budget,
                "violations": rec.violations,
                "violation_rate": (round(rec.violations / frames, 4)
                                   if frames else 0.0),
                # SLO verdict on tail latency: p95 frame time within
                # budget.  (Nearest-rank p99 degenerates to the max below
                # ~100 requests, which would judge a whole run on its
                # single worst warm-up frame.)
                "met": (rec.slo_budget is None
                        or rec.frame_time.percentile(95) <= rec.slo_budget),
            },
        }
