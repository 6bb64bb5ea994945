"""Interval counter sampling over the timing core's pull hooks.

:class:`MetricsRecorder` is invoked by the telemetry recorder at every
sample tick.  It reads cumulative counters the simulation already maintains
(``StreamStats``, L2 bank stats, DRAM byte counts) plus the instantaneous
pull hooks added for telemetry (MSHR occupancy, port backlogs, the stall
classifier) and turns them into per-interval records: IPC, hit rates and
bandwidth are *deltas over the interval*, not running averages, so the time
series shows phase changes the end-of-run aggregate hides.

Everything here is read-only with respect to simulation state, and nothing
here runs unless telemetry is enabled.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .stall import READY, sample_stalls


class _StreamCursor:
    """Previous cumulative counter values for one stream."""

    __slots__ = ("instructions", "l1_accesses", "l1_hits",
                 "l2_accesses", "l2_hits", "dram_bytes")

    def __init__(self) -> None:
        self.instructions = 0
        self.l1_accesses = 0
        self.l1_hits = 0
        self.l2_accesses = 0
        self.l2_hits = 0
        self.dram_bytes = 0


class MetricsRecorder:
    """Builds per-interval sample records from the simulator's counters."""

    def __init__(self) -> None:
        self.samples: List[Dict[str, Any]] = []
        #: Cumulative stall-reason warp-sample counts: {stream: {reason: n}}.
        self.stall_totals: Dict[int, Dict[str, int]] = {}
        self._cursors: Dict[int, _StreamCursor] = {}
        self._prev_cycle = 0

    def sample(self, gpu, cycle: int) -> Dict[str, Any]:
        interval = cycle - self._prev_cycle
        if interval <= 0:
            interval = 1
        self._prev_cycle = cycle

        stalls = sample_stalls(gpu, cycle)
        warps: Dict[int, int] = {}
        l1_mshr = 0
        icnt_backlog = 0
        for sm in gpu.sms:
            l1_mshr += sm.ldst.mshr_inflight(cycle)
            icnt_backlog += sm.ldst.icnt_queue_depth(cycle)
            for stream, n in sm.warps_used.items():
                if n:
                    warps[stream] = warps.get(stream, 0) + n

        dram_bytes = gpu.l2.dram.bytes_by_stream()
        stream_ids = sorted(set(gpu.stats.streams)
                            | set(warps) | set(stalls) | set(dram_bytes))
        total_slots = gpu.config.num_sms * gpu.config.max_warps_per_sm

        streams: Dict[str, Dict[str, Any]] = {}
        for sid in stream_ids:
            cur = self._cursors.get(sid)
            if cur is None:
                cur = self._cursors[sid] = _StreamCursor()
            sstat = gpu.stats.streams.get(sid)
            instructions = sstat.instructions if sstat is not None else 0
            l1_acc = sstat.l1_accesses if sstat is not None else 0
            l1_hit = sstat.l1_hits if sstat is not None else 0
            l2 = gpu.l2.stats_for(sid)
            dbytes = dram_bytes.get(sid, 0)

            d_inst = instructions - cur.instructions
            d_l1_acc = l1_acc - cur.l1_accesses
            d_l1_hit = l1_hit - cur.l1_hits
            d_l2_acc = l2.accesses - cur.l2_accesses
            d_l2_hit = l2.hits - cur.l2_hits
            d_bytes = dbytes - cur.dram_bytes
            cur.instructions = instructions
            cur.l1_accesses = l1_acc
            cur.l1_hits = l1_hit
            cur.l2_accesses = l2.accesses
            cur.l2_hits = l2.hits
            cur.dram_bytes = dbytes

            breakdown = dict(stalls.get(sid, {}))
            ready = breakdown.pop(READY, 0)
            stall_samples = sum(breakdown.values())
            if breakdown:
                totals = self.stall_totals.setdefault(sid, {})
                for reason, n in breakdown.items():
                    totals[reason] = totals.get(reason, 0) + n

            streams[str(sid)] = {
                "instructions": d_inst,
                "ipc": d_inst / interval,
                "warps": warps.get(sid, 0),
                "occupancy": warps.get(sid, 0) / total_slots,
                "ready_warps": ready,
                "stalls": breakdown,
                "stall_samples": stall_samples,
                "l1_accesses": d_l1_acc,
                "l1_hit_rate": d_l1_hit / d_l1_acc if d_l1_acc else 0.0,
                "l2_accesses": d_l2_acc,
                "l2_hit_rate": d_l2_hit / d_l2_acc if d_l2_acc else 0.0,
                "dram_bytes": d_bytes,
                "dram_bytes_per_cycle": d_bytes / interval,
            }

        record: Dict[str, Any] = {
            "cycle": cycle,
            "interval": interval,
            "streams": streams,
            "l1_mshr_inflight": l1_mshr,
            "l2_mshr_inflight": gpu.l2.mshr_inflight(cycle),
            "icnt_backlog": icnt_backlog,
            "l2_bank_queues": gpu.l2.bank_queue_depths(cycle),
            "dram_backlog": gpu.l2.dram.channel_backlog(cycle),
        }
        self.samples.append(record)
        return record
