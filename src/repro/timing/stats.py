"""Per-stream statistics collection.

Accel-Sim historically aggregated statistics across streams, which is
misleading under concurrent execution; CRISP adopts per-stream stat tracking
(Qiao et al., Section III-A).  Every counter here is keyed by stream id, and
:class:`GPUStats` offers both per-stream and aggregate views.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa import DataClass, Unit
from ..isa.opcodes import UNIT_INDEX, UNITS_ORDERED

_CLASS_BY_NAME = {c.value: c for c in DataClass}
_UNIT_BY_NAME = {u.value: u for u in Unit}


class StreamStats:
    """Counters for one stream (one workload)."""

    __slots__ = (
        "stream", "instructions", "_issue_by_unit", "mem_transactions",
        "l1_accesses", "l1_hits", "l1_tex_accesses", "l1_tex_hits",
        "shared_accesses", "ctas_launched", "ctas_completed",
        "kernels_completed", "warps_launched", "first_issue_cycle",
        "last_commit_cycle",
    )

    def __init__(self, stream: int) -> None:
        self.stream = stream
        self.instructions = 0
        #: Per-unit issue counts as a dense list in ``UNIT_INDEX`` order;
        #: the SM issue path bumps ``_issue_by_unit[entry[IE_UNIT_IDX]]``
        #: with a plain list index (no enum hashing).  The public
        #: ``issue_by_unit`` property presents the familiar dict view.
        self._issue_by_unit: List[int] = [0] * len(UNITS_ORDERED)
        self.mem_transactions = 0
        self.l1_accesses = 0
        self.l1_hits = 0
        self.l1_tex_accesses = 0
        self.l1_tex_hits = 0
        self.shared_accesses = 0
        self.ctas_launched = 0
        self.ctas_completed = 0
        self.kernels_completed = 0
        self.warps_launched = 0
        self.first_issue_cycle: Optional[int] = None
        self.last_commit_cycle = 0

    @property
    def issue_by_unit(self) -> Dict[Unit, int]:
        """Dict view of the dense per-unit issue counters.

        Built on demand (iteration order matches ``Unit`` declaration order,
        so serialized dumps are unchanged); assignment accepts a dict for
        deserialization.
        """
        counts = self._issue_by_unit
        return {u: counts[i] for i, u in enumerate(UNITS_ORDERED)}

    @issue_by_unit.setter
    def issue_by_unit(self, value: Dict[Unit, int]) -> None:
        counts = [0] * len(UNITS_ORDERED)
        for u, n in value.items():
            counts[UNIT_INDEX[u]] = n
        self._issue_by_unit = counts

    @property
    def busy_cycles(self) -> int:
        if self.first_issue_cycle is None:
            return 0
        return max(0, self.last_commit_cycle - self.first_issue_cycle)

    @property
    def ipc(self) -> float:
        busy = self.busy_cycles
        return self.instructions / busy if busy else 0.0

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0

    def note_l1(self, hit: bool, data_class: DataClass, transactions: int = 1) -> None:
        self.l1_accesses += transactions
        self.mem_transactions += transactions
        if hit:
            self.l1_hits += transactions
        if data_class is DataClass.TEXTURE:
            self.l1_tex_accesses += transactions
            if hit:
                self.l1_tex_hits += transactions

    def to_dict(self) -> dict:
        """JSON-safe dump of every counter (enum keys become strings)."""
        return {
            "stream": self.stream,
            "instructions": self.instructions,
            "issue_by_unit": {u.value: n for u, n in self.issue_by_unit.items()},
            "mem_transactions": self.mem_transactions,
            "l1_accesses": self.l1_accesses,
            "l1_hits": self.l1_hits,
            "l1_tex_accesses": self.l1_tex_accesses,
            "l1_tex_hits": self.l1_tex_hits,
            "shared_accesses": self.shared_accesses,
            "ctas_launched": self.ctas_launched,
            "ctas_completed": self.ctas_completed,
            "kernels_completed": self.kernels_completed,
            "warps_launched": self.warps_launched,
            "first_issue_cycle": self.first_issue_cycle,
            "last_commit_cycle": self.last_commit_cycle,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StreamStats":
        st = cls(int(data["stream"]))
        st.issue_by_unit = {_UNIT_BY_NAME[name]: n
                            for name, n in data["issue_by_unit"].items()}
        for key in ("instructions", "mem_transactions", "l1_accesses",
                    "l1_hits", "l1_tex_accesses", "l1_tex_hits",
                    "shared_accesses", "ctas_launched", "ctas_completed",
                    "kernels_completed", "warps_launched",
                    "first_issue_cycle", "last_commit_cycle"):
            setattr(st, key, data[key])
        return st


class OccupancySample:
    """One point of the Fig 13 style occupancy time series."""

    __slots__ = ("cycle", "warps_by_stream", "total_warp_slots")

    def __init__(self, cycle: int, warps_by_stream: Dict[int, int],
                 total_warp_slots: int) -> None:
        self.cycle = cycle
        self.warps_by_stream = warps_by_stream
        self.total_warp_slots = total_warp_slots

    def fraction(self, stream: int) -> float:
        return self.warps_by_stream.get(stream, 0) / self.total_warp_slots

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "warps_by_stream": {str(s): n
                                for s, n in sorted(self.warps_by_stream.items())},
            "total_warp_slots": self.total_warp_slots,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OccupancySample":
        return cls(data["cycle"],
                   {int(s): n for s, n in data["warps_by_stream"].items()},
                   data["total_warp_slots"])


class GPUStats:
    """Top-level stat container the GPU model populates during a run."""

    def __init__(self) -> None:
        self.streams: Dict[int, StreamStats] = {}
        self.cycles = 0
        self.occupancy_trace: List[OccupancySample] = []
        self.l2_snapshots: List[Tuple[int, Dict[DataClass, int]]] = []
        self.l2_stream_snapshots: List[Tuple[int, Dict[int, int]]] = []

    def stream(self, stream: int) -> StreamStats:
        st = self.streams.get(stream)
        if st is None:
            st = StreamStats(stream)
            self.streams[stream] = st
        return st

    @property
    def total_instructions(self) -> int:
        return sum(s.instructions for s in self.streams.values())

    def stream_cycles(self, stream: int) -> int:
        """Cycles from first issue to last commit of one stream."""
        return self.stream(stream).busy_cycles

    def to_dict(self) -> dict:
        """Full JSON-safe dump: per-stream counters, aggregate cycle count
        and the sampled time series, round-tripped by :meth:`from_dict`.

        Stream ids and :class:`~repro.isa.DataClass` keys become strings so
        the result survives ``json.dumps``/``loads`` unchanged — the
        campaign result cache stores exactly this structure.
        """
        return {
            "cycles": self.cycles,
            "streams": {str(sid): st.to_dict()
                        for sid, st in sorted(self.streams.items())},
            "occupancy_trace": [s.to_dict() for s in self.occupancy_trace],
            "l2_snapshots": [
                [cycle, {cls.value: n for cls, n in sorted(
                    by_class.items(), key=lambda kv: kv[0].value)}]
                for cycle, by_class in self.l2_snapshots
            ],
            "l2_stream_snapshots": [
                [cycle, {str(sid): n for sid, n in sorted(by_stream.items())}]
                for cycle, by_stream in self.l2_stream_snapshots
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GPUStats":
        stats = cls()
        stats.cycles = data["cycles"]
        for sid, st in data["streams"].items():
            stats.streams[int(sid)] = StreamStats.from_dict(st)
        stats.occupancy_trace = [OccupancySample.from_dict(s)
                                 for s in data["occupancy_trace"]]
        stats.l2_snapshots = [
            (cycle, {_CLASS_BY_NAME[name]: n for name, n in by_class.items()})
            for cycle, by_class in data["l2_snapshots"]
        ]
        stats.l2_stream_snapshots = [
            (cycle, {int(sid): n for sid, n in by_stream.items()})
            for cycle, by_stream in data["l2_stream_snapshots"]
        ]
        return stats

    def summary(self) -> Dict[int, Dict[str, float]]:
        """Compact per-stream summary for reports."""
        out: Dict[int, Dict[str, float]] = {}
        for sid, st in sorted(self.streams.items()):
            out[sid] = {
                "instructions": float(st.instructions),
                "busy_cycles": float(st.busy_cycles),
                "ipc": st.ipc,
                "l1_hit_rate": st.l1_hit_rate,
                "l1_tex_accesses": float(st.l1_tex_accesses),
                "ctas": float(st.ctas_completed),
            }
        return out
