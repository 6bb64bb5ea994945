"""Warp execution state inside an SM.

A :class:`WarpContext` replays one :class:`~repro.isa.trace.WarpTrace`.
Since the structure-of-arrays refactor, the context is an *identity handle*:
its dynamic state (next issue tuple, scoreboard, flags, stall and commit
cycles) lives in the owning SM's flat :class:`~repro.timing.slots.SlotState`
arrays under its ``slot`` index.  The hot issue path reads those arrays
directly; the properties here serve cold readers (telemetry sampling, the
invariant checker, tests).

Dependencies are tracked with a per-warp scoreboard list mapping
*renamed* register ids (dense indices precomputed at trace load) to the
cycle their value becomes available.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from ..isa import WarpTrace
from ..isa.instructions import IE_PC, IE_REGS
from .slots import DONE, PARKED, SlotState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .sm import ResidentCTA
    from .stats import StreamStats

#: Sentinel issue time for warps blocked on a barrier.  An int (not inf) so
#: every cycle quantity in the timing core stays integer arithmetic — float
#: cycles mixed with int cycles risk precision drift on very long runs.
BLOCKED = 1 << 62


class WarpContext:
    """Identity handle of one resident warp; state lives in ``state[slot]``."""

    __slots__ = (
        "trace", "stream_entries", "stream", "cta", "warp_id",
        "home_sched", "unit_counts", "state", "slot",
    )

    def __init__(self, trace: WarpTrace, stream: int, cta: "ResidentCTA",
                 warp_id: int, state: SlotState,
                 sstat: "StreamStats") -> None:
        self.trace = trace
        #: Flat per-warp issue tuples, shared with every replay of the trace.
        self.stream_entries = trace.issue_stream()
        self.stream = stream
        self.cta = cta
        self.warp_id = warp_id
        self.home_sched = 0
        #: The trace's ``(unit index, issues)`` histogram, which the SM
        #: folds into the stream's stats when the warp finishes.
        self.unit_counts = trace.unit_counts()
        #: The owning SM's flat state arrays, which this warp's slot
        #: indexes into; the slot holds ``sstat``, the owning stream's
        #: StreamStats, so the issue path never calls ``stats.stream(id)``.
        self.state = state
        entries = self.stream_entries
        self.slot = state.alloc(self, entries[0] if entries else None,
                                trace.mems, trace.num_renamed_regs(), sstat)

    # -- flat-state accessors (cold paths; the hot loops index the arrays) --
    @property
    def pc(self) -> int:
        """Instructions issued so far, derived from the next tuple."""
        entry = self.state.cur[self.slot]
        return len(self.stream_entries) if entry is None else entry[IE_PC]

    @pc.setter
    def pc(self, value: int) -> None:
        """Move the warp's next tuple (cold paths and tests only)."""
        entries = self.stream_entries
        self.state.cur[self.slot] = (entries[value] if value < len(entries)
                                     else None)

    @property
    def done(self) -> bool:
        return bool(self.state.flags[self.slot] & DONE)

    @property
    def barrier_wait(self) -> bool:
        return bool(self.state.flags[self.slot] & PARKED)

    @barrier_wait.setter
    def barrier_wait(self, value: bool) -> None:
        flags = self.state.flags
        if value:
            flags[self.slot] |= PARKED
        else:
            flags[self.slot] &= ~PARKED

    @property
    def stall_until(self) -> int:
        return self.state.stall_until[self.slot]

    @stall_until.setter
    def stall_until(self, value: int) -> None:
        st = self.state
        slot = self.slot
        st.stall_until[slot] = value
        if not st.flags[slot] & DONE:
            st.next_ready[slot] = self._dep_walk(value)

    @property
    def last_commit_cycle(self) -> int:
        return self.state.last_commit[self.slot]

    @property
    def cur(self) -> Optional[tuple]:
        """The issue tuple at ``pc`` (None once the warp is done)."""
        return self.state.cur[self.slot]

    @property
    def scoreboard(self) -> Dict[int, int]:
        """Dict view of the slot's scoreboard (renamed reg -> cycle).

        Built on demand for inspection/validation; the timing core itself
        only touches the underlying list.
        """
        return dict(enumerate(self.state.sb[self.slot]))

    def _dep_walk(self, floor: int) -> int:
        """``max(floor, dep ready cycles of the current instruction)``."""
        st = self.state
        slot = self.slot
        sb = st.sb[slot]
        ready = floor
        for reg in st.cur[slot][IE_REGS]:
            t = sb[reg]
            if t > ready:
                ready = t
        return ready

    def __repr__(self) -> str:
        return "WarpContext(stream=%d, warp=%d, pc=%d/%d%s)" % (
            self.stream, self.warp_id, self.pc, len(self.trace),
            ", done" if self.done else "")
