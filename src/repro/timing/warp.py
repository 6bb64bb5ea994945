"""Warp execution state inside an SM.

A :class:`WarpContext` replays one :class:`~repro.isa.trace.WarpTrace`.
Since the structure-of-arrays refactor, the context is an *identity handle*:
its dynamic state (pc, scoreboard, stall/done/barrier flags, issue/commit
cycles) lives in the owning SM's flat :class:`~repro.timing.slots.SlotState`
arrays under the context's ``slot`` index.  The hot issue path reads those
arrays directly; the attribute-style accessors here are properties kept for
cold readers (telemetry sampling, the invariant checker, tests).

Dependencies are tracked with a flat per-warp scoreboard slice mapping
*renamed* register ids (dense indices precomputed at trace load) to the
cycle their value becomes available.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from ..isa import WarpInstruction, WarpTrace
from ..isa.instructions import IE_DST, IE_INST, IE_REGS
from .slots import SlotState

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
        "trace", "insts", "stream_entries", "stream", "cta", "warp_id",
        "home_sched", "sstat", "state", "slot",
    )

    def __init__(self, trace: WarpTrace, stream: int, cta: "ResidentCTA",
                 warp_id: int, sstat: Optional["StreamStats"] = None,
                 state: Optional[SlotState] = None) -> None:
        self.trace = trace
        self.insts = trace.instructions
        #: Flat per-warp issue tuples, shared with every replay of the trace.
        self.stream_entries = trace.issue_stream()
        self.stream = stream
        self.cta = cta
        self.warp_id = warp_id
        self.home_sched = 0
        #: The owning stream's StreamStats, resolved once at launch so the
        #: issue path never goes through ``stats.stream(id)``.
        self.sstat = sstat
        #: Flat state arrays this warp's slot indexes into.  An SM passes
        #: its shared per-SM state; standalone contexts (unit tests) get a
        #: private one.
        if state is None:
            state = SlotState()
        self.state = state
        self.slot = state.alloc(self, self.stream_entries,
                                trace.num_renamed_regs(), warp_id,
                                sstat=sstat, stream=stream)

    # -- flat-state accessors (cold paths; the hot loops index the arrays) --
    @property
    def pc(self) -> int:
        return self.state.pc[self.slot]

    @pc.setter
    def pc(self, value: int) -> None:
        self.state.pc[self.slot] = value

    @property
    def done(self) -> bool:
        return bool(self.state.done[self.slot])

    @property
    def barrier_wait(self) -> bool:
        return bool(self.state.barrier[self.slot])

    @barrier_wait.setter
    def barrier_wait(self, value: bool) -> None:
        self.state.barrier[self.slot] = 1 if value else 0

    @property
    def stall_until(self) -> int:
        return self.state.stall_until[self.slot]

    @stall_until.setter
    def stall_until(self, value: int) -> None:
        st = self.state
        slot = self.slot
        st.stall_until[slot] = value
        if not st.done[slot]:
            st.next_ready[slot] = self._dep_walk(value)

    @property
    def last_issue_cycle(self) -> int:
        return self.state.last_issue[self.slot]

    @property
    def last_commit_cycle(self) -> int:
        return self.state.last_commit[self.slot]

    @property
    def cur(self) -> Optional[tuple]:
        """The issue tuple at ``pc`` (None once the warp is done)."""
        return self.state.cur[self.slot]

    @property
    def scoreboard(self) -> Dict[int, int]:
        """Dict view of the flat scoreboard slice (renamed reg -> cycle).

        Built on demand for inspection/validation; the timing core itself
        only touches the underlying array.
        """
        st = self.state
        base = st.sb_base[self.slot]
        end = (st.sb_base[self.slot + 1] if self.slot + 1 < st.count
               else len(st.sb))
        return dict(enumerate(st.sb[base:end]))

    def peek(self) -> Optional[WarpInstruction]:
        cur = self.state.cur[self.slot]
        return None if cur is None else cur[IE_INST]

    def _dep_walk(self, floor: int) -> int:
        """``max(floor, dep ready cycles of the current instruction)``."""
        st = self.state
        slot = self.slot
        sb = st.sb
        base = st.sb_base[slot]
        ready = floor
        for reg in st.cur[slot][IE_REGS]:
            t = sb[base + reg]
            if t > ready:
                ready = t
        return ready

    def dep_ready_cycle(self) -> int:
        """Earliest cycle the next instruction's source operands are ready.

        The destination register is also checked (WAW through the
        scoreboard), mirroring GPGPU-Sim's per-warp in-order issue rules.
        """
        st = self.state
        slot = self.slot
        if st.done[slot] or st.barrier[slot]:
            return BLOCKED
        return self._dep_walk(st.stall_until[slot])

    def commit_issue(self, inst: WarpInstruction, issue_cycle: int,
                     complete_cycle: int) -> None:
        """Advance past ``inst`` after it issues."""
        st = self.state
        slot = self.slot
        entry = st.cur[slot]
        rdst = entry[IE_DST]
        if rdst >= 0:
            st.sb[st.sb_base[slot] + rdst] = complete_cycle
        st.last_issue[slot] = issue_cycle
        if complete_cycle > st.last_commit[slot]:
            st.last_commit[slot] = complete_cycle
        pc = st.pc[slot] + 1
        st.pc[slot] = pc
        if pc >= st.n_insts[slot]:
            st.done[slot] = 1
            st.cur[slot] = None
        else:
            st.cur[slot] = st.entries[slot][pc]
            st.next_ready[slot] = self._dep_walk(st.stall_until[slot])

    def __repr__(self) -> str:
        return "WarpContext(stream=%d, warp=%d, pc=%d/%d%s)" % (
            self.stream, self.warp_id, self.pc, len(self.trace),
            ", done" if self.done else "")
