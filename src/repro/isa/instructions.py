"""Warp-level trace instruction records.

A :class:`WarpInstruction` is one dynamic instruction as executed by a warp.
Register identifiers are small integers private to the warp; the timing model
uses them only for dependency tracking (scoreboard), exactly as Accel-Sim's
trace replay does.  Memory instructions carry the already-coalesced list of
cache-line addresses the warp touches — the functional front-end (graphics
pipeline or compute tracer) performs the coalescing, which is where the
texture-unit request merging of Section VI-B happens.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .opcodes import DataClass, Op, Space, op_info

# Field offsets of the flat issue tuples the timing hot path walks
# (scheduler pick / SM issue) instead of chasing ``inst.info`` attributes on
# every visit.  The streams are built by :func:`~repro.isa.trace.lower`,
# where IE_REGS / IE_DST hold *renamed* dense register indices
# (0..num_renamed_regs-1, first-use order) that index the flat per-warp
# scoreboard slice directly.  A stream holds no memory operand: IE_MEM
# indexes the warp's own ``mems``, so every warp of one program can share
# one stream.  Each tuple links to its successor (IE_NEXT).
IE_PC = 0          # the entry's own index in its stream
IE_UNIT_IDX = 1    # dense unit index (execution-pipe list index)
IE_LATENCY = 2     # issue-to-writeback latency
IE_INITIATION = 3  # pipe initiation interval
IE_REGS = 4        # scoreboard registers: srcs plus dst when present
IE_DST = 5         # destination register (-1 = none)
IE_MEM = 6         # index into the warp's mems (-1 = not an LDST op)
IE_IS_BAR = 7      # True for CTA barriers
IE_INFO = 8        # the opcode's OpInfo (the LDST path reads its space)
IE_NEXT = 9        # the next entry of the stream (None after the last)


class MemAccess:
    """Coalesced memory transactions of one warp instruction.

    ``lines`` holds distinct cache-line *addresses* (byte address of the line
    start).  ``data_class`` tags the traffic for composition studies.
    """

    __slots__ = ("lines", "data_class", "bytes_per_lane", "num_lanes",
                 "bypass_l1", "sectors")

    def __init__(
        self,
        lines: Sequence[int],
        data_class: DataClass,
        bytes_per_lane: int = 4,
        num_lanes: int = 32,
        bypass_l1: bool = False,
        sectors: Optional[Sequence[int]] = None,
    ) -> None:
        self.lines: Tuple[int, ...] = tuple(lines)
        self.data_class = data_class
        self.bytes_per_lane = bytes_per_lane
        self.num_lanes = num_lanes
        #: Streaming access (CUDA ``ld.cg``): skip the L1, go to L2
        #: directly.  Memory-bound kernels use this so one pass of
        #: streaming data does not evict another workload's working set.
        self.bypass_l1 = bypass_l1
        #: Optional 32B-sector addresses actually touched (a refinement of
        #: ``lines``).  Sectored cache configurations fetch only these;
        #: ``None`` means whole-line granularity.
        self.sectors: Optional[Tuple[int, ...]] = (
            tuple(sectors) if sectors is not None else None)

    def sectors_of_line(self, line_addr: int, line_size: int = 128
                        ) -> Tuple[int, ...]:
        """The touched sector addresses falling inside one line."""
        if self.sectors is None:
            return ()
        return tuple(s for s in self.sectors
                     if line_addr <= s < line_addr + line_size)

    @property
    def num_transactions(self) -> int:
        return len(self.lines)

    def __repr__(self) -> str:
        return "MemAccess(%d lines, %s)" % (len(self.lines), self.data_class.value)


class WarpInstruction:
    """One dynamic warp instruction in a trace."""

    __slots__ = ("op", "dst", "srcs", "mem", "active", "info")

    def __init__(
        self,
        op: Op,
        dst: int = -1,
        srcs: Tuple[int, ...] = (),
        mem: Optional[MemAccess] = None,
        active: int = 32,
    ) -> None:
        info = op_info(op)
        if mem is not None and info.space is Space.NONE:
            raise ValueError("non-memory opcode %s cannot carry a MemAccess" % op)
        self.op = op
        self.dst = dst
        self.srcs = srcs
        self.mem = mem
        self.active = active
        # Issue properties are immutable per opcode; cached here so the hot
        # scheduling loop never touches the enum-keyed lookup table.
        self.info = info

    @property
    def is_mem(self) -> bool:
        return self.info.space is not Space.NONE

    @property
    def is_global_mem(self) -> bool:
        return self.info.space is Space.GLOBAL

    def __repr__(self) -> str:
        parts = [self.op.value]
        if self.dst >= 0:
            parts.append("R%d" % self.dst)
        parts.extend("R%d" % r for r in self.srcs)
        if self.mem is not None:
            parts.append(repr(self.mem))
        return " ".join(parts)
