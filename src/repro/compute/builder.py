"""CUDA-like kernel tracer (the NVBit-tracer analog of Section III-A).

Real CRISP replays SASS traces collected on silicon.  Offline we synthesise
them: a :class:`KernelBuilder` describes a kernel the way CUDA code reads —
grid/block shape, global loads/stores with an access pattern, shared-memory
traffic, barriers, arithmetic — and :meth:`build` lowers it to a
:class:`~repro.isa.KernelTrace` with concrete per-warp coalesced addresses.
The same description therefore plays the roles of both the CUDA source and
the tracer output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Union

import numpy as np

from ..isa import (
    CTATrace,
    DataClass,
    KernelTrace,
    MemAccess,
    Op,
    ShaderKind,
    Unit,
    WarpInstruction,
    WarpTemplate,
    WarpTrace,
)
from ..memory.address import SECTOR_SIZE, AddressAllocator, coalesce_rows

#: Address-space region reserved for compute workloads.
COMPUTE_REGION = 2

#: ALU opcode per unit (compute flavour).
_ALU_OP = {
    Unit.FP: Op.FFMA,
    Unit.INT: Op.IMAD,
    Unit.SFU: Op.MUFU_SIN,
    Unit.TENSOR: Op.HMMA,
}

AddressFn = Callable[[np.ndarray], np.ndarray]
Pattern = Union[str, AddressFn]


class Buffer:
    """A device allocation compute kernels read and write."""

    def __init__(self, name: str, base: int, size: int) -> None:
        self.name = name
        self.base = base
        self.size = size

    def __repr__(self) -> str:
        return "Buffer(%r, %d bytes @ 0x%x)" % (self.name, self.size, self.base)


class DeviceMemory:
    """Allocates compute buffers in the compute address region."""

    def __init__(self, region: int = COMPUTE_REGION) -> None:
        self._alloc = AddressAllocator(region=region)
        self.buffers: List[Buffer] = []

    def buffer(self, name: str, size: int) -> Buffer:
        buf = Buffer(name, self._alloc.alloc(size), size)
        self.buffers.append(buf)
        return buf


@dataclass(frozen=True)
class _LoadOp:
    buffer: Buffer
    pattern: Pattern
    words: int
    element_bytes: int
    streaming: bool


@dataclass(frozen=True)
class _StoreOp:
    buffer: Buffer
    pattern: Pattern
    element_bytes: int


@dataclass(frozen=True)
class _AluOp:
    unit: Unit
    count: int


@dataclass(frozen=True)
class _SharedOp:
    count: int
    is_store: bool


@dataclass(frozen=True)
class _BarrierOp:
    pass


@dataclass(frozen=True)
class _DivergeOp:
    """A branch taken by a fraction of the warp's lanes."""

    fraction: float
    body: tuple  # nested op records


class KernelBuilder:
    """Describe a compute kernel; ``build()`` lowers it to a trace."""

    def __init__(
        self,
        name: str,
        grid: int,
        block: int,
        regs_per_thread: int = 32,
        shared_mem: int = 0,
        warp_size: int = 32,
    ) -> None:
        if grid <= 0 or block <= 0:
            raise ValueError("grid and block must be positive")
        if block % warp_size:
            raise ValueError("block size must be a warp multiple")
        self.name = name
        self.grid = grid
        self.block = block
        self.regs_per_thread = regs_per_thread
        self.shared_mem = shared_mem
        self.warp_size = warp_size
        self._ops: List[object] = []
        self._seed = 0

    # -- description API -----------------------------------------------------
    def load(self, buffer: Buffer, pattern: Pattern = "coalesced",
             words: int = 1, element_bytes: int = 4,
             streaming: bool = False) -> "KernelBuilder":
        """Global load: each thread reads ``words`` elements of ``buffer``.

        Patterns: ``"coalesced"`` (thread-linear), ``"strided"`` (one line
        per thread), ``"broadcast"`` (all threads one element), ``"random"``
        (hash-scattered), or a callable mapping global thread ids to element
        indices.  A callable receives the kernel's whole (warps, lanes)
        thread-id block at once, dead lanes of divergent regions included,
        so it must work elementwise.  ``streaming=True`` marks the load as
        cache-global (``ld.cg``): it bypasses the L1, which is how
        memory-bound kernels avoid thrashing a co-resident workload's L1
        working set.
        """
        self._ops.append(_LoadOp(buffer, pattern, words, element_bytes,
                                 streaming))
        return self

    def store(self, buffer: Buffer, pattern: Pattern = "coalesced",
              element_bytes: int = 4) -> "KernelBuilder":
        self._ops.append(_StoreOp(buffer, pattern, element_bytes))
        return self

    def alu(self, unit: Unit, count: int) -> "KernelBuilder":
        if count <= 0:
            raise ValueError("alu count must be positive")
        self._ops.append(_AluOp(unit, count))
        return self

    def fp(self, count: int) -> "KernelBuilder":
        return self.alu(Unit.FP, count)

    def intop(self, count: int) -> "KernelBuilder":
        return self.alu(Unit.INT, count)

    def sfu(self, count: int) -> "KernelBuilder":
        return self.alu(Unit.SFU, count)

    def tensor(self, count: int) -> "KernelBuilder":
        return self.alu(Unit.TENSOR, count)

    def shared_load(self, count: int = 1) -> "KernelBuilder":
        self._ops.append(_SharedOp(count, is_store=False))
        return self

    def shared_store(self, count: int = 1) -> "KernelBuilder":
        self._ops.append(_SharedOp(count, is_store=True))
        return self

    def barrier(self) -> "KernelBuilder":
        self._ops.append(_BarrierOp())
        return self

    def divergent(self, fraction: float, body) -> "KernelBuilder":
        """A data-dependent branch only ``fraction`` of the lanes take.

        ``body`` receives a nested :class:`KernelBuilder`-like recorder;
        its operations execute with a reduced active mask, preceded by the
        branch instruction (e.g. VIO's corner threshold, where only
        feature pixels run the descriptor math).
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("divergent fraction must be in (0, 1]")
        sub = KernelBuilder("%s.branch" % self.name, self.grid, self.block,
                            warp_size=self.warp_size)
        body(sub)
        if not sub._ops:
            raise ValueError("divergent body is empty")
        self._ops.append(_DivergeOp(fraction, tuple(sub._ops)))
        return self

    # -- lowering -------------------------------------------------------------
    def _indices(self, pattern: Pattern, tids: np.ndarray, buffer: Buffer,
                 element_bytes: int) -> np.ndarray:
        capacity = max(1, buffer.size // element_bytes)
        if callable(pattern):
            idx = np.asarray(pattern(tids), dtype=np.int64)
        elif pattern == "coalesced":
            idx = tids
        elif pattern == "strided":
            idx = tids * (128 // element_bytes)
        elif pattern == "broadcast":
            idx = np.zeros_like(tids)
        elif pattern == "random":
            # Deterministic hash scatter (same every build).
            idx = (tids * 2654435761 + self._seed * 97) % capacity
        else:
            raise ValueError("unknown access pattern %r" % (pattern,))
        return np.mod(idx, capacity)

    def _lower_ops(self, ops, insts: List[WarpInstruction],
                   operands: list, tids: np.ndarray, active: int,
                   state: List[int]) -> None:
        """Lower ``ops`` for ``active`` live lanes of every warp at once.

        ``insts`` receives the instructions every warp shares, with a
        placeholder per memory instruction; ``operands`` receives one
        (position, per-warp MemAccess arguments) pair per placeholder.
        ``tids`` is the kernel's (warps, lanes) thread-id block.
        ``state`` carries [next_load_reg, last_value_reg] across nesting
        levels so dependency chains flow through divergent regions.
        """
        def mem_op(op: Op, dst: int, src: int, addrs: np.ndarray,
                   element_bytes: int, streaming: bool = False) -> None:
            operands.append((len(insts), coalesce_rows(addrs, active),
                             coalesce_rows(addrs, active, SECTOR_SIZE),
                             element_bytes, active, streaming))
            insts.append(WarpInstruction(op, dst=dst, srcs=(src,),
                                         active=active))

        for op in ops:
            if isinstance(op, _LoadOp):
                for word in range(op.words):
                    idx = self._indices(op.pattern, tids + word,
                                        op.buffer, op.element_bytes)
                    mem_op(Op.LDG, state[0], 1,
                           op.buffer.base + idx * op.element_bytes,
                           op.element_bytes, op.streaming)
                    state[1] = state[0]
                    state[0] = 4 + (state[0] - 3) % 12
            elif isinstance(op, _StoreOp):
                idx = self._indices(op.pattern, tids, op.buffer,
                                    op.element_bytes)
                mem_op(Op.STG, -1, state[1],
                       op.buffer.base + idx * op.element_bytes,
                       op.element_bytes)
            elif isinstance(op, _AluOp):
                opcode = _ALU_OP[op.unit]
                for i in range(op.count):
                    dst = 16 + (i % 8)
                    insts.append(WarpInstruction(
                        opcode, dst=dst, srcs=(state[1],), active=active))
                    state[1] = dst
            elif isinstance(op, _SharedOp):
                opcode = Op.STS if op.is_store else Op.LDS
                for _ in range(op.count):
                    if op.is_store:
                        insts.append(WarpInstruction(
                            opcode, srcs=(state[1],), active=active))
                    else:
                        insts.append(WarpInstruction(
                            opcode, dst=14, srcs=(1,), active=active))
                        state[1] = 14
            elif isinstance(op, _BarrierOp):
                insts.append(WarpInstruction(Op.BAR, active=active))
            elif isinstance(op, _DivergeOp):
                taken = max(1, int(round(active * op.fraction)))
                insts.append(WarpInstruction(
                    Op.BRA, srcs=(state[1],), active=active))
                self._lower_ops(op.body, insts, operands, tids, taken, state)
            else:  # pragma: no cover
                raise TypeError("unknown kernel op %r" % (op,))

    def build(self) -> KernelTrace:
        """Lower the description to a replayable trace.

        Every warp of a kernel is full and runs the same instructions, so
        the kernel is lowered once into a :class:`~repro.isa.WarpTemplate`
        and each memory operand is coalesced for all warps in one call.
        """
        warps_per_cta = self.block // self.warp_size
        num_warps = self.grid * warps_per_cta
        tids = np.arange(num_warps * self.warp_size, dtype=np.int64).reshape(
            num_warps, self.warp_size)
        insts: List[WarpInstruction] = []
        operands: list = []
        state = [4, 4]  # [next_load_reg, last_value_reg]
        self._lower_ops(self._ops, insts, operands, tids, self.warp_size,
                        state)
        insts.append(WarpInstruction(Op.EXIT))
        template = WarpTemplate(insts, [slot[0] for slot in operands])
        ctas: List[CTATrace] = []
        for cta_id in range(self.grid):
            warps: List[WarpTrace] = []
            for w in range(cta_id * warps_per_cta,
                           (cta_id + 1) * warps_per_cta):
                warps.append(template.instantiate([
                    MemAccess(lines[w], DataClass.COMPUTE,
                              bytes_per_lane=element_bytes, num_lanes=active,
                              bypass_l1=streaming, sectors=sectors[w])
                    for _, lines, sectors, element_bytes, active, streaming
                    in operands]))
            ctas.append(CTATrace(warps, cta_id))
        self._seed += 1
        return KernelTrace(
            self.name, ctas,
            threads_per_cta=self.block,
            regs_per_thread=self.regs_per_thread,
            shared_mem_per_cta=self.shared_mem,
            kind=ShaderKind.COMPUTE,
        )


def kernel_sequence(builders: Sequence[KernelBuilder]) -> List[KernelTrace]:
    """Build a list of kernels forming one workload stream."""
    return [b.build() for b in builders]
