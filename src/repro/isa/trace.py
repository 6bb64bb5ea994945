"""Kernel trace containers.

A :class:`KernelTrace` is the replayable unit consumed by the timing model:
a grid of CTAs, each CTA a list of warps, each warp a list of
:class:`~repro.isa.instructions.WarpInstruction`.  Compute kernels and
graphics shader batches (vertex or fragment) both lower to this format —
that shared representation is what lets CRISP co-schedule rendering and CUDA
work on one architecture model (Section III).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .instructions import IE_INST, MemAccess, WarpInstruction
from .opcodes import DataClass, Op, Space, UNIT_INDEX, Unit


def lower(instructions: Sequence[WarpInstruction]) -> Tuple[List[tuple], int]:
    """Lower an instruction list to flat issue tuples (see ``IE_*``).

    The timing model's issue loop indexes these tuples instead of
    dereferencing ``inst.info`` per scheduler visit.  Register identifiers
    are *renamed* here: the trace's raw register ids (arbitrary small ints
    private to the warp) are mapped to dense indices ``0..n-1`` in
    first-use order, so a warp's scoreboard is a flat array slice indexed
    directly by ``IE_REGS`` / ``IE_DST`` with no per-register dict lookup
    on the issue path.  Renaming is a bijection per trace, so dependency
    timing (and hence simulated behaviour) is bit-identical to raw ids.

    Returns the issue tuples and ``n``, the number of renamed registers.
    This is the only lowering: :meth:`WarpTrace.issue_stream` calls it
    per trace and :class:`WarpTemplate` once per shader program or kernel.
    """
    remap: Dict[int, int] = {}
    stream: List[tuple] = []
    app = stream.append
    for inst in instructions:
        info = inst.info
        dst = inst.dst
        regs = inst.srcs + (dst,) if dst >= 0 else inst.srcs
        renamed = []
        for r in regs:
            i = remap.get(r)
            if i is None:
                i = remap[r] = len(remap)
            renamed.append(i)
        app((
            info.unit,
            UNIT_INDEX[info.unit],
            info.latency,
            info.initiation,
            tuple(renamed),
            remap[dst] if dst >= 0 else -1,
            info.unit is Unit.MEM and info.space is not Space.NONE,
            inst.op is Op.BAR,
            inst,
        ))
    return stream, len(remap)


class WarpTrace:
    """The dynamic instruction stream of one warp."""

    __slots__ = ("instructions", "_issue_stream", "_num_regs")

    def __init__(self, instructions: Optional[List[WarpInstruction]] = None) -> None:
        self.instructions: List[WarpInstruction] = list(instructions or [])
        self._issue_stream: Optional[List[tuple]] = None
        self._num_regs = 0

    def append(self, inst: WarpInstruction) -> None:
        self.instructions.append(inst)
        self._issue_stream = None

    def issue_stream(self) -> List[tuple]:
        """Flat issue tuples with renamed registers (see :func:`lower`),
        built on first call and cached until the next :meth:`append`.
        Warps built from a :class:`WarpTemplate` arrive with it set."""
        if self._issue_stream is None:
            self._issue_stream, self._num_regs = lower(self.instructions)
        return self._issue_stream

    def num_renamed_regs(self) -> int:
        """Distinct registers the trace touches (the warp's flat scoreboard
        slice length); forces the issue-stream build on first call."""
        if self._issue_stream is None:
            self.issue_stream()
        return self._num_regs

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[WarpInstruction]:
        return iter(self.instructions)

    def __getitem__(self, idx: int) -> WarpInstruction:
        return self.instructions[idx]


class WarpTemplate:
    """One shader program or compute kernel, lowered once for many warps.

    Every warp of a program runs the same opcodes on the same registers
    with the same renaming; only its memory operands differ.  A template
    holds the skeleton ``instructions`` (memory slots hold placeholders
    without a :class:`MemAccess`), their lowered ``stream``, the
    ``mem_slots`` positions of the memory instructions and ``num_regs``.
    :meth:`instantiate` builds a warp by swapping a fresh memory
    instruction into each slot.  The other instructions are immutable and
    shared by every warp built from the template.
    """

    __slots__ = ("instructions", "stream", "mem_slots", "num_regs")

    def __init__(self, instructions: List[WarpInstruction],
                 mem_slots: Sequence[int]) -> None:
        self.instructions = instructions
        self.mem_slots = tuple(mem_slots)
        self.stream, self.num_regs = lower(instructions)

    def instantiate(self, mems: Sequence[MemAccess]) -> WarpTrace:
        """A warp whose memory slots carry ``mems``, in slot order."""
        if len(mems) != len(self.mem_slots):
            raise ValueError("template has %d memory slots, got %d operands"
                             % (len(self.mem_slots), len(mems)))
        insts = list(self.instructions)
        stream = list(self.stream)
        for pos, mem in zip(self.mem_slots, mems):
            inst = insts[pos].with_mem(mem)
            insts[pos] = inst
            stream[pos] = stream[pos][:IE_INST] + (inst,)
        warp = WarpTrace()
        warp.instructions = insts
        warp._issue_stream = stream
        warp._num_regs = self.num_regs
        return warp


class CTATrace:
    """A cooperative thread array: the unit the CTA scheduler issues."""

    __slots__ = ("warps", "cta_id")

    def __init__(self, warps: List[WarpTrace], cta_id: int = 0) -> None:
        if not warps:
            raise ValueError("a CTA must contain at least one warp")
        self.warps = warps
        self.cta_id = cta_id

    @property
    def num_warps(self) -> int:
        return len(self.warps)

    @property
    def num_instructions(self) -> int:
        return sum(len(w) for w in self.warps)


class ShaderKind:
    """Kind tags for traces; plain strings keep traces easy to serialize."""

    COMPUTE = "compute"
    VERTEX = "vertex"
    FRAGMENT = "fragment"


class KernelTrace:
    """A complete kernel (or shader batch) execution trace."""

    _ids = itertools.count()

    def __init__(
        self,
        name: str,
        ctas: List[CTATrace],
        threads_per_cta: int,
        regs_per_thread: int = 32,
        shared_mem_per_cta: int = 0,
        kind: str = ShaderKind.COMPUTE,
        depends_on_prev: bool = True,
    ) -> None:
        if not ctas:
            raise ValueError("kernel %r has no CTAs" % name)
        if threads_per_cta <= 0:
            raise ValueError("threads_per_cta must be positive")
        self.name = name
        self.ctas = ctas
        self.threads_per_cta = threads_per_cta
        self.regs_per_thread = regs_per_thread
        self.shared_mem_per_cta = shared_mem_per_cta
        self.kind = kind
        #: True = this kernel must wait for the previous kernel in its
        #: stream to *complete* (CUDA in-order semantics, and FS after its
        #: VS).  False = it may start once the previous kernel has fully
        #: issued (ITR batch pipelining: the next batch's vertex shading
        #: overlaps the current batch's fragment shading).
        self.depends_on_prev = depends_on_prev
        self.uid = next(KernelTrace._ids)

    @property
    def num_ctas(self) -> int:
        return len(self.ctas)

    @property
    def warps_per_cta(self) -> int:
        return self.ctas[0].num_warps

    @property
    def num_instructions(self) -> int:
        return sum(c.num_instructions for c in self.ctas)

    @property
    def total_threads(self) -> int:
        return self.num_ctas * self.threads_per_cta

    def cta_resources(self, warp_size: int = 32) -> "CTAResources":
        """Resources one CTA of this kernel occupies on an SM."""
        return CTAResources(
            threads=self.threads_per_cta,
            registers=self.regs_per_thread * self.threads_per_cta,
            shared_mem=self.shared_mem_per_cta,
            warps=self.warps_per_cta,
        )

    def instruction_mix(self) -> Dict[Op, int]:
        """Histogram of opcodes across the whole trace."""
        mix: Dict[Op, int] = {}
        for cta in self.ctas:
            for warp in cta.warps:
                for inst in warp:
                    mix[inst.op] = mix.get(inst.op, 0) + 1
        return mix

    def memory_footprint(self) -> Dict[DataClass, int]:
        """Distinct global cache lines touched, per data class."""
        seen: Dict[DataClass, set] = {}
        for cta in self.ctas:
            for warp in cta.warps:
                for inst in warp:
                    if inst.mem is not None and inst.info.space is Space.GLOBAL:
                        seen.setdefault(inst.mem.data_class, set()).update(inst.mem.lines)
        return {cls: len(lines) for cls, lines in seen.items()}

    def __repr__(self) -> str:
        return "KernelTrace(%r, %d CTAs x %d warps, %d insts)" % (
            self.name, self.num_ctas, self.warps_per_cta, self.num_instructions)


class CTAResources:
    """On-chip resources one CTA consumes (Section III-A partition checks)."""

    __slots__ = ("threads", "registers", "shared_mem", "warps")

    def __init__(self, threads: int, registers: int, shared_mem: int, warps: int) -> None:
        self.threads = threads
        self.registers = registers
        self.shared_mem = shared_mem
        self.warps = warps

    def fits_in(self, threads: int, registers: int, shared_mem: int, warps: int) -> bool:
        """True when this CTA fits in the given remaining resources."""
        return (
            self.threads <= threads
            and self.registers <= registers
            and self.shared_mem <= shared_mem
            and self.warps <= warps
        )

    def __repr__(self) -> str:
        return "CTAResources(t=%d, r=%d, smem=%d, w=%d)" % (
            self.threads, self.registers, self.shared_mem, self.warps)


def merge_traces(traces: Iterable[KernelTrace]) -> List[KernelTrace]:
    """Flatten an iterable of traces into a list, validating uniqueness."""
    out: List[KernelTrace] = []
    seen = set()
    for t in traces:
        if t.uid in seen:
            raise ValueError("duplicate trace %r" % t.name)
        seen.add(t.uid)
        out.append(t)
    return out
