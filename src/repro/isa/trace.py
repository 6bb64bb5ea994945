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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .instructions import IE_MEM, MemAccess, WarpInstruction
from .opcodes import DataClass, Op, Space, UNIT_INDEX, Unit


def lower(instructions: Sequence[WarpInstruction]
          ) -> Tuple[List[tuple], int, Tuple[Tuple[int, int], ...],
                     Tuple[Optional[MemAccess], ...]]:
    """Lower an instruction list to flat issue tuples (see ``IE_*``).

    The timing model's issue loop indexes these tuples instead of
    dereferencing ``inst.info`` per scheduler visit.  Register identifiers
    are *renamed* here: the trace's raw register ids (arbitrary small ints
    private to the warp) are mapped to dense indices ``0..n-1`` in
    first-use order, so a warp's scoreboard is a flat array slice indexed
    directly by ``IE_REGS`` / ``IE_DST`` with no per-register dict lookup
    on the issue path.  Renaming is a bijection per trace, so dependency
    timing (and hence simulated behaviour) is bit-identical to raw ids.

    Each tuple holds its own index (``IE_PC``) and its successor
    (``IE_NEXT``), so a stream nests as deep as it is long: traces and
    templates drop theirs when pickled.

    Returns the issue tuples, ``n``, the number of renamed registers, the
    unit histogram: ``(UNIT_INDEX, issues)`` pairs of the units the list
    uses, in index order, which the timing model adds to its per-unit
    issue counters once per finished warp, and ``mems``: the
    :class:`MemAccess` (or None) of each LDST instruction in order, which
    the tuples' ``IE_MEM`` indexes.  The tuples themselves hold no memory
    operand, so every warp of one program shares them.
    This is the only lowering: :meth:`WarpTrace.issue_stream` calls it
    per trace and :class:`WarpTemplate` once per shader program or kernel.
    """
    remap: Dict[int, int] = {}
    fields: List[tuple] = []
    units: Dict[int, int] = {}
    mems: List[Optional[MemAccess]] = []
    app = fields.append
    for pc, inst in enumerate(instructions):
        info = inst.info
        ui = UNIT_INDEX[info.unit]
        units[ui] = units.get(ui, 0) + 1
        dst = inst.dst
        regs = inst.srcs + (dst,) if dst >= 0 else inst.srcs
        renamed = []
        for r in regs:
            i = remap.get(r)
            if i is None:
                i = remap[r] = len(remap)
            renamed.append(i)
        if info.unit is Unit.MEM and info.space is not Space.NONE:
            mem_index = len(mems)
            mems.append(inst.mem)
        else:
            mem_index = -1
        app((
            pc,
            ui,
            info.latency,
            info.initiation,
            tuple(renamed),
            remap[dst] if dst >= 0 else -1,
            mem_index,
            inst.op is Op.BAR,
            info,
        ))
    stream: List[tuple] = [()] * len(fields)
    nxt = None
    for pc in range(len(fields) - 1, -1, -1):
        nxt = stream[pc] = fields[pc] + (nxt,)
    return stream, len(remap), tuple(sorted(units.items())), tuple(mems)


class WarpTrace:
    """The dynamic instruction stream of one warp.

    A warp built by :meth:`WarpTemplate.instantiate` holds only its
    template and its memory operands: it shares the template's issue
    stream, and builds its ``instructions`` list on first read, for cold
    readers (serialization, analysis, the invariant checker), never on
    the trace or timing path.
    """

    __slots__ = ("_instructions", "_template", "_mems", "_issue_stream",
                 "_num_regs", "_unit_counts")

    def __init__(self, instructions: Optional[List[WarpInstruction]] = None) -> None:
        self._instructions: Optional[List[WarpInstruction]] = list(
            instructions or [])
        self._template: Optional[WarpTemplate] = None
        self._mems: Tuple[Optional[MemAccess], ...] = ()
        self._issue_stream: Optional[List[tuple]] = None
        self._num_regs = 0
        self._unit_counts: Tuple[Tuple[int, int], ...] = ()

    @property
    def instructions(self) -> List[WarpInstruction]:
        insts = self._instructions
        if insts is None:
            insts = self._instructions = self._template.bind(self._mems)
        return insts

    def append(self, inst: WarpInstruction) -> None:
        self.instructions.append(inst)
        self._issue_stream = None

    def issue_stream(self) -> List[tuple]:
        """Flat issue tuples with renamed registers (see :func:`lower`),
        built on first call and cached until the next :meth:`append`.
        Warps built from a :class:`WarpTemplate` arrive with it set."""
        if self._issue_stream is None:
            (self._issue_stream, self._num_regs, self._unit_counts,
             self._mems) = lower(self.instructions)
        return self._issue_stream

    @property
    def mems(self) -> Tuple[Optional[MemAccess], ...]:
        """The memory operand of each LDST instruction, in order: what
        the stream's ``IE_MEM`` indexes."""
        if self._issue_stream is None:
            self.issue_stream()
        return self._mems

    def num_renamed_regs(self) -> int:
        """Distinct registers the trace touches (the warp's flat scoreboard
        slice length); forces the issue-stream build on first call."""
        if self._issue_stream is None:
            self.issue_stream()
        return self._num_regs

    def unit_counts(self) -> Tuple[Tuple[int, int], ...]:
        """``(UNIT_INDEX, issues)`` histogram of the trace (see
        :func:`lower`); forces the issue-stream build on first call."""
        if self._issue_stream is None:
            self.issue_stream()
        return self._unit_counts

    def __reduce__(self):
        # Pickle would recurse once per entry of a linked issue stream.
        return WarpTrace, (self.instructions,)

    def __len__(self) -> int:
        stream = self._issue_stream
        if stream is not None:
            return len(stream)
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
    ``mem_slots`` positions of the memory instructions, ``num_regs`` and
    the ``unit_counts`` histogram.
    :meth:`instantiate` builds a warp from its memory operands alone: the
    warp shares ``stream``, and its instructions are built only if a cold
    reader asks for them (:meth:`bind`).
    """

    __slots__ = ("instructions", "stream", "mem_slots", "num_regs",
                 "unit_counts", "_fixed", "_slot_mems")

    def __init__(self, instructions: List[WarpInstruction],
                 mem_slots: Sequence[int]) -> None:
        self.instructions = instructions
        self.mem_slots = tuple(mem_slots)
        (self.stream, self.num_regs, self.unit_counts,
         fixed) = lower(instructions)
        for pos in self.mem_slots:
            if self.stream[pos][IE_MEM] < 0:
                raise ValueError("memory slot %d holds non-memory opcode %s"
                                 % (pos, instructions[pos].op))
        #: Each slot's index into a warp's mems.  LDST instructions that
        #: are not slots (shared-memory ops) keep their ``fixed`` operand;
        #: when every LDST instruction is a slot, a warp's mems are the
        #: operands exactly as given.
        self._slot_mems = tuple(self.stream[pos][IE_MEM]
                                for pos in self.mem_slots)
        self._fixed = (None if self._slot_mems == tuple(range(len(fixed)))
                       else fixed)

    def __reduce__(self):
        return WarpTemplate, (self.instructions, self.mem_slots)

    def instantiate(self, mems: Sequence[MemAccess]) -> WarpTrace:
        """A warp whose memory slots carry ``mems``, in slot order."""
        if len(mems) != len(self.mem_slots):
            raise ValueError("template has %d memory slots, got %d operands"
                             % (len(self.mem_slots), len(mems)))
        if self._fixed is not None:
            full = list(self._fixed)
            for index, mem in zip(self._slot_mems, mems):
                full[index] = mem
            mems = full
        warp = WarpTrace.__new__(WarpTrace)
        warp._instructions = None
        warp._template = self
        warp._mems = tuple(mems)
        warp._issue_stream = self.stream
        warp._num_regs = self.num_regs
        warp._unit_counts = self.unit_counts
        return warp

    def bind(self, mems: Sequence[Optional[MemAccess]]
             ) -> List[WarpInstruction]:
        """The instruction list of a warp whose mems are ``mems``: the
        skeleton, with a fresh memory instruction in each slot."""
        insts = list(self.instructions)
        for pos, index in zip(self.mem_slots, self._slot_mems):
            inst = insts[pos]
            insts[pos] = WarpInstruction(inst.op, dst=inst.dst,
                                         srcs=inst.srcs, mem=mems[index],
                                         active=inst.active)
        return insts


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
