"""Shader IR -> trace-instruction translator.

The analog of Vulkan-Sim's NIR-to-PTX translator extended for vertex and
fragment shaders (Section III): each IR operation expands into one or more
SASS-analog :class:`~repro.isa.instructions.WarpInstruction` records whose
memory operands are bound to the coalesced addresses the functional
pipeline supplies.  Register allocation produces realistic dependency
chains: loads feed the ALU stream, ALU ops chain through a small rotating
register window, and stores read the last produced value.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ...isa import (
    DataClass,
    MemAccess,
    Op,
    Unit,
    WarpInstruction,
    WarpTemplate,
    WarpTrace,
)
from .ir import (
    Alu,
    AttrLoad,
    ColorStore,
    ShaderProgram,
    TexSample,
    VaryingLoad,
    VaryingStore,
)

#: ALU opcode used per unit class (representative of the dominant op).
_ALU_OP = {
    Unit.FP: Op.FFMA,
    Unit.INT: Op.IMAD,
    Unit.SFU: Op.MUFU_RSQ,
    Unit.TENSOR: Op.HMMA,
}

#: Rotating register window for ALU chains.
_WINDOW = 8
_FIRST_ALU_REG = 16


def _vec4_accesses(words: int) -> int:
    """16-byte (128-bit) accesses needed for ``words`` 32-bit words."""
    return max(1, (words + 3) // 4)


#: Operand key of the batch's index fetch (see :meth:`ShaderTranslator.emit`).
_INDEX = ("index", None)

#: Coalesced per-warp rows of one operand: ``(lines, sectors)``, as
#: :func:`~repro.memory.address.coalesce_rows` returns them; ``sectors``
#: may be None (whole-line traffic).
Rows = Tuple[Sequence[Sequence[int]], Optional[Sequence[Sequence[int]]]]


class ShaderTranslator:
    """Expands a :class:`ShaderProgram` into the warps of a kernel.

    The program is lowered once per (active lanes, index fetch present)
    into a :class:`~repro.isa.WarpTemplate`; every warp is built from it
    by binding its memory operands.
    """

    def __init__(self, program: ShaderProgram) -> None:
        self.program = program
        #: Vertex attributes the program fetches, in order.
        self.attributes = tuple(op.attr for op in program.ops
                                if isinstance(op, AttrLoad))
        #: 16B pipeline accesses the program makes: the interpolant loads
        #: of a fragment shader and the output stores of a vertex shader.
        self.varying_loads = max(
            (_vec4_accesses(op.words) for op in program.ops
             if isinstance(op, VaryingLoad)), default=0)
        self.varying_stores = max(
            (_vec4_accesses(op.words) for op in program.ops
             if isinstance(op, VaryingStore)), default=0)
        self._templates: Dict[Tuple[int, bool], Tuple[WarpTemplate, list]] = {}

    def emit(self, active: Sequence[int], operands: Dict[tuple, Rows],
             index_lines: Optional[Sequence[int]] = None
             ) -> List[WarpTrace]:
        """One warp per entry of ``active`` (its live lanes, 1..32).

        The functional pipeline coalesces every operand of a whole kernel
        (or vertex batch) at once, so ``operands`` maps each operand the
        program reads to its :data:`Rows`, one row per warp:

        ``("attr", name)``   vertex fetch of attribute ``name``
        ``("store", i)``     the i-th 16B VS-output store
        ``("varying", i)``   the i-th 16B interpolant load
        ``("tex", slot)``    texture-unit-merged texel fetch of ``slot``
        ``("color", None)``  framebuffer store

        ``index_lines`` is the batch's index fetch, which heads the first
        warp only.  Each template's operand rows are resolved once per
        call; a warp then takes its :class:`MemAccess` by index.
        """
        if active and (min(active) < 1 or max(active) > 32):
            raise ValueError("active lanes must be in 1..32")
        resolved: Dict[Tuple[int, bool], tuple] = {}
        warps: List[WarpTrace] = []
        for w, lanes in enumerate(active):
            key = (lanes, w == 0 and bool(index_lines))
            entry = resolved.get(key)
            if entry is None:
                entry = resolved[key] = self._resolve(key, operands,
                                                      index_lines)
            template, cols = entry
            warps.append(template.instantiate([
                MemAccess(lines[w], data_class, bytes_per_lane, lanes,
                          False, sectors[w] if sectors is not None else None)
                for lines, sectors, data_class, bytes_per_lane in cols]))
        return warps

    def _resolve(self, key: Tuple[int, bool], operands: Dict[tuple, Rows],
                 index_lines: Optional[Sequence[int]]
                 ) -> Tuple[WarpTemplate, list]:
        """The template for ``key`` and, per memory slot, the rows it
        binds: (lines, sectors, data class, bytes per lane)."""
        entry = self._templates.get(key)
        if entry is None:
            entry = self._templates[key] = self._lower(*key)
        template, specs = entry
        cols = []
        for okey, data_class, bytes_per_lane in specs:
            if okey == _INDEX:
                rows: Rows = ([index_lines], None)
            else:
                rows = operands.get(okey)
                if rows is None:
                    raise KeyError(self._missing(okey))
            cols.append((rows[0], rows[1], data_class, bytes_per_lane))
        return template, cols

    def _missing(self, okey: tuple) -> str:
        kind, name = okey
        what = {"tex": "texture slot", "attr": "attribute"}.get(
            kind, kind + " operand")
        return ("shader %r reads %s %r but the kernel operands do not "
                "provide it" % (self.program.name, what, name))

    def _lower(self, active: int, index_fetch: bool
               ) -> Tuple[WarpTemplate, list]:
        """The program's template for ``active`` lanes, and what each of
        its memory slots binds: (operand key, data class, bytes per lane)."""
        insts: List[WarpInstruction] = []
        slots: List[int] = []
        operands: list = []
        next_load_reg = 4
        alu_reg = _FIRST_ALU_REG
        last_value_reg = 4

        def chain_reg() -> int:
            nonlocal alu_reg
            reg = _FIRST_ALU_REG + (alu_reg - _FIRST_ALU_REG) % _WINDOW
            alu_reg += 1
            return reg

        def mem_op(op: Op, dst: int, src: int, operand: tuple) -> None:
            slots.append(len(insts))
            operands.append(operand)
            insts.append(WarpInstruction(op, dst=dst, srcs=(src,),
                                         active=active))

        if index_fetch:
            # The primitive distributor's index fetch for the batch is
            # fixed-function; its memory traffic is recreated as a load at
            # the head of the batch's first warp (Section IV: "the memory
            # traffic is recreated with Load/Stores").
            mem_op(Op.LDG, 2, 1, (_INDEX, DataClass.VERTEX, 4))
        for op in self.program.ops:
            if isinstance(op, AttrLoad):
                mem_op(Op.LDG, next_load_reg, 1,
                       (("attr", op.attr), DataClass.VERTEX, 4))
                last_value_reg = next_load_reg
                next_load_reg += 1
            elif isinstance(op, VaryingLoad):
                # 128-bit loads: one LDG per 4 words.
                for i in range(_vec4_accesses(op.words)):
                    mem_op(Op.LDG, next_load_reg, 1,
                           (("varying", i), DataClass.PIPELINE, 16))
                    last_value_reg = next_load_reg
                    next_load_reg += 1
            elif isinstance(op, Alu):
                opcode = _ALU_OP[op.unit]
                for _ in range(op.count):
                    dst = chain_reg()
                    insts.append(WarpInstruction(
                        opcode, dst=dst, srcs=(last_value_reg,),
                        active=active))
                    last_value_reg = dst
            elif isinstance(op, TexSample):
                dst = chain_reg()
                mem_op(Op.TEX, dst, last_value_reg,
                       (("tex", op.slot), DataClass.TEXTURE, 4))
                last_value_reg = dst
            elif isinstance(op, VaryingStore):
                for i in range(_vec4_accesses(op.words)):
                    mem_op(Op.STG, -1, last_value_reg,
                           (("store", i), DataClass.PIPELINE, 16))
            elif isinstance(op, ColorStore):
                mem_op(Op.STG, -1, last_value_reg,
                       (("color", None), DataClass.FRAMEBUFFER, 4))
            else:  # pragma: no cover - exhaustive over IR
                raise TypeError("unknown IR op %r" % (op,))
        insts.append(WarpInstruction(Op.EXIT, active=active))
        return WarpTemplate(insts, slots), operands

    def register_demand(self) -> int:
        """Architectural registers per thread this shader needs."""
        loads = sum(1 for op in self.program.ops
                    if isinstance(op, (AttrLoad, VaryingLoad)))
        return min(64, 4 + loads * 2 + _WINDOW + 8)
