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


class WarpBindings:
    """Coalesced per-warp memory operands for one shader invocation.

    The functional pipeline coalesces every operand of a whole kernel at
    once (:func:`~repro.memory.address.coalesce_rows`), so a binding holds
    distinct cache-line (and 32B sector) addresses, never lane addresses.

    ``attr_lines``          attr name -> vertex-fetch lines (vertex stage)
    ``attr_sectors``        attr name -> vertex-fetch sectors
    ``varying_store_lines`` lines of each 16B VS-output store, in order
    ``index_lines``         the batch's index fetch; first vertex warp only
    ``varying_lines``       lines of each 16B interpolant load, in order
    ``tex_lines``           slot -> texture-unit-merged lines
    ``tex_sectors``         slot -> merged 32B sectors (refines tex_lines)
    ``color_lines``         framebuffer-store lines
    ``color_sectors``       framebuffer-store sectors
    ``active``              live lanes in this warp
    """

    def __init__(
        self,
        active: int,
        attr_lines: Optional[Dict[str, Sequence[int]]] = None,
        attr_sectors: Optional[Dict[str, Sequence[int]]] = None,
        varying_store_lines: Optional[Sequence[Sequence[int]]] = None,
        index_lines: Optional[Sequence[int]] = None,
        varying_lines: Optional[Sequence[Sequence[int]]] = None,
        tex_lines: Optional[Dict[int, Sequence[int]]] = None,
        tex_sectors: Optional[Dict[int, Sequence[int]]] = None,
        color_lines: Optional[Sequence[int]] = None,
        color_sectors: Optional[Sequence[int]] = None,
    ) -> None:
        if not 0 < active <= 32:
            raise ValueError("active lanes must be in 1..32")
        self.active = active
        self.attr_lines = attr_lines or {}
        self.attr_sectors = attr_sectors or {}
        self.varying_store_lines = varying_store_lines or ()
        self.index_lines = index_lines
        self.varying_lines = varying_lines or ()
        self.tex_lines = tex_lines or {}
        self.tex_sectors = tex_sectors or {}
        self.color_lines = color_lines
        self.color_sectors = color_sectors


class ShaderTranslator:
    """Expands a :class:`ShaderProgram` into per-warp traces.

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

    def emit_warp(self, bindings: WarpBindings) -> WarpTrace:
        active = bindings.active
        key = (active, bindings.index_lines is not None)
        entry = self._templates.get(key)
        if entry is None:
            entry = self._templates[key] = self._lower(*key)
        template, operands = entry
        mems = []
        for kind, name, data_class, bytes_per_lane in operands:
            lines, sectors = self._operand(bindings, kind, name)
            mems.append(MemAccess(lines, data_class,
                                  bytes_per_lane=bytes_per_lane,
                                  num_lanes=active, sectors=sectors))
        return template.instantiate(mems)

    def _lower(self, active: int, index_fetch: bool
               ) -> Tuple[WarpTemplate, list]:
        """The program's template for ``active`` lanes, and what each of
        its memory slots binds: (kind, name, data class, bytes per lane)."""
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
            mem_op(Op.LDG, 2, 1, ("index", None, DataClass.VERTEX, 4))
        for op in self.program.ops:
            if isinstance(op, AttrLoad):
                mem_op(Op.LDG, next_load_reg, 1,
                       ("attr", op.attr, DataClass.VERTEX, 4))
                last_value_reg = next_load_reg
                next_load_reg += 1
            elif isinstance(op, VaryingLoad):
                # 128-bit loads: one LDG per 4 words.
                for i in range(_vec4_accesses(op.words)):
                    mem_op(Op.LDG, next_load_reg, 1,
                           ("varying", i, DataClass.PIPELINE, 16))
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
                       ("tex", op.slot, DataClass.TEXTURE, 4))
                last_value_reg = dst
            elif isinstance(op, VaryingStore):
                for i in range(_vec4_accesses(op.words)):
                    mem_op(Op.STG, -1, last_value_reg,
                           ("store", i, DataClass.PIPELINE, 16))
            elif isinstance(op, ColorStore):
                mem_op(Op.STG, -1, last_value_reg,
                       ("color", None, DataClass.FRAMEBUFFER, 4))
            else:  # pragma: no cover - exhaustive over IR
                raise TypeError("unknown IR op %r" % (op,))
        insts.append(WarpInstruction(Op.EXIT, active=active))
        return WarpTemplate(insts, slots), operands

    def _operand(self, b: WarpBindings, kind: str, name
                 ) -> Tuple[Sequence[int], Optional[Sequence[int]]]:
        """(lines, sectors) one memory slot binds; sectors may be None."""
        if kind == "tex":
            lines = b.tex_lines.get(name)
            if lines is None:
                raise KeyError(
                    "shader %r samples texture slot %d but the warp "
                    "bindings do not provide it" % (self.program.name, name))
            return lines, b.tex_sectors.get(name)
        if kind == "varying":
            if name >= len(b.varying_lines):
                raise KeyError("fragment warp bindings lack varying lines")
            return b.varying_lines[name], None
        if kind == "color":
            if b.color_lines is None:
                raise KeyError("fragment warp bindings lack color lines")
            return b.color_lines, b.color_sectors
        if kind == "attr":
            lines = b.attr_lines.get(name)
            if lines is None:
                raise KeyError(
                    "shader %r needs attribute %r but the warp bindings "
                    "do not provide it" % (self.program.name, name))
            return lines, b.attr_sectors.get(name)
        if kind == "store":
            if name >= len(b.varying_store_lines):
                raise KeyError("vertex warp bindings lack output lines")
            return b.varying_store_lines[name], None
        return b.index_lines, None

    def register_demand(self) -> int:
        """Architectural registers per thread this shader needs."""
        loads = sum(1 for op in self.program.ops
                    if isinstance(op, (AttrLoad, VaryingLoad)))
        return min(64, 4 + loads * 2 + _WINDOW + 8)
