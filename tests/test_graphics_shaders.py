"""Tests for the shader IR, library, and translator."""

import numpy as np
import pytest

from repro.graphics.shaders import (
    Alu,
    AttrLoad,
    ColorStore,
    PBR_MAPS,
    ShaderProgram,
    ShaderTranslator,
    TexSample,
    VaryingStore,
    fragment_basic,
    fragment_pbr,
    fragment_textured_lit,
    shader_pair,
    vertex_basic,
    vertex_instanced,
)
from repro.isa import DataClass, Op, Unit
from repro.memory import coalesce_array


class TestIRValidation:
    def test_vertex_rejects_fragment_ops(self):
        with pytest.raises(ValueError):
            ShaderProgram("bad", ShaderProgram.VERTEX, [TexSample(0)])
        with pytest.raises(ValueError):
            ShaderProgram("bad", ShaderProgram.VERTEX, [ColorStore()])

    def test_fragment_rejects_vertex_ops(self):
        with pytest.raises(ValueError):
            ShaderProgram("bad", ShaderProgram.FRAGMENT, [AttrLoad("position")])
        with pytest.raises(ValueError):
            ShaderProgram("bad", ShaderProgram.FRAGMENT, [VaryingStore(8)])

    def test_rejects_unknown_stage(self):
        with pytest.raises(ValueError):
            ShaderProgram("bad", "geometry", [Alu(Unit.FP, 1)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ShaderProgram("bad", ShaderProgram.VERTEX, [])

    def test_alu_rejects_mem_unit(self):
        with pytest.raises(ValueError):
            Alu(Unit.MEM, 3)

    def test_alu_rejects_zero_count(self):
        with pytest.raises(ValueError):
            Alu(Unit.FP, 0)


class TestLibrary:
    def test_pbr_samples_eight_maps(self):
        fs = fragment_pbr()
        assert len(fs.texture_slots) == len(PBR_MAPS) == 8

    def test_basic_samples_one(self):
        assert fragment_basic().texture_slots == (0,)

    def test_instanced_loads_instance_attr(self):
        vs = vertex_instanced()
        attrs = [op.attr for op in vs.ops if isinstance(op, AttrLoad)]
        assert "instance" in attrs

    def test_pbr_heavier_than_basic(self):
        assert fragment_pbr().alu_count > fragment_basic().alu_count

    def test_textured_lit_parametric(self):
        assert fragment_textured_lit(3).texture_slots == (0, 1, 2)
        with pytest.raises(ValueError):
            fragment_textured_lit(0)

    def test_shader_pair_lookup(self):
        vs, fs = shader_pair("pbr")
        assert vs.stage == ShaderProgram.VERTEX
        assert fs.stage == ShaderProgram.FRAGMENT

    def test_shader_pair_unknown(self):
        with pytest.raises(KeyError, match="basic"):
            shader_pair("nonexistent")


def vertex_operands(active=32):
    """One vertex warp's operands, as one-row kernel operands."""
    addrs = np.arange(active, dtype=np.int64) * 32
    out = 1 << 20 | np.arange(active, dtype=np.int64) * 32
    return {
        ("attr", "position"): ([coalesce_array(addrs)], None),
        ("attr", "normal"): ([coalesce_array(addrs + 12)], None),
        ("attr", "uv"): ([coalesce_array(addrs + 24)], None),
        ("store", 0): ([coalesce_array(out)], None),
        ("store", 1): ([coalesce_array(out + 16)], None),
    }


def fragment_operands(active=32, tex_slots=(0,)):
    operands = {("varying", i): ([[1 << 20]], None) for i in range(4)}
    operands.update({("tex", s): ([[128 * s, 128 * s + 128]], None)
                     for s in tex_slots})
    operands[("color", None)] = ([coalesce_array(
        (2 << 20) + np.arange(active, dtype=np.int64) * 4)], None)
    return operands


def emit_one(program, operands, active=32):
    """The single warp a one-warp kernel of ``program`` emits."""
    (warp,) = ShaderTranslator(program).emit([active], operands)
    return warp


class TestTranslator:
    def test_vertex_trace_shape(self):
        trace = emit_one(vertex_basic(), vertex_operands())
        ops = [i.op for i in trace]
        assert ops[-1] is Op.EXIT
        assert ops.count(Op.LDG) == 3          # three attribute fetches
        assert Op.STG in ops                   # varying export
        assert ops.count(Op.FFMA) == 38        # 32 + 6 transform ALU

    def test_vertex_fetch_tagged_vertex_class(self):
        trace = emit_one(vertex_basic(), vertex_operands())
        ldg = [i for i in trace if i.op is Op.LDG]
        assert all(i.mem.data_class is DataClass.VERTEX for i in ldg)

    def test_varying_store_tagged_pipeline(self):
        trace = emit_one(vertex_basic(), vertex_operands())
        stg = [i for i in trace if i.op is Op.STG]
        assert all(i.mem.data_class is DataClass.PIPELINE for i in stg)

    def test_fragment_trace_shape(self):
        trace = emit_one(fragment_basic(), fragment_operands())
        ops = [i.op for i in trace]
        assert ops.count(Op.TEX) == 1
        assert Op.MUFU_RSQ in ops
        assert ops[-1] is Op.EXIT

    def test_tex_carries_merged_lines(self):
        trace = emit_one(fragment_basic(),
                         fragment_operands(tex_slots=(0,)))
        tex = [i for i in trace if i.op is Op.TEX][0]
        assert tex.mem.data_class is DataClass.TEXTURE
        assert tex.mem.num_transactions == 2

    def test_color_store_tagged_framebuffer(self):
        trace = emit_one(fragment_basic(), fragment_operands())
        stg = [i for i in trace if i.op is Op.STG]
        assert stg[-1].mem.data_class is DataClass.FRAMEBUFFER

    def test_pbr_emits_eight_tex(self):
        trace = emit_one(fragment_pbr(),
                         fragment_operands(tex_slots=tuple(range(8))))
        assert sum(1 for i in trace if i.op is Op.TEX) == 8

    def test_dependency_chain_exists(self):
        trace = emit_one(fragment_basic(), fragment_operands())
        # Every ALU op reads a register some earlier op wrote.
        written = set()
        chained = 0
        for inst in trace:
            if inst.srcs and any(s in written for s in inst.srcs):
                chained += 1
            if inst.dst >= 0:
                written.add(inst.dst)
        assert chained >= len(trace.instructions) // 2

    def test_partial_warp_active_lanes(self):
        trace = emit_one(vertex_basic(), vertex_operands(7), active=7)
        assert all(i.active == 7 for i in trace)

    def test_missing_attribute_raises(self):
        operands = {("store", 0): ([[0]], None), ("store", 1): ([[0]], None)}
        with pytest.raises(KeyError, match="position"):
            emit_one(vertex_basic(), operands)

    def test_missing_tex_slot_raises(self):
        operands = fragment_operands(tex_slots=())
        with pytest.raises(KeyError, match="slot 0"):
            emit_one(fragment_basic(), operands)

    def test_missing_color_addresses_raises(self):
        operands = fragment_operands()
        del operands[("color", None)]
        with pytest.raises(KeyError, match="color"):
            emit_one(fragment_basic(), operands)

    def test_bindings_validate_active(self):
        for lanes in (0, 33):
            with pytest.raises(ValueError):
                emit_one(fragment_basic(), fragment_operands(), active=lanes)

    def test_kernel_binds_each_warp_by_index(self):
        # Two full warps and a ragged third: each warp carries its own
        # row of every operand, and the ragged one has its own template.
        rows = [[0], [128], [256]]
        operands = fragment_operands()
        operands[("tex", 0)] = (rows, [[0], [160], [288]])
        operands[("color", None)] = (rows, None)
        operands.update({("varying", i): (rows, None) for i in range(4)})
        warps = ShaderTranslator(fragment_basic()).emit([32, 32, 5],
                                                        operands)
        for w, warp in enumerate(warps):
            tex = [i for i in warp if i.op is Op.TEX][0]
            assert tex.mem.lines == tuple(rows[w])
            assert tex.mem.sectors == tuple(operands[("tex", 0)][1][w])
            assert all(i.active == (5 if w == 2 else 32) for i in warp)
        assert warps[0].issue_stream() is warps[1].issue_stream()
        assert warps[2].issue_stream() is not warps[0].issue_stream()

    def test_register_demand_reasonable(self):
        for prog in (vertex_basic(), fragment_pbr(), fragment_basic()):
            demand = ShaderTranslator(prog).register_demand()
            assert 8 <= demand <= 64
