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
    WarpBindings,
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


def vertex_bindings(active=32):
    addrs = np.arange(active, dtype=np.int64) * 32
    out = 1 << 20 | np.arange(active, dtype=np.int64) * 32
    return WarpBindings(
        active=active,
        attr_lines={"position": coalesce_array(addrs),
                    "normal": coalesce_array(addrs + 12),
                    "uv": coalesce_array(addrs + 24)},
        varying_store_lines=[coalesce_array(out), coalesce_array(out + 16)],
    )


def fragment_bindings(active=32, tex_slots=(0,)):
    return WarpBindings(
        active=active,
        varying_lines=[[1 << 20]] * 4,
        tex_lines={s: [128 * s, 128 * s + 128] for s in tex_slots},
        color_lines=coalesce_array(
            (2 << 20) + np.arange(active, dtype=np.int64) * 4),
    )


class TestTranslator:
    def test_vertex_trace_shape(self):
        trace = ShaderTranslator(vertex_basic()).emit_warp(vertex_bindings())
        ops = [i.op for i in trace]
        assert ops[-1] is Op.EXIT
        assert ops.count(Op.LDG) == 3          # three attribute fetches
        assert Op.STG in ops                   # varying export
        assert ops.count(Op.FFMA) == 38        # 32 + 6 transform ALU

    def test_vertex_fetch_tagged_vertex_class(self):
        trace = ShaderTranslator(vertex_basic()).emit_warp(vertex_bindings())
        ldg = [i for i in trace if i.op is Op.LDG]
        assert all(i.mem.data_class is DataClass.VERTEX for i in ldg)

    def test_varying_store_tagged_pipeline(self):
        trace = ShaderTranslator(vertex_basic()).emit_warp(vertex_bindings())
        stg = [i for i in trace if i.op is Op.STG]
        assert all(i.mem.data_class is DataClass.PIPELINE for i in stg)

    def test_fragment_trace_shape(self):
        trace = ShaderTranslator(fragment_basic()).emit_warp(fragment_bindings())
        ops = [i.op for i in trace]
        assert ops.count(Op.TEX) == 1
        assert Op.MUFU_RSQ in ops
        assert ops[-1] is Op.EXIT

    def test_tex_carries_merged_lines(self):
        trace = ShaderTranslator(fragment_basic()).emit_warp(
            fragment_bindings(tex_slots=(0,)))
        tex = [i for i in trace if i.op is Op.TEX][0]
        assert tex.mem.data_class is DataClass.TEXTURE
        assert tex.mem.num_transactions == 2

    def test_color_store_tagged_framebuffer(self):
        trace = ShaderTranslator(fragment_basic()).emit_warp(fragment_bindings())
        stg = [i for i in trace if i.op is Op.STG]
        assert stg[-1].mem.data_class is DataClass.FRAMEBUFFER

    def test_pbr_emits_eight_tex(self):
        trace = ShaderTranslator(fragment_pbr()).emit_warp(
            fragment_bindings(tex_slots=tuple(range(8))))
        assert sum(1 for i in trace if i.op is Op.TEX) == 8

    def test_dependency_chain_exists(self):
        trace = ShaderTranslator(fragment_basic()).emit_warp(fragment_bindings())
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
        trace = ShaderTranslator(vertex_basic()).emit_warp(vertex_bindings(7))
        assert all(i.active == 7 for i in trace)

    def test_missing_attribute_raises(self):
        b = WarpBindings(active=32, attr_lines={},
                         varying_store_lines=[[0], [0]])
        with pytest.raises(KeyError, match="position"):
            ShaderTranslator(vertex_basic()).emit_warp(b)

    def test_missing_tex_slot_raises(self):
        b = fragment_bindings(tex_slots=())
        with pytest.raises(KeyError, match="slot 0"):
            ShaderTranslator(fragment_basic()).emit_warp(b)

    def test_missing_color_addresses_raises(self):
        b = WarpBindings(active=32, varying_lines=[[0]] * 4,
                         tex_lines={0: [0]})
        with pytest.raises(KeyError, match="color"):
            ShaderTranslator(fragment_basic()).emit_warp(b)

    def test_bindings_validate_active(self):
        with pytest.raises(ValueError):
            WarpBindings(active=0)
        with pytest.raises(ValueError):
            WarpBindings(active=33)

    def test_register_demand_reasonable(self):
        for prog in (vertex_basic(), fragment_pbr(), fragment_basic()):
            demand = ShaderTranslator(prog).register_demand()
            assert 8 <= demand <= 64
