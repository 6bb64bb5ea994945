"""Tests for the trace ISA: opcodes, instructions, kernel traces."""

import pytest

from repro.isa import (
    CTAResources,
    CTATrace,
    DataClass,
    KernelTrace,
    MemAccess,
    Op,
    ShaderKind,
    Space,
    Unit,
    WarpInstruction,
    WarpTrace,
    op_info,
)


class TestOpcodes:
    def test_every_op_has_info(self):
        for op in Op:
            info = op_info(op)
            assert info.latency >= 1
            assert info.initiation >= 1

    def test_memory_ops_have_spaces(self):
        assert op_info(Op.LDG).space is Space.GLOBAL
        assert op_info(Op.LDS).space is Space.SHARED
        assert op_info(Op.LDC).space is Space.CONST
        assert op_info(Op.TEX).space is Space.GLOBAL  # unified L1 path

    def test_stores_marked(self):
        assert op_info(Op.STG).is_store
        assert op_info(Op.STS).is_store
        assert not op_info(Op.LDG).is_store

    def test_alu_ops_have_no_space(self):
        assert op_info(Op.FFMA).space is Space.NONE

    def test_unit_assignment(self):
        assert op_info(Op.FFMA).unit is Unit.FP
        assert op_info(Op.IMAD).unit is Unit.INT
        assert op_info(Op.MUFU_SIN).unit is Unit.SFU
        assert op_info(Op.HMMA).unit is Unit.TENSOR
        assert op_info(Op.TEX).unit is Unit.MEM

    def test_sfu_has_longer_initiation(self):
        assert op_info(Op.MUFU_RSQ).initiation > op_info(Op.FADD).initiation

    def test_dataclass_graphics_flag(self):
        assert DataClass.TEXTURE.is_graphics
        assert DataClass.PIPELINE.is_graphics
        assert not DataClass.COMPUTE.is_graphics


class TestWarpInstruction:
    def test_info_is_cached(self):
        inst = WarpInstruction(Op.FFMA, dst=3, srcs=(1, 2))
        assert inst.info is op_info(Op.FFMA)

    def test_non_memory_op_rejects_mem(self):
        with pytest.raises(ValueError):
            WarpInstruction(Op.FFMA, mem=MemAccess([0], DataClass.COMPUTE))

    def test_memory_op_carries_lines(self):
        mem = MemAccess([0, 128, 256], DataClass.TEXTURE)
        inst = WarpInstruction(Op.TEX, dst=4, mem=mem)
        assert inst.is_mem
        assert inst.is_global_mem
        assert inst.mem.num_transactions == 3

    def test_mem_access_defaults(self):
        mem = MemAccess([0], DataClass.COMPUTE)
        assert not mem.bypass_l1
        assert mem.num_lanes == 32

    def test_repr_readable(self):
        inst = WarpInstruction(Op.LDG, dst=4, srcs=(1,),
                               mem=MemAccess([128], DataClass.COMPUTE))
        assert "LDG" in repr(inst)


def _kernel(n_ctas=2, warps=2, n_inst=3, **kw):
    ctas = []
    for c in range(n_ctas):
        wts = []
        for w in range(warps):
            wt = WarpTrace([WarpInstruction(Op.FFMA, dst=2, srcs=(1,))
                            for _ in range(n_inst)])
            wt.append(WarpInstruction(Op.EXIT))
            wts.append(wt)
        ctas.append(CTATrace(wts, c))
    return KernelTrace("k", ctas, threads_per_cta=warps * 32, **kw)


class TestKernelTrace:
    def test_counts(self):
        k = _kernel(n_ctas=3, warps=2, n_inst=5)
        assert k.num_ctas == 3
        assert k.warps_per_cta == 2
        assert k.num_instructions == 3 * 2 * 6
        assert k.total_threads == 3 * 64

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KernelTrace("empty", [], threads_per_cta=32)

    def test_cta_trace_rejects_no_warps(self):
        with pytest.raises(ValueError):
            CTATrace([], 0)

    def test_resources(self):
        k = _kernel(regs_per_thread=40, shared_mem_per_cta=1024)
        res = k.cta_resources()
        assert res.threads == 64
        assert res.registers == 40 * 64
        assert res.shared_mem == 1024
        assert res.warps == 2

    def test_resources_fit_check(self):
        res = CTAResources(threads=64, registers=2560, shared_mem=0, warps=2)
        assert res.fits_in(64, 2560, 0, 2)
        assert not res.fits_in(63, 2560, 0, 2)
        assert not res.fits_in(64, 2559, 0, 2)
        assert not res.fits_in(64, 2560, 0, 1)

    def test_instruction_mix(self):
        k = _kernel(n_ctas=1, warps=1, n_inst=4)
        mix = k.instruction_mix()
        assert mix[Op.FFMA] == 4
        assert mix[Op.EXIT] == 1

    def test_memory_footprint_distinct_lines(self):
        wt = WarpTrace([
            WarpInstruction(Op.LDG, dst=4,
                            mem=MemAccess([0, 128], DataClass.COMPUTE)),
            WarpInstruction(Op.LDG, dst=5,
                            mem=MemAccess([128, 256], DataClass.COMPUTE)),
            WarpInstruction(Op.EXIT),
        ])
        k = KernelTrace("m", [CTATrace([wt])], threads_per_cta=32)
        assert k.memory_footprint()[DataClass.COMPUTE] == 3

    def test_uids_unique(self):
        a, b = _kernel(), _kernel()
        assert a.uid != b.uid

    def test_default_depends_on_prev(self):
        assert _kernel().depends_on_prev is True

    def test_kind_tag(self):
        assert _kernel().kind == ShaderKind.COMPUTE
