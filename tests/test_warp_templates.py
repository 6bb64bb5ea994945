"""Warps built from lowered templates must equal lazily lowered traces.

Shader programs and compute kernels are lowered once into a
:class:`~repro.isa.WarpTemplate`; every warp copies the template's issue
stream and swaps its own memory instructions into the memory slots.  The
lazy :meth:`WarpTrace.issue_stream` path (loaded and hand-built traces)
must produce exactly the same stream from the same instructions.
"""

from __future__ import annotations

import pytest

from repro.compute import build_compute_workload
from repro.isa import (
    DataClass,
    MemAccess,
    Op,
    WarpInstruction,
    WarpTemplate,
    WarpTrace,
)
from repro.isa.instructions import IE_INST

from .test_trace_digests import render_nano


def _warps(kernels):
    return [w for k in kernels for c in k.ctas for w in c.warps]


WORKLOADS = {
    "SPL": lambda: render_nano("SPL", "nearest", False),
    # Planets draws instanced geometry: the vertex stage fetches the
    # per-instance attribute and each batch's first warp the index buffer.
    "PL": lambda: render_nano("PL", "nearest", False),
    "VIO": lambda: build_compute_workload("VIO"),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_template_streams_equal_lazy_lowering(name):
    warps = _warps(WORKLOADS[name]())
    assert warps
    for warp in warps:
        lazy = WarpTrace(list(warp.instructions))
        assert warp.issue_stream() == lazy.issue_stream()
        assert warp.num_renamed_regs() == lazy.num_renamed_regs()
        # The stream's instructions are the warp's own, in order.
        assert [e[IE_INST] for e in warp.issue_stream()] == \
            warp.instructions


def test_index_fetch_heads_first_vertex_warp_only():
    kernels = render_nano("PL", "nearest", False)
    vertex = [k for k in kernels if k.name.startswith("vs:")]
    assert vertex
    for kernel in vertex:
        for cta in kernel.ctas:
            head = cta.warps[0].instructions[0]
            assert head.op is Op.LDG and head.dst == 2
            assert head.mem.data_class is DataClass.VERTEX
            for warp in cta.warps[1:]:
                assert warp.instructions[0].dst != 2


def _template():
    insts = [WarpInstruction(Op.LDG, dst=7, srcs=(3,)),
             WarpInstruction(Op.FFMA, dst=9, srcs=(7,)),
             WarpInstruction(Op.STG, srcs=(9,)),
             WarpInstruction(Op.EXIT)]
    return WarpTemplate(insts, [0, 2])


def test_instantiate_shares_non_memory_instructions():
    tpl = _template()
    a = tpl.instantiate([MemAccess([0], DataClass.COMPUTE),
                         MemAccess([128], DataClass.COMPUTE)])
    b = tpl.instantiate([MemAccess([256], DataClass.COMPUTE),
                         MemAccess([384], DataClass.COMPUTE)])
    assert a[1] is b[1] is tpl.instructions[1]
    assert a[0] is not b[0]
    assert a[0].mem.lines == (0,) and b[0].mem.lines == (256,)
    assert tpl.instructions[0].mem is None
    assert a.num_renamed_regs() == 3
    assert a.issue_stream() == WarpTrace(list(a.instructions)).issue_stream()


def test_instantiate_rejects_wrong_operand_count():
    with pytest.raises(ValueError):
        _template().instantiate([MemAccess([0], DataClass.COMPUTE)])


def test_append_after_instantiate_relowers():
    warp = _template().instantiate([MemAccess([0], DataClass.COMPUTE),
                                    MemAccess([128], DataClass.COMPUTE)])
    warp.append(WarpInstruction(Op.FFMA, dst=11, srcs=(9,)))
    assert len(warp.issue_stream()) == 5
    assert warp.num_renamed_regs() == 4


def test_with_mem_rejects_non_memory_opcode():
    with pytest.raises(ValueError):
        WarpInstruction(Op.FFMA, dst=1).with_mem(
            MemAccess([0], DataClass.COMPUTE))
