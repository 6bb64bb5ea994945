"""Warps built from lowered templates must equal lazily lowered traces.

Shader programs and compute kernels are lowered once into a
:class:`~repro.isa.WarpTemplate`; every warp shares the template's issue
stream and carries only its own memory operands, from which its
instruction list is built on first read.  The lazy
:meth:`WarpTrace.issue_stream` path (loaded and hand-built traces) must
produce exactly the same stream and operands from those instructions.
"""

from __future__ import annotations

import pickle
import sys

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
from repro.isa.instructions import IE_INFO, IE_MEM, IE_NEXT, IE_PC

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
        assert warp.mems == lazy.mems
        # The stream describes the warp's own instructions, in order, and
        # its memory entries index the warp's own operands.
        stream = warp.issue_stream()
        assert [e[IE_INFO] for e in stream] == \
            [i.info for i in warp.instructions]
        assert [warp.mems[e[IE_MEM]] for e in stream if e[IE_MEM] >= 0] \
            == [i.mem for i in warp.instructions if i.is_mem]


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
    # The warps share the template's stream; nothing is copied per warp.
    assert a.issue_stream() is b.issue_stream() is tpl.stream
    assert len(a) == len(tpl.instructions)


def test_instantiate_rejects_wrong_operand_count():
    with pytest.raises(ValueError):
        _template().instantiate([MemAccess([0], DataClass.COMPUTE)])


def test_append_after_instantiate_relowers():
    warp = _template().instantiate([MemAccess([0], DataClass.COMPUTE),
                                    MemAccess([128], DataClass.COMPUTE)])
    warp.append(WarpInstruction(Op.FFMA, dst=11, srcs=(9,)))
    assert len(warp.issue_stream()) == 5
    assert warp.num_renamed_regs() == 4


def test_memory_operand_rejects_non_memory_opcode():
    with pytest.raises(ValueError):
        WarpInstruction(Op.FFMA, dst=1, mem=MemAccess([0], DataClass.COMPUTE))
    insts = [WarpInstruction(Op.FFMA, dst=1), WarpInstruction(Op.EXIT)]
    with pytest.raises(ValueError):
        WarpTemplate(insts, [0])


def test_shared_memory_ops_keep_their_place_among_operands():
    # LDS/STS go down the LDST path without a template operand: a warp's
    # mems hold None there, and its global operands stay at their slots.
    insts = [WarpInstruction(Op.LDS, dst=3),
             WarpInstruction(Op.LDG, dst=4, srcs=(3,)),
             WarpInstruction(Op.STS, srcs=(4,)),
             WarpInstruction(Op.STG, srcs=(4,)),
             WarpInstruction(Op.EXIT)]
    tpl = WarpTemplate(insts, [1, 3])
    warp = tpl.instantiate([MemAccess([0], DataClass.COMPUTE),
                            MemAccess([128], DataClass.COMPUTE)])
    lazy = WarpTrace(list(warp.instructions))
    assert warp.issue_stream() == lazy.issue_stream()
    assert warp.mems == lazy.mems
    assert [m and m.lines for m in warp.mems] == [None, (0,), None, (128,)]


def test_stream_links_each_entry_to_the_next():
    stream = _template().stream
    assert [e[IE_PC] for e in stream] == list(range(len(stream)))
    assert [e[IE_NEXT] for e in stream] == stream[1:] + [None]
    assert all(a[IE_NEXT] is b for a, b in zip(stream, stream[1:]))


def test_long_traces_pickle_without_their_linked_streams():
    """A linked stream is as deep as it is long, which pickle would
    recurse through: traces and templates pickle as their instructions
    and lower again."""
    n = 3 * sys.getrecursionlimit()
    insts = [WarpInstruction(Op.FFMA, dst=4 + i % 8, srcs=(4 + (i + 3) % 8,))
             for i in range(n)]
    insts[n // 2] = WarpInstruction(Op.LDG, dst=2, srcs=(3,))

    def unlinked(warp):
        return [e[:IE_NEXT] for e in warp.issue_stream()]

    warp = WarpTrace(insts)
    want = unlinked(warp)
    copy = pickle.loads(pickle.dumps(warp))
    assert len(copy) == n and unlinked(copy) == want

    tpl = WarpTemplate(insts, [n // 2])
    mem = MemAccess([256], DataClass.COMPUTE)
    copy_tpl = pickle.loads(pickle.dumps(tpl))
    assert [e[:IE_NEXT] for e in copy_tpl.stream] == want
    copy_warp = pickle.loads(pickle.dumps(tpl.instantiate([mem])))
    assert unlinked(copy_warp) == want
    assert copy_warp.mems[0].lines == (256,)
