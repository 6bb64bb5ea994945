"""Tests for warp-divergence support in the kernel DSL."""

import pytest

from repro.compute import DeviceMemory, KernelBuilder
from repro.isa import Op


@pytest.fixture()
def mem():
    return DeviceMemory(region=8)


class TestDivergent:
    def test_branch_instruction_emitted(self, mem):
        k = (KernelBuilder("k", 1, 32)
             .fp(2)
             .divergent(0.5, lambda b: b.fp(4))
             .build())
        ops = [i.op for i in k.ctas[0].warps[0]]
        assert Op.BRA in ops

    def test_body_runs_with_reduced_mask(self, mem):
        k = (KernelBuilder("k", 1, 32)
             .divergent(0.5, lambda b: b.fp(3))
             .build())
        body_insts = [i for i in k.ctas[0].warps[0]
                      if i.op is Op.FFMA]
        assert all(i.active == 16 for i in body_insts)

    def test_outer_ops_keep_full_mask(self, mem):
        k = (KernelBuilder("k", 1, 32)
             .fp(1)
             .divergent(0.25, lambda b: b.fp(1))
             .fp(1)
             .build())
        ffma = [i for i in k.ctas[0].warps[0] if i.op is Op.FFMA]
        assert [i.active for i in ffma] == [32, 8, 32]

    def test_divergent_load_coalesces_fewer_lines(self, mem):
        buf = mem.buffer("x", 1 << 20)
        full = (KernelBuilder("f", 1, 32)
                .load(buf, "strided").build())
        div = (KernelBuilder("d", 1, 32)
               .divergent(0.25, lambda b: b.load(buf, "strided")).build())
        full_ldg = [i for i in full.ctas[0].warps[0] if i.op is Op.LDG][0]
        div_ldg = [i for i in div.ctas[0].warps[0] if i.op is Op.LDG][0]
        assert div_ldg.mem.num_transactions < full_ldg.mem.num_transactions
        assert div_ldg.mem.num_transactions == 8

    def test_nested_divergence(self, mem):
        k = (KernelBuilder("k", 1, 32)
             .divergent(0.5, lambda b: b.divergent(0.5, lambda c: c.fp(1)))
             .build())
        ffma = [i for i in k.ctas[0].warps[0] if i.op is Op.FFMA]
        assert ffma[0].active == 8

    def test_minimum_one_lane(self, mem):
        k = (KernelBuilder("k", 1, 32)
             .divergent(0.001, lambda b: b.fp(1))
             .build())
        ffma = [i for i in k.ctas[0].warps[0] if i.op is Op.FFMA]
        assert ffma[0].active == 1

    def test_rejects_bad_fraction(self, mem):
        b = KernelBuilder("k", 1, 32)
        with pytest.raises(ValueError):
            b.divergent(0.0, lambda s: s.fp(1))
        with pytest.raises(ValueError):
            b.divergent(1.5, lambda s: s.fp(1))

    def test_rejects_empty_body(self, mem):
        with pytest.raises(ValueError, match="empty"):
            KernelBuilder("k", 1, 32).divergent(0.5, lambda s: None)

    def test_dependency_chain_crosses_region(self, mem):
        k = (KernelBuilder("k", 1, 32)
             .fp(1)
             .divergent(0.5, lambda b: b.fp(1))
             .fp(1)
             .build())
        insts = list(k.ctas[0].warps[0])
        ffma = [i for i in insts if i.op is Op.FFMA]
        # Later FFMA reads the register the divergent body wrote.
        assert ffma[2].srcs[0] == ffma[1].dst

    def test_simulates(self, mem):
        from repro.config import JETSON_ORIN_MINI
        from repro.api import simulate
        buf = mem.buffer("x", 1 << 16)
        k = (KernelBuilder("k", 4, 128)
             .load(buf)
             .divergent(0.3, lambda b: b.fp(10).load(buf, "random"))
             .store(buf)
             .build())
        stats = simulate(config=JETSON_ORIN_MINI, streams={0: [k]}).stats
        assert stats.stream(0).kernels_completed == 1

    def test_vio_corner_uses_divergence(self):
        from repro.compute import build_vio_kernels
        corner = [k for k in build_vio_kernels() if k.name == "vio_corner"][0]
        assert Op.BRA in corner.instruction_mix()
