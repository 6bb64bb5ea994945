"""Tests for the kernel tracer DSL and the XR compute workloads."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compute import (
    DeviceMemory,
    KernelBuilder,
    build_compute_workload,
    build_hologram_kernels,
    build_nn_kernels,
    build_vio_kernels,
    coverage_of,
    kernel_count_per_frame,
    principal_kernels,
)
from repro.isa import DataClass, Op


@pytest.fixture()
def mem():
    return DeviceMemory(region=3)


class TestDeviceMemory:
    def test_buffers_disjoint(self, mem):
        a = mem.buffer("a", 1000)
        b = mem.buffer("b", 1000)
        assert a.base + 1000 <= b.base

    def test_buffer_recorded(self, mem):
        mem.buffer("a", 16)
        assert [b.name for b in mem.buffers] == ["a"]


class TestKernelBuilder:
    def test_grid_block_shape(self, mem):
        buf = mem.buffer("x", 4096)
        k = KernelBuilder("k", grid=3, block=64).load(buf).build()
        assert k.num_ctas == 3
        assert k.warps_per_cta == 2
        assert k.threads_per_cta == 64

    def test_rejects_non_warp_block(self):
        with pytest.raises(ValueError):
            KernelBuilder("k", grid=1, block=33)

    def test_rejects_zero_grid(self):
        with pytest.raises(ValueError):
            KernelBuilder("k", grid=0, block=32)

    def test_coalesced_load_one_line_per_warp(self, mem):
        buf = mem.buffer("x", 1 << 16)
        k = KernelBuilder("k", 1, 32).load(buf, "coalesced").build()
        ldg = [i for w in k.ctas[0].warps for i in w if i.op is Op.LDG]
        assert len(ldg) == 1
        assert ldg[0].mem.num_transactions == 1  # 32 x 4B = one 128B line

    def test_strided_load_one_line_per_thread(self, mem):
        buf = mem.buffer("x", 1 << 20)
        k = KernelBuilder("k", 1, 32).load(buf, "strided").build()
        ldg = [i for w in k.ctas[0].warps for i in w if i.op is Op.LDG][0]
        assert ldg.mem.num_transactions == 32

    def test_broadcast_single_line(self, mem):
        buf = mem.buffer("x", 4096)
        k = KernelBuilder("k", 2, 64).load(buf, "broadcast").build()
        for cta in k.ctas:
            for w in cta.warps:
                ldg = [i for i in w if i.op is Op.LDG][0]
                assert ldg.mem.num_transactions == 1

    def test_random_pattern_within_buffer(self, mem):
        buf = mem.buffer("x", 2048)
        k = KernelBuilder("k", 2, 64).load(buf, "random").build()
        for cta in k.ctas:
            for w in cta.warps:
                for i in w:
                    if i.op is Op.LDG:
                        assert all(buf.base <= l < buf.base + 2048 + 128
                                   for l in i.mem.lines)

    def test_custom_pattern_callable(self, mem):
        buf = mem.buffer("x", 1 << 16)
        k = (KernelBuilder("k", 1, 32)
             .load(buf, lambda tids: tids * 2).build())
        assert any(i.op is Op.LDG for i in k.ctas[0].warps[0])

    def test_unknown_pattern_raises(self, mem):
        buf = mem.buffer("x", 128)
        with pytest.raises(ValueError):
            KernelBuilder("k", 1, 32).load(buf, "zigzag").build()

    def test_streaming_load_bypasses(self, mem):
        buf = mem.buffer("x", 1 << 16)
        k = KernelBuilder("k", 1, 32).load(buf, streaming=True).build()
        ldg = [i for i in k.ctas[0].warps[0] if i.op is Op.LDG][0]
        assert ldg.mem.bypass_l1

    def test_alu_helpers(self, mem):
        k = (KernelBuilder("k", 1, 32)
             .fp(3).intop(2).sfu(1).tensor(1).build())
        mix = k.instruction_mix()
        assert mix[Op.FFMA] == 3
        assert mix[Op.IMAD] == 2
        assert mix[Op.MUFU_SIN] == 1
        assert mix[Op.HMMA] == 1

    def test_shared_and_barrier(self, mem):
        k = (KernelBuilder("k", 1, 64, shared_mem=1024)
             .shared_store(2).barrier().shared_load(1).build())
        mix = k.instruction_mix()
        assert mix[Op.STS] == 2 * 2  # per warp
        assert mix[Op.BAR] == 2
        assert k.shared_mem_per_cta == 1024

    def test_store_emitted(self, mem):
        buf = mem.buffer("x", 1 << 16)
        k = KernelBuilder("k", 1, 32).fp(1).store(buf).build()
        assert k.instruction_mix()[Op.STG] == 1

    def test_every_warp_ends_with_exit(self, mem):
        buf = mem.buffer("x", 1 << 16)
        k = KernelBuilder("k", 2, 64).load(buf).fp(2).build()
        for cta in k.ctas:
            for w in cta.warps:
                assert w[len(w) - 1].op is Op.EXIT

    def test_compute_traffic_tagged(self, mem):
        buf = mem.buffer("x", 1 << 16)
        k = KernelBuilder("k", 1, 32).load(buf).build()
        assert DataClass.COMPUTE in k.memory_footprint()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 4), st.integers(1, 8))
    def test_property_instruction_count_scales(self, grid, warps, n_fp):
        m = DeviceMemory(region=4)
        buf = m.buffer("x", 1 << 16)
        k = (KernelBuilder("k", grid, warps * 32)
             .load(buf).fp(n_fp).build())
        per_warp = 1 + n_fp + 1  # LDG + FPs + EXIT
        assert k.num_instructions == grid * warps * per_warp


class TestPKA:
    def test_selects_dominant(self):
        weighted = [("a", 0.1), ("b", 0.8), ("c", 0.1)]
        assert principal_kernels(weighted, coverage=0.75) == ["b"]

    def test_preserves_launch_order(self):
        weighted = [("a", 0.3), ("b", 0.2), ("c", 0.5)]
        assert principal_kernels(weighted, coverage=0.8) == ["a", "c"]

    def test_full_coverage_keeps_all(self):
        weighted = [("a", 1.0), ("b", 1.0)]
        assert principal_kernels(weighted, coverage=1.0) == ["a", "b"]

    def test_rejects_bad_coverage(self):
        with pytest.raises(ValueError):
            principal_kernels([("a", 1.0)], coverage=0.0)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            principal_kernels([("a", 0.0)], coverage=0.5)

    def test_empty_ok(self):
        assert principal_kernels([], coverage=0.5) == []

    def test_coverage_of(self):
        weighted = [("a", 3.0), ("b", 1.0)]
        assert coverage_of(weighted, ["a"]) == pytest.approx(0.75)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=12),
           st.floats(0.05, 1.0))
    def test_property_selection_meets_coverage(self, weights, cov):
        weighted = [(i, w) for i, w in enumerate(weights)]
        chosen = principal_kernels(weighted, coverage=cov)
        achieved = coverage_of(weighted, chosen)
        assert achieved >= cov - 1e-9
        assert chosen == sorted(chosen)  # launch order


class TestWorkloads:
    def test_vio_many_small_kernels(self):
        ks = build_vio_kernels()
        assert len(ks) == kernel_count_per_frame()
        # "Many small kernels": median kernel is small.
        sizes = sorted(k.num_instructions for k in ks)
        assert sizes[len(sizes) // 2] < 3000

    def test_vio_frames_scale(self):
        assert len(build_vio_kernels(frames=2)) == 2 * kernel_count_per_frame()

    def test_holo_compute_bound(self):
        ks = build_hologram_kernels()
        fp = sfu = mem_i = 0
        for k in ks:
            mix = k.instruction_mix()
            fp += mix.get(Op.FFMA, 0)
            sfu += mix.get(Op.MUFU_SIN, 0)
            mem_i += mix.get(Op.LDG, 0) + mix.get(Op.STG, 0)
        assert (fp + sfu) > 10 * mem_i  # overwhelmingly arithmetic

    def test_nn_uses_shared_memory_and_tensor(self):
        ks = build_nn_kernels(coverage=1.0)
        assert any(k.shared_mem_per_cta > 0 for k in ks)
        assert any(Op.HMMA in k.instruction_mix() for k in ks)
        assert any(Op.BAR in k.instruction_mix() for k in ks)

    def test_nn_pka_reduces_kernels(self):
        from repro.compute.nn import full_layer_count
        selected = build_nn_kernels(coverage=0.6)
        assert len(selected) < full_layer_count()

    def test_nn_inferences_repeat(self):
        one = build_nn_kernels(coverage=1.0, inferences=1)
        three = build_nn_kernels(coverage=1.0, inferences=3)
        assert len(three) == 3 * len(one)

    def test_nn_rejects_zero_inferences(self):
        with pytest.raises(ValueError):
            build_nn_kernels(inferences=0)

    def test_workload_registry(self):
        for name in ("VIO", "HOLO", "NN"):
            ks = build_compute_workload(name)
            assert ks

    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="HOLO"):
            build_compute_workload("RAYTRACE")

    def test_compute_streams_deterministic(self):
        a = [k.num_instructions for k in build_vio_kernels()]
        b = [k.num_instructions for k in build_vio_kernels()]
        assert a == b
