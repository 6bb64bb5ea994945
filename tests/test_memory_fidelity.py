"""Tests for the memory-model fidelity features: the L1/shared-memory
carveout, dirty write-backs, MSHR back-pressure, and scheduler policies."""

import pytest

from repro.config import CacheConfig, RTX_3070_MINI
from repro.isa import (
    CTATrace,
    DataClass,
    KernelTrace,
    MemAccess,
    Op,
    WarpInstruction,
    WarpTrace,
)
from repro.memory import L2Cache, SetAssocCache
from repro.timing import GPUStats, LDSTPath, SM, simulate


class TestUsableWays:
    def cache(self):
        return SetAssocCache(CacheConfig(size_bytes=8 * 4 * 128, assoc=4))

    def test_validates_range(self):
        c = self.cache()
        with pytest.raises(ValueError):
            c.set_usable_ways(0)
        with pytest.raises(ValueError):
            c.set_usable_ways(5)

    def test_shrinking_reduces_capacity(self):
        c = self.cache()
        c.set_usable_ways(1)
        # Two lines in the same set now evict each other.
        for addr in (0, 8 * 128):
            hit, _ = c.access(addr, 0, DataClass.COMPUTE, 0)
            if not hit:
                c.fill(addr, DataClass.COMPUTE, 0)
        hit, _ = c.access(0, 0, DataClass.COMPUTE, 0)
        assert not hit

    def test_growing_back_restores(self):
        c = self.cache()
        c.set_usable_ways(1)
        c.set_usable_ways(4)
        for addr in (0, 8 * 128):
            hit, _ = c.access(addr, 0, DataClass.COMPUTE, 0)
            if not hit:
                c.fill(addr, DataClass.COMPUTE, 0)
        hit, _ = c.access(0, 0, DataClass.COMPUTE, 0)
        assert hit


class TestCarveout:
    def make_path(self):
        stats = GPUStats()
        return LDSTPath(0, RTX_3070_MINI, L2Cache(RTX_3070_MINI), stats)

    def test_array_covers_l1_plus_smem(self):
        p = self.make_path()
        expected_min = (RTX_3070_MINI.l1.size_bytes
                        + RTX_3070_MINI.shared_mem_per_sm)
        assert p.l1.config.size_bytes >= expected_min * 0.9

    def test_zero_smem_gives_full_array(self):
        p = self.make_path()
        p.update_carveout(0)
        assert p.l1.usable_ways == p.l1.assoc

    def test_smem_use_shrinks_cache(self):
        p = self.make_path()
        full = p.l1.assoc
        p.update_carveout(64 * 1024)
        assert p.l1.usable_ways < full
        p.update_carveout(0)
        assert p.l1.usable_ways == full

    def test_never_below_one_way(self):
        p = self.make_path()
        p.update_carveout(10 ** 9)
        assert p.l1.usable_ways >= 1

    def test_sm_updates_carveout_on_launch_and_free(self):
        stats = GPUStats()
        sm = SM(0, RTX_3070_MINI, L2Cache(RTX_3070_MINI), stats)
        full_ways = sm.ldst.l1.usable_ways
        wt = WarpTrace([WarpInstruction(Op.EXIT)])
        k = KernelTrace("smem", [CTATrace([wt])], threads_per_cta=32,
                        shared_mem_per_cta=48 * 1024)
        sm.launch_cta(k, k.ctas[0], stream=0)
        assert sm.ldst.l1.usable_ways < full_ways
        cycle = 0
        while sm.has_work:
            sm.process_completions(cycle)
            sm.tick(cycle)
            cycle += 1
        assert sm.ldst.l1.usable_ways == full_ways


class TestDirtyWriteback:
    def test_l2_dirty_eviction_writes_dram(self):
        cfg = RTX_3070_MINI.replace(
            l2=CacheConfig(size_bytes=16 * 1024, assoc=2, hit_latency=120),
            l2_banks=1)
        l2 = L2Cache(cfg)
        # Dirty one line, then stream enough lines through its set to
        # evict it.
        l2.access(0, 0, DataClass.COMPUTE, 0, is_store=True)
        writes_before = l2.dram.stats[0].writes
        sets = l2.sets_per_bank
        for i in range(1, 4):
            l2.access(i * sets * 128, 100 * i, DataClass.COMPUTE, 0)
        assert l2.dram.stats[0].writes > writes_before

    def test_clean_eviction_no_writeback(self):
        cfg = RTX_3070_MINI.replace(
            l2=CacheConfig(size_bytes=16 * 1024, assoc=2, hit_latency=120),
            l2_banks=1)
        l2 = L2Cache(cfg)
        l2.access(0, 0, DataClass.COMPUTE, 0)  # clean load
        sets = l2.sets_per_bank
        for i in range(1, 4):
            l2.access(i * sets * 128, 100 * i, DataClass.COMPUTE, 0)
        # Only the store-allocates count as writes; loads evicting clean
        # lines add none.
        assert l2.dram.stats[0].writes == 0


class TestMSHRPressure:
    def test_mshr_limit_delays_bursts(self):
        tight = RTX_3070_MINI.replace(
            l1=CacheConfig(size_bytes=128 * 1024, assoc=8, mshr_entries=2,
                           hit_latency=30))
        loose = RTX_3070_MINI

        def burst_kernel():
            wt = WarpTrace()
            for i in range(16):
                wt.append(WarpInstruction(
                    Op.LDG, dst=4 + i % 8,
                    mem=MemAccess([i * 4096 * 128], DataClass.COMPUTE)))
            wt.append(WarpInstruction(Op.EXIT))
            return KernelTrace("burst", [CTATrace([wt])], threads_per_cta=32)

        t_tight = simulate(tight, {0: [burst_kernel()]}).cycles
        t_loose = simulate(loose, {0: [burst_kernel()]}).cycles
        assert t_tight > t_loose


class TestSchedulerPolicies:
    def test_config_validates_policy(self):
        with pytest.raises(ValueError):
            RTX_3070_MINI.replace(scheduler_policy="random")

    def test_lrr_runs_to_completion(self):
        from repro.compute import build_vio_kernels
        cfg = RTX_3070_MINI.replace(scheduler_policy="lrr")
        stats = simulate(cfg, {0: build_vio_kernels()})
        assert stats.stream(0).kernels_completed > 0

    def test_lrr_rotates_across_warps(self):
        from .test_timing_core import launch, one_sched_sm, tick

        sm = one_sched_sm("lrr")
        # Hazard-free streams: every warp is always ready.
        launch(sm, *([WarpInstruction(Op.FFMA, dst=8 + wid * 8 + i)
                      for i in range(4)] for wid in range(3)))
        order = [tick(sm, cycle)[0].warp_id for cycle in range(6)]
        # Round robin: no warp issues twice before the others issue once.
        assert order[:3] in ([0, 1, 2], [1, 2, 0], [2, 0, 1])
        assert order[3:6] == order[:3]

    def test_gto_and_lrr_both_deterministic(self):
        from repro.compute import build_hologram_kernels
        for pol in ("gto", "lrr"):
            cfg = RTX_3070_MINI.replace(scheduler_policy=pol)
            a = simulate(cfg, {0: build_hologram_kernels(passes=1)}).cycles
            b = simulate(cfg, {0: build_hologram_kernels(passes=1)}).cycles
            assert a == b
