"""Tests for the sectored-cache model (32B sectors, Accel-Sim style)."""

import numpy as np
import pytest

from repro.compute import DeviceMemory, KernelBuilder
from repro.config import CacheConfig, RTX_3070_MINI
from repro.core import CRISP
from repro.isa import DataClass
from repro.memory import L2Cache, SetAssocCache, coalesce_sectors, sector_mask_of
from repro.api import simulate as api_simulate


def sectored_l1(config=RTX_3070_MINI):
    return config.replace(
        l1=CacheConfig(size_bytes=128 * 1024, assoc=8, hit_latency=30,
                       sector_size=32))


class TestConfig:
    def test_sector_size_must_divide_line(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=4096, assoc=4, sector_size=48)

    def test_sectors_per_line(self):
        assert CacheConfig(size_bytes=4096, assoc=4,
                           sector_size=32).sectors_per_line == 4
        assert CacheConfig(size_bytes=4096, assoc=4).sectors_per_line == 1


class TestSectorMask:
    def test_mask_bits(self):
        assert sector_mask_of(0, [0]) == 0b0001
        assert sector_mask_of(0, [32, 96]) == 0b1010
        assert sector_mask_of(256, [256 + 64]) == 0b0100

    def test_coalesce_sectors(self):
        # Two lanes in the same sector merge; a third in the next sector
        # does not.
        assert coalesce_sectors(np.array([0, 4, 40])) == [0, 32]


class TestSectoredCacheBehaviour:
    def cache(self):
        return SetAssocCache(CacheConfig(size_bytes=8 * 2 * 128, assoc=2,
                                         sector_size=32))

    def test_sector_miss_on_resident_line(self):
        c = self.cache()
        c.access(0, cycle=0, stream=0, sector_mask=0b0001)
        c.fill(0, DataClass.COMPUTE, 0, sector_mask=0b0001)
        # Same line, different sector: resident but sector-missing.
        assert c.access(0, cycle=1, stream=0, sector_mask=0b0100) == (False, None)
        c.fill(0, DataClass.COMPUTE, 0, sector_mask=0b0100)
        hit, _ = c.access(0, cycle=2, stream=0, sector_mask=0b0101)
        assert hit

    def test_full_line_fill_serves_all_sectors(self):
        c = self.cache()
        c.fill(0, DataClass.COMPUTE, 0)  # mask 0 = whole line
        hit, _ = c.access(0, cycle=1, stream=0, sector_mask=0b1111)
        assert hit

    def test_unsectored_requests_ignore_masks(self):
        c = self.cache()
        c.fill(0, DataClass.COMPUTE, 0, sector_mask=0b0001)
        hit, _ = c.access(0, cycle=1, stream=0)  # whole-line request
        assert hit

    def test_sector_miss_on_in_flight_line(self):
        # The resident line's fill is still in flight, but it lacks the
        # requested sector: a sector miss, not a merge.
        c = self.cache()
        c.fill(0, DataClass.COMPUTE, 0, sector_mask=0b0001, ready=100)
        assert c.access(0, cycle=1, stream=0, sector_mask=0b0001) == (True, 100)
        assert c.access(0, cycle=2, stream=0, sector_mask=0b0100) == (False, None)
        assert c.stats[0].mshr_merges == 0

    def test_sector_refill_keeps_store_dirty(self):
        c = self.cache()
        c.fill(0, DataClass.COMPUTE, 0, sector_mask=0b0001, dirty=True)
        c.fill(0, DataClass.COMPUTE, 0, sector_mask=0b0100)
        c.set_usable_ways(1)
        # Same set: evicting line 0 returns it for the write-back.
        assert c.fill(8 * 128, DataClass.COMPUTE, 0) == (0, 0)


class TestSectoredL2:
    def test_sector_miss_on_in_flight_line_counts_once(self):
        """A request that sector-misses a line whose fill is in flight is
        one L2 access and one miss; it fetches only its own sectors."""
        l2 = L2Cache(RTX_3070_MINI)
        l2.access(0, 0, DataClass.COMPUTE, 0, sector_mask=0b0001,
                  fetch_bytes=32)
        l2.access(0, 1, DataClass.COMPUTE, 0, sector_mask=0b0100,
                  fetch_bytes=32)
        st = l2.stats_for(0)
        assert (st.accesses, st.hits, st.misses, st.mshr_merges) == \
            (2, 0, 2, 0)
        assert l2.dram.aggregate_bytes() == 64


class TestSectoredTraffic:
    def _kernel(self, pattern):
        mem = DeviceMemory(region=13)
        buf = mem.buffer("x", 1 << 22)
        return (KernelBuilder("k", 8, 128)
                .load(buf, pattern)
                .fp(4)
                .build())

    def test_sparse_access_moves_fewer_dram_bytes(self):
        """Strided access touches 4B per 128B line: the sectored config
        fetches 32B instead of 128B per miss."""
        from repro.timing import GPU
        kernel = self._kernel("strided")
        plain_gpu = GPU(RTX_3070_MINI)
        plain_gpu.add_stream(0, [kernel])
        plain_gpu.run()
        plain_bytes = plain_gpu.l2.dram.aggregate_bytes()

        kernel2 = self._kernel("strided")
        sect_gpu = GPU(sectored_l1())
        sect_gpu.add_stream(0, [kernel2])
        sect_gpu.run()
        sect_bytes = sect_gpu.l2.dram.aggregate_bytes()
        assert sect_bytes < plain_bytes / 2

    def test_dense_access_unaffected(self):
        """Coalesced access touches every sector: same bytes either way."""
        from repro.timing import GPU
        kernel = self._kernel("coalesced")
        plain_gpu = GPU(RTX_3070_MINI)
        plain_gpu.add_stream(0, [kernel])
        plain_gpu.run()
        kernel2 = self._kernel("coalesced")
        sect_gpu = GPU(sectored_l1())
        sect_gpu.add_stream(0, [kernel2])
        sect_gpu.run()
        assert sect_gpu.l2.dram.aggregate_bytes() == \
            plain_gpu.l2.dram.aggregate_bytes()

    def test_graphics_frame_runs_sectored(self):
        crisp = CRISP(sectored_l1())
        frame = crisp.trace_scene("SPL", "2k")
        stats = api_simulate(config=crisp.config,
                             streams={0: frame.kernels}).stats
        assert stats.stream(0).kernels_completed == len(frame.kernels)

    def test_traces_carry_sectors(self):
        crisp = CRISP()
        frame = crisp.trace_scene("SPL", "2k")
        with_sectors = 0
        total = 0
        for k in frame.kernels:
            for cta in k.ctas:
                for w in cta.warps:
                    for inst in w:
                        if inst.mem is not None:
                            total += 1
                            if inst.mem.sectors is not None:
                                with_sectors += 1
        assert with_sectors > total * 0.5

    def test_sectors_subset_of_lines(self):
        from repro.compute import build_vio_kernels
        for k in build_vio_kernels():
            for cta in k.ctas:
                for w in cta.warps:
                    for inst in w:
                        if inst.mem is None or inst.mem.sectors is None:
                            continue
                        lines = set(inst.mem.lines)
                        for s in inst.mem.sectors:
                            assert s - (s % 128) in lines
