"""Tests for the LDST path (L1 behaviour) and per-stream statistics."""

import pytest

from repro.config import RTX_3070_MINI
from repro.isa import (
    CTATrace,
    DataClass,
    KernelTrace,
    MemAccess,
    Op,
    Unit,
    WarpInstruction,
    WarpTrace,
)
from repro.memory import L2Cache
from repro.timing import SM, GPUStats, LDSTPath
from repro.timing.stats import OccupancySample, StreamStats


@pytest.fixture()
def path():
    stats = GPUStats()
    l2 = L2Cache(RTX_3070_MINI)
    return LDSTPath(0, RTX_3070_MINI, l2), stats


def load_inst(lines, data_class=DataClass.COMPUTE, bypass=False):
    return WarpInstruction(Op.LDG, dst=4, mem=MemAccess(
        lines, data_class, bypass_l1=bypass))


def issue(p, inst, cycle, stream, sstat):
    """Issue ``inst`` down the path the way the SM does: its opcode info
    and its memory operand."""
    return p.issue(inst.info, inst.mem, cycle, stream, sstat)


class TestLDSTPath:
    def test_cold_load_pays_full_path(self, path):
        p, stats = path
        done = issue(p, load_inst([0]), 0, 0, stats.stream(0))
        cfg = RTX_3070_MINI
        assert done >= cfg.icnt_latency * 2 + cfg.l2.hit_latency

    def test_warm_load_is_l1_hit(self, path):
        p, stats = path
        t1 = issue(p, load_inst([0]), 0, 0, stats.stream(0))
        t2 = issue(p, load_inst([0]), t1, 0, stats.stream(0))
        assert t2 - t1 == RTX_3070_MINI.l1.hit_latency

    def test_transactions_serialise_on_port(self, path):
        p, stats = path
        issue(p, load_inst([0, 128, 256, 384]), 0, 0, stats.stream(0))
        one = issue(p, load_inst([0]), 1000, 0, stats.stream(0))
        four = issue(p, load_inst([0, 128, 256, 384]), 1000, 0, stats.stream(0))
        assert four > one

    def test_store_is_write_through(self, path):
        p, stats = path
        store = WarpInstruction(Op.STG, srcs=(4,),
                                mem=MemAccess([0], DataClass.COMPUTE))
        issue(p, store, 0, 0, stats.stream(0))
        # Store did not allocate in L1: a subsequent load misses.
        t1 = issue(p, load_inst([0]), 500, 0, stats.stream(0))
        assert t1 - 500 > RTX_3070_MINI.l1.hit_latency

    def test_store_reaches_l2(self, path):
        p, stats = path
        store = WarpInstruction(Op.STG, srcs=(4,),
                                mem=MemAccess([0], DataClass.COMPUTE))
        issue(p, store, 0, 0, stats.stream(0))
        assert p.l2.stats_for(0).accesses == 1

    def test_shared_memory_fixed_latency(self, path):
        p, stats = path
        lds = WarpInstruction(Op.LDS, dst=4, srcs=(1,))
        done = issue(p, lds, 10, 0, stats.stream(0))
        assert done == 10 + p.shared_latency
        assert stats.stream(0).shared_accesses == 1

    def test_const_cheap(self, path):
        p, stats = path
        ldc = WarpInstruction(Op.LDC, dst=4, srcs=(1,))
        assert issue(p, ldc, 0, 0, stats.stream(0)) <= 10

    def test_bypass_skips_l1(self, path):
        p, stats = path
        issue(p, load_inst([0], bypass=True), 0, 0, stats.stream(0))
        assert stats.stream(0).l1_accesses == 0
        # The line is in L2 now but NOT in L1.
        assert not p.l1.probe(0)

    def test_texture_class_counted_separately(self, path):
        p, stats = path
        tex = WarpInstruction(Op.TEX, dst=4,
                              mem=MemAccess([0, 128], DataClass.TEXTURE))
        issue(p, tex, 0, 0, stats.stream(0))
        s = stats.stream(0)
        assert s.l1_tex_accesses == 2
        assert s.l1_accesses == 2

    def test_mshr_inflight_skips_returned_fills(self, path):
        # A fill that has returned by the sample cycle is not in flight,
        # though its entry retires only at the line's next access.
        p, stats = path
        done = issue(p, load_inst([0]), 0, 0, stats.stream(0))
        assert p.mshr_inflight(done - 1) == 1
        assert p.mshr_inflight(done) == 0
        assert p.l1.mshr_entries_held() == 1
        assert p.l2.mshr_inflight(0) == 1
        assert p.l2.mshr_inflight(done) == 0

    def test_per_stream_isolation(self, path):
        p, stats = path
        issue(p, load_inst([0]), 0, 0, stats.stream(0))
        issue(p, load_inst([1 << 20]), 0, 1, stats.stream(1))
        assert stats.stream(0).l1_accesses == 1
        assert stats.stream(1).l1_accesses == 1


class TestStreamStats:
    def test_ipc(self):
        s = StreamStats(0)
        s.instructions = 2
        s.first_issue_cycle, s.last_commit_cycle = 10, 20
        assert s.busy_cycles == 10
        assert s.ipc == pytest.approx(0.2)

    def test_zero_safe(self):
        s = StreamStats(0)
        assert s.ipc == 0.0
        assert s.l1_hit_rate == 0.0
        assert s.busy_cycles == 0

    def test_first_issue_tracks_minimum(self):
        # SM.tick's commit: the first issue sets first_issue_cycle and a
        # later one leaves it; last_commit_cycle keeps the latest
        # completion, though the later FFMA completes before the load.
        cfg = RTX_3070_MINI.replace(schedulers_per_sm=1)
        stats = GPUStats()
        sm = SM(0, cfg, L2Cache(cfg), stats)
        k = KernelTrace("k", [CTATrace([WarpTrace([
            load_inst([0]), WarpInstruction(Op.FFMA, dst=8, srcs=(1,)),
        ])], 0)], threads_per_cta=32)
        (w,) = sm.launch_cta(k, k.ctas[0], k.cta_resources(), stream=0).warps
        sm.tick(5)
        load_done = w.last_commit_cycle
        sm.tick(6)
        s = stats.stream(0)
        assert s.instructions == 2
        assert s.issue_by_unit[Unit.MEM] == s.issue_by_unit[Unit.FP] == 1
        assert s.first_issue_cycle == 5
        assert load_done > 6 + 4  # the load outlives the FFMA
        assert s.last_commit_cycle == load_done

    def test_issue_by_unit(self):
        s = StreamStats(0)
        s.issue_by_unit = {Unit.SFU: 2, Unit.MEM: 1}
        assert s.issue_by_unit[Unit.SFU] == 2
        assert s.issue_by_unit[Unit.MEM] == 1
        assert s.issue_by_unit[Unit.FP] == 0

    def test_l1_counters(self):
        s = StreamStats(0)
        s.note_l1(3, 3, DataClass.TEXTURE)
        s.note_l1(0, 1, DataClass.COMPUTE)
        assert s.l1_accesses == 4
        assert s.l1_hits == 3
        assert s.l1_tex_accesses == 3
        assert s.l1_tex_hits == 3


class TestGPUStats:
    def test_stream_lazily_created(self):
        g = GPUStats()
        assert g.stream(3).stream == 3
        assert 3 in g.streams

    def test_total_instructions(self):
        g = GPUStats()
        g.stream(0).instructions = 1
        g.stream(1).instructions = 1
        assert g.total_instructions == 2

    def test_summary_shape(self):
        g = GPUStats()
        g.stream(0).instructions = 1
        summary = g.summary()
        assert set(summary[0]) == {"instructions", "busy_cycles", "ipc",
                                   "l1_hit_rate", "l1_tex_accesses", "ctas"}

    def test_occupancy_sample_fraction(self):
        s = OccupancySample(100, {0: 32, 1: 16}, total_warp_slots=64)
        assert s.fraction(0) == 0.5
        assert s.fraction(1) == 0.25
        assert s.fraction(9) == 0.0


class TestWorkloadPair:
    def test_streams_mapping(self):
        from repro.core import GRAPHICS_STREAM, COMPUTE_STREAM, WorkloadPair
        from repro.compute import build_vio_kernels
        ks = build_vio_kernels()
        pair = WorkloadPair("t", ks[:2], ks[2:4])
        streams = pair.streams()
        assert set(streams) == {GRAPHICS_STREAM, COMPUTE_STREAM}
        assert pair.total_instructions > 0

    def test_rejects_empty_side(self):
        from repro.core import WorkloadPair
        from repro.compute import build_vio_kernels
        ks = build_vio_kernels()
        with pytest.raises(ValueError):
            WorkloadPair("t", [], ks)
        with pytest.raises(ValueError):
            WorkloadPair("t", ks, [])
