"""Tests for the SM model, CTA scheduling, stream semantics, and the GPU loop."""

import pytest

from repro.api import simulate
from repro.config import JETSON_ORIN_MINI, RTX_3070_MINI
from repro.core.platform import collect_streams
from repro.isa import (
    CTATrace,
    DataClass,
    KernelTrace,
    MemAccess,
    Op,
    WarpInstruction,
    WarpTrace,
)
from repro.memory import L2Cache
from repro.timing import (
    GPU,
    DeadlockError,
    PartitionPolicy,
    SM,
    GPUStats,
)
from repro.timing.cta import StreamQueue


def alu_warp(n=4):
    wt = WarpTrace([WarpInstruction(Op.FFMA, dst=4 + i % 8, srcs=(1,))
                    for i in range(n)])
    wt.append(WarpInstruction(Op.EXIT))
    return wt


def make_kernel(name="k", n_ctas=2, warps=2, n=4, regs=16, smem=0,
                depends_on_prev=True):
    ctas = [CTATrace([alu_warp(n) for _ in range(warps)], c)
            for c in range(n_ctas)]
    return KernelTrace(name, ctas, threads_per_cta=warps * 32,
                       regs_per_thread=regs, shared_mem_per_cta=smem,
                       depends_on_prev=depends_on_prev)


def barrier_kernel(warps=4):
    ctas = []
    wts = []
    for _ in range(warps):
        wt = WarpTrace([
            WarpInstruction(Op.FFMA, dst=4, srcs=(1,)),
            WarpInstruction(Op.BAR),
            WarpInstruction(Op.FFMA, dst=8, srcs=(4,)),
            WarpInstruction(Op.EXIT),
        ])
        wts.append(wt)
    ctas.append(CTATrace(wts, 0))
    return KernelTrace("barrier", ctas, threads_per_cta=warps * 32)


def fresh_sm():
    stats = GPUStats()
    l2 = L2Cache(RTX_3070_MINI)
    return SM(0, RTX_3070_MINI, l2, stats), stats


class TestSMResidency:
    def test_launch_consumes_resources(self):
        sm, _ = fresh_sm()
        k = make_kernel(regs=32, smem=1024)
        sm.launch_cta(k, k.ctas[0], k.cta_resources(), stream=0)
        assert sm.free_threads == RTX_3070_MINI.max_threads_per_sm - 64
        assert sm.free_registers == RTX_3070_MINI.registers_per_sm - 32 * 64
        assert sm.free_shared_mem == RTX_3070_MINI.shared_mem_per_sm - 1024
        assert sm.free_warp_slots == RTX_3070_MINI.max_warps_per_sm - 2

    def test_stream_usage_tracked(self):
        sm, _ = fresh_sm()
        k = make_kernel()
        sm.launch_cta(k, k.ctas[0], k.cta_resources(), stream=5)
        u = sm.stream_usage(5)
        assert u.threads == 64
        assert u.warps == 2

    def test_fits_rejects_when_full(self):
        sm, _ = fresh_sm()
        k = make_kernel(warps=2, regs=64)
        res = k.cta_resources()
        while sm.fits(res):
            sm.launch_cta(k, k.ctas[0], k.cta_resources(), stream=0)
        assert not sm.fits(res)

    def test_launch_raises_if_no_fit(self):
        sm, _ = fresh_sm()
        sm.free_threads = 0
        k = make_kernel()
        with pytest.raises(RuntimeError):
            sm.launch_cta(k, k.ctas[0], k.cta_resources(), 0)

    def test_completion_frees_resources(self):
        sm, stats = fresh_sm()
        k = make_kernel(n_ctas=1, warps=1, n=2)
        sm.launch_cta(k, k.ctas[0], k.cta_resources(), stream=0)
        cycle = 0
        for _ in range(200):
            sm.process_completions(cycle)
            if not sm.has_work:
                break
            sm.tick(cycle)
            cycle += 1
        assert not sm.has_work
        assert sm.free_warp_slots == RTX_3070_MINI.max_warps_per_sm
        assert stats.stream(0).ctas_completed == 1


class TestBarrier:
    def test_barrier_synchronises_cta(self):
        stats = simulate(config=RTX_3070_MINI, streams={0: [barrier_kernel(4)]}).stats
        s = stats.stream(0)
        # All warps executed all instructions (2 FFMA + BAR + EXIT each).
        assert s.instructions == 4 * 4

    def test_barrier_kernel_terminates(self):
        stats = simulate(config=RTX_3070_MINI, streams={0: [barrier_kernel(8)]}).stats
        assert stats.cycles > 0


class TestStreamQueue:
    def test_in_order_dependent_kernels(self):
        a = make_kernel("a")
        b = make_kernel("b", depends_on_prev=True)
        sq = StreamQueue(0, [a, b])
        assert sq.current_kernel() is a
        # b cannot start before a completes.
        while sq.has_issuable_cta:
            sq.take_cta()
        assert sq.current_kernel() is None
        for _ in range(a.num_ctas):
            sq.note_cta_complete(a.uid, 10)
        assert sq.current_kernel() is b

    def test_pipelined_independent_kernel(self):
        a = make_kernel("a")
        b = make_kernel("b", depends_on_prev=False)
        sq = StreamQueue(0, [a, b])
        while sq._issuable_state() is not None and \
                sq._issuable_state().kernel is a:
            sq.take_cta()
        # a fully issued but not complete: b may start anyway.
        assert sq.current_kernel() is b

    def test_max_inflight_limits(self):
        kernels = [make_kernel("k%d" % i, depends_on_prev=False)
                   for i in range(5)]
        sq = StreamQueue(0, kernels, max_inflight=2)
        while sq.has_issuable_cta:
            sq.take_cta()
        assert sq.inflight == 2

    def test_completion_out_of_order_tolerated(self):
        a = make_kernel("a", n_ctas=2)
        b = make_kernel("b", n_ctas=1, depends_on_prev=False)
        sq = StreamQueue(0, [a, b])
        taken = []
        while sq.has_issuable_cta:
            taken.append(sq.take_cta()[0])
        # Complete b first.
        assert sq.note_cta_complete(b.uid, 5)
        assert not sq.all_complete
        sq.note_cta_complete(a.uid, 6)
        assert sq.note_cta_complete(a.uid, 7)
        assert sq.all_complete
        names = [n for n, _ in sq.kernel_completions]
        assert names == ["b", "a"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StreamQueue(0, [])

    def test_unknown_uid_raises(self):
        sq = StreamQueue(0, [make_kernel()])
        with pytest.raises(KeyError):
            sq.note_cta_complete(999999, 0)


class TestGPURun:
    def test_single_stream_completes(self):
        stats = simulate(config=RTX_3070_MINI, streams={0: [make_kernel(n_ctas=4)]}).stats
        assert stats.stream(0).ctas_completed == 4
        assert stats.stream(0).kernels_completed == 1

    def test_deterministic(self):
        def run():
            return simulate(config=RTX_3070_MINI, streams={
                0: [make_kernel(n_ctas=4, n=20)]}).total_cycles
        assert run() == run()

    def test_two_streams_both_complete(self):
        stats = simulate(config=RTX_3070_MINI, streams={
            0: [make_kernel("a")], 1: [make_kernel("b")]}).stats
        assert stats.stream(0).kernels_completed == 1
        assert stats.stream(1).kernels_completed == 1

    def test_per_stream_instruction_counts(self):
        k = make_kernel(n_ctas=2, warps=2, n=4)
        stats = simulate(config=RTX_3070_MINI, streams={0: [k]}).stats
        assert stats.stream(0).instructions == k.num_instructions

    def test_no_streams_raises(self):
        gpu = GPU(RTX_3070_MINI)
        with pytest.raises(ValueError):
            gpu.run()

    def test_duplicate_stream_rejected(self):
        gpu = GPU(RTX_3070_MINI)
        gpu.add_stream(0, [make_kernel()])
        with pytest.raises(ValueError):
            gpu.add_stream(0, [make_kernel()])

    def test_quota_deadlock_detected(self):
        class TinyQuota(PartitionPolicy):
            name = "tiny"

            def quota(self, sm, stream, config):
                from repro.isa import CTAResources
                return CTAResources(threads=1, registers=1, shared_mem=0,
                                    warps=0)

        gpu = GPU(RTX_3070_MINI, policy=TinyQuota())
        gpu.add_stream(0, [make_kernel()])
        with pytest.raises(DeadlockError):
            gpu.run()

    def test_memory_kernel_records_l1_stats(self):
        wt = WarpTrace([
            WarpInstruction(Op.LDG, dst=4,
                            mem=MemAccess([0, 128], DataClass.COMPUTE)),
            WarpInstruction(Op.EXIT),
        ])
        k = KernelTrace("mem", [CTATrace([wt])], threads_per_cta=32)
        stats = simulate(config=RTX_3070_MINI, streams={0: [k]}).stats
        assert stats.stream(0).l1_accesses == 2

    def test_texture_transactions_tagged(self):
        wt = WarpTrace([
            WarpInstruction(Op.TEX, dst=4,
                            mem=MemAccess([0, 128, 256], DataClass.TEXTURE)),
            WarpInstruction(Op.EXIT),
        ])
        k = KernelTrace("tex", [CTATrace([wt])], threads_per_cta=32)
        stats = simulate(config=RTX_3070_MINI, streams={0: [k]}).stats
        assert stats.stream(0).l1_tex_accesses == 3

    def test_sampling_records_occupancy(self):
        gpu = GPU(RTX_3070_MINI, sample_interval=10)
        gpu.add_stream(0, [make_kernel(n_ctas=8, n=50)])
        stats = gpu.run()
        assert stats.occupancy_trace
        assert stats.l2_snapshots

    def test_more_work_takes_longer(self):
        small = simulate(config=RTX_3070_MINI, streams={
            0: [make_kernel(n_ctas=2, n=10)]}).stats
        big = simulate(config=RTX_3070_MINI, streams={
            0: [make_kernel(n_ctas=64, n=100)]}).stats
        assert big.cycles > small.cycles

    def test_streaming_load_bypasses_l1(self):
        wt = WarpTrace([
            WarpInstruction(Op.LDG, dst=4,
                            mem=MemAccess([0], DataClass.COMPUTE,
                                          bypass_l1=True)),
            WarpInstruction(Op.EXIT),
        ])
        k = KernelTrace("stream", [CTATrace([wt])], threads_per_cta=32)
        stats = simulate(config=RTX_3070_MINI, streams={0: [k]}).stats
        assert stats.stream(0).l1_accesses == 0
        assert stats.stream(0).mem_transactions == 1

    def test_each_sm_ticks_at_most_once_per_cycle(self, monkeypatch):
        """A fill() after completions may launch onto an SM that is
        already due; it still ticks once that cycle."""
        streams = collect_streams(JETSON_ORIN_MINI, scene="SPL", res="nano",
                                  compute="VIO")
        ticks = []
        real_tick = SM.tick

        def tick(sm, cycle):
            ticks.append((sm.sm_id, cycle))
            return real_tick(sm, cycle)

        monkeypatch.setattr(SM, "tick", tick)
        simulate(config=JETSON_ORIN_MINI, streams=streams, policy="tap")
        assert ticks
        assert len(set(ticks)) == len(ticks)

    @pytest.mark.parametrize("scheduler", ["gto", "lrr"])
    def test_every_issue_happens_at_the_visited_cycle(self, monkeypatch,
                                                      scheduler):
        """Selection picks only a warp whose unit pipe is free, so every
        instruction issues at the cycle its SM ticks: the pipe it
        reserved frees exactly one initiation interval after that cycle.
        """
        from repro.isa.instructions import IE_INITIATION, IE_UNIT_IDX
        config = JETSON_ORIN_MINI.replace(scheduler_policy=scheduler)
        streams = collect_streams(config, scene="SPL", res="nano",
                                  compute="VIO")
        real_tick = SM.tick
        issues = []

        def tick(sm, cycle):
            st = sm.slot_state
            before = [(w, w.pc, st.cur[w.slot])
                      for cta in sm.resident for w in cta.warps]
            nxt = real_tick(sm, cycle)
            scheds = set()
            for w, pc, entry in before:
                if w.pc == pc:
                    continue
                assert w.pc == pc + 1
                home = w.home_sched
                assert home not in scheds  # one issue per scheduler
                scheds.add(home)
                pipe_free = sm.schedulers[home]._pnf[entry[IE_UNIT_IDX]]
                assert pipe_free == cycle + entry[IE_INITIATION]
                issues.append(cycle)
            return nxt

        monkeypatch.setattr(SM, "tick", tick)
        stats = simulate(config=config, streams=streams, policy="tap").stats
        assert len(issues) == stats.total_instructions
