"""Tests for warp issue: scheduling order, dependencies and unit pipes.

Every case drives the production issue path, :meth:`SM.tick`, on an SM
with one warp scheduler, and observes issues through ``WarpContext.pc``.
"""

import pytest

from repro.config import RTX_3070_MINI
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
from repro.timing import BLOCKED, SM, GPUStats, ResidentCTA, WarpContext
from repro.timing import scheduler as scheduler_module


def one_sched_sm(policy="gto"):
    cfg = RTX_3070_MINI.replace(schedulers_per_sm=1, scheduler_policy=policy)
    return SM(0, cfg, L2Cache(cfg), GPUStats())


def launch(sm, *warps, stream=0):
    """Launch one CTA whose warps run the given instruction lists.

    Returns the CTA's WarpContexts; warp ids and slots follow list order.
    """
    k = KernelTrace("k", [CTATrace([WarpTrace(list(w)) for w in warps], 0)],
                    threads_per_cta=32 * len(warps))
    return list(sm.launch_cta(k, k.ctas[0], k.cta_resources(),
                              stream=stream).warps)


def place(sm, warp_ids, n_instrs):
    """Put warps with arbitrary ids on one CTA of ``sm`` by hand.

    A launched CTA numbers its warps from 0; this reaches ids a launch
    cannot.  ``tick`` reads only the CTA's warps and live count.
    """
    cta = ResidentCTA(None, None, None, stream=0)
    for wid in warp_ids:
        trace = WarpTrace([WarpInstruction(Op.FFMA, dst=8 + i)
                           for i in range(n_instrs)])
        w = WarpContext(trace, 0, cta, wid, sm.slot_state,
                        sm.stats.stream(0))
        cta.warps.append(w)
        cta.live_warps += 1
        sm.schedulers[0].add_warp(w.slot)
    return cta.warps


def pcs(sm):
    """Every slot's warp pc, in slot order."""
    return [w.pc for w in sm.slot_state.warps]


def tick(sm, cycle):
    """Tick ``sm`` at ``cycle``: (the warp that issued or None, next event)."""
    st = sm.slot_state
    before = pcs(sm)
    nxt = sm.tick(cycle)
    after = pcs(sm)
    issued = [s for s, pc in enumerate(before) if after[s] != pc]
    assert len(issued) <= 1  # one scheduler issues at most once a cycle
    return (st.warps[issued[0]] if issued else None), nxt


def ffma(dst=4, srcs=(1,)):
    return WarpInstruction(Op.FFMA, dst=dst, srcs=srcs)


def mufu(dst=4):
    return WarpInstruction(Op.MUFU_RCP, dst=dst, srcs=(1,))


class TestUnitPipe:
    def test_pipelined_issue(self):
        sm = one_sched_sm()
        a, b = launch(sm, [ffma()], [ffma()])
        assert tick(sm, 0)[0] is a
        assert tick(sm, 1)[0] is b  # next cycle, II=1

    def test_initiation_interval_blocks(self):
        sm = one_sched_sm()
        a, b = launch(sm, [mufu()], [mufu()])
        assert tick(sm, 0)[0] is a
        assert tick(sm, 1) == (None, 4)  # SFU II=4
        assert tick(sm, 4)[0] is b

    def test_earliest_issue(self):
        # A busy pipe delays issue to the cycle it frees; a pipe that
        # freed long ago delays nothing.
        sm = one_sched_sm()
        a, b, c = launch(sm, [mufu()], [mufu()], [mufu()])
        a.stall_until = 5
        b.stall_until = 6
        c.stall_until = 20
        assert tick(sm, 5) == (a, 6)
        assert tick(sm, 6) == (None, 9)
        assert tick(sm, 9)[0] is b
        assert tick(sm, 10) == (None, 20)
        assert tick(sm, 20)[0] is c


class TestWarpContext:
    def test_empty_trace_is_done(self):
        sm = one_sched_sm()
        (w,) = launch(sm, [])
        assert w.done
        assert w.cur is None
        assert tick(sm, 0)[0] is None

    def test_dependency_blocks_until_writeback(self):
        sm = one_sched_sm()
        (w,) = launch(sm, [ffma(dst=4), ffma(dst=8, srcs=(4,))])
        assert tick(sm, 0)[0] is w
        assert tick(sm, 1) == (None, 4)  # FFMA latency
        assert tick(sm, 4)[0] is w

    def test_waw_hazard_checked(self):
        sm = one_sched_sm()
        (w,) = launch(sm, [ffma(dst=4, srcs=(1,)), ffma(dst=4, srcs=(2,))])
        assert tick(sm, 0)[0] is w
        assert tick(sm, 1) == (None, 4)
        assert tick(sm, 4)[0] is w

    def test_independent_instruction_ready_immediately(self):
        sm = one_sched_sm()
        (w,) = launch(sm, [ffma(dst=4, srcs=(1,)), ffma(dst=8, srcs=(2,))])
        assert tick(sm, 0)[0] is w
        assert tick(sm, 1)[0] is w

    def test_stall_until_enforced(self):
        sm = one_sched_sm()
        (w,) = launch(sm, [ffma()])
        w.stall_until = 77
        assert tick(sm, 0) == (None, 77)
        assert tick(sm, 77)[0] is w

    def test_barrier_wait_blocks(self):
        sm = one_sched_sm()
        (w,) = launch(sm, [ffma()])
        w.barrier_wait = True
        assert tick(sm, 0) == (None, BLOCKED)

    def test_done_after_last_instruction(self):
        sm = one_sched_sm()
        (w,) = launch(sm, [WarpInstruction(Op.EXIT)])
        assert tick(sm, 0)[0] is w
        assert w.done


class TestGTOScheduler:
    def test_pick_returns_ready_warp(self):
        sm = one_sched_sm()
        (w,) = launch(sm, [ffma()])
        assert tick(sm, 0)[0] is w

    def test_pick_negative_when_empty(self):
        assert tick(one_sched_sm(), 0) == (None, BLOCKED)

    def test_greedy_prefers_last_issued(self):
        sm = one_sched_sm()
        a, b = launch(sm, [ffma()] * 3, [ffma()] * 3)
        assert tick(sm, 0)[0] is a
        # Both are ready once a's WAW hazard clears; the last issued warp
        # is preferred (greedy).
        assert tick(sm, 8)[0] is a
        assert tick(sm, 16)[0] is a

    def test_oldest_selected_when_greedy_stalled(self):
        sm = one_sched_sm()
        a, b = launch(sm, [ffma(dst=4), ffma(dst=8, srcs=(4,))], [ffma()])
        assert tick(sm, 0)[0] is a  # oldest first
        # a now stalls on its dependency until cycle 4 -> b issues.
        assert tick(sm, 1)[0] is b

    def test_done_warps_dropped(self):
        sm = one_sched_sm()
        (w,) = launch(sm, [WarpInstruction(Op.EXIT)])
        assert tick(sm, 0)[0] is w
        # Only the CTA's completion is left to wake the SM for.
        warp, nxt = tick(sm, 1)
        assert warp is None
        assert sm.schedulers[0].next_event_cache == BLOCKED
        assert nxt == sm.next_completion_cycle() == w.last_commit_cycle

    def test_next_event_reports_dependency_time(self):
        sm = one_sched_sm()
        (w,) = launch(sm, [
            WarpInstruction(Op.LDG, dst=4,
                            mem=MemAccess([0], DataClass.COMPUTE)),
            ffma(dst=8, srcs=(4,)),
        ])
        assert tick(sm, 0)[0] is w
        loaded = w.last_commit_cycle
        assert loaded > 1
        assert tick(sm, 1) == (None, loaded)
        assert tick(sm, loaded)[0] is w

    def test_wake_requeues_parked_warp(self):
        sm = one_sched_sm()
        (w,) = launch(sm, [ffma()])
        w.barrier_wait = True
        assert tick(sm, 0)[0] is None  # parked entry dropped
        w.barrier_wait = False
        sm.schedulers[0].wake(w.slot, 5)
        assert tick(sm, 5)[0] is w


class TestLRRWrapAround:
    """Round-robin priority must wrap past the hard-coded 4096-id modulo:
    after warp id 4095 issues, id 0 is "next", and ids just above the last
    issued id always beat ids far below it."""

    def test_id_above_last_beats_id_below(self):
        sm = one_sched_sm("lrr")
        seed, lo, hi = place(sm, (4094, 0, 4095), n_instrs=1)
        lo.stall_until = hi.stall_until = 1
        assert tick(sm, 0)[0] is seed  # sets last issued = 4094
        # id 4095 (distance 0 mod 4096) must beat id 0 (distance 1 mod
        # 4096).  An unwrapped comparison would pick 0.
        assert tick(sm, 1)[0] is hi

    def test_wraps_from_4095_to_zero(self):
        sm = one_sched_sm("lrr")
        seed, a, b = place(sm, (4095, 0, 1), n_instrs=2)
        a.stall_until = b.stall_until = 1
        assert tick(sm, 0)[0] is seed
        # last = 4095 == modulo boundary: round robin restarts at id 0.
        assert tick(sm, 1)[0] is a
        assert tick(sm, 2)[0] is b

    def test_full_rotation_across_boundary(self):
        sm = one_sched_sm("lrr")
        place(sm, (4093, 4095, 2), n_instrs=4)
        order = [tick(sm, cycle)[0].warp_id for cycle in range(6)]
        # First lap starts from the lowest id (nothing issued yet), then
        # rotation proceeds ascending-from-last, wrapping 4095 -> 2.
        assert order == [2, 4093, 4095, 2, 4093, 4095]


class TestBarrierWakeOrdering:
    """Parked warps re-enter the issue queue via wake(); order and timing
    must follow (release cycle, wake call order) in the ready queue."""

    def park_all(self, sm, n):
        warps = launch(sm, *([ffma(dst=8)] for _ in range(n)))
        for w in warps:
            w.barrier_wait = True
        return warps

    def test_wake_fifo_within_release_cycle(self):
        sm = one_sched_sm()
        w0, w1, w2 = self.park_all(sm, 3)
        assert tick(sm, 0) == (None, BLOCKED)
        # Wake out of slot order: FIFO must follow wake() call order.
        for w in (w2, w0, w1):
            w.barrier_wait = False
            sm.schedulers[0].wake(w.slot, 5)
        assert tick(sm, 4) == (None, 5)  # release cycle not reached
        assert tick(sm, 5)[0] is w2
        assert tick(sm, 6)[0] is w0
        assert tick(sm, 7)[0] is w1

    def test_wake_respects_release_cycles(self):
        sm = one_sched_sm()
        early, late = self.park_all(sm, 2)
        sched = sm.schedulers[0]
        # Mirror SM._barrier's release: fold the release cycle into the
        # warp's stall (the flat next_ready array) before re-queueing it.
        late.barrier_wait = False
        late.stall_until = 9
        sched.wake(late.slot, 9)
        early.barrier_wait = False
        early.stall_until = 3
        sched.wake(early.slot, 3)
        # Earlier release wins even though it was woken second.
        assert tick(sm, 3)[0] is early
        assert tick(sm, 4) == (None, 9)
        assert tick(sm, 9)[0] is late

    def test_wake_folds_with_stall_until(self):
        sm = one_sched_sm()
        (w,) = self.park_all(sm, 1)
        w.barrier_wait = False
        w.stall_until = 7  # scoreboard-side stall outlives the barrier
        sm.schedulers[0].wake(w.slot, 5)
        # The cycle-5 entry is stale-low: the sweep re-validates against
        # the flat next_ready array and re-queues at the corrected cycle.
        assert tick(sm, 5) == (None, 7)
        assert tick(sm, 6) == (None, 7)
        assert tick(sm, 7)[0] is w

    def test_wake_while_still_parked_stays_parked(self):
        sm = one_sched_sm()
        (w,) = self.park_all(sm, 1)
        sm.schedulers[0].wake(w.slot, 2)  # spurious wake: still parked
        assert tick(sm, 2) == (None, BLOCKED)
        w.barrier_wait = False
        sm.schedulers[0].wake(w.slot, 4)
        assert tick(sm, 4)[0] is w


def issue_log(sm, cycles):
    """Tick ``sm`` at each cycle; returns ``[(cycle, slot), ...]`` issues."""
    log = []
    for cycle in cycles:
        before = pcs(sm)
        sm.tick(cycle)
        after = pcs(sm)
        log += [(cycle, s) for s, pc in enumerate(before) if after[s] != pc]
    return log


class TestBarrierReleasesGreedyWarp:
    def test_released_greedy_warp_keeps_priority(self):
        # Two schedulers; slots 0 and 2 share scheduler 0, slot 1 runs on
        # scheduler 1.  Slot 0 parks first, then slot 2, which so becomes
        # scheduler 0's greedy warp while parked.  Slot 1's barrier at
        # cycle 5 releases both at cycle 6, woken in slot order (0, 2):
        # scheduler 0 must issue its greedy warp, slot 2, first, though
        # slot 0 sits ahead of it in the ready queue.
        cfg = RTX_3070_MINI.replace(schedulers_per_sm=2)
        sm = SM(0, cfg, L2Cache(cfg), GPUStats())
        bar = WarpInstruction(Op.BAR)
        launch(sm,
               [bar, ffma(dst=4), ffma(dst=8)],
               [ffma(dst=4), ffma(dst=8, srcs=(4,)), bar, ffma(dst=12)],
               [bar, ffma(dst=4), ffma(dst=8)])
        assert issue_log(sm, range(2)) == [(0, 0), (0, 1), (1, 2)]
        assert sm.schedulers[0]._greedy == 2
        assert sm.slot_state.warps[2].barrier_wait
        assert issue_log(sm, range(2, 12)) == [
            (4, 1), (5, 1), (6, 1), (6, 2), (7, 2), (8, 0), (9, 0)]


class TestDerivedIssueState:
    """A warp's pc and ``SM.issued_by_stream`` derive from each slot's
    next issue tuple; mid-run both must equal the issues each stream
    counted one by one (``StreamStats.instructions``)."""

    @pytest.mark.parametrize("policy", ["gto", "lrr"])
    def test_pc_and_issued_by_stream_count_issues(self, policy):
        cfg = RTX_3070_MINI.replace(schedulers_per_sm=2,
                                    scheduler_policy=policy)
        sm = SM(0, cfg, L2Cache(cfg), GPUStats())
        bar = WarpInstruction(Op.BAR)
        warps = {
            0: launch(sm,
                      [ffma(dst=4), bar, ffma(dst=8, srcs=(4,)), mufu(12)],
                      [mufu(dst=4), ffma(dst=8, srcs=(4,)), bar, ffma(12)],
                      [bar, ffma(dst=4), ffma(dst=8, srcs=(4,))],
                      stream=0),
            1: launch(sm, [mufu(dst=4), ffma(dst=8, srcs=(4,)), ffma()],
                      stream=1),
        }
        parked = 0
        for cycle in range(200):
            sm.tick(cycle)
            sm.process_completions(cycle)
            issued_by_stream = sm.issued_by_stream
            for sid, ws in warps.items():
                issued = sm.stats.stream(sid).instructions
                assert sum(w.pc for w in ws) == issued
                assert issued_by_stream[sid] == issued
            for w in warps[0]:
                if w.barrier_wait:
                    # Parked just past its barrier.
                    parked += 1
                    assert w.trace[w.pc - 1].op is Op.BAR
        assert parked
        for ws in warps.values():
            for w in ws:
                assert w.done and w.pc == len(w.trace)
        assert sm.issued_by_stream == {0: 11, 1: 3}

    def test_store_completing_last_sets_last_commit(self, monkeypatch):
        # The store writes no register, yet its completion is the warp's
        # last commit and so its stream's.
        sm = one_sched_sm()
        store = WarpInstruction(Op.STG, srcs=(8,),
                                mem=MemAccess([0], DataClass.COMPUTE))
        (w,) = launch(sm, [ffma(dst=8), store])
        completions = []
        real_issue = sm.ldst.issue

        def issue(*args):
            completions.append(real_issue(*args))
            return completions[-1]

        monkeypatch.setattr(sm.ldst, "issue", issue)
        cycle = 0
        while not w.done:
            cycle = sm.tick(cycle)
        (store_done,) = completions
        assert store_done > 4  # the FFMA wrote back at cycle 4
        assert w.last_commit_cycle == store_done
        assert sm.stats.stream(0).last_commit_cycle == store_done

    def test_pc_setter_moves_the_next_tuple(self):
        sm = one_sched_sm()
        (w,) = launch(sm, [ffma(dst=4), ffma(dst=8), mufu(dst=12)])
        w.pc = 2
        assert w.cur is w.stream_entries[2] and w.pc == 2
        w.pc = 3
        assert w.cur is None and w.pc == 3


class TestReadyQueue:
    @pytest.mark.parametrize("policy", ["gto", "lrr"])
    def test_renumbering_changes_no_issue(self, monkeypatch, policy):
        """With a seq table of two entries the ready queue renumbers every
        push or two and grows its table; no issue may move."""
        bar = WarpInstruction(Op.BAR)
        programs = [[mufu(dst=4), ffma(dst=8, srcs=(4,)), bar,
                     ffma(dst=12, srcs=(8,)), mufu(dst=16)],
                    [ffma(dst=4), ffma(dst=8, srcs=(4,)), bar, mufu(12)],
                    [bar, mufu(dst=4), mufu(dst=8), ffma(dst=12, srcs=(8,))]]

        def run():
            cfg = RTX_3070_MINI.replace(schedulers_per_sm=1,
                                        scheduler_policy=policy)
            sm = SM(0, cfg, L2Cache(cfg), GPUStats())
            launch(sm, *(programs * 2))
            launch(sm, *programs)
            return issue_log(sm, range(400)), sm.schedulers[0]._shift

        log, shift = run()
        assert shift == scheduler_module.SEQ_BITS
        monkeypatch.setattr(scheduler_module, "SEQ_BITS", 1)
        calls = []
        real = scheduler_module.GTOScheduler._resequence

        def resequence(self):
            calls.append(len(self._q))
            return real(self)

        monkeypatch.setattr(scheduler_module.GTOScheduler, "_resequence",
                            resequence)
        small_log, small_shift = run()
        assert len(log) == sum(len(p) for p in programs) * 3
        assert small_log == log
        assert len(calls) > 3
        assert small_shift > 1  # nine live warps outgrew two entries
