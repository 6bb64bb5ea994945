"""Streaming Multiprocessor model.

An SM hosts resident CTAs, partitions their warps across GTO schedulers,
tracks on-chip resource usage per stream (the accounting fine-grained
intra-SM partitioning needs, Section III-A), and advances in an
event-skipping cycle loop: ``tick`` is only called at cycles where at least
one scheduler may act, and reports the next cycle it needs.

All per-warp dynamic state lives in one structure-of-arrays
:class:`~repro.timing.slots.SlotState` shared by the SM and its schedulers;
warps are handled by dense slot index throughout the issue path.  The issue
step — warp selection, pipe reservation, scoreboard commit, next-issue
estimate and stat bumps — is written once, inline in :meth:`SM.tick`,
against those arrays with no nested calls, which is where the
structure-of-arrays sim-rate win comes from (the per-call overhead used to
dominate the profile).  Only selection differs by scheduler policy.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

from ..config import GPUConfig
from ..isa import CTAResources, CTATrace, KernelTrace
from ..isa.instructions import IE_REGS, IE_UNIT_IDX
from ..memory import L2Cache
from .ldst import LDSTPath
from .scheduler import GTOScheduler
from .slots import SlotState
from .stats import GPUStats
from .warp import BLOCKED, WarpContext


class ResidentCTA:
    """A CTA currently occupying SM resources."""

    __slots__ = ("kernel", "trace", "resources", "stream", "warps",
                 "live_warps", "barrier_arrived", "barrier_release",
                 "launch_cycle")

    def __init__(self, kernel: KernelTrace, trace: CTATrace,
                 resources: CTAResources, stream: int) -> None:
        self.kernel = kernel
        self.trace = trace
        self.resources = resources
        self.stream = stream
        self.warps: List[WarpContext] = []
        self.live_warps = 0
        self.barrier_arrived = 0
        self.barrier_release = 0
        self.launch_cycle = 0


class SM:
    """One streaming multiprocessor."""

    def __init__(self, sm_id: int, config: GPUConfig, l2: L2Cache,
                 stats: GPUStats) -> None:
        self.sm_id = sm_id
        self.config = config
        self.stats = stats
        self.ldst = LDSTPath(sm_id, config, l2, stats)
        #: Flat warp-slot state shared by this SM and all its schedulers.
        self.slot_state = SlotState()
        self.schedulers = [
            GTOScheduler(i, self.slot_state, policy=config.scheduler_policy)
            for i in range(config.schedulers_per_sm)
        ]
        #: CTA-retire hook, called as ``(sm, cta)``.  ``GPU.run`` installs
        #: it for the run and clears it on exit (see :meth:`detach`).
        self.on_cta_complete: Optional[
            Callable[["SM", ResidentCTA], None]] = None
        # Free resources (whole SM).
        self.free_threads = config.max_threads_per_sm
        self.free_registers = config.registers_per_sm
        self.free_shared_mem = config.shared_mem_per_sm
        self.free_warp_slots = config.max_warps_per_sm
        self.free_cta_slots = config.max_ctas_per_sm
        # Per-stream usage, for intra-SM quota checks.
        self.threads_used: Dict[int, int] = {}
        self.registers_used: Dict[int, int] = {}
        self.shared_used: Dict[int, int] = {}
        self.warps_used: Dict[int, int] = {}
        self.resident: List[ResidentCTA] = []
        self._completions: List = []  # heap of (complete_cycle, seq, cta)
        self._completion_seq = 0
        self._next_sched = 0
        #: Earliest cycle this SM may need attention; the GPU loop skips the
        #: SM entirely until then.  Only this SM's own actions can move it
        #: earlier, so launch/tick refresh it.
        self.next_event_cache = 0
        #: Key of this SM's valid entry in the GPU's global event heap
        #: (BLOCKED = not queued).  Owned by the GPU loop.
        self._queued_event = BLOCKED
        #: Notification hook the GPU's event heap installs for the run:
        #: called with ``(sm, cycle)`` whenever an action outside the GPU
        #: loop's own update point (a CTA launch) lowers this SM's next
        #: event.
        self.event_sink: Optional[Callable[["SM", int], None]] = None
        #: Per-stream instructions issued on this SM (Warped-Slicer sampling
        #: reads deltas of these to build its IPC-vs-quota curves).
        self.issued_by_stream: Dict[int, int] = {}

    # -- residency ---------------------------------------------------------
    def fits(self, res: CTAResources) -> bool:
        """Whole-SM resource check (quota checks live in the CTA scheduler)."""
        return self.free_cta_slots > 0 and res.fits_in(
            self.free_threads, self.free_registers,
            self.free_shared_mem, self.free_warp_slots)

    def stream_usage(self, stream: int) -> CTAResources:
        return CTAResources(
            threads=self.threads_used.get(stream, 0),
            registers=self.registers_used.get(stream, 0),
            shared_mem=self.shared_used.get(stream, 0),
            warps=self.warps_used.get(stream, 0),
        )

    def launch_cta(self, kernel: KernelTrace, trace: CTATrace, stream: int) -> ResidentCTA:
        res = kernel.cta_resources(self.config.warp_size)
        if not self.fits(res):
            raise RuntimeError("CTA does not fit on SM%d" % self.sm_id)
        cta = ResidentCTA(kernel, trace, res, stream)
        self.free_threads -= res.threads
        self.free_registers -= res.registers
        self.free_shared_mem -= res.shared_mem
        self.free_warp_slots -= res.warps
        self.free_cta_slots -= 1
        self.threads_used[stream] = self.threads_used.get(stream, 0) + res.threads
        self.registers_used[stream] = self.registers_used.get(stream, 0) + res.registers
        self.shared_used[stream] = self.shared_used.get(stream, 0) + res.shared_mem
        self.warps_used[stream] = self.warps_used.get(stream, 0) + res.warps
        sstat = self.stats.stream(stream)
        sstat.ctas_launched += 1
        sstat.warps_launched += len(trace.warps)
        if stream not in self.issued_by_stream:
            self.issued_by_stream[stream] = 0
        if res.shared_mem:
            self.ldst.update_carveout(
                self.config.shared_mem_per_sm - self.free_shared_mem)
        for wt in trace.warps:
            ctx = WarpContext(wt, stream, cta, warp_id=len(cta.warps),
                              state=self.slot_state, sstat=sstat)
            cta.warps.append(ctx)
            if not ctx.done:
                cta.live_warps += 1
            # Round-robin warps over schedulers, like hardware sub-partitions.
            ctx.home_sched = self._next_sched
            self.schedulers[self._next_sched].add_warp(ctx.slot)
            self._next_sched = (self._next_sched + 1) % len(self.schedulers)
        if cta.live_warps == 0:
            self._retire_cta(cta, complete_cycle=0)
        self.resident.append(cta)
        self.next_event_cache = 0
        if self.event_sink is not None:
            self.event_sink(self, 0)
        return cta

    def _retire_cta(self, cta: ResidentCTA, complete_cycle: int) -> None:
        self._completion_seq += 1
        heapq.heappush(self._completions, (complete_cycle, self._completion_seq, cta))

    def _free_cta(self, cta: ResidentCTA) -> None:
        res = cta.resources
        stream = cta.stream
        self.free_threads += res.threads
        self.free_registers += res.registers
        self.free_shared_mem += res.shared_mem
        self.free_warp_slots += res.warps
        self.free_cta_slots += 1
        self.threads_used[stream] -= res.threads
        self.registers_used[stream] -= res.registers
        self.shared_used[stream] -= res.shared_mem
        self.warps_used[stream] -= res.warps
        # Scheduler heaps drop the (now done) warps lazily: slots are never
        # reused, so ``done[slot]`` stays set and stale heap entries are
        # recognised forever.  process_completions releases the warps
        # once the retire hook has seen them.
        self.resident.remove(cta)
        self.stats.stream(stream).ctas_completed += 1
        if res.shared_mem:
            self.ldst.update_carveout(
                self.config.shared_mem_per_sm - self.free_shared_mem)

    def process_completions(self, cycle: int) -> bool:
        """Free CTAs whose last instruction committed by ``cycle``."""
        freed = False
        release = self.slot_state.release_handle
        while self._completions and self._completions[0][0] <= cycle:
            _, _, cta = heapq.heappop(self._completions)
            self._free_cta(cta)
            freed = True
            if self.on_cta_complete is not None:
                self.on_cta_complete(self, cta)
            # A warp points at its CTA (``warp.cta``) and its slot state
            # (``warp.state``); dropping ``cta.warps`` and each slot's
            # handle breaks both cycles, so reference counting frees the
            # retired warps and the CTA here.  The list goes first: an
            # exception mid-release leaves the rest in the slot state,
            # where detach() finds them.
            warps = cta.warps
            cta.warps = []
            for w in warps:
                release(w.slot)
        return freed

    def detach(self) -> None:
        """Drop the run's hooks and every warp still held by a slot.

        ``GPU.run`` calls this on exit.  After a complete run every slot
        is already released; after a run that raised, this frees the CTAs
        still resident, whose warps are then gone from ``cta.warps``.
        """
        self.on_cta_complete = None
        self.event_sink = None
        st = self.slot_state
        for slot, w in enumerate(st.warps):
            if w is not None:
                w.cta.warps = []
                st.release_handle(slot)

    def next_completion_cycle(self) -> Optional[int]:
        """Cycle of the earliest queued CTA completion, or None."""
        if not self._completions:
            return None
        return self._completions[0][0]

    # -- execution -----------------------------------------------------------
    def tick(self, cycle: int) -> int:
        """Issue at most one instruction per scheduler at ``cycle``.

        Returns the SM's earliest next-event cycle, folded into the
        scheduler sweep so the run loop needs no second scan.

        Selection is the only step that differs between the scheduler
        policies.  GTO (bucket mode, the default) selects inline: greedy
        probe, then the bucket-queue sweep.  LRR (heap mode) calls
        :meth:`GTOScheduler._pick_lrr`.  One inline commit then issues the
        chosen slot and re-queues it in its scheduler's representation.
        The whole step is plain flat-array and int operations with no
        per-instruction Python calls (barring LRR selection and LDST/CTA
        boundaries).
        """
        best = BLOCKED
        st = self.slot_state
        done = st.done
        barrier = st.barrier
        nr = st.next_ready
        cur = st.cur
        wake_at = cycle + 1
        ibs = self.issued_by_stream
        for sched in self.schedulers:
            t = sched.next_event_cache
            if t > cycle:
                if t < best:
                    best = t
                continue
            pnf = sched._pnf
            bucketed = sched._bucketed
            if bucketed:
                # GTO: the greedy warp if it is ready, else the oldest
                # ready warp of the bucket queue (see the scheduler
                # module).  ``picked`` says the slot left the queue and
                # must be re-queued after it issues.
                picked = False
                slot = -1
                g = sched._greedy
                if g >= 0 and not done[g] and not barrier[g] \
                        and nr[g] <= cycle \
                        and pnf[cur[g][IE_UNIT_IDX]] <= cycle:
                    slot = g
                else:
                    buckets = sched._buckets
                    keys = sched._bkeys
                    # Sweep due buckets in ascending-estimate / FIFO
                    # order; a warp whose estimate under-shot is re-queued
                    # at its corrected cycle, which is always > cycle, so
                    # a bucket never grows while swept.
                    while keys and keys[0] <= cycle:
                        b = buckets[keys[0]]
                        i = b[0]
                        n = len(b)
                        while i < n:
                            s = b[i]
                            i += 1
                            if done[s] or barrier[s]:
                                # done: dropped; parked: re-queued by wake()
                                continue
                            ready = nr[s]
                            nf = pnf[cur[s][IE_UNIT_IDX]]
                            if nf > ready:
                                ready = nf
                            if ready <= cycle:
                                b[0] = i
                                picked = True
                                slot = s
                                break
                            nb = buckets.get(ready)
                            if nb is None:
                                buckets[ready] = [1, s]
                                heapq.heappush(keys, ready)
                            else:
                                nb.append(s)
                        if picked:
                            break
                        del buckets[heapq.heappop(keys)]
            else:
                slot = sched._pick_lrr(cycle)
                picked = True
            if slot < 0:
                t = sched.next_event(cycle)
                sched.next_event_cache = t
                if t < best:
                    best = t
                continue
            # ---- commit: issue ``slot``'s current instruction ----
            # One tuple unpack replaces eight indexed entry reads.
            (_, ui, latency, initiation, _, rdst,
             uses_ldst, is_bar, inst) = cur[slot]
            # Reserve the unit pipe for its initiation interval.
            nf = pnf[ui]
            issue_cycle = cycle if cycle > nf else nf
            pnf[ui] = issue_cycle + initiation
            stream = st.streams[slot]
            if uses_ldst:
                complete = self.ldst.issue(inst, issue_cycle, stream)
            else:
                complete = issue_cycle + latency
            if is_bar:
                self._barrier(st.warps[slot], issue_cycle)
            # Scoreboard and per-slot cycles.
            base = st.sb_base[slot]
            if rdst >= 0:
                st.sb[base + rdst] = complete
            st.last_issue[slot] = issue_cycle
            if complete > st.last_commit[slot]:
                st.last_commit[slot] = complete
            pc = st.pc[slot] + 1
            st.pc[slot] = pc
            nxt = issue_cycle + 1
            if pc >= st.n_insts[slot]:
                done[slot] = 1
                cur[slot] = None
                fin = True
            else:
                nxt_entry = st.entries[slot][pc]
                cur[slot] = nxt_entry
                fin = False
                # One dependency walk per commit refreshes the slot's
                # cached readiness (exact until the next commit: the
                # scoreboard slice is single-writer and only the barrier
                # release path raises stall_until, folding itself into
                # next_ready there).
                ready = st.stall_until[slot]
                sb = st.sb
                for reg in nxt_entry[IE_REGS]:
                    t = sb[base + reg]
                    if t > ready:
                        ready = t
                nr[slot] = ready
                if picked:
                    # Re-queue at the estimated next issue cycle.
                    if barrier[slot] or ready <= nxt:
                        estimate = nxt
                    else:
                        estimate = ready
                    if bucketed:
                        buckets = sched._buckets
                        b = buckets.get(estimate)
                        if b is None:
                            buckets[estimate] = [1, slot]
                            heapq.heappush(sched._bkeys, estimate)
                        else:
                            b.append(slot)
                    else:
                        seq = sched._seq
                        sched._seq = seq + 1
                        heapq.heappush(sched._heap, (estimate, seq, slot))
            sched._greedy = slot if not fin else -1
            # Stream stats.
            sstat = st.sstats[slot]
            if sstat is None:
                sstat = self.stats.stream(stream)
            sstat.instructions += 1
            sstat._issue_by_unit[ui] += 1
            fic = sstat.first_issue_cycle
            if fic is None or issue_cycle < fic:
                sstat.first_issue_cycle = issue_cycle
            if complete > sstat.last_commit_cycle:
                sstat.last_commit_cycle = complete
            ibs[stream] += 1
            if fin:
                cta = st.warps[slot].cta
                cta.live_warps -= 1
                if cta.live_warps == 0:
                    lc = st.last_commit
                    last = 0
                    for w in cta.warps:
                        t = lc[w.slot]
                        if t > last:
                            last = t
                    self._retire_cta(cta, last)
            sched.next_event_cache = wake_at
            if wake_at < best:
                best = wake_at
        if self._completions and self._completions[0][0] < best:
            best = self._completions[0][0]
        return best

    def _barrier(self, warp: WarpContext, cycle: int) -> None:
        """CTA-wide barrier: block arriving warps until all have arrived."""
        cta = warp.cta
        cta.barrier_arrived += 1
        if cta.barrier_arrived >= cta.live_warps:
            release = cycle + 1
            st = self.slot_state
            for w in cta.warps:
                slot = w.slot
                if st.barrier[slot]:
                    st.barrier[slot] = 0
                    # The released warp may not issue before the barrier
                    # release point.
                    if release > st.stall_until[slot]:
                        st.stall_until[slot] = release
                    if release > st.next_ready[slot]:
                        st.next_ready[slot] = release
                    self.schedulers[w.home_sched].wake(slot, release)
            cta.barrier_arrived = 0
        else:
            self.slot_state.barrier[warp.slot] = 1

    # -- telemetry ---------------------------------------------------------
    def sample_stalls(self, cycle: int,
                      into: Dict[int, Dict[str, int]]) -> None:
        """Classify every resident warp's issue state into ``into``.

        Sampling-profiler hook: called only at telemetry sample ticks, never
        from the issue path.  Accumulates ``{stream: {reason: count}}``
        (including ``ready``) without touching simulation state.
        """
        scheds = self.schedulers
        for cta in self.resident:
            stream = cta.stream
            bucket = into.get(stream)
            if bucket is None:
                bucket = into[stream] = {}
            for w in cta.warps:
                reason = scheds[w.home_sched].stall_reason(w.slot, cycle)
                bucket[reason] = bucket.get(reason, 0) + 1

    @property
    def has_work(self) -> bool:
        return bool(self.resident) or bool(self._completions)

    def warps_resident_by_stream(self) -> Dict[int, int]:
        return dict(self.warps_used)
