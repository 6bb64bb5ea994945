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
estimate — is written once, inline in :meth:`SM.tick`, against those
arrays with no nested calls (per-call overhead used to dominate the
profile); what can wait for a warp's end is folded once per warp, in
:meth:`SM._finish_warp`.  Only selection differs by scheduler policy.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import Callable, Dict, List, Optional

from ..config import GPUConfig
from ..isa import CTAResources, CTATrace, KernelTrace
from ..isa.instructions import IE_PC, IE_REGS, IE_UNIT_IDX
from ..memory import L2Cache
from .ldst import LDSTPath
from .scheduler import GTOScheduler
from .slots import DONE, PARKED, SlotState
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
        self.ldst = LDSTPath(sm_id, config, l2)
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
        #: Earliest cycle this SM may need attention (BLOCKED = none); the
        #: GPU loop skips the SM until then.  Only this SM's own actions
        #: move it: a CTA launch sets it to 0, the loop stores each tick's
        #: result and sets BLOCKED once the SM has no work.
        self.next_event_cache = BLOCKED
        #: Per-stream instructions of this SM's finished warps (a stream's
        #: key exists from its first CTA launch here); see
        #: :attr:`issued_by_stream`.
        self._finished_by_stream: Dict[int, int] = {}

    # -- residency ---------------------------------------------------------
    def fits(self, res: CTAResources) -> bool:
        """Whole-SM resource check (quota checks live in the CTA scheduler)."""
        return self.free_cta_slots > 0 and res.fits_in(
            self.free_threads, self.free_registers,
            self.free_shared_mem, self.free_warp_slots)

    @property
    def issued_by_stream(self) -> Dict[int, int]:
        """Per-stream instructions issued on this SM so far, keyed by every
        stream that launched a CTA here (Warped-Slicer sampling reads
        deltas of these to build its IPC-vs-quota curves).

        Exact at any point of the run without a per-issue update: a warp
        that has not finished has issued its next tuple's ``IE_PC``
        instructions, and a finished one is folded in when it finishes.
        """
        counts = dict(self._finished_by_stream)
        cur = self.slot_state.cur
        for cta in self.resident:
            n = 0
            for w in cta.warps:
                entry = cur[w.slot]
                if entry is not None:
                    n += entry[IE_PC]
            counts[cta.stream] += n
        return counts

    def stream_usage(self, stream: int) -> CTAResources:
        return CTAResources(
            threads=self.threads_used.get(stream, 0),
            registers=self.registers_used.get(stream, 0),
            shared_mem=self.shared_used.get(stream, 0),
            warps=self.warps_used.get(stream, 0),
        )

    def launch_cta(self, kernel: KernelTrace, trace: CTATrace,
                   res: CTAResources, stream: int) -> ResidentCTA:
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
        if stream not in self._finished_by_stream:
            self._finished_by_stream[stream] = 0
        if res.shared_mem:
            self.ldst.update_carveout(
                self.config.shared_mem_per_sm - self.free_shared_mem)
        st = self.slot_state
        scheds = self.schedulers
        home = self._next_sched
        for warp_id, wt in enumerate(trace.warps):
            ctx = WarpContext(wt, stream, cta, warp_id, st, sstat)
            cta.warps.append(ctx)
            if ctx.stream_entries:
                cta.live_warps += 1
            # Round-robin warps over schedulers, like hardware sub-partitions.
            ctx.home_sched = home
            scheds[home].add_warp(ctx.slot)
            home = (home + 1) % len(scheds)
        self._next_sched = home
        if cta.live_warps == 0:
            self._retire_cta(cta, complete_cycle=0)
        self.resident.append(cta)
        self.next_event_cache = 0
        return cta

    def _retire_cta(self, cta: ResidentCTA, complete_cycle: int) -> None:
        self._completion_seq += 1
        heappush(self._completions, (complete_cycle, self._completion_seq, cta))

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
            _, _, cta = heappop(self._completions)
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
        """Drop the run's hook and every warp still held by a slot.

        ``GPU.run`` calls this on exit.  After a complete run every slot
        is already released; after a run that raised, this frees the CTAs
        still resident, whose warps are then gone from ``cta.warps``.
        """
        self.on_cta_complete = None
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
        policies.  GTO selects inline: the greedy warp if its cached
        readiness has come (one compare), else the oldest ready warp of
        the ready queue.  LRR calls :meth:`GTOScheduler._pick_lrr`.
        Selection only picks a slot whose pipe is free, so the chosen
        instruction issues at ``cycle``.  One inline commit then issues
        it, advances the slot to the tuple's successor and re-queues the
        slot if selection took it off the queue.  Counters read only at
        run end (the unit histogram, the stream's last commit) and this
        SM's per-stream issue count are folded once per warp, when it
        finishes (:meth:`_finish_warp`).
        """
        best = BLOCKED
        st = self.slot_state
        flags = st.flags
        nr = st.next_ready
        cur = st.cur
        wake_at = cycle + 1
        for sched in self.schedulers:
            t = sched.next_event_cache
            if t > cycle:
                if t < best:
                    best = t
                continue
            pnf = sched._pnf
            if sched._greedy_at <= cycle:
                # GTO: the greedy warp is ready (LRR never sets the cache
                # below BLOCKED).  ``requeue``: how the slot re-enters
                # the queue after it issues (it never left).
                slot = sched._greedy
                requeue = None
            else:
                q = sched._q
                qslot = sched._qslot
                if sched._lrr:
                    # LRR's pick leaves the queue.
                    slot = sched._pick_lrr(cycle)
                    requeue = sched._requeue_lrr
                else:
                    # GTO: the oldest ready warp, which stays the queue's
                    # head until its re-queue replaces it.
                    slot = -1
                    requeue = heapreplace
                    mask = sched._mask
                    lim = wake_at << sched._shift
                    # Visit heads in (estimate, seq) order; an under-shot
                    # warp is re-queued past ``cycle``.  Ends at a ready
                    # warp or at a live head not due yet.
                    while q:
                        key = q[0]
                        s = qslot[key & mask]
                        if flags[s]:
                            # done: dropped; parked: re-queued by wake()
                            heappop(q)
                            continue
                        if key >= lim:
                            break
                        ready = nr[s]
                        nf = pnf[cur[s][IE_UNIT_IDX]]
                        if nf > ready:
                            ready = nf
                        if ready <= cycle:
                            slot = s
                            break
                        seq = sched._seq
                        try:
                            qslot[seq] = s
                        except IndexError:
                            # The seq table is full (GTOScheduler.push).
                            seq = sched._resequence()
                            qslot[seq] = s
                            mask = sched._mask
                            lim = wake_at << sched._shift
                        sched._seq = seq + 1
                        heapreplace(q, ready << sched._shift | seq)
                if slot < 0:
                    # Nothing ready: next act at the greedy readiness or
                    # the (live) queue head's estimate.
                    t = sched._greedy_at
                    if q:
                        est = q[0] >> sched._shift
                        if est < t:
                            t = est
                    sched.next_event_cache = t
                    if t < best:
                        best = t
                    continue
            # ---- commit: issue ``slot``'s current instruction ----
            # One tuple unpack replaces eight indexed entry reads.
            (_, ui, latency, initiation, _, rdst,
             mem, is_bar, info, nxt_entry) = cur[slot]
            # Reserve the unit pipe for its initiation interval.
            pnf[ui] = cycle + initiation
            sstat = st.sstats[slot]
            if mem >= 0:
                complete = self.ldst.issue(info, st.mems[slot][mem], cycle,
                                           sstat.stream, sstat)
            else:
                complete = cycle + latency
            if is_bar:
                self._barrier(st.warps[slot], cycle)
            # Scoreboard and per-slot cycles.
            sb = st.sb[slot]
            if rdst >= 0:
                sb[rdst] = complete
            if complete > st.last_commit[slot]:
                st.last_commit[slot] = complete
            # Read mid-run (samples, the invariant checker), so exact on
            # every issue; cycles only grow, so a stream's first issue is
            # the one that finds its count at zero.
            n = sstat.instructions
            sstat.instructions = n + 1
            if not n:
                sstat.first_issue_cycle = cycle
            cur[slot] = nxt_entry
            if nxt_entry is None:
                flags[slot] |= DONE
                sched._greedy = -1
                sched._greedy_at = BLOCKED
                self._finish_warp(slot, sstat)
            else:
                # One dependency walk per commit refreshes the slot's
                # cached readiness (exact until the next commit: the
                # scoreboard is single-writer and only the barrier
                # release path raises stall_until, folding itself into
                # next_ready there).
                ready = st.stall_until[slot]
                for reg in nxt_entry[IE_REGS]:
                    t = sb[reg]
                    if t > ready:
                        ready = t
                nr[slot] = ready
                # Not done, so any flag is PARKED.
                parked = flags[slot]
                sched._greedy = slot
                if parked:
                    sched._greedy_at = BLOCKED
                else:
                    nf = pnf[nxt_entry[IE_UNIT_IDX]]
                    sched._greedy_at = ready if ready > nf else nf
                if requeue is not None:
                    # Re-queue at the estimated next issue cycle
                    # (``GTOScheduler.push``, inline).  A GTO slot is
                    # still the head: a wake during the commit queues at
                    # ``wake_at`` or later, and renumbering keeps order.
                    estimate = wake_at if parked or ready <= wake_at \
                        else ready
                    seq = sched._seq
                    try:
                        qslot[seq] = slot
                    except IndexError:
                        seq = sched._resequence()
                        qslot[seq] = slot
                    sched._seq = seq + 1
                    requeue(q, estimate << sched._shift | seq)
            sched.next_event_cache = wake_at
            # Every other wake cycle is past ``cycle``, so none is earlier.
            best = wake_at
        if self._completions and self._completions[0][0] < best:
            best = self._completions[0][0]
        return best

    def _finish_warp(self, slot: int, sstat) -> None:
        """Fold a finished warp into its stream's run-end counters and
        this SM's per-stream issue count, and retire its CTA once no warp
        of it is left."""
        st = self.slot_state
        warp = st.warps[slot]
        sstat.fold_warp(warp.unit_counts, st.last_commit[slot])
        fbs = self._finished_by_stream
        fbs[warp.stream] = fbs.get(warp.stream, 0) + len(warp.stream_entries)
        cta = warp.cta
        cta.live_warps -= 1
        if cta.live_warps == 0:
            lc = st.last_commit
            last = 0
            for w in cta.warps:
                t = lc[w.slot]
                if t > last:
                    last = t
            self._retire_cta(cta, last)

    def _barrier(self, warp: WarpContext, cycle: int) -> None:
        """CTA-wide barrier: block arriving warps until all have arrived."""
        cta = warp.cta
        cta.barrier_arrived += 1
        if cta.barrier_arrived >= cta.live_warps:
            release = cycle + 1
            st = self.slot_state
            for w in cta.warps:
                slot = w.slot
                if st.flags[slot] & PARKED:
                    st.flags[slot] ^= PARKED
                    # The released warp may not issue before the barrier
                    # release point.
                    if release > st.stall_until[slot]:
                        st.stall_until[slot] = release
                    if release > st.next_ready[slot]:
                        st.next_ready[slot] = release
                    sched = self.schedulers[w.home_sched]
                    sched.wake(slot, release)
                    if sched._greedy == slot and not sched._lrr:
                        # Its cached readiness was BLOCKED while parked.
                        ready = st.next_ready[slot]
                        nf = sched._pnf[st.cur[slot][IE_UNIT_IDX]]
                        sched._greedy_at = ready if ready > nf else nf
            cta.barrier_arrived = 0
        else:
            self.slot_state.flags[warp.slot] |= PARKED

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
