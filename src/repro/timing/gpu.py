"""Top-level GPU model: SMs + shared L2/DRAM + CTA scheduler + event loop.

The clock is a single global cycle counter.  SMs are tracked in a global
min-heap keyed by each SM's next-event cycle, so one iteration touches only
the SMs that can act at the current cycle instead of scanning all of them.
Each visited cycle the loop (1) retires CTAs whose last instruction has
committed and refills freed resources, (2) ticks every due SM (each
scheduler issues at most one instruction per cycle), then (3) jumps the
clock to the heap's earliest future event.  Dense phases advance
cycle-by-cycle exactly like a classic cycle loop; idle memory-bound gaps
are skipped without losing cycle accounting.

Within one visited cycle, due SMs are always processed in ascending SM id —
the same order the previous full-scan loop used — so shared-state
interleaving at the L2/DRAM (bank ports, MSHRs) is unchanged and results
stay bit-identical.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

from ..config import GPUConfig
from ..isa import KernelTrace
from ..memory import L2Cache
from ..telemetry.recorder import NULL_TELEMETRY
from .cta import CTAScheduler, PartitionPolicy, StreamQueue
from .sm import SM, ResidentCTA
from .stats import GPUStats, OccupancySample
from .warp import BLOCKED


class DeadlockError(RuntimeError):
    """Raised when work remains but nothing can ever issue."""


class GPU:
    """A simulated GPU instance, configured once and run once.

    The objects a run creates form no reference cycle, so reference
    counting frees them as soon as the caller drops the GPU.  The hooks
    that point back at the GPU or its policy -- each SM's
    ``on_cta_complete`` and ``event_sink``, ``CTAScheduler.gpu`` and the
    L2's ``access_observer`` that a policy may install -- exist only while
    :meth:`run` executes: it installs them on entry and clears them on
    exit, whether the run completes or raises.  Afterwards ``stats``,
    ``l2``, ``policy``, :meth:`stream_cycles` and
    :meth:`kernel_completions` stay readable.
    """

    def __init__(
        self,
        config: GPUConfig,
        policy: Optional[PartitionPolicy] = None,
        sample_interval: Optional[int] = None,
        telemetry=None,
    ) -> None:
        self.config = config
        self.stats = GPUStats()
        self.l2 = L2Cache(config)
        self.policy = policy or PartitionPolicy()
        self.sample_interval = sample_interval
        #: Instrumentation hooks; NULL_TELEMETRY when not instrumented, so
        #: every call site stays branch-free (the null hooks are no-ops).
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.cycle = 0
        self.sms: List[SM] = [
            SM(i, config, self.l2, self.stats) for i in range(config.num_sms)
        ]
        self.cta_scheduler = CTAScheduler(config, self.sms, self.policy)
        self._completed_this_step = False
        #: Global event heap of (next_event_cycle, sm_id, sm).  At most one
        #: *valid* entry per SM: ``sm._queued_event`` holds the key of that
        #: entry, and stale entries (key mismatch) are dropped on pop.
        self._event_heap: List = []

    # -- workload setup ---------------------------------------------------------
    def add_stream(self, stream_id: int, kernels: Sequence[KernelTrace],
                   arrivals: Optional[Sequence[int]] = None) -> StreamQueue:
        """Register an in-order kernel queue (a workload) as one stream.

        ``arrivals`` (optional, one non-decreasing cycle per kernel) makes
        the stream open-loop: each kernel may not start issuing before its
        arrival cycle, so queueing delay becomes visible.
        """
        return self.cta_scheduler.add_stream(stream_id, kernels,
                                             arrivals=arrivals)

    # -- callbacks ---------------------------------------------------------------
    def _cta_done(self, sm: SM, cta: ResidentCTA) -> None:
        self._completed_this_step = True
        self.telemetry.on_cta_retire(sm, cta, self.cycle)
        self.cta_scheduler.on_cta_complete(sm, cta, self.cycle)

    def _push_event(self, sm: SM, t: int) -> None:
        """Queue (or re-key) ``sm`` in the event heap at cycle ``t``."""
        if t < sm._queued_event:
            sm._queued_event = t
            heapq.heappush(self._event_heap, (t, sm.sm_id, sm))

    # -- main loop -----------------------------------------------------------------
    def run(self, max_cycles: int = 200_000_000) -> GPUStats:
        """Simulate until all streams complete; returns the stats object."""
        if not self.cta_scheduler.streams:
            raise ValueError("no streams registered; call add_stream first")
        for sm in self.sms:
            sm.on_cta_complete = self._cta_done
            sm.event_sink = self._push_event
        self.cta_scheduler.gpu = self
        try:
            return self._loop(max_cycles)
        finally:
            self.cta_scheduler.gpu = None
            self.l2.access_observer = None
            for sm in self.sms:
                sm.detach()

    def _loop(self, max_cycles: int) -> GPUStats:
        self.policy.configure_memory(self.l2, sorted(self.cta_scheduler.streams))
        cycle = self.cycle
        heap = self._event_heap
        for sm in self.sms:
            sm._queued_event = BLOCKED
        tel = self.telemetry
        tel.on_run_start(self)
        self.cta_scheduler.fill(cycle)
        interval = self.sample_interval
        # The sample tick serves two consumers on one schedule: the user's
        # occupancy/L2 snapshots (``sample_interval``) and telemetry's
        # MetricsRecorder.  When only telemetry wants samples, the tick
        # fires on its interval but skips the (expensive) L2 composition
        # walk in _sample.
        eff_interval = interval if interval else tel.sample_interval
        next_sample = eff_interval if eff_interval else None
        epoch = self.policy.epoch_interval
        next_epoch = epoch if epoch else None
        # Open-loop arrivals: None when every stream is closed-loop, in
        # which case every arrival branch below is dead and the loop is
        # bit-identical to the closed-loop engine.
        next_arrival = (self.cta_scheduler.next_arrival_after(cycle)
                        if self.cta_scheduler.has_arrivals else None)
        while True:
            self.cycle = cycle
            self._completed_this_step = False
            # Pop every SM due at this cycle.  Entries whose key no longer
            # matches the SM's queued key are stale duplicates.
            due: List[SM] = []
            while heap and heap[0][0] <= cycle:
                t, _, sm = heapq.heappop(heap)
                if t != sm._queued_event:
                    continue
                sm._queued_event = BLOCKED
                due.append(sm)
            # Heap pops arrive ordered by (cycle, sm_id); restore pure SM-id
            # order so L2/DRAM interleaving matches the old full-scan loop.
            due.sort(key=_sm_id)
            for sm in due:
                if sm._completions:
                    sm.process_completions(cycle)
            if self._completed_this_step:
                if self.cta_scheduler.has_issuable_work:
                    self.cta_scheduler.fill(cycle)
                if self.cta_scheduler.all_complete and not any(
                    sm.has_work for sm in self.sms
                ):
                    break
                # fill() may have launched onto SMs not yet due this cycle;
                # their launch events land at cycle 0 — collect them so they
                # tick this cycle, exactly as the full rescan used to.
                added = False
                while heap and heap[0][0] <= cycle:
                    t, _, sm = heapq.heappop(heap)
                    if t != sm._queued_event:
                        continue
                    sm._queued_event = BLOCKED
                    due.append(sm)
                    added = True
                if added:
                    due.sort(key=_sm_id)
            if next_arrival is not None and cycle >= next_arrival:
                # Newly-arrived kernels become issuable this cycle; launch
                # them and collect any SMs whose launch events landed now so
                # they tick this cycle like any other due SM.
                if self.cta_scheduler.fill(cycle):
                    added = False
                    while heap and heap[0][0] <= cycle:
                        t, _, sm = heapq.heappop(heap)
                        if t != sm._queued_event:
                            continue
                        sm._queued_event = BLOCKED
                        if sm not in due:
                            due.append(sm)
                            added = True
                    if added:
                        due.sort(key=_sm_id)
                next_arrival = self.cta_scheduler.next_arrival_after(cycle)
            for sm in due:
                if sm.has_work:
                    t = sm.tick(cycle)
                    sm.next_event_cache = t
                    if t < BLOCKED:
                        self._push_event(sm, t)
            if next_epoch is not None and cycle >= next_epoch:
                self.policy.on_epoch(self, cycle)
                next_epoch = cycle + (epoch or 1)
            if next_sample is not None and cycle >= next_sample:
                if interval:
                    self._sample(cycle)
                tel.on_sample(self, cycle)
                next_sample = cycle + (eff_interval or 1)
            # Earliest future event = validated heap top.
            nxt = BLOCKED
            while heap:
                t, _, sm = heap[0]
                if t != sm._queued_event:
                    heapq.heappop(heap)
                    continue
                nxt = t
                break
            if nxt == BLOCKED:
                # No SM can ever act again.  Either CTAs are waiting for
                # space that will never free (policy deadlock), the machine
                # is idle until the next open-loop arrival, or we are done.
                if self.cta_scheduler.has_issuable_work:
                    if self.cta_scheduler.fill(cycle) == 0:
                        if next_arrival is not None:
                            # Idle open-loop gap: jump to the next arrival.
                            cycle = max(cycle + 1, next_arrival)
                            continue
                        raise DeadlockError(
                            "CTAs pending at cycle %d but no SM can accept them "
                            "(policy %r quota too small?)" % (cycle, self.policy.name)
                        )
                    cycle += 1
                    continue
                # Completions may still be queued in the future.
                pending = [
                    t for t in (sm.next_completion_cycle() for sm in self.sms)
                    if t is not None
                ]
                if next_arrival is not None:
                    pending.append(next_arrival)
                if pending:
                    cycle = max(cycle + 1, min(pending))
                    continue
                if not self.cta_scheduler.all_complete:
                    raise DeadlockError(
                        "streams incomplete at cycle %d but no work anywhere" % cycle
                    )
                break
            if next_arrival is not None and next_arrival < nxt:
                nxt = next_arrival
            cycle = max(cycle + 1, nxt)
            if cycle > max_cycles:
                raise RuntimeError("simulation exceeded %d cycles" % max_cycles)
        self.cycle = cycle
        self.stats.cycles = cycle
        tel.on_run_end(self)
        return self.stats

    # -- introspection -------------------------------------------------------------
    def event_heap_entries(self) -> List:
        """Validated (cycle, sm_id, sm) entries of the global event heap.

        Stale entries — keys that no longer match the SM's ``_queued_event``
        — are filtered out; they are dropped lazily on pop by the run loop.
        Read-only debug/validation hook, never called from the hot loop.
        """
        return [(t, sm_id, sm) for t, sm_id, sm in self._event_heap
                if t == sm._queued_event]

    # -- sampling -----------------------------------------------------------------
    def _sample(self, cycle: int) -> None:
        warps: Dict[int, int] = {}
        for sm in self.sms:
            for stream, n in sm.warps_resident_by_stream().items():
                if n:
                    warps[stream] = warps.get(stream, 0) + n
        total_slots = self.config.num_sms * self.config.max_warps_per_sm
        self.stats.occupancy_trace.append(OccupancySample(cycle, warps, total_slots))
        self.stats.l2_snapshots.append((cycle, self.l2.composition()))
        self.stats.l2_stream_snapshots.append((cycle, self.l2.composition_by_stream()))

    # -- results -------------------------------------------------------------------
    def stream_cycles(self, stream_id: int) -> int:
        """Busy cycles (first issue to last commit) of one stream."""
        return self.stats.stream_cycles(stream_id)

    def kernel_completions(self, stream_id: int):
        return self.cta_scheduler.streams[stream_id].kernel_completions


def _sm_id(sm: SM) -> int:
    return sm.sm_id


def simulate(
    config: GPUConfig,
    streams: Dict[int, Sequence[KernelTrace]],
    policy: Optional[PartitionPolicy] = None,
    sample_interval: Optional[int] = None,
    telemetry=None,
) -> GPUStats:
    """One-shot convenience: build a GPU, add ``streams``, run, return stats."""
    gpu = GPU(config, policy=policy, sample_interval=sample_interval,
              telemetry=telemetry)
    for sid, kernels in sorted(streams.items()):
        gpu.add_stream(sid, kernels)
    return gpu.run()
