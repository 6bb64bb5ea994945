"""Top-level GPU model: SMs + shared L2/DRAM + CTA scheduler + event loop.

The clock is a single global cycle counter.  Each SM keeps its own wake
cycle (``SM.next_event_cache``: the earliest cycle it may act, BLOCKED
when it has no work), and each visited cycle the loop (1) collects the due
SMs by scanning those wake cycles in SM-id order, (2) retires CTAs whose
last instruction has committed and refills freed resources, (3) ticks
every due SM (each scheduler issues at most one instruction per cycle),
then (4) jumps the clock to the smallest wake cycle.  Dense phases advance
cycle-by-cycle exactly like a classic cycle loop; idle memory-bound gaps
are skipped without losing cycle accounting.

Due SMs are always processed in ascending SM id, so shared-state
interleaving at the L2/DRAM (bank ports, MSHRs) is fixed and results are
deterministic.  The scan replaced a lazy min-heap of ``(cycle, sm_id)``
entries; docs/ARCHITECTURE.md ("Event loop and performance") compares the
two at 4, 8 and 46 SMs.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter
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
    ``on_cta_complete``, ``CTAScheduler.gpu`` and the
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
        self.telemetry.on_cta_retire(sm, cta, self.cycle)
        self.cta_scheduler.on_cta_complete(sm, cta, self.cycle)

    # -- main loop -----------------------------------------------------------------
    def run(self, max_cycles: int = 200_000_000) -> GPUStats:
        """Simulate until all streams complete; returns the stats object."""
        if not self.cta_scheduler.streams:
            raise ValueError("no streams registered; call add_stream first")
        for sm in self.sms:
            sm.on_cta_complete = self._cta_done
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
        sms = self.sms
        cta_sched = self.cta_scheduler
        tel = self.telemetry
        tel.on_run_start(self)
        cta_sched.fill(cycle)
        # Two sample schedules: the run's occupancy/L2 snapshots
        # (``sample_interval``) and the telemetry recorder's own interval.
        # ``next_sample`` is the earlier of the two due cycles, so a
        # visited cycle tests one number, as with a single schedule.
        interval = self.sample_interval
        tel_interval = tel.sample_interval
        next_stats = interval if interval else BLOCKED
        next_tel = tel_interval if tel_interval else BLOCKED
        next_sample = min(next_stats, next_tel)
        epoch = self.policy.epoch_interval
        next_epoch = epoch if epoch else BLOCKED
        # Open-loop arrivals: None when every stream is closed-loop, in
        # which case every arrival branch below is dead and the loop is
        # bit-identical to the closed-loop engine.
        next_arrival = (cta_sched.next_arrival_after(cycle)
                        if cta_sched.has_arrivals else None)
        arrival_at = BLOCKED if next_arrival is None else next_arrival
        # Every SM's wake cycle, read once per visited cycle: the minimum
        # picks the next cycle to visit, and the same list picks its due
        # SMs (nothing moves a wake cycle in between).
        wakes = list(map(_wake_cycle, sms))
        while True:
            self.cycle = cycle
            due = list(compress(sms, map(cycle.__ge__, wakes)))
            completed = False
            for sm in due:
                if sm._completions and sm.process_completions(cycle):
                    completed = True
            if completed:
                if cta_sched.has_issuable_work:
                    cta_sched.fill(cycle)
                if cta_sched.all_complete and not any(
                    sm.has_work for sm in sms
                ):
                    break
                # fill() may have launched onto SMs not yet due this
                # cycle (a launch sets an SM's wake cycle to 0); rescan
                # so they tick this cycle too.
                due = _due(sms, cycle)
            if cycle >= arrival_at:
                # Newly-arrived kernels become issuable this cycle; launch
                # them so the SMs they land on tick this cycle like any
                # other due SM.
                if cta_sched.fill(cycle):
                    due = _due(sms, cycle)
                next_arrival = cta_sched.next_arrival_after(cycle)
                arrival_at = BLOCKED if next_arrival is None else next_arrival
            for sm in due:
                if sm.resident or sm._completions:
                    sm.next_event_cache = sm.tick(cycle)
                else:
                    sm.next_event_cache = BLOCKED
            if cycle >= next_epoch:
                self.policy.on_epoch(self, cycle)
                next_epoch = cycle + epoch
            if cycle >= next_sample:
                if cycle >= next_stats:
                    self._sample(cycle)
                    next_stats = cycle + interval
                if cycle >= next_tel:
                    tel.on_sample(self, cycle)
                    next_tel = cycle + tel_interval
                next_sample = min(next_stats, next_tel)
            wakes = list(map(_wake_cycle, sms))
            nxt = min(wakes)
            if nxt == BLOCKED:
                # No SM can ever act again.  Either CTAs are waiting for
                # space that will never free (policy deadlock), the machine
                # is idle until the next open-loop arrival, or we are done.
                if cta_sched.has_issuable_work:
                    if cta_sched.fill(cycle) == 0:
                        if next_arrival is not None:
                            # Idle open-loop gap: jump to the next arrival.
                            cycle = max(cycle + 1, next_arrival)
                            continue
                        raise DeadlockError(
                            "CTAs pending at cycle %d but no SM can accept them "
                            "(policy %r quota too small?)" % (cycle, self.policy.name)
                        )
                    cycle += 1
                    wakes = list(map(_wake_cycle, sms))
                    continue
                # Completions may still be queued in the future.
                pending = [
                    t for t in (sm.next_completion_cycle() for sm in sms)
                    if t is not None
                ]
                if next_arrival is not None:
                    pending.append(next_arrival)
                if pending:
                    cycle = max(cycle + 1, min(pending))
                    continue
                if not cta_sched.all_complete:
                    raise DeadlockError(
                        "streams incomplete at cycle %d but no work anywhere" % cycle
                    )
                break
            if arrival_at < nxt:
                nxt = arrival_at
            cycle = nxt if nxt > cycle else cycle + 1
            if cycle > max_cycles:
                raise RuntimeError("simulation exceeded %d cycles" % max_cycles)
        self.cycle = cycle
        self.stats.cycles = cycle
        tel.on_run_end(self)
        return self.stats

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


#: An SM's wake cycle (``SM.next_event_cache``), for the loop's scan.
_wake_cycle = attrgetter("next_event_cache")


def _due(sms: List[SM], cycle: int) -> List[SM]:
    """The SMs whose wake cycle has come by ``cycle``, in SM-id order (a
    rescan after ``fill()`` launched CTAs this cycle)."""
    return list(compress(sms, map(cycle.__ge__, map(_wake_cycle, sms))))
