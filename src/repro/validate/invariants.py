"""Runtime invariant checker for the timing core.

An :class:`InvariantChecker` is a telemetry recorder (the same null-object
protocol as :mod:`repro.telemetry`) whose hooks assert conservation laws
instead of recording metrics.  Attaching one to a run costs nothing on the
hot issue path — the checks ride the existing event-rate call sites (CTA
retire, sample tick, repartition, run end) — and *must not change a single
stat*: the checker only reads simulation state.  The bit-identity gate in
``tests/test_validate_invariants.py`` enforces that.

Checked invariants:

* **Instruction conservation** — every warp retires with its program
  counter equal to its issue-stream length, and each stream's final
  ``instructions`` counter equals both the trace total and the sum of
  retired warp lengths.
* **Cache accounting** — per-stream ``hits + misses == accesses`` at every
  L1 and L2 bank (MSHR merges never form a third bucket: at L1 a merge is
  a kind of miss, at L2 an in-flight line also merges *hit* accesses, so
  merges are bounded by misses at L1 and by accesses at L2), aggregate
  ``evictions <= misses`` (every eviction is caused by a fill, every fill
  by a miss), and the L1 pending-fill file never exceeds its MSHR
  capacity.
* **Stall-breakdown sums** — the sampling stall classifier accounts for
  exactly the resident warps, per stream (telemetry histograms can never
  over- or under-count).
* **No lost wakeups** — sample ticks observe strictly increasing
  cycles, and every SM that holds work wakes at a finite cycle strictly
  in the future (an SM that never wakes would deadlock the run; one that
  wakes in the past would never be visited).
* **Partition soundness** — MiG bank routing stays disjoint and every
  bank's resolved set-mapping tables match its installed partition, after
  construction and after every runtime repartition (TAP re-pointing).
* **Scoreboard drain at retirement** — no register in a retiring warp's
  scoreboard is pending beyond the warp's last commit, and no warp is
  parked at a barrier.

The differential fuzzer runs every case both with and without a checker
attached and requires the two results to be bit-identical.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..telemetry.recorder import NullTelemetry

__all__ = ["InvariantChecker", "InvariantViolation"]


class InvariantViolation(AssertionError):
    """A conservation law the simulator promised was broken."""


class InvariantChecker(NullTelemetry):
    """Debug-mode hook set asserting timing-core conservation laws.

    Attach via the telemetry slot::

        from repro.api import simulate
        from repro.validate import InvariantChecker

        checker = InvariantChecker()
        simulate(config=cfg, streams=streams, telemetry=checker)
        print(checker.report())

    ``sample_interval`` paces the mid-run checks (heap, caches, stalls,
    partitions); the end-of-run conservation checks always fire.  Raises
    :class:`InvariantViolation` at the first broken invariant.
    """

    def __init__(self, sample_interval: Optional[int] = 1000) -> None:
        self.sample_interval = sample_interval
        #: Number of times each check group ran (for report()/tests).
        self.counts: Dict[str, int] = {}
        self.finalized = False
        #: The running GPU's L2, for the partition checks a repartition
        #: triggers (that hook gets no GPU); dropped once the end-of-run
        #: checks pass.  The checker keeps no reference to the GPU, which
        #: every other hook receives per call.
        self._l2 = None
        self._last_sample_cycle = -1
        self._last_event_cycle = -1
        #: Per-stream instruction totals accumulated from retiring warps.
        self._retired_insts: Dict[int, int] = {}
        self._retired_ctas: Dict[int, int] = {}
        self._kernel_starts: Dict[int, int] = {}
        self._kernel_completes: Dict[int, int] = {}

    # -- plumbing ----------------------------------------------------------
    def _fail(self, check: str, msg: str) -> None:
        raise InvariantViolation("[%s] %s" % (check, msg))

    def _tick(self, check: str) -> None:
        self.counts[check] = self.counts.get(check, 0) + 1

    def report(self) -> Dict[str, int]:
        """Checks performed so far, by name."""
        return dict(sorted(self.counts.items()))

    # -- hooks -------------------------------------------------------------
    def on_run_start(self, gpu) -> None:
        self._l2 = gpu.l2
        self.finalized = False
        self._last_sample_cycle = -1
        self._last_event_cycle = -1
        self._retired_insts = {}
        self._retired_ctas = {}
        self._kernel_starts = {}
        self._kernel_completes = {}
        self.check_partitions()

    def on_kernel_start(self, stream: int, kernel, cycle: int) -> None:
        self._note_cycle("kernel_start", cycle)
        self._kernel_starts[stream] = self._kernel_starts.get(stream, 0) + 1

    def on_kernel_complete(self, stream: int, uid: int, name: str,
                           start_cycle: int, end_cycle: int) -> None:
        self._kernel_completes[stream] = (
            self._kernel_completes.get(stream, 0) + 1)
        if end_cycle < start_cycle:
            self._fail("kernel_span", "kernel %r (stream %d) completed at "
                       "cycle %d before starting at %d"
                       % (name, stream, end_cycle, start_cycle))

    def on_cta_retire(self, sm, cta, cycle: int) -> None:
        self._note_cycle("cta_retire", cycle)
        self.check_cta_retirement(sm, cta, cycle)
        insts = sum(len(w.trace) for w in cta.warps)
        self._retired_insts[cta.stream] = (
            self._retired_insts.get(cta.stream, 0) + insts)
        self._retired_ctas[cta.stream] = (
            self._retired_ctas.get(cta.stream, 0) + 1)

    def on_repartition(self, cycle: int, policy_name: str, detail) -> None:
        self.check_partitions()

    def on_sample(self, gpu, cycle: int) -> None:
        self._tick("sample")
        if cycle <= self._last_sample_cycle:
            self._fail("clock", "sample tick at cycle %d after one at %d"
                       % (cycle, self._last_sample_cycle))
        self._last_sample_cycle = cycle
        self._note_cycle("sample", cycle)
        if gpu.cycle != cycle:
            self._fail("clock", "gpu.cycle %d != sampled cycle %d"
                       % (gpu.cycle, cycle))
        self.check_wakeups(gpu, cycle)
        self.check_caches(gpu)
        self.check_stall_breakdown(gpu, cycle)
        self.check_partitions()

    def on_run_end(self, gpu) -> None:
        self.check_wakeups(gpu, gpu.cycle, at_end=True)
        self.check_caches(gpu)
        self.check_partitions()
        self.check_final(gpu)
        self._l2 = None
        self.finalized = True

    # -- individual check groups -------------------------------------------
    def _note_cycle(self, source: str, cycle: int) -> None:
        """Events arrive in the order the serial loop visits cycles."""
        if cycle < self._last_event_cycle:
            self._fail("clock", "%s event at cycle %d after an event at %d "
                       "(clock ran backwards)"
                       % (source, cycle, self._last_event_cycle))
        self._last_event_cycle = cycle

    def check_wakeups(self, gpu, cycle: int, at_end: bool = False) -> None:
        """Every SM with work has a finite wake cycle after ``cycle``.

        The run loop visits an SM only when the smallest wake cycle
        (``SM.next_event_cache``) reaches it, so an SM holding CTAs or
        queued completions whose wake cycle is BLOCKED sleeps forever (a
        lost wakeup), and one whose wake cycle is at or before the cycle
        the loop just finished visiting is never ticked on time.
        """
        self._tick("wakeups")
        from ..timing.warp import BLOCKED
        for sm in gpu.sms:
            if not sm.has_work:
                continue
            t = sm.next_event_cache
            if t >= BLOCKED:
                self._fail("wakeups", "SM%d holds work but never wakes "
                           "(lost wakeup)" % sm.sm_id)
            if not at_end and t <= cycle:
                self._fail("wakeups", "SM%d wakes at cycle %d, not past "
                           "the current cycle %d" % (sm.sm_id, t, cycle))

    def check_caches(self, gpu) -> None:
        """Per-stream accounting identities at every L1 and L2 bank."""
        self._tick("caches")
        for sm in gpu.sms:
            l1 = sm.ldst.l1
            self._check_cache_stats(l1, merges_are_misses=True)
            held = l1.mshr_entries_held()
            if held > l1.config.mshr_entries:
                self._fail("l1_mshr", "%s holds %d pending fills, MSHR "
                           "capacity is %d" % (l1.name, held,
                                               l1.config.mshr_entries))
        for bank in gpu.l2.banks:
            # L2 merge counting differs: an access that finds the line
            # installed but its fill still in flight counts as a *hit* plus
            # a merge, so merges bound accesses there, not misses.
            self._check_cache_stats(bank, merges_are_misses=False)

    def _check_cache_stats(self, cache, merges_are_misses: bool) -> None:
        total_misses = 0
        total_evictions = 0
        for stream, st in cache.stats.items():
            if st.hits + st.misses != st.accesses:
                self._fail("cache_accounting",
                           "%s stream %d: hits %d + misses %d != accesses %d"
                           % (cache.name, stream, st.hits, st.misses,
                              st.accesses))
            merge_bound = st.misses if merges_are_misses else st.accesses
            if st.mshr_merges > merge_bound:
                self._fail("cache_accounting",
                           "%s stream %d: %d MSHR merges exceed %d %s"
                           % (cache.name, stream, st.mshr_merges, merge_bound,
                              "misses" if merges_are_misses else "accesses"))
            if min(st.accesses, st.hits, st.misses, st.evictions) < 0:
                self._fail("cache_accounting",
                           "%s stream %d: negative counter" % (cache.name,
                                                               stream))
            total_misses += st.misses
            total_evictions += st.evictions
        if total_evictions > total_misses:
            self._fail("cache_accounting",
                       "%s: %d evictions exceed %d misses (evictions happen "
                       "only on miss fills)" % (cache.name, total_evictions,
                                                total_misses))

    def check_stall_breakdown(self, gpu, cycle: int) -> None:
        """The stall classifier accounts for exactly the resident warps."""
        self._tick("stall_sums")
        for sm in gpu.sms:
            into: Dict[int, Dict[str, int]] = {}
            sm.sample_stalls(cycle, into)
            expected: Dict[int, int] = {}
            for cta in sm.resident:
                expected[cta.stream] = (expected.get(cta.stream, 0)
                                        + len(cta.warps))
            classified = {stream: sum(bucket.values())
                          for stream, bucket in into.items()}
            if classified != expected:
                self._fail("stall_sums", "SM%d classified %r warps but %r "
                           "are resident" % (sm.sm_id, classified, expected))

    def check_partitions(self) -> None:
        """Bank routing and set partitions stay sound (incl. after TAP
        re-pointing)."""
        self._tick("partitions")
        try:
            self._l2.validate_partitions()
        except ValueError as exc:
            self._fail("partitions", str(exc))

    def check_cta_retirement(self, sm, cta, cycle: int) -> None:
        self._tick("cta_retire")
        if cta.live_warps != 0:
            self._fail("cta_retire", "CTA (stream %d) retired with %d live "
                       "warps" % (cta.stream, cta.live_warps))
        if cta.barrier_arrived != 0:
            self._fail("cta_retire", "CTA (stream %d) retired with %d warps "
                       "parked at a barrier" % (cta.stream,
                                                cta.barrier_arrived))
        for w in cta.warps:
            n = len(w.trace)
            if not w.done:
                self._fail("warp_commit", "stream %d warp %d not done at CTA "
                           "retirement (pc %d/%d)"
                           % (cta.stream, w.warp_id, w.pc, n))
            if w.pc != n:
                self._fail("warp_commit", "stream %d warp %d committed %d of "
                           "%d trace instructions"
                           % (cta.stream, w.warp_id, w.pc, n))
            if len(w.stream_entries) != n:
                self._fail("warp_commit", "stream %d warp %d issue stream has "
                           "%d entries for %d instructions"
                           % (cta.stream, w.warp_id, len(w.stream_entries), n))
            if w.barrier_wait:
                self._fail("scoreboard", "stream %d warp %d retired while "
                           "waiting at a barrier" % (cta.stream, w.warp_id))
            pending = [reg for reg, t in w.scoreboard.items()
                       if t > w.last_commit_cycle]
            if pending:
                self._fail("scoreboard", "stream %d warp %d retired with "
                           "registers %s pending past its last commit "
                           "(cycle %d)" % (cta.stream, w.warp_id,
                                           sorted(pending),
                                           w.last_commit_cycle))
            if w.last_commit_cycle > cycle:
                self._fail("scoreboard", "stream %d warp %d last commit at "
                           "cycle %d but its CTA retired at %d"
                           % (cta.stream, w.warp_id, w.last_commit_cycle,
                              cycle))

    def check_final(self, gpu) -> None:
        """End-of-run conservation: stream counters equal trace totals."""
        self._tick("final")
        stats = gpu.stats
        for sid, sq in sorted(gpu.cta_scheduler.streams.items()):
            if not sq.all_complete:
                self._fail("final", "stream %d incomplete at run end" % sid)
            st = stats.streams.get(sid)
            if st is None:
                self._fail("final", "stream %d has no stats at run end" % sid)
            kernels = sq.kernels
            expect_insts = sum(k.num_instructions for k in kernels)
            expect_ctas = sum(k.num_ctas for k in kernels)
            expect_warps = sum(c.num_warps for k in kernels for c in k.ctas)
            if st.instructions != expect_insts:
                self._fail("final", "stream %d issued %d instructions, trace "
                           "holds %d" % (sid, st.instructions, expect_insts))
            retired = self._retired_insts.get(sid, 0)
            if retired != expect_insts:
                self._fail("final", "stream %d retired warps cover %d "
                           "instructions, trace holds %d"
                           % (sid, retired, expect_insts))
            if st.ctas_launched != expect_ctas:
                self._fail("final", "stream %d launched %d CTAs of %d"
                           % (sid, st.ctas_launched, expect_ctas))
            if st.ctas_completed != expect_ctas:
                self._fail("final", "stream %d completed %d CTAs of %d"
                           % (sid, st.ctas_completed, expect_ctas))
            if self._retired_ctas.get(sid, 0) != expect_ctas:
                self._fail("final", "stream %d retire hook saw %d CTAs of %d"
                           % (sid, self._retired_ctas.get(sid, 0),
                              expect_ctas))
            if st.warps_launched != expect_warps:
                self._fail("final", "stream %d launched %d warps of %d"
                           % (sid, st.warps_launched, expect_warps))
            if st.kernels_completed != len(kernels):
                self._fail("final", "stream %d completed %d kernels of %d"
                           % (sid, st.kernels_completed, len(kernels)))
            if self._kernel_completes.get(sid, 0) != len(kernels):
                self._fail("final", "stream %d completion hook fired %d "
                           "times for %d kernels"
                           % (sid, self._kernel_completes.get(sid, 0),
                              len(kernels)))
            if st.last_commit_cycle > stats.cycles:
                self._fail("final", "stream %d committed at cycle %d, past "
                           "the final cycle %d" % (sid, st.last_commit_cycle,
                                                   stats.cycles))
        leftover_sms = [sm.sm_id for sm in gpu.sms
                        if sm.resident or sm._completions]
        if leftover_sms:
            self._fail("final", "SMs %s still hold CTAs or queued "
                       "completions at run end" % leftover_sms)


def check_run(config, streams, policy=None,
              sample_interval: Optional[int] = 1000):
    """Run ``streams`` serially with invariants on; returns (stats, checker).

    Convenience wrapper used by the CLI and tests.
    """
    from ..api import simulate
    checker = InvariantChecker(sample_interval=sample_interval)
    result = simulate(config=config, streams=streams, policy=policy,
                      telemetry=checker)
    return result.stats, checker
