"""Greedy-then-oldest (GTO) warp scheduler.

Each SM has ``schedulers_per_sm`` of these, each owning a slice of the
resident warps and one pipe of every execution-unit class.  GTO keeps
issuing from the same warp while it can (greedy), otherwise falls back to
the oldest ready warp — GPGPU-Sim's default policy, which Accel-Sim (and so
CRISP) inherits.

Ready warps are kept in a lazy min-heap keyed by an *estimate* of their
earliest issue cycle.  Estimates only ever under-shoot (unit contention can
push the true time later), so a popped entry is re-validated against the
current scoreboard/unit state and re-pushed if not actually ready — the
classic lazy-deletion priority queue.  This keeps issue selection
O(log warps) instead of O(warps), which is what makes whole-frame
simulations tractable in Python.

Everything here is structure-of-arrays, and the re-validation — the single
hottest computation in the simulator — collapses to two flat-array reads
per visit: ``next_ready[slot]`` (the register/stall readiness the SM caches
at each commit, exact because the scoreboard is single-writer) against the
pipe's ``next_free[unit_idx]``.  No scoreboard walk, no attribute chases,
no nested calls.

The ready queue itself has two representations:

* **Bucket queue** (GTO, the default): a dict of ``estimate -> [cursor,
  slot, slot, ...]`` plus a small min-heap of the bucket keys.  Every GTO
  push uses a *fresh* monotone sequence number in the classic heap
  formulation, so heap pop order ``(estimate, seq)`` is exactly "ascending
  estimate, FIFO within estimate" — which buckets reproduce bit-identically
  while replacing O(log n) sift operations (~3 heap pops per issued
  instruction under contention) with list appends and cursor bumps, and
  dropping the per-entry tuple allocation and seq draw entirely.
* **Lazy min-heap** of ``(estimate, seq, slot)`` tuples: LRR only.  LRR
  re-queues *losing* ready warps with their original, out-of-order seqs,
  which breaks the FIFO-within-bucket equivalence.  ``_bucketed`` selects
  the representation at construction.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..isa.instructions import IE_UNIT_IDX, IE_USES_LDST
from .exec_units import SchedulerUnits
from .slots import SlotState
from .warp import BLOCKED


class GTOScheduler:
    """One warp-scheduler partition.

    ``policy`` selects the issue order: ``"gto"`` (greedy-then-oldest, the
    default) or ``"lrr"`` (loose round robin — rotate priority past the
    last issued warp, the other classic GPGPU-Sim option).

    ``state`` is the flat warp-slot state shared by every scheduler of one
    SM; warps are referred to by slot index throughout.  A fresh private
    state is created when none is given (standalone/unit-test use).
    """

    def __init__(self, index: int, units: SchedulerUnits,
                 policy: str = "gto",
                 state: Optional[SlotState] = None) -> None:
        if policy not in ("gto", "lrr"):
            raise ValueError("scheduler policy must be 'gto' or 'lrr'")
        self.index = index
        self.units = units
        self._pipes = units.pipe_list
        #: Flat pipe next-free cycles (dense UNIT_INDEX order).
        self._pnf = units.next_free
        self.policy = policy
        self.state = state if state is not None else SlotState()
        #: Lazy min-heap of (estimated issue cycle, seq, warp slot) — the
        #: LRR representation (see module docstring).
        self._heap: List[Tuple[int, int, int]] = []
        #: Monotone push sequence for the heap representation.
        self._seq = 0
        #: GTO bucket-queue representation: estimate -> [cursor, slot, ...]
        #: (element 0 is the read cursor) plus a min-heap of live keys.
        self._bucketed = policy == "gto"
        self._buckets: Dict[int, List[int]] = {}
        self._bkeys: List[int] = []
        #: Flat per-unit issue counters (dense UNIT_INDEX order).
        self._icnt = units.issue_counts
        #: Slot of the warp that issued last (-1 = none): the greedy pick.
        self._greedy = -1
        self._last_warp_id = -1
        self._picked_from_heap = False
        self.issued = 0
        #: Earliest cycle this scheduler may act; maintained by the SM tick
        #: loop so stalled schedulers are skipped without rescanning.
        self.next_event_cache = 0

    # -- ready queue ---------------------------------------------------------
    def _qpush(self, est: int, slot: int) -> None:
        """Queue ``slot`` at estimated issue cycle ``est`` (either repr)."""
        if self._bucketed:
            b = self._buckets.get(est)
            if b is None:
                self._buckets[est] = [1, slot]
                heapq.heappush(self._bkeys, est)
            else:
                b.append(slot)
        else:
            seq = self._seq
            self._seq = seq + 1
            heapq.heappush(self._heap, (est, seq, slot))

    # -- membership ----------------------------------------------------------
    def add_warp(self, warp) -> None:
        """Queue a warp (a slot index, or a WarpContext for convenience)."""
        slot = warp if isinstance(warp, int) else warp.slot
        self._qpush(0, slot)
        self.next_event_cache = 0

    def wake(self, warp, time: int) -> None:
        """Re-queue a warp parked on a barrier."""
        slot = warp if isinstance(warp, int) else warp.slot
        self._qpush(time, slot)
        if time < self.next_event_cache:
            self.next_event_cache = time

    def _issue_time(self, slot: int, cycle: int) -> int:
        """Earliest cycle ``slot``'s next instruction can issue (>= cycle)."""
        st = self.state
        if st.done[slot] or st.barrier[slot]:
            return BLOCKED
        ready = st.next_ready[slot]
        nf = self._pnf[st.cur[slot][IE_UNIT_IDX]]
        if nf > ready:
            ready = nf
        return ready if ready > cycle else cycle

    # -- selection -------------------------------------------------------------
    def pick(self, cycle: int) -> int:
        """Slot of the warp to issue this cycle; -1 if stalled.

        The selected slot's issue tuple is ``state.cur[slot]``.
        """
        self._picked_from_heap = False
        st = self.state
        if self.policy != "gto":
            return self._pick_lrr(cycle)
        g = self._greedy
        if g >= 0 and not st.done[g] and not st.barrier[g]:
            # Greedy fast path: cached readiness vs pipe availability.
            if st.next_ready[g] <= cycle and \
                    self._pnf[st.cur[g][IE_UNIT_IDX]] <= cycle:
                return g
        # Lazy bucket-queue path: sweep due buckets in ascending-estimate /
        # FIFO order, re-validate against the flat arrays, re-queue at the
        # corrected cycle if the estimate under-shot.  Corrected cycles are
        # always > cycle >= est, so a bucket never grows while swept.
        keys = self._bkeys
        buckets = self._buckets
        pnf = self._pnf
        done = st.done
        barrier = st.barrier
        cur = st.cur
        nr = st.next_ready
        while keys and keys[0] <= cycle:
            b = buckets[keys[0]]
            i = b[0]
            n = len(b)
            while i < n:
                s = b[i]
                i += 1
                if done[s] or barrier[s]:
                    continue  # done: dropped; parked: re-queued by wake()
                ready = nr[s]
                nf = pnf[cur[s][IE_UNIT_IDX]]
                if nf > ready:
                    ready = nf
                if ready <= cycle:
                    b[0] = i
                    self._picked_from_heap = True
                    return s
                nb = buckets.get(ready)
                if nb is None:
                    buckets[ready] = [1, s]
                    heapq.heappush(keys, ready)
                else:
                    nb.append(s)
            del buckets[heapq.heappop(keys)]
        return -1

    def _pick_lrr(self, cycle: int) -> int:
        """Loose round robin: among warps ready now, pick the one whose id
        follows the last issued warp's (wrapping)."""
        st = self.state
        heap = self._heap
        done = st.done
        barrier = st.barrier
        ready: List[Tuple[int, int, int]] = []
        while heap and heap[0][0] <= cycle:
            item = heapq.heappop(heap)
            s = item[2]
            if done[s] or barrier[s]:
                continue
            t = self._issue_time(s, cycle)
            if t <= cycle:
                ready.append(item)
            elif t != BLOCKED:
                seq = self._seq
                self._seq = seq + 1
                heapq.heappush(heap, (t, seq, s))
        if not ready:
            return -1
        last = self._last_warp_id
        warp_ids = st.warp_ids

        def rr_key(item):
            return (warp_ids[item[2]] - last - 1) % 4096

        chosen = min(ready, key=rr_key)
        for item in ready:
            if item is not chosen:
                heapq.heappush(heap, item)
        self._picked_from_heap = True
        return chosen[2]

    # -- telemetry ---------------------------------------------------------
    def stall_reason(self, slot: int, cycle: int) -> str:
        """Why ``slot`` cannot issue at ``cycle`` (read-only, sampling only).

        Called by ``SM.sample_stalls`` at telemetry sample ticks, never from
        the issue path.  Mirrors the ``_issue_time`` walk but names the first
        binding constraint instead of computing a ready cycle.
        """
        from ..telemetry.stall import (
            READY, STALL_BARRIER, STALL_LDST_QUEUE, STALL_NO_INSTRUCTION,
            STALL_PIPE_BUSY, STALL_SCOREBOARD,
        )
        st = self.state
        if st.done[slot]:
            return STALL_NO_INSTRUCTION
        if st.barrier[slot]:
            return STALL_BARRIER
        entry = st.cur[slot]
        if st.next_ready[slot] > cycle:
            return STALL_SCOREBOARD
        if self._pnf[entry[IE_UNIT_IDX]] > cycle:
            if entry[IE_USES_LDST]:
                return STALL_LDST_QUEUE
            return STALL_PIPE_BUSY
        return READY

    def note_issued(self, warp, next_estimate: int) -> None:
        """Record the issue; re-queue the warp for its next instruction."""
        slot = warp if isinstance(warp, int) else warp.slot
        st = self.state
        self.issued += 1
        self._greedy = slot if not st.done[slot] else -1
        self._last_warp_id = st.warp_ids[slot]
        if not st.done[slot] and self._picked_from_heap:
            self._qpush(next_estimate, slot)
        self._picked_from_heap = False

    # -- event horizon -----------------------------------------------------------
    def next_event(self, cycle: int) -> int:
        """Earliest future cycle at which this scheduler may act.

        Estimates may be stale-low; the GPU loop simply visits that cycle
        and re-validates, so under-estimates cost a visit, never accuracy.
        """
        st = self.state
        best = BLOCKED
        g = self._greedy
        if self.policy == "gto" and g >= 0 and not st.done[g] \
                and not st.barrier[g]:
            best = self._issue_time(g, cycle)
        done = st.done
        barrier = st.barrier
        if self._bucketed:
            keys = self._bkeys
            buckets = self._buckets
            while keys:
                est = keys[0]
                b = buckets[est]
                i = b[0]
                n = len(b)
                while i < n and (done[b[i]] or barrier[b[i]]):
                    i += 1
                if i >= n:
                    del buckets[heapq.heappop(keys)]
                    continue
                b[0] = i
                if est < best:
                    best = est
                break
            return best
        heap = self._heap
        while heap:
            est, _, s = heap[0]
            if done[s] or barrier[s]:
                heapq.heappop(heap)
                continue
            if est < best:
                best = est
            break
        return best
