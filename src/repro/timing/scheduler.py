"""Greedy-then-oldest (GTO) warp scheduler.

Each SM has ``schedulers_per_sm`` of these, each owning a slice of the
resident warps and one pipe of every execution-unit class (Ampere splits an
SM into four partitions; Table II: "4 FPs, 4 SFUs, 4 INTs, 4 TENSORs" per
SM).  GTO keeps issuing from the same warp while it can (greedy), otherwise
falls back to the oldest ready warp — GPGPU-Sim's default policy, which
Accel-Sim (and so CRISP) inherits.

This class holds a scheduler's state; the issue step that selects from it
and commits to it is inline in :meth:`~repro.timing.sm.SM.tick`, and the
only selection written here is LRR's (:meth:`GTOScheduler._pick_lrr`).

A pipe is pipelined with an initiation interval: issuing occupies it for
``initiation`` cycles, and the result is available ``latency`` cycles after
issue.  Pipe state is one flat ``_pnf`` list (pipe next-free cycle) indexed
by the dense ``UNIT_INDEX`` order, so a unit lookup is a plain list index.

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
pipe's ``_pnf[unit_idx]``.  No scoreboard walk, no attribute chases,
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
from typing import Dict, List, Tuple

from ..isa.instructions import IE_MEM, IE_UNIT_IDX
from ..isa.opcodes import UNITS_ORDERED
from .slots import SlotState
from .warp import BLOCKED


class GTOScheduler:
    """One warp-scheduler partition.

    ``policy`` selects the issue order: ``"gto"`` (greedy-then-oldest, the
    default) or ``"lrr"`` (loose round robin — rotate priority past the
    last issued warp, the other classic GPGPU-Sim option).

    ``state`` is the flat warp-slot state shared by every scheduler of one
    SM; warps are referred to by slot index throughout.
    """

    def __init__(self, index: int, state: SlotState,
                 policy: str = "gto") -> None:
        if policy not in ("gto", "lrr"):
            raise ValueError("scheduler policy must be 'gto' or 'lrr'")
        self.index = index
        #: Flat pipe next-free cycles (dense UNIT_INDEX order).
        self._pnf: List[int] = [0] * len(UNITS_ORDERED)
        self.policy = policy
        self.state = state
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
        #: Slot of the warp that issued last (-1 = none): the greedy pick.
        self._greedy = -1
        #: Exact earliest issue cycle of the greedy warp's next instruction
        #: (``max(next_ready, pipe free)``; BLOCKED when there is none, it
        #: is done or parked, or the policy is LRR): GTO's greedy probe is
        #: one compare.  Each commit in ``SM.tick`` re-picks the greedy
        #: warp and sets it (only commits move this scheduler's pipes);
        #: ``SM._barrier`` refreshes it when it releases the warp.
        self._greedy_at = BLOCKED
        #: Warp id of LRR's last pick, which ``SM.tick`` always issues.
        self._last_warp_id = -1
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
    def add_warp(self, slot: int) -> None:
        """Queue a newly launched warp slot."""
        self._qpush(0, slot)
        self.next_event_cache = 0

    def wake(self, slot: int, time: int) -> None:
        """Re-queue a warp slot parked on a barrier."""
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
        slot = chosen[2]
        self._last_warp_id = warp_ids[slot]
        return slot

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
            if entry[IE_MEM] >= 0:
                return STALL_LDST_QUEUE
            return STALL_PIPE_BUSY
        return READY

    # -- event horizon -----------------------------------------------------------
    def next_event(self, cycle: int) -> int:
        """Earliest future cycle at which this scheduler may act.

        Estimates may be stale-low; the GPU loop simply visits that cycle
        and re-validates, so under-estimates cost a visit, never accuracy.
        """
        st = self.state
        done = st.done
        barrier = st.barrier
        if self._bucketed:
            # Called only when the greedy probe failed, so the cached
            # greedy readiness is already past ``cycle``.
            best = self._greedy_at
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
        best = BLOCKED
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
