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

One ready queue serves both policies, popping in ``(estimate, push seq)``
order.  An entry is one small int, ``estimate << _shift | seq``, and
``_qslot[seq]`` is its slot, so a push allocates nothing; when ``seq``
reaches the table's end, :meth:`_resequence` renumbers the live entries
in pop order, which changes no pop.  GTO re-queues at a fresh seq; LRR
re-pushes the ready warps it passes over with their original keys.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List

from ..isa.instructions import IE_MEM, IE_UNIT_IDX
from ..isa.opcodes import UNITS_ORDERED
from .slots import DONE, PARKED, SlotState
from .warp import BLOCKED

#: Initial bits of a queue key below the estimate (the seq table's size).
SEQ_BITS = 10


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
        #: True for LRR, whose selection is :meth:`_pick_lrr`; GTO's is
        #: inline in ``SM.tick``.
        self._lrr = policy == "lrr"
        #: The ready queue: a min-heap of ``estimate << _shift | seq``.
        self._q: List[int] = []
        #: ``seq -> warp slot`` of the queue's entries.
        self._qslot: List[int] = [0] * (1 << SEQ_BITS)
        #: Seq of the next push (< ``len(_qslot)`` == ``_mask + 1``).
        self._seq = 0
        self._shift = SEQ_BITS
        self._mask = (1 << SEQ_BITS) - 1
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
    def push(self, est: int, slot: int) -> None:
        """Queue ``slot`` at estimated cycle ``est`` (inline in SM.tick)."""
        seq = self._seq
        try:
            self._qslot[seq] = slot
        except IndexError:
            # The seq table is full: renumber, then queue behind the rest.
            seq = self._resequence()
            self._qslot[seq] = slot
        self._seq = seq + 1
        heappush(self._q, est << self._shift | seq)

    def _resequence(self) -> int:
        """Renumber the live entries ``0..k-1`` in pop order, dropping
        finished warps', and return ``k``.  Both lists change in place
        (``SM.tick`` holds them); a table left over half full doubles."""
        q = self._q
        qslot = self._qslot
        shift = self._shift
        mask = self._mask
        flags = self.state.flags
        live = [(key >> shift, qslot[key & mask]) for key in sorted(q)]
        live = [(est, slot) for est, slot in live if not flags[slot] & DONE]
        k = len(live)
        while 2 * k > mask + 1:
            shift += 1
            mask = 2 * mask + 1
        qslot.extend([0] * (mask + 1 - len(qslot)))
        self._shift = shift
        self._mask = mask
        # A sorted list is a valid heap.
        q[:] = [est << shift | seq for seq, (est, _) in enumerate(live)]
        for seq, (_, slot) in enumerate(live):
            qslot[seq] = slot
        return k

    def _requeue_lrr(self, q: List[int], key: int) -> None:
        """Re-queue LRR's issued warp after its commit, which set a greedy
        readiness that LRR, having no greedy probe, clears."""
        heappush(q, key)
        self._greedy_at = BLOCKED

    # -- membership ----------------------------------------------------------
    def add_warp(self, slot: int) -> None:
        """Queue a newly launched warp slot."""
        self.push(0, slot)
        self.next_event_cache = 0

    def wake(self, slot: int, time: int) -> None:
        """Re-queue a warp slot parked on a barrier."""
        self.push(time, slot)
        if time < self.next_event_cache:
            self.next_event_cache = time

    # -- selection -------------------------------------------------------------
    def _pick_lrr(self, cycle: int) -> int:
        """Loose round robin: among warps ready now, pick the one whose id
        follows the last issued warp's (wrapping)."""
        st = self.state
        q = self._q
        qslot = self._qslot
        mask = self._mask
        flags = st.flags
        nr = st.next_ready
        cur = st.cur
        pnf = self._pnf
        lim = (cycle + 1) << self._shift
        ready: List[int] = []
        later: List[tuple] = []
        while q and q[0] < lim:
            key = heappop(q)
            s = qslot[key & mask]
            if flags[s]:
                continue
            t = nr[s]
            nf = pnf[cur[s][IE_UNIT_IDX]]
            if nf > t:
                t = nf
            if t <= cycle:
                ready.append(key)
            else:
                later.append((t, s))
        if ready:
            last = self._last_warp_id
            warps = st.warps
            chosen = min(ready, key=lambda key: (
                warps[qslot[key & mask]].warp_id - last - 1) % 4096)
            # The others keep their keys: their place in the queue.
            for key in ready:
                if key != chosen:
                    heappush(q, key)
            slot = qslot[chosen & mask]
            self._last_warp_id = warps[slot].warp_id
        else:
            slot = -1
        # Pushed last, so that no renumbering runs while a kept key is
        # out of the heap.
        for t, s in later:
            self.push(t, s)
        if slot < 0:
            # ``SM.tick`` reads the next event off a live head.
            while q:
                s = qslot[q[0] & self._mask]
                if not flags[s]:
                    break
                heappop(q)
        return slot

    # -- telemetry ---------------------------------------------------------
    def stall_reason(self, slot: int, cycle: int) -> str:
        """Why ``slot`` cannot issue at ``cycle`` (read-only, sampling only).

        Called by ``SM.sample_stalls`` at telemetry sample ticks, never from
        the issue path.  Mirrors the issue re-validation but names the
        first binding constraint instead of computing a ready cycle.
        """
        from ..telemetry.stall import (
            READY, STALL_BARRIER, STALL_LDST_QUEUE, STALL_NO_INSTRUCTION,
            STALL_PIPE_BUSY, STALL_SCOREBOARD,
        )
        st = self.state
        flags = st.flags[slot]
        if flags & DONE:
            return STALL_NO_INSTRUCTION
        if flags & PARKED:
            return STALL_BARRIER
        entry = st.cur[slot]
        if st.next_ready[slot] > cycle:
            return STALL_SCOREBOARD
        if self._pnf[entry[IE_UNIT_IDX]] > cycle:
            if entry[IE_MEM] >= 0:
                return STALL_LDST_QUEUE
            return STALL_PIPE_BUSY
        return READY
