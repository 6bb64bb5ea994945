"""Structure-of-arrays warp slot state.

One :class:`SlotState` per SM holds every warp's dynamic timing state in
flat parallel arrays indexed by a dense *warp slot* — an integer allocated
at CTA launch, monotonically increasing over the SM's lifetime and never
reused.  The scheduler heaps, issue commit, and re-validation sweeps all
operate on these arrays with plain integer indexing; the per-warp
:class:`~repro.timing.warp.WarpContext` is reduced to an identity handle
whose dynamic-state attributes are properties over its slot.

Why monotonic slots: scheduler heaps delete lazily, so entries for retired
warps linger until popped.  Because a slot is never recycled, ``done[slot]``
stays set forever and a stale ``(est, seq, slot)`` heap entry is always
recognised — no generation counters on the hot path.

The register scoreboard is one flat int64-valued array: warp ``slot`` owns
the slice ``sb[sb_base[slot] : sb_base[slot] + nregs]``, indexed by the
dense renamed register ids that
:meth:`~repro.isa.trace.WarpTrace.issue_stream` precomputes at trace load
(``IE_REGS`` / ``IE_DST``).  ``slot * max_regs + reg`` is the special case
of this base-offset layout when every trace renames to the same register
count; per-slot bases waste no space when register demand varies across
kernels.

The scoreboard is *single-writer*: only the owning warp's commits write its
slice, so the earliest cycle a slot's next instruction clears its
dependencies is fully determined at the previous commit.  ``next_ready``
caches exactly that — ``max(stall_until, dep ready cycles)`` — letting the
scheduler's issue re-validation compare two ints per visit instead of
re-walking the scoreboard.  The barrier release path is the one other
writer of ``stall_until`` and folds itself into ``next_ready`` in place.

Columns are plain Python lists of ints (flags are bytearrays), not
``array('q')``/numpy: CPython re-boxes a fresh int object on every typed-
array read, which costs more on this read-dominated path than the pointer
indexing a list does.  Values are kept int64-safe by construction —
``BLOCKED`` (1 << 62) fits — so a typed-array or numpy copy of any column
is always well-defined.
"""

from __future__ import annotations

from typing import List, Optional


class SlotState:
    """Flat dynamic state of every warp slot on one SM."""

    __slots__ = (
        "pc", "stall_until", "next_ready", "last_issue", "last_commit",
        "done", "barrier", "warp_ids", "streams", "n_insts", "sb", "sb_base",
        "entries", "cur", "warps", "sstats", "count",
    )

    def __init__(self) -> None:
        #: Next instruction index per slot.
        self.pc: List[int] = []
        #: Earliest issue cycle per slot (barrier release and the like).
        self.stall_until: List[int] = []
        #: ``max(stall_until, scoreboard dep readiness)`` of the slot's
        #: current instruction — exact by the single-writer argument above;
        #: the scheduler hot path reads only this (plus the pipe state).
        self.next_ready: List[int] = []
        #: Cycle of the slot's most recent issue (-1 = never issued).
        self.last_issue: List[int] = []
        #: Latest completion cycle any of the slot's instructions reached.
        self.last_commit: List[int] = []
        #: 1 once the slot's trace is fully issued (sticky — never reset,
        #: which is what keeps stale lazy-heap entries harmless).
        self.done = bytearray()
        #: 1 while the slot is parked at a CTA barrier.
        self.barrier = bytearray()
        #: The warp's id within its CTA (LRR round-robin key).
        self.warp_ids: List[int] = []
        #: The warp's owning stream id (stat/LDST routing on the issue path).
        self.streams: List[int] = []
        #: Trace length per slot.
        self.n_insts: List[int] = []
        #: Flat register scoreboard; slot's slice starts at ``sb_base[slot]``.
        self.sb: List[int] = []
        self.sb_base: List[int] = []
        #: Per-slot issue-tuple stream (shared with the trace's cache).
        self.entries: List[Optional[list]] = []
        #: ``entries[slot][pc[slot]]``, kept current so the pick loop does a
        #: single list index; None once the slot is done.
        self.cur: List[Optional[tuple]] = []
        #: Slot -> owning WarpContext handle (None after its CTA retires).
        self.warps: List = []
        #: Slot -> owning stream's StreamStats (resolved once at launch).
        self.sstats: List = []
        self.count = 0

    def alloc(self, warp, stream_entries: list, num_regs: int,
              warp_id: int, sstat=None, stream: int = 0) -> int:
        """Claim the next dense slot for ``warp``; returns the slot index."""
        slot = self.count
        self.count = slot + 1
        n = len(stream_entries)
        self.pc.append(0)
        self.stall_until.append(0)
        self.next_ready.append(0)
        self.last_issue.append(-1)
        self.last_commit.append(0)
        self.done.append(0 if n else 1)
        self.barrier.append(0)
        self.warp_ids.append(warp_id)
        self.streams.append(stream)
        self.n_insts.append(n)
        self.sb_base.append(len(self.sb))
        if num_regs:
            self.sb.extend([0] * num_regs)
        self.entries.append(stream_entries)
        self.cur.append(stream_entries[0] if n else None)
        self.warps.append(warp)
        self.sstats.append(sstat)
        return slot

    def release_handle(self, slot: int) -> None:
        """Drop the slot's object references once its CTA has retired.

        The int arrays stay (stale heap entries still read ``done[slot]``);
        only the Python-object columns are cleared so long open-loop runs do
        not pin every retired WarpContext alive.
        """
        self.warps[slot] = None
        self.sstats[slot] = None
        self.entries[slot] = None

    def __len__(self) -> int:
        return self.count
