"""Structure-of-arrays warp slot state.

One :class:`SlotState` per SM holds every warp's dynamic timing state in
flat parallel arrays indexed by a dense *warp slot* — an integer allocated
at CTA launch, monotonically increasing over the SM's lifetime and never
reused.  The scheduler queues, issue commit, and re-validation sweeps all
operate on these arrays with plain integer indexing; the per-warp
:class:`~repro.timing.warp.WarpContext` is reduced to an identity handle
whose dynamic-state attributes are properties over its slot.

Why monotonic slots: scheduler ready queues delete lazily, so entries
for retired warps linger until popped.  Because a slot is never recycled,
its DONE flag stays set forever and a stale queue entry is always
recognised — no generation counters on the hot path.

A slot's position in its trace is ``cur[slot]``, the tuple it issues
next: tuples link to their successors (``IE_NEXT``) and know their own
index (``IE_PC``), so a commit advances a slot with one field read and
pc derives from the tuple.

The register scoreboard is one plain list per slot, ``sb[slot]``, indexed
by the dense renamed register ids that
:meth:`~repro.isa.trace.WarpTrace.issue_stream` precomputes at trace load
(``IE_REGS`` / ``IE_DST``), so a dependency read is one list index with
no offset arithmetic.

The scoreboard is *single-writer*: only the owning warp's commits write its
list, so the earliest cycle a slot's next instruction clears its
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

#: ``SlotState.flags`` bits.
DONE = 1
PARKED = 2


class SlotState:
    """Flat dynamic state of every warp slot on one SM."""

    __slots__ = (
        "stall_until", "next_ready", "last_commit",
        "flags", "sb",
        "mems", "cur", "warps", "sstats", "count",
    )

    def __init__(self) -> None:
        #: Earliest issue cycle per slot (barrier release and the like).
        self.stall_until: List[int] = []
        #: ``max(stall_until, scoreboard dep readiness)`` of the slot's
        #: current instruction — exact by the single-writer argument above;
        #: the scheduler hot path reads only this (plus the pipe state).
        self.next_ready: List[int] = []
        #: Latest completion cycle any of the slot's instructions reached.
        self.last_commit: List[int] = []
        #: ``DONE`` once the trace is fully issued (sticky, which keeps
        #: stale queue entries harmless) | ``PARKED`` at a CTA barrier.
        self.flags = bytearray()
        #: Per-slot register scoreboard: renamed register -> ready cycle.
        self.sb: List[Optional[List[int]]] = []
        #: Per-slot memory operands, indexed by an entry's ``IE_MEM``.
        self.mems: List[Optional[tuple]] = []
        #: The slot's next issue tuple (its stream's head at launch, then
        #: each committed tuple's ``IE_NEXT``); None once the slot is done.
        self.cur: List[Optional[tuple]] = []
        #: Slot -> owning WarpContext handle (None after its CTA retires).
        self.warps: List = []
        #: Slot -> owning stream's StreamStats (resolved once at launch).
        self.sstats: List = []
        self.count = 0

    def alloc(self, warp, head: Optional[tuple], mems: tuple, num_regs: int,
              sstat) -> int:
        """Claim the next dense slot for ``warp``, whose first issue tuple
        is ``head`` (None for an empty trace); returns the slot index."""
        slot = self.count
        self.count = slot + 1
        self.stall_until.append(0)
        self.next_ready.append(0)
        self.last_commit.append(0)
        self.flags.append(0 if head is not None else DONE)
        self.sb.append([0] * num_regs)
        self.mems.append(mems)
        self.cur.append(head)
        self.warps.append(warp)
        self.sstats.append(sstat)
        return slot

    def release_handle(self, slot: int) -> None:
        """Drop the slot's object references once its CTA has retired.

        The flat int columns stay (stale queue entries still read
        ``flags[slot]``).  The object columns are cleared, which breaks the
        slot's cycle with its WarpContext, and so is the slot's scoreboard:
        a done slot never reads either again.  With the CTA's own warp list dropped
        too (``SM.process_completions``), reference counting frees the
        retired WarpContext during the run.
        """
        self.warps[slot] = None
        self.sstats[slot] = None
        self.mems[slot] = None
        self.sb[slot] = None

    def __len__(self) -> int:
        return self.count
