"""Set-associative cache model with partitioning hooks.

One class models both the per-SM unified L1 (data + texture, Section III)
and each L2 bank.  Features the paper's studies rely on:

* LRU replacement over 128-byte lines.
* MSHRs: each fill in flight is recorded with the cycle it returns, and
  :meth:`SetAssocCache.access` is the one place that decides a hit, a
  miss or a merge into an outstanding fill (a second miss to an in-flight
  line piggybacks on the first fill).
* Per-line *data-class* and *stream* tags so the L2-composition studies
  (Fig 11 / Fig 15) can snapshot what the cache holds.
* Set-level partitioning: an optional :class:`SetPartition` restricts each
  stream to a subset of the sets in every bank — the mechanism TAP uses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..config import CacheConfig
from ..isa import DataClass


class SetPartition:
    """Assigns each stream a contiguous range of sets within a cache.

    ``ratios`` maps stream id -> number of sets.  Streams not present fall
    back to the full cache.  TAP re-points these ranges at runtime.
    """

    def __init__(self, num_sets: int, ratios: Dict[int, int]) -> None:
        if sum(ratios.values()) > num_sets:
            raise ValueError("set partition exceeds cache sets")
        if any(n <= 0 for n in ratios.values()):
            raise ValueError("every stream must receive at least one set")
        self.num_sets = num_sets
        self.ranges: Dict[int, Tuple[int, int]] = {}
        start = 0
        for stream, count in sorted(ratios.items()):
            self.ranges[stream] = (start, count)
            start += count

    def validate(self) -> None:
        """Check the installed ranges are in-bounds and pairwise disjoint.

        Raises ``ValueError`` on violation.  Ranges are disjoint by
        construction today; the invariant checker re-verifies after every
        runtime re-pointing (the TAP path) so a future in-place mutation
        cannot silently alias two streams onto one set."""
        spans = sorted(self.ranges.values())
        prev_end = 0
        for start, count in spans:
            if count <= 0:
                raise ValueError("set range with non-positive count %d" % count)
            if start < prev_end:
                raise ValueError("set ranges overlap at set %d" % start)
            prev_end = start + count
        if prev_end > self.num_sets:
            raise ValueError("set ranges exceed %d sets" % self.num_sets)

    def mapping_tables(self) -> Dict[int, List[int]]:
        """Resolved per-stream set-mapping tables: ``table[raw_set]`` is the
        mapped index.  The cache installs these once per (re)configuration
        so the access path replaces the per-access dict probe + modulo with
        a single list index.  Streams absent from the ratio map keep the
        identity mapping (no table entry)."""
        return {
            stream: [start + (raw % count) for raw in range(self.num_sets)]
            for stream, (start, count) in self.ranges.items()
        }


def sector_mask_of(line_addr: int, sectors, sector_size: int = 32,
                   line_size: int = 128) -> int:
    """Bitmask of the sectors (within one line) a request touches."""
    mask = 0
    for s in sectors:
        mask |= 1 << ((s - line_addr) // sector_size)
    return mask


class CacheStats:
    """Hit/miss counters, kept per stream."""

    __slots__ = ("accesses", "hits", "misses", "mshr_merges", "evictions")

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.mshr_merges = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @classmethod
    def sum(cls, parts: Iterable["CacheStats"]) -> "CacheStats":
        """Counter-wise total of ``parts``."""
        total = cls()
        for st in parts:
            total.accesses += st.accesses
            total.hits += st.hits
            total.misses += st.misses
            total.mshr_merges += st.mshr_merges
            total.evictions += st.evictions
        return total


class _Row:
    """One set's resident lines as flat per-way lists.

    Ways fill in order and a line is only ever replaced, never
    invalidated, so the valid ways are exactly ``range(len(tags))``.
    ``ways`` maps each resident tag to its *lowest* way: a carveout shrink
    can strand a line above ``usable_ways`` while a later fill installs a
    second copy below it, and a way-order scan would find the lower one.
    """

    __slots__ = ("ways", "tags", "lru", "dirty", "masks", "classes",
                 "streams")

    def __init__(self) -> None:
        self.ways: Dict[int, int] = {}
        self.tags: List[int] = []
        self.lru: List[int] = []
        self.dirty: List[bool] = []
        self.masks: List[int] = []
        self.classes: List[Optional[DataClass]] = []
        self.streams: List[int] = []


class SetAssocCache:
    """LRU set-associative cache with MSHRs and partitioning."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.line_size = config.line_size
        # Rows materialize lazily on first fill: building every set up
        # front costs more than an entire short simulation for large L2s,
        # and an untouched set is indistinguishable from an empty one.
        self._rows: List[Optional[_Row]] = [None] * self.num_sets
        # line address -> fill-ready cycle, for MSHR merging.
        self._pending: Dict[int, int] = {}
        self._use_clock = 0
        self._full_mask = (1 << (self.line_size // 32)) - 1
        self.set_partition: Optional[SetPartition] = None
        #: Resolved per-stream set-mapping tables (see SetPartition.mapping_tables);
        #: empty when the cache is unpartitioned.
        self._set_map: Dict[int, List[int]] = {}
        # Line/set decomposition fast path: with power-of-two geometry the
        # divide+modulo becomes shift+mask.
        line = self.line_size
        sets = self.num_sets
        if line & (line - 1) == 0 and sets & (sets - 1) == 0:
            self._line_shift: Optional[int] = line.bit_length() - 1
            self._set_mask = sets - 1
        else:
            self._line_shift = None
            self._set_mask = 0
        self.stats: Dict[int, CacheStats] = {}
        #: Ways currently usable (<= assoc).  The Ampere L1 shares one
        #: physical array with shared memory; the SM shrinks/grows this as
        #: CTAs allocate/free shared memory (the carveout).
        self.usable_ways = self.assoc
        #: Resident lines per class value (a str hash is cached; an Enum's
        #: is a Python call) and per stream, kept by :meth:`fill`.
        self._class_lines: Dict[Optional[str], int] = {}
        self._stream_lines: Dict[int, int] = {}

    # -- partition control -------------------------------------------------
    def partition_sets(self, ratios: Optional[Dict[int, int]]) -> None:
        """Install (or clear, with ``None``) a set-level partition.

        Re-pointing ranges at runtime (the TAP path) simply calls this again;
        the resolved mapping tables are rebuilt from scratch each time.
        """
        if ratios:
            self.set_partition = SetPartition(self.num_sets, ratios)
            self._set_map = self.set_partition.mapping_tables()
        else:
            self.set_partition = None
            self._set_map = {}

    def validate_partition(self) -> None:
        """Check the partition state and its resolved mapping tables agree.

        The access path reads ``_set_map``, not ``set_partition``; a stale
        table after a runtime re-pointing would silently route streams into
        the wrong sets.  Raises ``ValueError`` on any inconsistency."""
        part = self.set_partition
        if part is None:
            if self._set_map:
                raise ValueError(
                    "%s: mapping tables present without a set partition"
                    % self.name)
            return
        part.validate()
        if part.num_sets != self.num_sets:
            raise ValueError("%s: partition sized for %d sets, cache has %d"
                             % (self.name, part.num_sets, self.num_sets))
        if set(self._set_map) != set(part.ranges):
            raise ValueError("%s: mapping tables cover streams %s, partition "
                             "covers %s" % (self.name, sorted(self._set_map),
                                            sorted(part.ranges)))
        for stream, (start, count) in part.ranges.items():
            if self._set_map[stream] != [start + raw % count
                                         for raw in range(self.num_sets)]:
                raise ValueError("%s: stream %d's set table disagrees with "
                                 "its range %r" % (self.name, stream, (start, count)))

    def set_usable_ways(self, ways: int) -> None:
        """Restrict (or restore) the usable ways — the L1/SMEM carveout.

        Lines resident beyond the new limit become unreachable until the
        limit grows back, approximating the flush a carveout reconfigure
        performs on hardware.
        """
        if not 1 <= ways <= self.assoc:
            raise ValueError("usable ways must be in 1..%d" % self.assoc)
        self.usable_ways = ways

    # -- lookup ------------------------------------------------------------
    def _index(self, line_addr: int, stream: int) -> Tuple[int, int]:
        # Tags are full line addresses so they remain unique after set
        # remapping; only the set index needs computing.
        if self._line_shift is not None:
            raw_set = (line_addr >> self._line_shift) & self._set_mask
        else:
            raw_set = (line_addr // self.line_size) % self.num_sets
        table = self._set_map.get(stream)
        if table is not None:
            raw_set = table[raw_set]
        return raw_set, line_addr

    def _stats(self, stream: int) -> CacheStats:
        st = self.stats.get(stream)
        if st is None:
            st = self.stats[stream] = CacheStats()
        return st

    def probe(self, line_addr: int, stream: int = 0) -> bool:
        """Non-mutating hit test (used by utility monitors)."""
        set_idx, tag = self._index(line_addr, stream)
        row = self._rows[set_idx]
        w = row.ways.get(tag) if row is not None else None
        return w is not None and w < self.usable_ways

    def access(
        self,
        line_addr: int,
        cycle: int,
        stream: int = 0,
        is_store: bool = False,
        sector_mask: int = 0,
    ) -> Tuple[bool, Optional[int]]:
        """Access one line at ``cycle``.  Returns ``(hit, ready)``.

        ``ready`` is the cycle the line's in-flight fill returns, or None;
        a fill that has returned by ``cycle`` retires here.  A miss with
        ``ready`` set is an MSHR merge: it piggybacks on that fill.  With a
        sectored configuration, ``sector_mask`` selects the touched
        sectors: a resident line missing any of them is a sector miss,
        ``(False, None)``, and the caller fetches the missing sectors.
        """
        st = self.stats.get(stream)
        if st is None:
            st = self._stats(stream)
        st.accesses += 1
        ready = self._pending.get(line_addr)
        if ready is not None and ready <= cycle:
            del self._pending[line_addr]
            ready = None
        # Inlined _index (hot path): shift/mask decomposition plus the
        # resolved per-stream set-mapping table.
        if self._line_shift is not None:
            set_idx = (line_addr >> self._line_shift) & self._set_mask
        else:
            set_idx = (line_addr // self.line_size) % self.num_sets
        table = self._set_map.get(stream)
        if table is not None:
            set_idx = table[set_idx]
        row = self._rows[set_idx]
        if row is not None:
            w = row.ways.get(line_addr)
            if w is not None and w < self.usable_ways:
                clock = self._use_clock + 1
                self._use_clock = clock
                row.lru[w] = clock
                if sector_mask and (row.masks[w] & sector_mask) != sector_mask:
                    st.misses += 1  # sector miss on a resident line
                    return False, None
                if is_store:
                    row.dirty[w] = True
                st.hits += 1
                return True, ready
        st.misses += 1
        if ready is not None:
            st.mshr_merges += 1
        return False, ready

    def fill(self, line_addr: int, data_class: DataClass, stream: int = 0,
             sector_mask: int = 0, ready: Optional[int] = None,
             dirty: bool = False) -> Optional[Tuple[int, int]]:
        """Install a line (or merge sectors into it) for a miss.

        ``sector_mask`` of 0 fills the whole line (unsectored behaviour).
        ``ready`` is the cycle the fill returns: until then the line holds
        an MSHR entry and :meth:`access` reports it in flight.  ``dirty``
        marks the line written (a write-allocate store).  Returns
        ``(line_addr, stream)`` of the evicted line when it was dirty, so
        the owner can issue the write-back; otherwise None.
        """
        if ready is not None:
            self._pending[line_addr] = ready
        mask = sector_mask or self._full_mask
        set_idx, tag = self._index(line_addr, stream)
        row = self._rows[set_idx]
        if row is None:
            row = self._rows[set_idx] = _Row()
        usable = self.usable_ways
        ways = row.ways
        w = ways.get(tag)
        if w is not None and w < usable:
            row.masks[w] |= mask  # sector refill of a resident line
            if dirty:
                row.dirty[w] = True
            return None
        clock = self._use_clock + 1
        self._use_clock = clock
        key = data_class._value_ if data_class is not None else None
        class_lines = self._class_lines
        class_lines[key] = class_lines.get(key, 0) + 1
        stream_lines = self._stream_lines
        stream_lines[stream] = stream_lines.get(stream, 0) + 1
        tags = row.tags
        n = len(tags)
        if n < usable:
            # A free way: the next one past the valid prefix.
            ways[tag] = n
            tags.append(tag)
            row.lru.append(clock)
            row.dirty.append(dirty)
            row.masks.append(mask)
            row.classes.append(data_class)
            row.streams.append(stream)
            return None
        # Evict the least recently used of the usable ways (first minimum).
        lru = row.lru
        stamps = lru if n == usable else lru[:usable]
        w = stamps.index(min(stamps))
        old = tags[w]
        old_stream = row.streams[w]
        self._stats(old_stream).evictions += 1
        old_class = row.classes[w]
        class_lines[old_class._value_ if old_class is not None else None] -= 1
        stream_lines[old_stream] -= 1
        # Tags are full line addresses, so a dirty victim's address is
        # recoverable for the write-back.
        written_back = (old, old_stream) if row.dirty[w] else None
        if ways[old] == w:
            # The lowest copy goes: a stranded higher copy (if any) is
            # the one a way-order scan finds from now on.
            if tags.count(old) > 1:
                ways[old] = tags.index(old, w + 1)
            else:
                del ways[old]
        # Any other copy of ``tag`` sits at or above ``usable`` > w.
        ways[tag] = w
        tags[w] = tag
        lru[w] = clock
        row.dirty[w] = dirty
        row.masks[w] = mask
        row.classes[w] = data_class
        row.streams[w] = stream
        return written_back

    def mshr_cycle(self, cycle: int) -> int:
        """First cycle, from ``cycle`` on, at which an MSHR entry is free.

        With every entry busy the miss waits for the earliest fill; each
        fill returned by the cycle this returns retires.
        """
        pending = self._pending
        if len(pending) >= self.config.mshr_entries:
            cycle = max(cycle, min(pending.values()))
            for line in [l for l, ready in pending.items() if ready <= cycle]:
                del pending[line]
        return cycle

    def inflight(self, cycle: int) -> int:
        """Fills still in flight at ``cycle`` (telemetry)."""
        return sum(1 for ready in self._pending.values() if ready > cycle)

    def mshr_entries_held(self) -> int:
        """MSHR entries held: fills in flight plus returned fills that
        have not retired yet.  :meth:`mshr_cycle` keeps this within
        ``mshr_entries`` on every miss it admits."""
        return len(self._pending)

    # -- introspection -----------------------------------------------------
    def composition(self) -> Dict[DataClass, int]:
        """Resident-line counts per data class (Fig 11 snapshots),
        stranded copies included, the None class and empty ones not."""
        return {DataClass(key): n for key, n in self._class_lines.items()
                if n and key is not None}

    def composition_by_stream(self) -> Dict[int, int]:
        """Resident-line counts per stream, as :meth:`composition`."""
        return {stream: n for stream, n in self._stream_lines.items() if n}

    def occupancy(self) -> float:
        valid = sum(len(row.tags) for row in self._rows if row is not None)
        return valid / (self.num_sets * self.assoc)
