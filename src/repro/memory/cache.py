"""Set-associative cache model with partitioning hooks.

One class models both the per-SM unified L1 (data + texture, Section III)
and each L2 bank.  Features the paper's studies rely on:

* LRU replacement over 128-byte lines.
* MSHR-style merging of outstanding misses (a second miss to an in-flight
  line piggybacks on the first fill).
* Per-line *data-class* and *stream* tags so the L2-composition studies
  (Fig 11 / Fig 15) can snapshot what the cache holds.
* Set-level partitioning: an optional :class:`SetPartition` restricts each
  stream to a subset of the sets in every bank — the mechanism TAP uses.
* Way-level partitioning for completeness (classic utility-based schemes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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

    def map_set(self, stream: int, raw_set: int) -> int:
        """Map a raw set index into the stream's assigned range."""
        rng = self.ranges.get(stream)
        if rng is None:
            return raw_set
        start, count = rng
        return start + raw_set % count

    def sets_for(self, stream: int) -> int:
        rng = self.ranges.get(stream)
        return rng[1] if rng else self.num_sets

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


class WayPartition:
    """Restricts each stream to a number of ways per set."""

    def __init__(self, assoc: int, ways: Dict[int, int]) -> None:
        if sum(ways.values()) > assoc:
            raise ValueError("way partition exceeds associativity")
        if any(w <= 0 for w in ways.values()):
            raise ValueError("every stream must receive at least one way")
        self.assoc = assoc
        self.ranges: Dict[int, Tuple[int, int]] = {}
        start = 0
        for stream, count in sorted(ways.items()):
            self.ranges[stream] = (start, count)
            start += count

    def ways_for(self, stream: int) -> range:
        rng = self.ranges.get(stream)
        if rng is None:
            return range(self.assoc)
        return range(rng[0], rng[0] + rng[1])


class _Line:
    __slots__ = ("tag", "valid", "dirty", "last_use", "data_class", "stream",
                 "sector_mask")

    def __init__(self) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.last_use = 0
        self.data_class: Optional[DataClass] = None
        self.stream = -1
        self.sector_mask = 0


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


class SetAssocCache:
    """LRU set-associative cache with MSHRs and partitioning."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.line_size = config.line_size
        # Sets materialize lazily on first touch: building every _Line up
        # front costs more than an entire short simulation for large L2s,
        # and an untouched set is indistinguishable from an all-invalid one.
        self._sets: List[Optional[List[_Line]]] = [None] * self.num_sets
        # line address -> fill-ready cycle, for MSHR merging.
        self._pending: Dict[int, int] = {}
        self._use_clock = 0
        self.set_partition: Optional[SetPartition] = None
        #: Resolved per-stream set-mapping tables (see SetPartition.mapping_tables);
        #: empty when the cache is unpartitioned.
        self._set_map: Dict[int, List[int]] = {}
        self.way_partition: Optional[WayPartition] = None
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
            table = self._set_map[stream]
            if len(table) != self.num_sets:
                raise ValueError("%s: stream %d table has %d entries"
                                 % (self.name, stream, len(table)))
            for raw, mapped in enumerate(table):
                if mapped != start + raw % count:
                    raise ValueError(
                        "%s: stream %d maps raw set %d to %d, partition "
                        "says %d" % (self.name, stream, raw, mapped,
                                     start + raw % count))

    def partition_ways(self, ways: Optional[Dict[int, int]]) -> None:
        self.way_partition = WayPartition(self.assoc, ways) if ways else None

    def set_usable_ways(self, ways: int) -> None:
        """Restrict (or restore) the usable ways — the L1/SMEM carveout.

        Lines resident beyond the new limit become unreachable until the
        limit grows back, approximating the flush a carveout reconfigure
        performs on hardware.
        """
        if not 1 <= ways <= self.assoc:
            raise ValueError("usable ways must be in 1..%d" % self.assoc)
        self.usable_ways = ways

    def _ways(self, stream: int) -> range:
        if self.way_partition is not None:
            return self.way_partition.ways_for(stream)
        return range(self.usable_ways)

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
            st = CacheStats()
            self.stats[stream] = st
        return st

    def probe(self, line_addr: int, stream: int = 0) -> bool:
        """Non-mutating hit test (used by utility monitors)."""
        set_idx, tag = self._index(line_addr, stream)
        cache_set = self._sets[set_idx]
        if cache_set is None:
            return False
        return any(cache_set[w].valid and cache_set[w].tag == tag
                   for w in self._ways(stream))

    def access(
        self,
        line_addr: int,
        cycle: int,
        data_class: DataClass,
        stream: int = 0,
        is_store: bool = False,
        sector_mask: int = 0,
    ) -> Tuple[bool, bool]:
        """Access one line.  Returns ``(hit, merged)``.

        ``merged`` is True when the access missed but merged into an
        outstanding MSHR entry (no new fill needed).  With a sectored
        configuration, ``sector_mask`` selects the touched sectors: a
        resident line missing any of them counts as a (sector) miss.
        """
        self._use_clock += 1
        st = self.stats.get(stream)
        if st is None:
            st = self._stats(stream)
        st.accesses += 1
        # Inlined _index (hot path): shift/mask decomposition plus the
        # resolved per-stream set-mapping table.
        if self._line_shift is not None:
            set_idx = (line_addr >> self._line_shift) & self._set_mask
        else:
            set_idx = (line_addr // self.line_size) % self.num_sets
        table = self._set_map.get(stream)
        if table is not None:
            set_idx = table[set_idx]
        tag = line_addr
        if self.way_partition is not None:
            ways = self.way_partition.ways_for(stream)
        else:
            ways = range(self.usable_ways)
        cache_set = self._sets[set_idx]
        if cache_set is None:
            cache_set = self._sets[set_idx] = [
                _Line() for _ in range(self.assoc)
            ]
        for w in ways:
            line = cache_set[w]
            if line.valid and line.tag == tag:
                line.last_use = self._use_clock
                if sector_mask and (line.sector_mask & sector_mask) != sector_mask:
                    st.misses += 1  # sector miss on a resident line
                    return False, False
                if is_store:
                    line.dirty = True
                st.hits += 1
                return True, False
        st.misses += 1
        if line_addr in self._pending:
            st.mshr_merges += 1
            return False, True
        return False, False

    def fill(self, line_addr: int, data_class: DataClass, stream: int = 0,
             sector_mask: int = 0) -> Optional[Tuple[int, int]]:
        """Install a line (or merge sectors into it) after its fill returns.

        ``sector_mask`` of 0 fills the whole line (unsectored behaviour).
        Returns ``(line_addr, stream)`` of the evicted line when it was
        dirty, so the owner can issue the write-back; otherwise None.
        """
        self._use_clock += 1
        full_mask = (1 << (self.line_size // 32)) - 1
        mask = sector_mask or full_mask
        set_idx, tag = self._index(line_addr, stream)
        cache_set = self._sets[set_idx]
        if cache_set is None:
            cache_set = self._sets[set_idx] = [
                _Line() for _ in range(self.assoc)
            ]
        ways = self._ways(stream)
        victim = None
        oldest = None
        for w in ways:
            line = cache_set[w]
            if line.valid and line.tag == tag:
                line.sector_mask |= mask  # sector refill of a resident line
                return None
            if not line.valid:
                victim = line
                break
            if oldest is None or line.last_use < oldest.last_use:
                oldest = line
        written_back = None
        if victim is None:
            victim = oldest
            assert victim is not None
            self._stats(victim.stream).evictions += 1
            if victim.dirty:
                # Tags are full line addresses, so the victim's address is
                # recoverable for the write-back.
                written_back = (victim.tag, victim.stream)
        victim.tag = tag
        victim.valid = True
        victim.dirty = False
        victim.last_use = self._use_clock
        victim.data_class = data_class
        victim.stream = stream
        victim.sector_mask = mask
        return written_back

    def mark_dirty(self, line_addr: int, stream: int = 0) -> None:
        """Set the dirty bit on a resident line (store to a fresh fill)."""
        set_idx, tag = self._index(line_addr, stream)
        cache_set = self._sets[set_idx]
        if cache_set is None:
            return
        for w in self._ways(stream):
            if cache_set[w].valid and cache_set[w].tag == tag:
                cache_set[w].dirty = True
                return

    # -- MSHR bookkeeping ---------------------------------------------------
    def note_pending(self, line_addr: int, ready_cycle: int) -> None:
        self._pending[line_addr] = ready_cycle

    def pending_ready(self, line_addr: int) -> Optional[int]:
        return self._pending.get(line_addr)

    def complete_pending(self, line_addr: int) -> None:
        self._pending.pop(line_addr, None)

    @property
    def mshr_free(self) -> bool:
        return len(self._pending) < self.config.mshr_entries

    def purge_pending(self, cycle: int) -> None:
        """Retire pending-fill entries whose data has returned."""
        done = [l for l, ready in self._pending.items() if ready <= cycle]
        for l in done:
            del self._pending[l]

    def earliest_pending(self) -> Optional[int]:
        """Cycle at which the next outstanding fill completes."""
        if not self._pending:
            return None
        return min(self._pending.values())

    # -- introspection -----------------------------------------------------
    def composition(self) -> Dict[DataClass, int]:
        """Valid-line counts per data class (Fig 11 snapshots)."""
        comp: Dict[DataClass, int] = {}
        for cache_set in self._sets:
            if cache_set is None:
                continue
            for line in cache_set:
                if line.valid and line.data_class is not None:
                    comp[line.data_class] = comp.get(line.data_class, 0) + 1
        return comp

    def composition_by_stream(self) -> Dict[int, int]:
        comp: Dict[int, int] = {}
        for cache_set in self._sets:
            if cache_set is None:
                continue
            for line in cache_set:
                if line.valid:
                    comp[line.stream] = comp.get(line.stream, 0) + 1
        return comp

    def occupancy(self) -> float:
        valid = sum(1 for s in self._sets if s is not None
                    for l in s if l.valid)
        return valid / (self.num_sets * self.assoc)

    def flush(self) -> None:
        """Invalidate all lines and outstanding fills."""
        for cache_set in self._sets:
            if cache_set is None:
                continue
            for line in cache_set:
                line.valid = False
                line.dirty = False
        self._pending.clear()

    def aggregate_stats(self) -> CacheStats:
        total = CacheStats()
        for st in self.stats.values():
            total.accesses += st.accesses
            total.hits += st.hits
            total.misses += st.misses
            total.mshr_merges += st.mshr_merges
            total.evictions += st.evictions
        return total
