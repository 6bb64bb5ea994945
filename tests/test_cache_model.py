"""Model-based differential test of :class:`SetAssocCache`.

``RefCache`` is a plain list-of-ways LRU cache in which every lookup scans
the usable ways in way order, the way the cache was first written.  Random
operation sequences run through both, and every observable result must
agree after every step: hits, in-flight ready cycles, write-back victims,
MSHR waits, per-stream counters, composition and occupancy.
"""

from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.isa import DataClass
from repro.memory import SetAssocCache

LINE = 128
CLASSES = (DataClass.COMPUTE, DataClass.TEXTURE, DataClass.VERTEX)


class RefCache:
    """Reference cache: ``ways[set][w]`` is ``None`` or
    ``[tag, last_use, dirty, sector_mask, data_class, stream]``."""

    def __init__(self, num_sets, assoc, mshr_entries):
        self.num_sets, self.mshr_entries = num_sets, mshr_entries
        self.ways = [[None] * assoc for _ in range(num_sets)]
        self.pending, self.stats, self.tables = {}, {}, {}
        self.clock, self.usable = 0, assoc

    def partition(self, ratios):
        self.tables, start = {}, 0
        for stream, count in sorted((ratios or {}).items()):
            self.tables[stream] = [start + raw % count for raw in range(self.num_sets)]
            start += count

    def _row(self, line, stream):
        raw = (line // LINE) % self.num_sets
        table = self.tables.get(stream)
        return self.ways[table[raw] if table else raw]

    def _stat(self, stream):
        return self.stats.setdefault(stream, [0, 0, 0, 0, 0])

    def probe(self, line, stream):
        row = self._row(line, stream)
        return any(row[w] is not None and row[w][0] == line for w in range(self.usable))

    def access(self, line, cycle, stream, is_store, mask):
        self.clock += 1
        st = self._stat(stream)
        st[0] += 1
        ready = self.pending.get(line)
        if ready is not None and ready <= cycle:
            del self.pending[line]
            ready = None
        row = self._row(line, stream)
        for w in range(self.usable):
            way = row[w]
            if way is not None and way[0] == line:
                way[1] = self.clock
                if mask and way[3] & mask != mask:
                    st[2] += 1
                    return False, None
                way[2] = way[2] or is_store
                st[1] += 1
                return True, ready
        st[2] += 1
        st[3] += ready is not None
        return False, ready

    def fill(self, line, cls, stream, mask, ready, dirty):
        if ready is not None:
            self.pending[line] = ready
        self.clock += 1
        row, victim, oldest = self._row(line, stream), None, None
        for w in range(self.usable):
            way = row[w]
            if way is not None and way[0] == line:
                way[3] |= mask or 0b1111
                way[2] = way[2] or dirty
                return None
            if way is None:
                victim = w
                break
            if oldest is None or way[1] < row[oldest][1]:
                oldest = w
        written_back = None
        if victim is None:
            victim, old = oldest, row[oldest]
            self._stat(old[5])[4] += 1
            written_back = (old[0], old[5]) if old[2] else None
        row[victim] = [line, self.clock, dirty, mask or 0b1111, cls, stream]
        return written_back

    def mshr_cycle(self, cycle):
        if len(self.pending) >= self.mshr_entries:
            cycle = max(cycle, min(self.pending.values()))
            for line in [l for l, r in self.pending.items() if r <= cycle]:
                del self.pending[line]
        return cycle

    def lines(self):
        return [way for row in self.ways for way in row if way is not None]


class Pair:
    """Drives one operation through both caches and compares the results."""

    def __init__(self, num_sets, assoc, mshr_entries=4):
        cfg = CacheConfig(size_bytes=num_sets * assoc * LINE, assoc=assoc,
                          mshr_entries=mshr_entries)
        self.cache = SetAssocCache(cfg, "dut")
        self.ref = RefCache(num_sets, assoc, mshr_entries)
        self.cycle = 0

    def run(self, op):
        """Apply ``op`` to both caches; returns the cache's result."""
        kind, args = op[0], op[1:]
        c, r = self.cache, self.ref
        got = want = None
        if kind == "access":
            line, stream, is_store, mask, dt = args
            self.cycle += dt
            got = c.access(line * LINE, self.cycle, stream, is_store, mask)
            want = r.access(line * LINE, self.cycle, stream, is_store, mask)
        elif kind == "load":
            # The LDST pattern: access, then fill on a plain miss.
            line, stream = args
            got = self.run(("access", line, stream, False, 0, 1))
            if got == (False, None):
                self.run(("fill", line, DataClass.COMPUTE, stream, 0, None, False))
            return got
        elif kind == "fill":
            line, cls, stream, mask, ready, dirty = args
            ready = None if ready is None else self.cycle + ready
            got = c.fill(line * LINE, cls, stream, mask, ready=ready, dirty=dirty)
            want = r.fill(line * LINE, cls, stream, mask, ready, dirty)
        elif kind == "mshr":
            self.cycle += args[0]
            got, want = c.mshr_cycle(self.cycle), r.mshr_cycle(self.cycle)
        elif kind == "ways":
            r.usable = 1 + (args[0] - 1) % c.assoc
            c.set_usable_ways(r.usable)
        elif kind == "part":
            ratios = _ratios(c.num_sets, *args)
            c.partition_sets(ratios)
            r.partition(ratios)
        else:
            line, stream = args
            got, want = c.probe(line * LINE, stream), r.probe(line * LINE, stream)
        assert got == want, op
        self.check()
        return got

    def check(self):
        c, r = self.cache, self.ref
        assert {s: [st.accesses, st.hits, st.misses, st.mshr_merges, st.evictions]
                for s, st in c.stats.items()} == r.stats
        lines = r.lines()
        comp, comp_stream = {}, {}
        for way in lines:
            comp[way[4]] = comp.get(way[4], 0) + 1
            comp_stream[way[5]] = comp_stream.get(way[5], 0) + 1
        assert c.composition() == comp
        assert c.composition_by_stream() == comp_stream
        assert c.occupancy() == len(lines) / (c.num_sets * c.assoc)
        assert c.inflight(self.cycle) == sum(1 for t in r.pending.values() if t > self.cycle)
        assert c.mshr_entries_held() == len(r.pending)


def _ratios(num_sets, first, second, clear):
    """A partition_sets argument for ``num_sets`` sets (None clears)."""
    if clear:
        return None
    c0 = 1 + first % num_sets
    c1 = second % (num_sets - c0 + 1)
    return {0: c0, 1: c1} if c1 else {0: c0}


lines = st.integers(0, 11)
streams = st.integers(0, 2)
masks = st.sampled_from((0, 0b0001, 0b0011, 0b0110, 0b1000, 0b1111))
ops = st.one_of(
    st.tuples(st.just("access"), lines, streams, st.booleans(), masks,
              st.integers(0, 40)),
    st.tuples(st.just("fill"), lines, st.sampled_from(CLASSES), streams, masks,
              st.one_of(st.none(), st.integers(0, 200)), st.booleans()),
    st.tuples(st.just("mshr"), st.integers(0, 40)),
    st.tuples(st.just("ways"), st.integers(0, 7)),
    st.tuples(st.just("part"), st.integers(0, 7), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("probe"), lines, streams),
    st.tuples(st.just("load"), lines, streams),
)


@settings(max_examples=300, deadline=None)
@given(geometry=st.tuples(st.sampled_from((1, 2, 3, 4)), st.integers(1, 6),
                          st.integers(1, 4)),
       sequence=st.lists(ops, max_size=80))
def test_matches_reference_cache(geometry, sequence):
    pair = Pair(*geometry)
    for op in sequence:
        pair.run(op)


def test_carveout_duplicate_copy():
    """A shrink strands a line above the usable ways; a refill puts a second
    copy below it.  After a grow the lower copy is the one found, and
    evicting it exposes the stranded copy again."""
    pair = Pair(num_sets=1, assoc=3)
    a, b, c, d = 0, 1, 2, 3
    steps = [("fill", a, DataClass.COMPUTE, 0, 0, None, False),
             ("fill", b, DataClass.COMPUTE, 0, 0, None, False),
             ("fill", c, DataClass.TEXTURE, 1, 0, None, True),   # c in way 2
             ("ways", 1),                                        # usable: way 0
             ("access", c, 1, False, 0, 1),                      # miss
             ("fill", c, DataClass.COMPUTE, 1, 0, None, False),  # copy in way 0
             ("ways", 3),                                        # usable: ways 0-2
             ("access", c, 1, False, 0, 1),                      # hits way 0
             ("access", b, 0, False, 0, 1),
             ("access", c, 1, False, 0, 1),
             ("ways", 1),
             ("fill", d, DataClass.COMPUTE, 0, 0, None, False),  # evicts way 0
             ("ways", 3),
             ("access", c, 1, True, 0, 1)]                       # hits way 2
    for op in steps:
        pair.run(op)
    assert pair.cache.stats[1].hits == 3
    assert pair.cache.composition_by_stream() == {0: 2, 1: 1}
    # LRU order is now b, d, c; the stranded copy of c is the dirty one
    # from its first fill, so evicting it writes back.
    victims = [pair.run(("fill", line, DataClass.COMPUTE, 0, 0, None, False))
               for line in (4, 5, 6)]
    assert victims == [None, None, (c * LINE, 1)]


@settings(max_examples=500, deadline=None)
@given(assoc=st.integers(2, 4),
       sequence=st.lists(st.one_of(
           st.tuples(st.just("load"), st.integers(0, 4), st.just(0)),
           st.tuples(st.just("ways"), st.integers(1, 4))),
           min_size=10, max_size=60))
def test_matches_reference_under_carveout_churn(assoc, sequence):
    """One set, few lines and frequent shrinks and grows: the sequences
    that strand lines above the usable ways and then refill them."""
    pair = Pair(1, assoc)
    for op in sequence:
        pair.run(op)


def _row_walk(cache):
    """Composition the way a walk over every row's ways counts it."""
    comp, comp_stream = {}, {}
    for row in cache._rows:
        if row is None:
            continue
        for cls in row.classes:
            if cls is not None:
                comp[cls] = comp.get(cls, 0) + 1
        for stream in row.streams:
            comp_stream[stream] = comp_stream.get(stream, 0) + 1
    return comp, comp_stream


@settings(max_examples=300, deadline=None)
@given(assoc=st.integers(1, 4),
       sequence=st.lists(st.one_of(
           st.tuples(st.just("fill"), st.integers(0, 9),
                     st.sampled_from(CLASSES + (None,)), st.integers(0, 2)),
           st.tuples(st.just("ways"), st.integers(1, 4))),
           max_size=60))
def test_composition_counters_match_row_walk(assoc, sequence):
    """The per-class and per-stream line counters that fill keeps equal a
    walk over the rows after random fills and carveout shrinks: stranded
    copies counted, the None class and emptied keys left out."""
    cfg = CacheConfig(size_bytes=2 * assoc * LINE, assoc=assoc,
                      mshr_entries=4)
    cache = SetAssocCache(cfg, "dut")
    for op in sequence:
        if op[0] == "fill":
            _, line, cls, stream = op
            cache.fill(line * LINE, cls, stream)
        else:
            cache.set_usable_ways(min(op[1], assoc))
        comp, comp_stream = _row_walk(cache)
        assert cache.composition() == comp
        assert cache.composition_by_stream() == comp_stream
