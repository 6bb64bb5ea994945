"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.isa import DataClass
from repro.memory import CacheStats, SetAssocCache, SetPartition


def small_cache(assoc=4, sets=8):
    return SetAssocCache(
        CacheConfig(size_bytes=sets * assoc * 128, assoc=assoc), "t")


def load(cache, addr, stream=0):
    hit, ready = cache.access(addr, cycle=0, stream=stream)
    if not hit and ready is None:
        cache.fill(addr, DataClass.COMPUTE, stream)
    return hit


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        assert not load(c, 0)
        assert load(c, 0)

    def test_distinct_lines_independent(self):
        c = small_cache()
        load(c, 0)
        assert not load(c, 128)

    def test_lru_evicts_oldest(self):
        c = small_cache(assoc=2, sets=1)
        load(c, 0)
        load(c, 128)
        load(c, 0)        # refresh line 0
        load(c, 256)      # evicts 128 (LRU)
        assert load(c, 0)
        assert not load(c, 128)

    def test_capacity_respected(self):
        c = small_cache(assoc=2, sets=2)
        for i in range(16):
            load(c, i * 128)
        valid = sum(n for n in c.composition().values())
        assert valid <= 4

    def test_probe_does_not_mutate(self):
        c = small_cache()
        assert not c.probe(0)
        load(c, 0)
        before = c.stats[0].accesses
        assert c.probe(0)
        assert c.stats[0].accesses == before

    def test_store_marks_dirty_on_hit(self):
        c = small_cache(assoc=1, sets=1)
        load(c, 0)
        hit, _ = c.access(0, cycle=0, stream=0, is_store=True)
        assert hit
        # The dirty line comes back as the write-back victim.
        c.access(128, cycle=0, stream=0)
        assert c.fill(128, DataClass.COMPUTE, 0) == (0, 0)
        c.access(256, cycle=0, stream=0)
        assert c.fill(256, DataClass.COMPUTE, 0) is None


class TestStats:
    def test_hit_rate(self):
        c = small_cache()
        load(c, 0)
        load(c, 0)
        load(c, 0)
        st0 = c.stats[0]
        assert st0.accesses == 3
        assert st0.hits == 2
        assert st0.hit_rate == pytest.approx(2 / 3)

    def test_per_stream_stats_separate(self):
        c = small_cache()
        load(c, 0, stream=0)
        load(c, 4096, stream=1)
        assert c.stats[0].accesses == 1
        assert c.stats[1].accesses == 1

    def test_aggregate_sums(self):
        c = small_cache()
        load(c, 0, stream=0)
        load(c, 4096, stream=1)
        assert CacheStats.sum(c.stats.values()).accesses == 2

    def test_eviction_counted(self):
        c = small_cache(assoc=1, sets=1)
        load(c, 0)
        load(c, 128)
        total = CacheStats.sum(c.stats.values())
        assert total.evictions == 1


class TestComposition:
    def test_composition_by_class(self):
        c = small_cache()
        c.access(0, cycle=0, stream=0)
        c.fill(0, DataClass.TEXTURE, 0)
        c.access(128, cycle=0, stream=1)
        c.fill(128, DataClass.COMPUTE, 1)
        comp = c.composition()
        assert comp[DataClass.TEXTURE] == 1
        assert comp[DataClass.COMPUTE] == 1

    def test_composition_by_stream(self):
        c = small_cache()
        load(c, 0, stream=7)
        assert c.composition_by_stream() == {7: 1}


class TestMSHR:
    def test_pending_merge(self):
        c = small_cache()
        hit, ready = c.access(0, cycle=0, stream=0)
        assert not hit and ready is None
        c.fill(0, DataClass.COMPUTE, 0, ready=500)
        # The installed line is in flight until cycle 500.
        assert c.access(0, cycle=10, stream=0) == (True, 500)
        # Evicted before its fill returns, a second miss merges into it.
        c.set_usable_ways(1)
        c.access(4096, cycle=20, stream=0)
        c.fill(4096, DataClass.COMPUTE, 0, ready=600)
        assert c.access(0, cycle=30, stream=0) == (False, 500)
        assert c.stats[0].mshr_merges == 1
        # At cycle 500 the fill has returned and retires: a plain miss.
        assert c.access(0, cycle=500, stream=0) == (False, None)
        assert c.stats[0].mshr_merges == 1

    def test_mshr_free_limit(self):
        cfg = CacheConfig(size_bytes=4096, assoc=4, mshr_entries=2)
        c = SetAssocCache(cfg)
        c.fill(0, DataClass.COMPUTE, 0, ready=10)
        assert c.mshr_cycle(5) == 5
        c.fill(128, DataClass.COMPUTE, 0, ready=20)
        # Both entries busy: the next miss waits for the earliest fill,
        # which retires and frees its entry.
        assert c.mshr_cycle(5) == 10
        assert c.mshr_cycle(5) == 5
        # A fill already returned frees its entry without a wait.
        c.fill(256, DataClass.COMPUTE, 0, ready=30)
        assert c.mshr_cycle(25) == 25


class TestSetPartition:
    def test_ranges_disjoint(self):
        tables = SetPartition(8, {0: 6, 1: 2}).mapping_tables()
        assert set(tables[0]) == set(range(6))
        assert set(tables[1]) == {6, 7}

    def test_unknown_stream_uses_full_cache(self):
        c = small_cache(assoc=1, sets=8)
        c.partition_sets({0: 4})
        # Eight lines in eight raw sets all stay resident: stream 9 is
        # not squeezed into stream 0's four sets.
        for i in range(8):
            load(c, i * 128, stream=9)
        assert c.occupancy() == 1.0

    def test_rejects_overcommit(self):
        with pytest.raises(ValueError):
            SetPartition(8, {0: 6, 1: 4})

    def test_rejects_zero_sets(self):
        with pytest.raises(ValueError):
            SetPartition(8, {0: 0, 1: 8})

    def test_partitioned_streams_do_not_evict_each_other(self):
        c = small_cache(assoc=1, sets=8)
        c.partition_sets({0: 4, 1: 4})
        # Stream 0 and 1 walk the same addresses (raw sets 0..3); with
        # partitioning they land in disjoint set ranges.
        for i in range(4):
            load(c, i * 128, stream=0)
        for i in range(4):
            load(c, i * 128, stream=1)
        # Stream 0's lines must still be resident.
        assert all(load(c, i * 128, stream=0) for i in range(4))

    def test_sets_for(self):
        p = SetPartition(8, {0: 5, 1: 3})
        assert p.ranges == {0: (0, 5), 1: (5, 3)}
        assert 5 not in p.ranges  # an absent stream keeps all 8 sets


class TestResolvedMappingTables:
    """The access path maps a raw set through per-stream tables installed
    at partition_sets time; these pin the tables against the ranges."""

    def test_tables_match_ranges(self):
        p = SetPartition(8, {0: 5, 1: 3})
        tables = p.mapping_tables()
        for stream, (start, count) in p.ranges.items():
            assert tables[stream] == [start + raw % count
                                      for raw in range(8)]

    def test_absent_stream_has_no_table(self):
        p = SetPartition(8, {0: 4})
        assert 9 not in p.mapping_tables()

    def test_absent_stream_identity_via_cache(self):
        # A stream outside the ratio map must see the full, unremapped
        # cache even while a partition is installed.
        c = small_cache(assoc=1, sets=8)
        c.partition_sets({0: 4, 1: 4})
        for i in range(8):
            load(c, i * 128, stream=9)
        assert all(load(c, i * 128, stream=9) for i in range(8))

    def test_single_set_range(self):
        p = SetPartition(8, {0: 1, 1: 7})
        table = p.mapping_tables()[0]
        assert table == [0] * 8
        c = small_cache(assoc=1, sets=8)
        c.partition_sets({0: 1, 1: 7})
        # Every stream-0 line maps to the same set: each load evicts the
        # previous one under assoc=1.
        load(c, 0, stream=0)
        load(c, 128, stream=0)
        assert not load(c, 0, stream=0)

    def test_repartition_rebuilds_tables(self):
        # TAP re-points ranges at runtime by calling partition_sets again;
        # the resolved tables must follow, not keep the stale geometry.
        c = small_cache(assoc=1, sets=8)
        c.partition_sets({0: 6, 1: 2})
        first = dict(c._set_map)
        c.partition_sets({0: 2, 1: 6})
        second = c._set_map
        assert first[0] != second[0]
        assert set(second[0]) == set(range(2))
        assert set(second[1]) == set(range(2, 8))

    def test_clear_partition_restores_identity(self):
        c = small_cache(assoc=1, sets=8)
        c.partition_sets({0: 2, 1: 2})
        c.partition_sets(None)
        assert c.set_partition is None
        assert c._set_map == {}
        for i in range(8):
            load(c, i * 128, stream=0)
        assert all(load(c, i * 128, stream=0) for i in range(8))

    def test_non_power_of_two_geometry_falls_back(self):
        # 3 sets defeats the shift/mask fast path; the divide/mod fallback
        # must agree with partitioned behaviour.
        cfg = CacheConfig(size_bytes=3 * 2 * 128, assoc=2)
        c = SetAssocCache(cfg, "odd")
        assert c.num_sets == 3
        assert c._line_shift is None
        c.partition_sets({0: 1, 1: 2})
        load(c, 0, stream=0)
        load(c, 128, stream=0)
        load(c, 256, stream=0)   # all three collapse to stream 0's one set
        comp = c.composition_by_stream()
        assert comp.get(0, 0) <= 2  # bounded by assoc within a single set


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()),
                min_size=1, max_size=200))
def test_property_occupancy_bounded_and_rehit(ops):
    """Whatever the access pattern: occupancy <= 1 and a just-filled line
    hits immediately after."""
    c = small_cache(assoc=2, sets=4)
    for line_idx, is_store in ops:
        addr = line_idx * 128
        hit, ready = c.access(addr, cycle=0, stream=0, is_store=is_store)
        if not hit and ready is None:
            c.fill(addr, DataClass.COMPUTE, 0)
        assert c.probe(addr)
        assert 0.0 <= c.occupancy() <= 1.0
