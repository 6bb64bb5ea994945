"""Property-based tests for the memory address layer.

Hypothesis sweeps what the example-based tests spot-check:

* line/set decomposition — the shift+mask fast path agrees with the
  divide+modulo reference for every address, on power-of-two and
  non-power-of-two geometries, before and after set-partition re-pointing;
* warp coalescing — the coalesced transaction list covers *exactly* the
  lines (or sectors) the lanes touched: nothing missing, nothing extra,
  first-occurrence order preserved; coalescing a whole kernel's block of
  warps at once gives every warp what coalescing it alone gives;
* the bump allocator — distinct buffers never share a cache line, and
  distinct regions never overlap at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.memory.address import (
    LINE_SIZE,
    SECTOR_SIZE,
    AddressAllocator,
    coalesce,
    coalesce_array,
    coalesce_rows,
    coalesce_sectors,
    line_of,
    span_lines,
)
from repro.memory.cache import SetAssocCache, SetPartition

# Large enough to cross region boundaries (regions are 1 TB apart).
addresses = st.integers(min_value=0, max_value=1 << 42)
lane_arrays = st.lists(addresses, min_size=1, max_size=64)


def _make_cache(num_sets: int, assoc: int = 4) -> SetAssocCache:
    cfg = CacheConfig(size_bytes=num_sets * assoc * LINE_SIZE, assoc=assoc,
                      mshr_entries=4, hit_latency=1)
    return SetAssocCache(cfg, name="prop")


# -- line/set decomposition --------------------------------------------------

@given(addr=addresses,
       num_sets=st.sampled_from((8, 16, 32, 128)),
       stream=st.integers(min_value=0, max_value=3))
def test_pow2_shift_mask_matches_divmod(addr, num_sets, stream):
    cache = _make_cache(num_sets)
    assert cache._line_shift is not None  # pow2 geometry takes the fast path
    line = line_of(addr)
    set_idx, tag = cache._index(line, stream)
    assert tag == line
    assert set_idx == (line // LINE_SIZE) % num_sets


@given(addr=addresses,
       num_sets=st.sampled_from((12, 24, 48)),
       stream=st.integers(min_value=0, max_value=3))
def test_non_pow2_uses_divmod(addr, num_sets, stream):
    cache = _make_cache(num_sets)
    assert cache._line_shift is None
    line = line_of(addr)
    set_idx, _ = cache._index(line, stream)
    assert set_idx == (line // LINE_SIZE) % num_sets
    assert 0 <= set_idx < num_sets


@given(addr=addresses,
       num_sets=st.sampled_from((16, 24, 32)),
       counts=st.tuples(st.integers(1, 8), st.integers(1, 8)))
def test_partitioned_index_lands_in_stream_range(addr, num_sets, counts):
    cache = _make_cache(num_sets)
    ratios = {0: counts[0], 1: counts[1]}
    cache.partition_sets(ratios)
    cache.validate_partition()
    line = line_of(addr)
    part = cache.set_partition
    for stream in (0, 1):
        start, count = part.ranges[stream]
        set_idx, _ = cache._index(line, stream)
        assert start <= set_idx < start + count
        assert set_idx == part.map_set(stream, (line // LINE_SIZE) % num_sets)
    # A stream outside the partition keeps the identity mapping.
    set_idx, _ = cache._index(line, 7)
    assert set_idx == (line // LINE_SIZE) % num_sets


@given(num_sets=st.sampled_from((16, 24, 32)),
       first=st.tuples(st.integers(1, 8), st.integers(1, 8)),
       second=st.tuples(st.integers(1, 8), st.integers(1, 8)))
def test_repointing_rebuilds_tables_from_scratch(num_sets, first, second):
    cache = _make_cache(num_sets)
    cache.partition_sets({0: first[0], 1: first[1]})
    cache.partition_sets({0: second[0], 1: second[1]})  # TAP re-pointing
    cache.validate_partition()
    assert cache.set_partition.ranges == \
        SetPartition(num_sets, {0: second[0], 1: second[1]}).ranges
    for stream, (start, count) in cache.set_partition.ranges.items():
        table = cache._set_map[stream]
        assert table == [start + raw % count for raw in range(num_sets)]
        # Onto its range: every set in the range is reachable (count <= 8
        # and num_sets >= 16, so raw indices wrap at least once).
        assert set(table) == set(range(start, start + count))
    cache.partition_sets(None)
    cache.validate_partition()
    assert cache._set_map == {} and cache.set_partition is None


@given(num_sets=st.integers(1, 64),
       ratios=st.dictionaries(st.integers(0, 5), st.integers(1, 64),
                              min_size=1, max_size=4))
def test_set_partition_construction_matches_validate(num_sets, ratios):
    # Construction and validate() must agree on what's legal: anything the
    # constructor accepts passes validate(); oversubscription raises.
    if sum(ratios.values()) > num_sets:
        with pytest.raises(ValueError):
            SetPartition(num_sets, ratios)
        return
    part = SetPartition(num_sets, ratios)
    part.validate()
    spans = sorted(part.ranges.values())
    for (s0, c0), (s1, _c1) in zip(spans, spans[1:]):
        assert s0 + c0 <= s1  # pairwise disjoint


# -- coalescing --------------------------------------------------------------

@given(lanes=lane_arrays)
def test_coalesce_covers_exactly_the_touched_lines(lanes):
    lines = coalesce(lanes)
    # Exactness: the transaction set equals the set of touched lines.
    assert set(lines) == {line_of(a) for a in lanes}
    # Distinct, line-aligned, first-occurrence order.
    assert len(lines) == len(set(lines))
    assert all(ln % LINE_SIZE == 0 for ln in lines)
    firsts = []
    for a in lanes:
        ln = line_of(a)
        if ln not in firsts:
            firsts.append(ln)
    assert lines == firsts


@given(lanes=lane_arrays)
def test_coalesce_array_agrees_with_scalar_coalesce(lanes):
    assert coalesce_array(np.array(lanes, dtype=np.int64)) == coalesce(lanes)


@given(lanes=lane_arrays)
def test_coalesce_sectors_exact_and_within_lines(lanes):
    sectors = coalesce_sectors(np.array(lanes, dtype=np.int64))
    assert set(sectors) == {a - a % SECTOR_SIZE for a in lanes}
    assert all(s % SECTOR_SIZE == 0 for s in sectors)
    # Every sector nests inside a touched line (sectors refine lines).
    touched_lines = {line_of(a) for a in lanes}
    assert all(line_of(s) in touched_lines for s in sectors)


@st.composite
def warp_blocks(draw):
    """A (warps, lanes[, 4]) address block and each warp's live lanes.

    Lanes that are not live hold arbitrary addresses, as the padded tail
    of a ragged last warp does; a trailing axis of 4 is a bilinear tap.
    """
    rows = draw(st.integers(1, 6))
    lanes = draw(st.integers(1, 32))
    shape = (rows, lanes) + draw(st.sampled_from(((), (4,))))
    # A narrow range makes lanes share lines; a wide one crosses regions.
    hi = draw(st.sampled_from((4 * LINE_SIZE, 1 << 42)))
    flat = draw(st.lists(st.integers(0, hi), min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    active = draw(st.lists(st.integers(1, lanes), min_size=rows,
                           max_size=rows))
    return np.array(flat, dtype=np.int64).reshape(shape), active


@given(block=warp_blocks(), line_size=st.sampled_from((LINE_SIZE, SECTOR_SIZE)))
def test_coalesce_rows_equals_per_warp_coalesce_array(block, line_size):
    addrs, active = block
    rows = coalesce_rows(addrs, active, line_size)
    assert rows == [coalesce_array(addrs[r, :n].ravel(), line_size)
                    for r, n in enumerate(active)]


def test_coalesce_rows_rejects_bad_active():
    with pytest.raises(ValueError):
        coalesce_rows(np.zeros((2, 4), dtype=np.int64), [1, 0])
    with pytest.raises(ValueError):
        coalesce_rows(np.zeros((2, 4), dtype=np.int64), 5)
    with pytest.raises(ValueError):
        coalesce_rows(np.zeros(4, dtype=np.int64), 4)


@given(base=addresses, num_bytes=st.integers(1, 4 * LINE_SIZE))
def test_span_lines_exact_cover(base, num_bytes):
    lines = span_lines(base, num_bytes)
    want = sorted({line_of(base + i) for i in range(num_bytes)})
    assert lines == want
    # Contiguous: no gaps between consecutive lines.
    assert all(b - a == LINE_SIZE for a, b in zip(lines, lines[1:]))


@settings(max_examples=25)
@given(base=addresses, num_bytes=st.integers(1, 1 << 20))
def test_span_lines_count_formula(base, num_bytes):
    lines = span_lines(base, num_bytes)
    first = line_of(base)
    last = line_of(base + num_bytes - 1)
    assert lines[0] == first and lines[-1] == last
    assert len(lines) == (last - first) // LINE_SIZE + 1


# -- allocator ---------------------------------------------------------------

@given(sizes=st.lists(st.integers(1, 4096), min_size=1, max_size=16))
def test_allocator_buffers_never_share_a_line(sizes):
    alloc = AddressAllocator(region=0)
    spans = [(base, size) for size in sizes
             for base in (alloc.alloc(size),)]
    seen = set()
    for base, size in spans:
        assert base % LINE_SIZE == 0
        lines = set(span_lines(base, size))
        assert not (seen & lines)
        seen |= lines


@given(sizes=st.lists(st.integers(1, 1 << 16), min_size=1, max_size=8),
       regions=st.tuples(st.integers(0, 30), st.integers(0, 30)))
def test_allocator_regions_disjoint(sizes, regions):
    r0, r1 = regions
    if r0 == r1:
        r1 += 1
    a0, a1 = AddressAllocator(region=r0), AddressAllocator(region=r1)
    lines0 = set()
    lines1 = set()
    for size in sizes:
        lines0 |= set(span_lines(a0.alloc(size), size))
        lines1 |= set(span_lines(a1.alloc(size), size))
    assert not (lines0 & lines1)
