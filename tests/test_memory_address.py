"""Tests for address allocation and warp coalescing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.memory import (
    LINE_SIZE,
    AddressAllocator,
    coalesce,
    coalesce_array,
    line_of,
    span_lines,
)


class TestAllocator:
    def test_line_aligned(self):
        a = AddressAllocator()
        for size in (1, 127, 128, 129, 4096):
            assert a.alloc(size) % LINE_SIZE == 0

    def test_allocations_disjoint(self):
        a = AddressAllocator()
        b1 = a.alloc(100)
        b2 = a.alloc(100)
        # Distinct buffers never share a cache line.
        assert line_of(b1 + 99) < line_of(b2)

    def test_regions_far_apart(self):
        a0 = AddressAllocator(region=0)
        a1 = AddressAllocator(region=1)
        assert abs(a1.alloc(16) - a0.alloc(16)) >= 1 << 40

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            AddressAllocator().alloc(0)

    def test_rejects_negative_region(self):
        with pytest.raises(ValueError):
            AddressAllocator(region=-1)

    def test_bytes_allocated_tracks(self):
        a = AddressAllocator()
        a.alloc(100)
        assert a.bytes_allocated == 128


class TestCoalesce:
    def test_same_line_merges(self):
        assert coalesce([0, 4, 8, 127]) == [0]

    def test_distinct_lines(self):
        assert coalesce([0, 128, 256]) == [0, 128, 256]

    def test_first_occurrence_order(self):
        assert coalesce([256, 0, 300, 4]) == [256, 0]

    def test_empty(self):
        assert coalesce([]) == []

    def test_array_matches_list(self):
        addrs = [5, 133, 1, 700, 133]
        assert coalesce_array(np.array(addrs)) == coalesce(addrs)

    def test_array_empty(self):
        assert coalesce_array(np.array([], dtype=np.int64)) == []

    @given(st.lists(st.integers(min_value=0, max_value=1 << 40),
                    min_size=1, max_size=64))
    def test_property_lines_cover_all_addresses(self, addrs):
        lines = set(coalesce(addrs))
        for a in addrs:
            assert line_of(a) in lines

    @given(st.lists(st.integers(min_value=0, max_value=1 << 40),
                    min_size=1, max_size=64))
    def test_property_no_duplicate_lines(self, addrs):
        lines = coalesce(addrs)
        assert len(lines) == len(set(lines))
        assert len(lines) <= len(addrs)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 30),
                    min_size=1, max_size=64))
    def test_property_all_line_aligned(self, addrs):
        assert all(l % LINE_SIZE == 0 for l in coalesce(addrs))


class TestSpans:
    def test_span_single_line(self):
        assert span_lines(0, 128) == [0]

    def test_span_straddles(self):
        assert span_lines(100, 100) == [0, 128]

    def test_span_empty(self):
        assert span_lines(0, 0) == []
