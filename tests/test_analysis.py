"""Tests for the analysis metrics and reductions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    binned_histogram,
    concordance,
    correlation_percent,
    graphics_vs_compute,
    histogram,
    mape,
    mean,
    mean_fraction,
    mode,
    pearson,
    summarize,
)
from repro.isa import DataClass


class TestMAPE:
    def test_perfect_prediction(self):
        assert mape([1, 2, 3], [1, 2, 3]) == 0.0

    def test_uniform_overestimate(self):
        assert mape([1, 2], [2, 4]) == pytest.approx(100.0)

    def test_rejects_zero_actual(self):
        with pytest.raises(ValueError):
            mape([0, 1], [1, 1])

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            mape([1, 2], [1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mape([], [])


class TestCorrelation:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_anticorrelated(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_percent(self):
        assert correlation_percent([1, 2, 3], [2, 4, 6]) == pytest.approx(100.0)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_concordance_penalises_scale(self):
        a = [1.0, 2.0, 3.0, 4.0]
        assert concordance(a, a) == pytest.approx(1.0)
        inflated = [3.0, 6.0, 9.0, 12.0]
        assert concordance(a, inflated) < 0.7
        assert pearson(a, inflated) == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(1.0, 100.0), min_size=3, max_size=20))
    def test_property_concordance_at_most_pearson(self, xs):
        ys = [x * 1.5 + 2 for x in xs]
        if np.std(xs) < 1e-9:
            return
        assert concordance(xs, ys) <= pearson(xs, ys) + 1e-9


class TestL2Comp:
    SNAPS = [
        (0, {DataClass.TEXTURE: 60, DataClass.PIPELINE: 40}),
        (100, {DataClass.TEXTURE: 20, DataClass.PIPELINE: 40,
               DataClass.COMPUTE: 40}),
    ]

    def test_mean_fraction(self):
        assert mean_fraction(self.SNAPS, DataClass.TEXTURE) == pytest.approx(0.4)

    def test_graphics_vs_compute(self):
        series = graphics_vs_compute(self.SNAPS)
        assert series[0] == (0, 1.0, 0.0)
        cycle, gfx, cmp_ = series[1]
        assert gfx == pytest.approx(0.6)
        assert cmp_ == pytest.approx(0.4)

    def test_summarize_keys(self):
        s = summarize(self.SNAPS)
        assert set(s) == {c.value for c in DataClass}

    def test_empty_snapshot_tolerated(self):
        assert mean_fraction([(0, {})], DataClass.TEXTURE) == 0.0


class TestWorkingSet:
    def test_histogram(self):
        assert histogram([3, 3, 4]) == {3: 2, 4: 1}

    def test_binned(self):
        assert binned_histogram([1, 2, 3, 9], bin_width=4) == [(0, 3), (8, 1)]

    def test_binned_rejects_zero_width(self):
        with pytest.raises(ValueError):
            binned_histogram([1], bin_width=0)

    def test_mode_and_mean(self):
        data = [3, 3, 4, 5]
        assert mode(data) == 3
        assert mean(data) == pytest.approx(3.75)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mode([])
        with pytest.raises(ValueError):
            mean([])
