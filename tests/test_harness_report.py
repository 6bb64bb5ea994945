"""Tests for the artifact-style CSV reports."""

import csv

import pytest

from repro.api import simulate
from repro.config import JETSON_ORIN_MINI
from repro.core import CRISP
from repro.harness.report import (
    DRAW_COLUMNS,
    SIM_COLUMNS,
    draw_rows,
    sim_rows,
    write_csv,
    write_draw_report,
    write_sim_report,
)


@pytest.fixture(scope="module")
def frame_and_stats():
    crisp = CRISP(JETSON_ORIN_MINI)
    frame = crisp.trace_scene("SPL", "2k")
    stats = simulate(config=JETSON_ORIN_MINI,
                     streams={0: frame.kernels}).stats
    return frame, stats


class TestRows:
    def test_sim_rows_one_per_stream(self, frame_and_stats):
        _, stats = frame_and_stats
        rows = sim_rows(stats)
        assert len(rows) == 1
        assert set(rows[0]) == set(SIM_COLUMNS)
        assert rows[0]["instructions"] > 0
        assert 0 <= rows[0]["l1_hit_rate"] <= 1

    def test_draw_rows_one_per_draw(self, frame_and_stats):
        frame, _ = frame_and_stats
        rows = draw_rows(frame)
        assert len(rows) == len(frame.draw_stats)
        assert set(rows[0]) == set(DRAW_COLUMNS)

    def test_draw_rows_values_consistent(self, frame_and_stats):
        frame, _ = frame_and_stats
        for row, d in zip(draw_rows(frame), frame.draw_stats):
            assert row["fragments"] == d.fragments
            assert row["vs_invocations"] == d.vs_invocations


class TestWriteCSV:
    def test_roundtrip(self, tmp_path, frame_and_stats):
        frame, stats = frame_and_stats
        sim_path = str(tmp_path / "sim.csv")
        draw_path = str(tmp_path / "render_passes_2k.csv")
        write_sim_report(sim_path, stats)
        write_draw_report(draw_path, frame)
        with open(sim_path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
        assert int(rows[0]["instructions"]) == stats.stream(0).instructions
        with open(draw_path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(frame.draw_stats)

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "x.csv"), [])

    def test_missing_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="lack"):
            write_csv(str(tmp_path / "x.csv"), [{"a": 1}], columns=["a", "b"])

    def test_custom_column_order(self, tmp_path):
        path = str(tmp_path / "x.csv")
        write_csv(path, [{"a": 1, "b": 2}], columns=["b", "a"])
        with open(path) as f:
            header = f.readline().strip()
        assert header == "b,a"
