"""Tests for the visualizer-log writer/parser."""

import json

import pytest

from repro.api import simulate
from repro.config import JETSON_ORIN_MINI
from repro.core import COMPUTE_STREAM, CRISP, GRAPHICS_STREAM
from repro.harness.visualizer import (
    ascii_series,
    dump_log,
    load_log,
)
from repro.isa import DataClass
from repro.timing import GPU


@pytest.fixture(scope="module")
def sampled_run():
    crisp = CRISP(JETSON_ORIN_MINI)
    frame = crisp.trace_scene("SPL", "2k")
    vio = crisp.trace_compute("VIO")
    gpu = GPU(JETSON_ORIN_MINI, sample_interval=500)
    gpu.add_stream(GRAPHICS_STREAM, frame.kernels)
    gpu.add_stream(COMPUTE_STREAM, vio)
    return gpu.run()


class TestDumpLoad:
    def test_roundtrip_counts(self, sampled_run, tmp_path):
        path = str(tmp_path / "run.vlog")
        n = dump_log(path, sampled_run, metadata={"pair": "SPL+VIO"})
        log = load_log(path)
        assert log.num_records == n
        assert log.cycles == sampled_run.cycles
        assert log.metadata == {"pair": "SPL+VIO"}

    def test_occupancy_series_fractions(self, sampled_run, tmp_path):
        path = str(tmp_path / "run.vlog")
        dump_log(path, sampled_run)
        log = load_log(path)
        series = log.occupancy_series(GRAPHICS_STREAM)
        assert series
        assert all(0.0 <= f <= 1.0 for _, f in series)
        cycles = [c for c, _ in series]
        assert cycles == sorted(cycles)

    def test_l2_class_series(self, sampled_run, tmp_path):
        path = str(tmp_path / "run.vlog")
        dump_log(path, sampled_run)
        log = load_log(path)
        tex = log.l2_class_series(DataClass.TEXTURE)
        assert any(f > 0 for _, f in tex)

    def test_l2_stream_series_sums_to_one(self, sampled_run, tmp_path):
        path = str(tmp_path / "run.vlog")
        dump_log(path, sampled_run)
        log = load_log(path)
        g = dict(log.l2_stream_series(GRAPHICS_STREAM))
        c = dict(log.l2_stream_series(COMPUTE_STREAM))
        for cycle in g:
            total = g[cycle] + c[cycle]
            assert total == pytest.approx(1.0, abs=1e-9) or total == 0.0

    def test_unsampled_run_rejected(self, tmp_path):
        crisp = CRISP(JETSON_ORIN_MINI)
        stats = simulate(config=JETSON_ORIN_MINI,
                         streams={COMPUTE_STREAM: crisp.trace_compute("VIO")}).stats
        with pytest.raises(ValueError, match="sample"):
            dump_log(str(tmp_path / "x.vlog"), stats)

    def test_unknown_record_kind_rejected(self, tmp_path):
        path = str(tmp_path / "bad.vlog")
        with open(path, "w") as f:
            f.write(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(ValueError, match="mystery"):
            load_log(path)


class TestAscii:
    def test_renders_bars(self):
        out = ascii_series([(0, 0.5), (100, 1.0)], width=10, label="occ")
        lines = out.splitlines()
        assert lines[0] == "occ"
        assert "#####" in lines[1]
        assert "##########" in lines[2]

    def test_empty_series(self):
        assert "(empty)" in ascii_series([], label="x")

    def test_clamps_out_of_range(self):
        out = ascii_series([(0, 1.7)], width=10)
        assert "##########" in out
