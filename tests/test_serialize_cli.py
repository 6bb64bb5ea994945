"""Tests for trace serialization and the command-line driver."""

import gzip
import json
import os

import pytest

from repro.api import simulate
from repro.cli import main
from repro.compute import build_vio_kernels
from repro.core import CRISP
from repro.isa import (
    load_metadata,
    load_traces,
    save_traces,
    traces_equal,
)
from repro.isa.serialize import _decode_lines, _encode_lines


class TestLineCoding:
    def test_roundtrip(self):
        lines = [128, 256, 384, 1024, 99 * 128]
        assert _decode_lines(_encode_lines(lines)) == lines

    def test_empty(self):
        assert _decode_lines(_encode_lines([])) == []

    def test_consecutive_compresses_to_small_deltas(self):
        enc = _encode_lines([1000 * 128, 1001 * 128, 1002 * 128])
        assert enc[1:] == [128, 128]


class TestSaveLoad:
    def test_roundtrip_compute(self, tmp_path):
        kernels = build_vio_kernels()
        path = str(tmp_path / "vio.gz")
        save_traces(path, kernels)
        loaded = load_traces(path)
        assert traces_equal(kernels, loaded)

    def test_roundtrip_graphics(self, tmp_path):
        crisp = CRISP()
        frame = crisp.trace_scene("PT", "2k")
        path = str(tmp_path / "pt.gz")
        save_traces(path, frame.kernels)
        loaded = load_traces(path)
        assert traces_equal(frame.kernels, loaded)
        # Replay is cycle-identical.
        assert simulate(config=crisp.config,
                        streams={0: frame.kernels}).stats.cycles == \
            simulate(config=crisp.config,
                     streams={0: loaded}).stats.cycles

    def test_roundtrip_nano_frame(self, tmp_path):
        """Cached-by-trace-file campaign jobs rely on save/load returning
        the kernels bit-exactly; verify on a full nano-res frame."""
        crisp = CRISP()
        frame = crisp.trace_scene("SPL", "nano")
        path = str(tmp_path / "spl-nano.gz")
        save_traces(path, frame.kernels,
                    metadata={"scene": "SPL", "res": "nano"})
        loaded = load_traces(path)
        assert traces_equal(frame.kernels, loaded)
        assert load_metadata(path) == {"scene": "SPL", "res": "nano"}
        # A second save of the loaded kernels is structurally identical.
        path2 = str(tmp_path / "spl-nano-2.gz")
        save_traces(path2, loaded)
        assert traces_equal(load_traces(path2), frame.kernels)

    def test_metadata(self, tmp_path):
        path = str(tmp_path / "t.gz")
        save_traces(path, build_vio_kernels()[:1], metadata={"a": 1})
        assert load_metadata(path) == {"a": 1}

    def test_depends_on_prev_preserved(self, tmp_path):
        crisp = CRISP()
        frame = crisp.trace_scene("SPL", "2k")
        path = str(tmp_path / "spl.gz")
        save_traces(path, frame.kernels)
        loaded = load_traces(path)
        assert [k.depends_on_prev for k in loaded] == \
            [k.depends_on_prev for k in frame.kernels]

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            save_traces(str(tmp_path / "x.gz"), [])

    def test_rejects_wrong_version(self, tmp_path):
        path = str(tmp_path / "bad.gz")
        with gzip.open(path, "wt") as f:
            json.dump({"version": 99, "kernels": []}, f)
        with pytest.raises(ValueError, match="version"):
            load_traces(path)

    def test_traces_equal_detects_difference(self):
        a = build_vio_kernels()
        b = build_vio_kernels()
        assert traces_equal(a, b)
        assert not traces_equal(a, a[:-1])


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "SPL" in out and "VIO" in out and "fg-even" in out

    def test_render_and_simulate_roundtrip(self, tmp_path, capsys):
        trace = str(tmp_path / "spl.gz")
        img = str(tmp_path / "spl.ppm")
        assert main(["render", "SPL", "--res", "2k",
                     "--save-trace", trace, "--out", img]) == 0
        assert os.path.exists(trace)
        with open(img, "rb") as f:
            assert f.readline().strip() == b"P6"
        csv_path = str(tmp_path / "stats.csv")
        assert main(["simulate", "--graphics", trace,
                     "--csv", csv_path]) == 0
        assert os.path.exists(csv_path)
        out = capsys.readouterr().out
        assert "simulated" in out

    def test_trace_compute(self, tmp_path, capsys):
        trace = str(tmp_path / "holo.gz")
        assert main(["trace-compute", "HOLO", "--save-trace", trace]) == 0
        assert len(load_traces(trace)) > 0

    def test_concurrent_simulate(self, tmp_path, capsys):
        g = str(tmp_path / "g.gz")
        c = str(tmp_path / "c.gz")
        main(["render", "SPL", "--save-trace", g])
        main(["trace-compute", "VIO", "--save-trace", c])
        assert main(["simulate", "--graphics", g, "--compute", c,
                     "--policy", "mps"]) == 0
        out = capsys.readouterr().out
        assert "stream 1 (compute)" in out

    def test_simulate_without_traces_errors(self, capsys):
        assert main(["simulate"]) == 2

    def test_figure_fig7(self, capsys):
        assert main(["figure", "fig7"]) == 0
        assert "texel loads at mip 0: 4 == 4" in capsys.readouterr().out

    def test_figure_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "CRISP" in capsys.readouterr().out

    def test_render_no_lod_flag(self, tmp_path, capsys):
        assert main(["render", "SPL", "--no-lod"]) == 0

    def test_unknown_scene_rejected(self):
        with pytest.raises(SystemExit):
            main(["render", "NOPE"])
