"""The per-class L2 composition series of a sampled run, dumped to its
timeline CSV and loaded back."""

import csv

import pytest

from repro.config import JETSON_ORIN_MINI
from repro.core import COMPUTE_STREAM, CRISP, GRAPHICS_STREAM
from repro.harness.report import write_timeline_csvs
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
    def test_l2_class_series(self, sampled_run, tmp_path):
        written = write_timeline_csvs(str(tmp_path / "run.csv"), sampled_run)
        path = str(tmp_path / "run_l2_class_timeline.csv")
        assert path in written
        with open(path) as f:
            rows = list(csv.DictReader(f))
        tex = [(int(r["cycle"]), float(r["share"])) for r in rows
               if r["data_class"] == DataClass.TEXTURE.value]
        assert any(f > 0 for _, f in tex)
        cycles = [c for c, _ in tex]
        assert cycles == sorted(cycles)
        assert set(cycles) <= {c for c, _ in sampled_run.l2_snapshots}
