"""Smoke tests: every example script runs to completion.

Examples are deliverables; these tests keep them working as the library
evolves (small parameters keep the suite fast).
"""

import os
import subprocess
import sys


EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def run_example(name, *args, timeout=180):
    path = os.path.join(EXAMPLES, name)
    result = subprocess.run(
        [sys.executable, path, *args],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "frame time" in out
        assert "IPC" in out

    def test_concurrent_xr(self):
        out = run_example("concurrent_xr.py")
        assert "Concurrent" in out
        assert "speedup" in out

    def test_partition_study(self):
        out = run_example("partition_study.py", "--scene", "SPL",
                          "--compute", "VIO", "--res", "2k")
        assert "mps" in out
        assert "tap" in out

    def test_mipmap_study(self):
        out = run_example("mipmap_study.py")
        assert "inflation without mipmapping" in out

    def test_animation(self):
        out = run_example("animation.py", "--frames", "2")
        assert "swapchain-pipelined" in out

    def test_shadow_study(self):
        out = run_example("shadow_study.py")
        assert "shadow pass" in out

    def test_render_scenes(self, tmp_path):
        out = run_example("render_scenes.py", "--out", str(tmp_path))
        assert "SPL" in out
        written = list(tmp_path.glob("*.ppm"))
        assert len(written) == 6
