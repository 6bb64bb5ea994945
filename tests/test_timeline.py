"""Tests for per-kernel timelines."""

import pytest

from repro.config import JETSON_ORIN_MINI
from repro.core import COMPUTE_STREAM, CRISP, GRAPHICS_STREAM
from repro.timing import GPU


@pytest.fixture(scope="module")
def run():
    crisp = CRISP(JETSON_ORIN_MINI)
    frame = crisp.trace_scene("SPL", "2k")
    vio = crisp.trace_compute("VIO")
    gpu = GPU(JETSON_ORIN_MINI)
    gpu.add_stream(GRAPHICS_STREAM, frame.kernels)
    gpu.add_stream(COMPUTE_STREAM, vio)
    gpu.run()
    return gpu, frame, vio


class TestTimeline:
    def test_every_kernel_has_timeline_entry(self, run):
        gpu, frame, vio = run
        gfx_tl = gpu.cta_scheduler.streams[GRAPHICS_STREAM].timeline()
        cmp_tl = gpu.cta_scheduler.streams[COMPUTE_STREAM].timeline()
        assert len(gfx_tl) == len(frame.kernels)
        assert len(cmp_tl) == len(vio)

    def test_start_before_complete(self, run):
        gpu, _, _ = run
        for sq in gpu.cta_scheduler.streams.values():
            for name, start, end in sq.timeline():
                assert 0 <= start <= end, name

    def test_compute_stream_serialises(self, run):
        """CUDA semantics: kernel k+1 starts at/after kernel k completes."""
        gpu, _, _ = run
        tl = gpu.cta_scheduler.streams[COMPUTE_STREAM].timeline()
        for (_, _, end_prev), (_, start_next, _) in zip(tl, tl[1:]):
            assert start_next >= end_prev

    def test_graphics_stream_overlaps(self, run):
        """ITR pipelining: some vertex kernel starts before the previous
        kernel completes."""
        gpu, _, _ = run
        tl = gpu.cta_scheduler.streams[GRAPHICS_STREAM].timeline()
        overlaps = sum(1 for (_, _, end_prev), (_, start_next, _)
                       in zip(tl, tl[1:]) if start_next < end_prev)
        assert overlaps > 0

    def test_fs_follows_its_vs(self, run):
        gpu, _, _ = run
        tl = gpu.cta_scheduler.streams[GRAPHICS_STREAM].timeline()
        by_name = {}
        for name, start, end in tl:
            by_name[name] = (start, end)
        for name, (start, _) in by_name.items():
            if name.startswith("fs:"):
                vs = by_name.get("vs:" + name[3:])
                if vs:
                    assert start >= vs[1], \
                        "%s started before its vertex kernel finished" % name
