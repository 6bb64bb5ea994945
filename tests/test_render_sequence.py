"""Tests for swapchain-style multi-frame rendering."""

import math

import numpy as np
import pytest

from repro.api import simulate
from repro.config import JETSON_ORIN_MINI
from repro.core import GRAPHICS_STREAM
from repro.graphics import Camera, GraphicsPipeline, Texture2D, checkerboard
from repro.graphics.geometry import DrawCall
from repro.scenes.assets import grid_mesh, sphere_mesh
from repro.timing import GPU


def make_pipe():
    return GraphicsPipeline({"tex": Texture2D("tex", checkerboard(64))})


def scene_draws():
    return [DrawCall(grid_mesh(6, 6, extent=6.0), texture_slots=["tex"],
                     name="floor"),
            DrawCall(sphere_mesh(8, 10, radius=1.0, center=(0, 1, 0)),
                     texture_slots=["tex"], name="ball")]


def orbit_cameras(n):
    return [Camera(eye=(5 * math.sin(2 * math.pi * i / max(n, 1)), 2,
                        -5 * math.cos(2 * math.pi * i / max(n, 1))),
                   target=(0, 0.5, 0))
            for i in range(n)]


class TestRenderSequence:
    def test_frames_tagged_and_spanned(self):
        seq = make_pipe().render_sequence(scene_draws(), orbit_cameras(3),
                                          96, 54)
        assert seq.num_frames == 3
        for i in range(3):
            names = seq.frame_kernel_names(i)
            assert names
            assert all(n.startswith("f%d/" % i) for n in names)

    def test_double_buffer_alternates_targets(self):
        seq = make_pipe().render_sequence(scene_draws(), orbit_cameras(2),
                                          96, 54)
        fb0 = seq.frames[0].framebuffer
        fb1 = seq.frames[1].framebuffer
        assert fb0 is not fb1
        assert fb0.color_base != fb1.color_base

    def test_single_buffer_option(self):
        seq = make_pipe().render_sequence(scene_draws(), orbit_cameras(2),
                                          96, 54, double_buffer=False)
        assert seq.frames[0].framebuffer is seq.frames[1].framebuffer

    def test_empty_cameras_rejected(self):
        with pytest.raises(ValueError):
            make_pipe().render_sequence(scene_draws(), [], 96, 54)

    def test_sequence_simulates_with_cross_frame_overlap(self):
        seq = make_pipe().render_sequence(scene_draws(), orbit_cameras(3),
                                          96, 54)
        gpu = GPU(JETSON_ORIN_MINI)
        gpu.add_stream(GRAPHICS_STREAM, seq.kernels)
        stats = gpu.run()
        assert stats.stream(0).kernels_completed == len(seq.kernels)
        tl = gpu.cta_scheduler.streams[GRAPHICS_STREAM].timeline()
        by_name = {name: (s, e) for name, s, e in tl}
        # Frame 1's first vertex kernel starts before frame 0 fully ends.
        f0_end = max(e for n, (s, e) in by_name.items()
                     if n.startswith("f0/"))
        f1_first_start = min(s for n, (s, e) in by_name.items()
                             if n.startswith("f1/"))
        assert f1_first_start < f0_end

    def test_pipelined_beats_serial_frames(self):
        pipe = make_pipe()
        seq = pipe.render_sequence(scene_draws(), orbit_cameras(3), 96, 54)
        gpu = GPU(JETSON_ORIN_MINI)
        gpu.add_stream(GRAPHICS_STREAM, seq.kernels)
        pipelined = gpu.run().cycles

        serial = 0
        pipe2 = make_pipe()
        for cam in orbit_cameras(3):
            frame = pipe2.render_frame(scene_draws(), cam, 96, 54)
            serial += simulate(
                config=JETSON_ORIN_MINI,
                streams={GRAPHICS_STREAM: frame.kernels}).stats.cycles
        assert pipelined < serial

    def test_frame_images_differ(self):
        seq = make_pipe().render_sequence(scene_draws(), orbit_cameras(2),
                                          96, 54)
        img0 = seq.frames[0].framebuffer.as_image()
        img1 = seq.frames[1].framebuffer.as_image()
        assert not np.array_equal(img0, img1)
