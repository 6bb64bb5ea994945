"""Tests for trilinear filtering."""

import numpy as np

from repro.graphics import (
    Camera,
    GraphicsPipeline,
    PipelineConfig,
    Texture2D,
    checkerboard,
)
from repro.graphics.geometry import DrawCall
from repro.memory import AddressAllocator
from repro.scenes.assets import grid_mesh


def placed(tex):
    tex.place(AddressAllocator(region=11))
    return tex


class TestTrilinear:
    def test_eight_addresses_per_lane(self):
        tex = placed(Texture2D("t", checkerboard(16)))
        _, addrs = tex.sample_trilinear(np.array([0.3]), np.array([0.3]),
                                        lod=np.array([0.5]))
        assert addrs.shape == (1, 8)

    def test_taps_span_two_levels(self):
        tex = placed(Texture2D("t", checkerboard(16)))
        _, addrs = tex.sample_trilinear(np.array([0.3]), np.array([0.3]),
                                        lod=np.array([1.5]))
        lo_base = tex.level_bases[1]
        hi_base = tex.level_bases[2]
        first_half = addrs[0, :4]
        second_half = addrs[0, 4:]
        assert all(lo_base <= a < lo_base + tex.level_bytes(1)
                   for a in first_half)
        assert all(hi_base <= a < hi_base + tex.level_bytes(2)
                   for a in second_half)

    def test_integral_lod_matches_bilinear(self):
        tex = placed(Texture2D("t", checkerboard(16)))
        u = np.array([0.37])
        v = np.array([0.61])
        tri, _ = tex.sample_trilinear(u, v, lod=np.array([1.0]))
        bil, _ = tex.sample_bilinear(u, v, lod=np.array([1.0]))
        assert np.allclose(tri, bil, atol=1e-6)

    def test_fractional_lod_blends(self):
        # A texture whose levels differ strongly: level blend must land
        # between the two bilinear results.
        tex = placed(Texture2D("t", checkerboard(8, squares=8)))
        u = np.array([0.3])
        v = np.array([0.3])
        lo, _ = tex.sample_bilinear(u, v, lod=np.array([0.0]))
        hi, _ = tex.sample_bilinear(u, v, lod=np.array([1.0]))
        mid, _ = tex.sample_trilinear(u, v, lod=np.array([0.5]))
        low, high = np.minimum(lo, hi), np.maximum(lo, hi)
        assert np.all(mid >= low - 1e-6)
        assert np.all(mid <= high + 1e-6)

    def test_none_lod_duplicates_level0(self):
        tex = placed(Texture2D("t", checkerboard(8)))
        colors, addrs = tex.sample_trilinear(np.array([0.2]), np.array([0.2]))
        assert addrs.shape == (1, 8)
        assert np.array_equal(addrs[0, :4], addrs[0, 4:])

    def test_lod_clamped_at_chain_top(self):
        tex = placed(Texture2D("t", checkerboard(8)))
        colors, addrs = tex.sample_trilinear(
            np.array([0.2]), np.array([0.2]), lod=np.array([50.0]))
        top = tex.level_bases[-1]
        assert np.all(addrs == top)

    def test_pipeline_traffic_ordering(self):
        def render(filt):
            pipe = GraphicsPipeline(
                {"tex": Texture2D("tex", checkerboard(64))},
                config=PipelineConfig(tex_filter=filt))
            return pipe.render_frame(
                [DrawCall(grid_mesh(4, 4, extent=6.0), texture_slots=["tex"])],
                Camera(eye=(0, 2, -6)), 96, 54).tex_transactions

        near = render("nearest")
        bil = render("bilinear")
        tri = render("trilinear")
        assert near < bil < tri
        assert tri < near * 8  # merging keeps it far below the tap ratio
