"""Tests for culling, rasterization, early-Z, and fragment ordering."""

import numpy as np
import pytest

from repro.graphics.lod import lod_from_gradients, select_mip
from repro.graphics.raster import (
    FragmentBuffer,
    backface_cull,
    frustum_cull,
    rasterize_batch,
    resolve_fragment_order,
    warp_rows,
)


def raster_one(screen, depth=None, attrs=None, inv_w=None, early_z=True,
               size=64):
    if depth is None:
        depth = np.full((size, size), np.inf)
    if attrs is None:
        attrs = {"uv": np.array([[0, 0], [1, 0], [0, 1]], dtype=float)}
    if inv_w is None:
        inv_w = np.ones(len(screen))
    return rasterize_batch(np.asarray(screen, dtype=float), inv_w,
                           np.array([[0, 1, 2]]), attrs, depth, early_z)


class TestCulling:
    def test_backface_removed(self):
        screen = np.array([[0, 0, 0], [10, 0, 0], [0, 10, 0]], dtype=float)
        ccw = np.array([[0, 1, 2]])
        cw = np.array([[0, 2, 1]])
        assert len(backface_cull(screen, ccw)) == 1
        assert len(backface_cull(screen, cw)) == 0

    def test_degenerate_removed(self):
        screen = np.array([[0, 0, 0], [5, 5, 0], [10, 10, 0]], dtype=float)
        assert len(backface_cull(screen, np.array([[0, 1, 2]]))) == 0

    def test_frustum_keeps_inside(self):
        clip = np.array([[0, 0, 0.5, 1.0], [0.5, 0, 0.5, 1.0], [0, 0.5, 0.5, 1.0]])
        assert len(frustum_cull(clip, np.array([[0, 1, 2]]))) == 1

    def test_frustum_drops_fully_outside(self):
        clip = np.array([[5, 0, 0.5, 1.0], [6, 0, 0.5, 1.0], [5, 1, 0.5, 1.0]])
        assert len(frustum_cull(clip, np.array([[0, 1, 2]]))) == 0

    def test_frustum_drops_near_plane_crossers(self):
        clip = np.array([[0, 0, 0.5, 1.0], [1, 0, 0.5, -0.5], [0, 1, 0.5, 1.0]])
        assert len(frustum_cull(clip, np.array([[0, 1, 2]]))) == 0

    def test_frustum_empty_input(self):
        clip = np.zeros((3, 4))
        out = frustum_cull(clip, np.empty((0, 3), dtype=np.int64))
        assert len(out) == 0


class TestRasterization:
    def test_half_square_coverage(self):
        fb = raster_one([[0, 0, 0.5], [20, 0, 0.5], [0, 20, 0.5]])
        # Half of a 20x20 square ~ 200 pixels.
        assert 170 <= fb.count <= 230

    def test_fragments_inside_bbox(self):
        fb = raster_one([[3, 2, 0.5], [17, 2, 0.5], [3, 19, 0.5]])
        assert fb.x.min() >= 3 and fb.x.max() <= 17
        assert fb.y.min() >= 2 and fb.y.max() <= 19

    def test_offscreen_clamped(self):
        fb = raster_one([[-10, -10, 0.5], [30, -10, 0.5], [-10, 30, 0.5]],
                        size=16)
        assert fb.count
        assert fb.x.min() >= 0 and fb.y.min() >= 0
        assert fb.x.max() <= 15 and fb.y.max() <= 15

    def test_uv_interpolation_affine_case(self):
        fb = raster_one([[0, 0, 0.5], [32, 0, 0.5], [0, 32, 0.5]])
        i = np.argmin(np.abs(fb.x - 1) + np.abs(fb.y - 1))
        # Near the first vertex, uv ~ (0, 0).
        assert fb.attrs["uv"][i][0] < 0.1
        assert fb.attrs["uv"][i][1] < 0.1

    def test_uv_gradients_match_analytic(self):
        fb = raster_one([[0, 0, 0.5], [40, 0, 0.5], [0, 40, 0.5]])
        # u goes 0->1 over 40 px in x: dudx = 1/40.
        assert np.allclose(fb.dudx, 1 / 40, atol=1e-9)
        assert np.allclose(fb.dvdy, 1 / 40, atol=1e-9)

    def test_perspective_correct_interpolation(self):
        # Vertex 1 is twice as far (w=2): midpoint uv is biased toward the
        # near vertex.
        screen = np.array([[0, 0, 0.5], [40, 0, 0.5], [0, 40, 0.5]], dtype=float)
        inv_w = np.array([1.0, 0.5, 1.0])
        depth = np.full((64, 64), np.inf)
        attrs = {"uv": np.array([[0, 0], [1, 0], [0, 1]], dtype=float)}
        fb = rasterize_batch(screen, inv_w, np.array([[0, 1, 2]]), attrs, depth)
        i = np.argmin(np.abs(fb.x - 20) + np.abs(fb.y - 0))
        u = fb.attrs["uv"][i][0]
        assert u < 0.5  # perspective pulls the midpoint toward w=1 vertex

    def test_empty_result_for_culled(self):
        fb = raster_one([[0, 0, 0.5], [0, 10, 0.5], [10, 0, 0.5]])  # CW
        assert fb.count == 0


class TestEarlyZ:
    def test_nearer_triangle_blocks_later(self):
        depth = np.full((32, 32), np.inf)
        front = raster_one([[0, 0, 0.2], [30, 0, 0.2], [0, 30, 0.2]],
                           depth=depth, size=32)
        behind = raster_one([[0, 0, 0.8], [30, 0, 0.8], [0, 30, 0.8]],
                            depth=depth, size=32)
        assert front.count > 0
        assert behind.count == 0  # fully occluded -> early-Z kills all

    def test_depth_buffer_updated(self):
        depth = np.full((32, 32), np.inf)
        raster_one([[0, 0, 0.3], [30, 0, 0.3], [0, 30, 0.3]], depth=depth,
                   size=32)
        assert (depth < np.inf).sum() > 0
        assert depth.min() == pytest.approx(0.3)

    def test_early_z_off_shades_occluded(self):
        depth = np.full((32, 32), np.inf)
        raster_one([[0, 0, 0.2], [30, 0, 0.2], [0, 30, 0.2]], depth=depth,
                   size=32)
        behind = raster_one([[0, 0, 0.8], [30, 0, 0.8], [0, 30, 0.8]],
                            depth=depth, size=32, early_z=False)
        assert behind.count > 0


class TestOrderingAndWarps:
    def test_resolve_order_groups_tiles(self):
        fb = raster_one([[0, 0, 0.5], [63, 0, 0.5], [0, 63, 0.5]])
        order = resolve_fragment_order(fb, width=64, tile_size=16)
        tx = fb.x[order] // 16
        ty = fb.y[order] // 16
        tile_ids = ty * 4 + tx
        # Tile ids must be non-decreasing runs (each tile contiguous).
        changes = np.count_nonzero(np.diff(tile_ids))
        assert changes == len(np.unique(tile_ids)) - 1

    def test_quads_adjacent_in_order(self):
        fb = raster_one([[0, 0, 0.5], [63, 0, 0.5], [0, 63, 0.5]])
        order = resolve_fragment_order(fb, width=64, tile_size=16)
        x, y = fb.x[order], fb.y[order]
        # Consecutive fragments are mostly within the same or adjacent quad.
        dist = np.abs(np.diff(x // 2)) + np.abs(np.diff(y // 2))
        assert np.median(dist) <= 1.0

    def test_empty_order(self):
        fb = FragmentBuffer.empty(("uv",))
        assert len(resolve_fragment_order(fb, 64)) == 0

    def test_warp_rows(self):
        block, active = warp_rows(np.arange(70))
        assert block.shape == (3, 32)
        assert active.tolist() == [32, 32, 6]
        assert block[2, :6].tolist() == list(range(64, 70))
        assert (block[2, 6:] == 69).all()   # dead lanes repeat the last
        texels, active = warp_rows(np.zeros((33, 4)))
        assert texels.shape == (2, 32, 4) and active.tolist() == [32, 1]

    def test_concatenate_empty(self):
        assert FragmentBuffer.concatenate([]).count == 0


class TestLoD:
    def test_magnified_texture_lod_zero(self):
        lod = lod_from_gradients(np.array([0.001]), np.array([0.0]),
                                 np.array([0.0]), np.array([0.001]), 64, 64)
        assert lod[0] == 0.0

    def test_one_texel_per_pixel_lod_zero(self):
        lod = lod_from_gradients(np.array([1 / 64]), np.array([0.0]),
                                 np.array([0.0]), np.array([1 / 64]), 64, 64)
        assert lod[0] == pytest.approx(0.0, abs=1e-9)

    def test_two_texels_per_pixel_lod_one(self):
        lod = lod_from_gradients(np.array([2 / 64]), np.array([0.0]),
                                 np.array([0.0]), np.array([0.0]), 64, 64)
        assert lod[0] == pytest.approx(1.0)

    def test_anisotropy_takes_max(self):
        lod = lod_from_gradients(np.array([8 / 64]), np.array([0.0]),
                                 np.array([0.0]), np.array([1 / 64]), 64, 64)
        assert lod[0] == pytest.approx(3.0)

    def test_select_mip_clamps(self):
        levels = select_mip(np.array([0.4, 5.7, 99.0]), num_levels=4)
        assert levels.tolist() == [0, 3, 3]
