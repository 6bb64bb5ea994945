"""Tests for the advanced rendering techniques: index-fetch traffic,
depth pre-pass, and shadow mapping (render-to-texture)."""

import numpy as np
import pytest

from repro.graphics import (
    Camera,
    GraphicsPipeline,
    PipelineConfig,
    Texture2D,
    checkerboard,
)
from repro.graphics.geometry import DrawCall
from repro.isa import DataClass, Op, ShaderKind
from repro.scenes.assets import box_mesh, grid_mesh, sphere_mesh


def make_pipe(**cfg):
    textures = {"tex": Texture2D("tex", checkerboard(64))}
    return GraphicsPipeline(textures, config=PipelineConfig(**cfg))


CAM = Camera(eye=(0, 2, -6), target=(0, 0, 0))


def overdraw_draws():
    """Two full-screen-ish quads, back one drawn second (worst case for
    plain early-Z, best case for a pre-pass)."""
    back = box_mesh((8, 8, 0.2), center=(0, 0, 2), name="back")
    front = box_mesh((8, 8, 0.2), center=(0, 0, -1), name="front")
    return [DrawCall(back, texture_slots=["tex"], name="back"),
            DrawCall(front, texture_slots=["tex"], name="front")]


class TestIndexFetch:
    def test_vs_kernels_carry_index_loads(self):
        pipe = make_pipe()
        res = pipe.render_frame(
            [DrawCall(grid_mesh(6, 6), texture_slots=["tex"])], CAM, 96, 54)
        vs = [k for k in res.kernels if k.kind == ShaderKind.VERTEX][0]
        first_warp = vs.ctas[0].warps[0]
        first = first_warp[0]
        assert first.op is Op.LDG
        assert first.mem.data_class is DataClass.VERTEX

    def test_index_traffic_scales_with_triangles(self):
        pipe = make_pipe()
        small = pipe.render_frame(
            [DrawCall(grid_mesh(2, 2, name="s"), texture_slots=["tex"])],
            CAM, 96, 54)
        pipe2 = make_pipe()
        big = pipe2.render_frame(
            [DrawCall(grid_mesh(12, 12, name="b"), texture_slots=["tex"])],
            CAM, 96, 54)

        def vertex_lines(res):
            total = 0
            for k in res.kernels:
                if k.kind == ShaderKind.VERTEX:
                    total += k.memory_footprint().get(DataClass.VERTEX, 0)
            return total

        assert vertex_lines(big) > vertex_lines(small)


class TestDepthPrepass:
    def test_prepass_emits_vsz_kernels(self):
        pipe = make_pipe(depth_prepass=True)
        res = pipe.render_frame(overdraw_draws(), CAM, 96, 54)
        names = [k.name for k in res.kernels]
        assert any(n.startswith("vsz:") for n in names)
        assert any(n.startswith("vs:") for n in names)
        # Pre-pass kernels come first.
        first_vs = next(i for i, n in enumerate(names) if n.startswith("vs:"))
        last_vsz = max(i for i, n in enumerate(names) if n.startswith("vsz:"))
        assert last_vsz < first_vs

    def test_prepass_eliminates_occluded_shading(self):
        plain = make_pipe(depth_prepass=False).render_frame(
            overdraw_draws(), CAM, 96, 54)
        pre = make_pipe(depth_prepass=True).render_frame(
            overdraw_draws(), CAM, 96, 54)
        back_plain = plain.draw_stats[0].fragments
        back_pre = pre.draw_stats[0].fragments
        # Without the pre-pass the back quad (drawn first) shades fully;
        # with it, the front quad's depths kill almost all of it.
        assert back_pre < back_plain * 0.2

    def test_prepass_image_matches_plain(self):
        plain = make_pipe(depth_prepass=False).render_frame(
            overdraw_draws(), CAM, 96, 54)
        pre = make_pipe(depth_prepass=True).render_frame(
            overdraw_draws(), CAM, 96, 54)
        assert np.array_equal(plain.framebuffer.as_image(),
                              pre.framebuffer.as_image())

    def test_prepass_adds_vertex_work(self):
        plain = make_pipe(depth_prepass=False).render_frame(
            overdraw_draws(), CAM, 96, 54)
        pre = make_pipe(depth_prepass=True).render_frame(
            overdraw_draws(), CAM, 96, 54)
        vs_plain = sum(k.num_instructions for k in plain.kernels
                       if k.kind == ShaderKind.VERTEX)
        vs_pre = sum(k.num_instructions for k in pre.kernels
                     if k.kind == ShaderKind.VERTEX)
        assert vs_pre > vs_plain  # the trade the technique makes


class TestShadowMapping:
    def scene(self):
        floor = DrawCall(grid_mesh(6, 6, extent=6.0, name="floor"),
                         texture_slots=["tex", "shadow_map"],
                         shader="shadowed", name="floor")
        blocker = DrawCall(sphere_mesh(8, 10, radius=1.0, center=(0, 1.5, 0),
                                       name="ball"),
                           texture_slots=["tex", "shadow_map"],
                           shader="shadowed", name="ball")
        return [floor, blocker]

    def render_with_shadow(self):
        pipe = make_pipe()
        light = Camera(eye=(4, 8, -4), target=(0, 0, 0), fov_y=1.2)
        draws = self.scene()
        shadow_kernels, tex = pipe.render_shadow_map(draws, light, size=64)
        res = pipe.render_frame(draws, CAM, 96, 54)
        return pipe, shadow_kernels, tex, res

    def test_shadow_pass_is_depth_only(self):
        _, shadow_kernels, _, _ = self.render_with_shadow()
        assert shadow_kernels
        assert all(k.name.startswith("vsz:") for k in shadow_kernels)

    def test_shadow_texture_aliases_depth_target(self):
        pipe, _, tex, res = self.render_with_shadow()
        base = tex.level_bases[0]
        span = 64 * 64 * 4
        # Fragment TEX traffic must include reads of the shadow target.
        touched = set()
        for k in res.kernels:
            for cta in k.ctas:
                for w in cta.warps:
                    for inst in w:
                        if inst.op is Op.TEX:
                            touched.update(inst.mem.lines)
        assert any(base <= l < base + span + 128 for l in touched), \
            "sampling the shadow map must read the render target's lines"

    def test_shadow_map_contains_blocker_depths(self):
        _, _, tex, _ = self.render_with_shadow()
        depths = tex.levels[0][0, :, :, 0]
        assert depths.min() < 0.99  # something rendered into the map
        assert depths.max() == pytest.approx(1.0)  # background cleared far

    def test_duplicate_shadow_map_name_rejected(self):
        pipe = make_pipe()
        light = Camera(eye=(4, 8, -4), target=(0, 0, 0))
        draws = self.scene()
        pipe.render_shadow_map(draws, light, size=64)
        with pytest.raises(ValueError, match="exists"):
            pipe.render_shadow_map(draws, light, size=64)

    def test_non_pot_size_rejected(self):
        pipe = make_pipe()
        with pytest.raises(ValueError, match="power of two"):
            pipe.render_shadow_map(self.scene(), CAM, size=100)

    def test_full_shadow_frame_simulates(self):
        from repro.config import JETSON_ORIN_MINI
        from repro.timing import simulate
        _, shadow_kernels, _, res = self.render_with_shadow()
        stats = simulate(JETSON_ORIN_MINI,
                         {0: list(shadow_kernels) + list(res.kernels)})
        assert stats.stream(0).kernels_completed == \
            len(shadow_kernels) + len(res.kernels)
