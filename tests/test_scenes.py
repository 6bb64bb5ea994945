"""Tests for the scene catalog and procedural assets."""

import numpy as np
import pytest

from repro.graphics import GraphicsPipeline
from repro.scenes import (
    Scene,
    build_scene,
    resolution,
    scene_codes,
    scene_title,
)
from repro.scenes import assets


class TestAssets:
    def test_grid_mesh_counts(self):
        m = assets.grid_mesh(4, 3)
        assert m.num_vertices == 5 * 4
        assert m.num_triangles == 4 * 3 * 2

    def test_grid_rejects_zero_cells(self):
        with pytest.raises(ValueError):
            assets.grid_mesh(0, 4)

    def test_box_mesh_shape(self):
        m = assets.box_mesh()
        assert m.num_vertices == 24
        assert m.num_triangles == 12

    def test_sphere_high_reuse(self):
        m = assets.sphere_mesh(8, 12)
        # Indexed mesh: far fewer vertices than 3 * triangles.
        assert m.num_vertices < m.indices.size / 2

    def test_sphere_rejects_degenerate(self):
        with pytest.raises(ValueError):
            assets.sphere_mesh(1, 12)

    def test_sphere_normals_unit(self):
        m = assets.sphere_mesh(6, 8)
        norms = np.linalg.norm(m.normals, axis=1)
        assert np.allclose(norms, 1.0)

    def test_column_mesh(self):
        m = assets.column_mesh(8)
        assert m.num_triangles == 16

    def test_column_rejects_two_sides(self):
        with pytest.raises(ValueError):
            assets.column_mesh(2)

    def test_rock_deterministic(self):
        a = assets.rock_mesh(seed=5)
        b = assets.rock_mesh(seed=5)
        assert np.array_equal(a.positions, b.positions)

    def test_asteroid_field_layers_bounded(self):
        field = assets.asteroid_field(32, num_layers=4)
        assert field.count == 32
        assert field.layers.max() < 4

    def test_pbr_map_set_has_eight(self):
        from repro.graphics.shaders import PBR_MAPS
        maps = assets.pbr_map_set(64)
        assert set(maps) == set(PBR_MAPS)


class TestCatalog:
    def test_codes(self):
        assert set(scene_codes()) == {"SPL", "SPH", "PL", "MT", "PT", "IT"}

    def test_titles(self):
        for code in scene_codes():
            assert scene_title(code)

    def test_unknown_scene(self):
        with pytest.raises(KeyError, match="SPL"):
            build_scene("XYZ")

    def test_resolutions_preserve_4x_ratio(self):
        w2, h2 = resolution("2k")
        w4, h4 = resolution("4k")
        assert w4 * h4 == 4 * w2 * h2

    def test_unknown_resolution(self):
        with pytest.raises(KeyError):
            resolution("8k")

    @pytest.mark.parametrize("code", ["SPL", "SPH", "PL", "MT", "PT", "IT"])
    def test_scene_builds(self, code):
        scene = build_scene(code)
        assert isinstance(scene, Scene)
        assert scene.draws
        assert scene.textures
        assert scene.total_triangles > 0

    def test_sponza_variants_share_geometry(self):
        spl = build_scene("SPL")
        sph = build_scene("SPH")
        assert spl.total_triangles == sph.total_triangles
        assert {d.name for d in spl.draws} == {d.name for d in sph.draws}

    def test_sph_uses_pbr_spl_basic(self):
        assert all(d.shader == "pbr" for d in build_scene("SPH").draws)
        assert all(d.shader == "basic" for d in build_scene("SPL").draws)

    def test_pt_uses_eight_maps(self):
        pt = build_scene("PT")
        assert all(len(d.texture_slots) == 8 for d in pt.draws)

    def test_it_is_instanced(self):
        it = build_scene("IT")
        belt = [d for d in it.draws if d.instances is not None]
        assert belt
        assert belt[0].instance_count > 10

    def test_it_array_texture(self):
        it = build_scene("IT")
        assert it.textures["rock_array"].num_layers > 1

    def test_scene_deterministic(self):
        a = build_scene("PT")
        b = build_scene("PT")
        assert np.array_equal(a.draws[0].mesh.positions,
                              b.draws[0].mesh.positions)


class TestSceneRendering:
    @pytest.mark.parametrize("code", ["SPL", "PT", "IT"])
    def test_renders_nonempty_frame(self, code):
        scene = build_scene(code)
        pipe = GraphicsPipeline(scene.textures)
        w, h = resolution("2k")
        res = pipe.render_frame(scene.draws, scene.camera, w, h)
        assert sum(d.fragments for d in res.draw_stats) > 500
        img = res.framebuffer.as_image()
        assert (img[..., :3].sum(axis=2) > 0).sum() > 500

    def test_render_deterministic(self):
        scene = build_scene("SPL")
        pipe = GraphicsPipeline(scene.textures)
        r1 = pipe.render_frame(scene.draws, scene.camera, 96, 54)
        scene2 = build_scene("SPL")
        pipe2 = GraphicsPipeline(scene2.textures)
        r2 = pipe2.render_frame(scene2.draws, scene2.camera, 96, 54)
        assert r1.total_instructions == r2.total_instructions
        assert np.array_equal(r1.framebuffer.color, r2.framebuffer.color)

    def test_4k_has_more_fragments_than_2k(self):
        scene = build_scene("SPL")
        pipe = GraphicsPipeline(scene.textures)
        w2, h2 = resolution("2k")
        r2 = pipe.render_frame(scene.draws, scene.camera, w2, h2)
        scene4 = build_scene("SPL")
        pipe4 = GraphicsPipeline(scene4.textures)
        w4, h4 = resolution("4k")
        r4 = pipe4.render_frame(scene4.draws, scene4.camera, w4, h4)
        f2 = sum(d.fragments for d in r2.draw_stats)
        f4 = sum(d.fragments for d in r4.draw_stats)
        assert 3.0 < f4 / f2 < 5.0
