"""Tests for trace generation, the pipeline front door, and the Vulkan API."""

import numpy as np
import pytest

from repro.graphics import (
    Camera,
    Device,
    Framebuffer,
    GraphicsPipeline,
    PipelineConfig,
    Texture2D,
    VulkanError,
    checkerboard,
)
from repro.isa import DataClass, Op, ShaderKind
from repro.scenes.assets import box_mesh, grid_mesh


@pytest.fixture()
def simple_setup():
    textures = {"tex": Texture2D("tex", checkerboard(64))}
    pipe = GraphicsPipeline(textures)
    cam = Camera(eye=(0, 2, -6), target=(0, 0, 0))
    return pipe, cam


def one_draw(pipe, cam, mesh=None, shader="basic", slots=("tex",), w=96, h=54):
    from repro.graphics.geometry import DrawCall
    mesh = mesh or grid_mesh(4, 4, extent=6.0)
    draw = DrawCall(mesh, texture_slots=list(slots), shader=shader)
    return pipe.render_frame([draw], cam, w, h)


class TestRenderFrame:
    def test_produces_vs_and_fs_kernels(self, simple_setup):
        pipe, cam = simple_setup
        res = one_draw(pipe, cam)
        kinds = [k.kind for k in res.kernels]
        assert ShaderKind.VERTEX in kinds
        assert ShaderKind.FRAGMENT in kinds

    def test_vs_kernel_pipelines_fs_waits(self, simple_setup):
        pipe, cam = simple_setup
        res = one_draw(pipe, cam)
        vs = [k for k in res.kernels if k.kind == ShaderKind.VERTEX][0]
        fs = [k for k in res.kernels if k.kind == ShaderKind.FRAGMENT][0]
        assert vs.depends_on_prev is False
        assert fs.depends_on_prev is True

    def test_framebuffer_written(self, simple_setup):
        pipe, cam = simple_setup
        res = one_draw(pipe, cam)
        img = res.framebuffer.as_image()
        assert (img[..., :3].sum(axis=2) > 0).sum() > 100

    def test_draw_stats_consistent(self, simple_setup):
        pipe, cam = simple_setup
        res = one_draw(pipe, cam)
        d = res.draw_stats[0]
        assert d.triangles_rasterized <= d.triangles_submitted
        assert d.fragments > 0
        assert d.vs_invocations >= d.unique_vertices
        assert d.vs_invocations % 32 == 0
        assert len(d.tex_lines_per_cta) > 0

    def test_fragment_count_matches_colored_pixels(self, simple_setup):
        pipe, cam = simple_setup
        res = one_draw(pipe, cam)
        img = res.framebuffer.as_image()
        colored = int((img[..., :3].sum(axis=2) > 0).sum())
        # Every shaded fragment wrote a distinct surviving pixel (one draw,
        # early-Z in order), so counts match exactly.
        assert res.draw_stats[0].fragments == colored

    def test_empty_draw_list_rejected(self, simple_setup):
        pipe, cam = simple_setup
        with pytest.raises(ValueError):
            pipe.render_frame([], cam, 64, 64)

    def test_lod_off_increases_tex_traffic(self):
        textures = {"tex": Texture2D("tex", checkerboard(128))}
        cam = Camera(eye=(0, 2, -6), target=(0, 0, 0))
        res_on = one_draw(GraphicsPipeline(
            textures, config=PipelineConfig(lod_enabled=True)), cam)
        res_off = one_draw(GraphicsPipeline(
            {"tex": Texture2D("tex", checkerboard(128))},
            config=PipelineConfig(lod_enabled=False)), cam)
        assert res_off.tex_transactions > res_on.tex_transactions

    def test_unknown_texture_raises(self, simple_setup):
        pipe, cam = simple_setup
        with pytest.raises((KeyError, ValueError)):
            one_draw(pipe, cam, slots=("missing",))

    def test_too_few_texture_slots_raises(self, simple_setup):
        pipe, cam = simple_setup
        with pytest.raises(ValueError, match="slot"):
            one_draw(pipe, cam, shader="lit2", slots=("tex",))

    def test_instanced_draw_multiplies_invocations(self):
        from repro.graphics.geometry import DrawCall
        from repro.scenes.assets import asteroid_field, rock_mesh
        layers = [checkerboard(32) for _ in range(3)]
        textures = {"arr": Texture2D("arr", checkerboard(32), layers=layers)}
        pipe = GraphicsPipeline(textures)
        cam = Camera(eye=(0, 3, -12), target=(0, 0, 0))
        rock = rock_mesh(seed=1, rings=4, segments=6)
        inst = asteroid_field(8, seed=2)
        draw = DrawCall(rock, texture_slots=["arr"], shader="instanced",
                        instances=inst)
        res = pipe.render_frame([draw], cam, 96, 54)
        single = pipe.tracegen  # invocations scale with instance count
        d = res.draw_stats[0]
        assert d.vs_invocations % 8 == 0
        assert d.batches % 8 == 0

    def test_early_z_reduces_fragments(self):
        textures = {"tex": Texture2D("tex", checkerboard(64))}
        cam = Camera(eye=(0, 1, -6), target=(0, 0, 0))
        from repro.graphics.geometry import DrawCall
        front = box_mesh((4, 4, 0.2), center=(0, 0, -1), name="front")
        back = box_mesh((4, 4, 0.2), center=(0, 0, 2), name="back")
        draws = [DrawCall(front, texture_slots=["tex"], name="front"),
                 DrawCall(back, texture_slots=["tex"], name="back")]
        res = GraphicsPipeline(textures).render_frame(draws, cam, 96, 54)
        front_frags = res.draw_stats[0].fragments
        back_frags = res.draw_stats[1].fragments
        assert back_frags < front_frags * 0.5

    def test_pipeline_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(batch_size=2)
        with pytest.raises(ValueError):
            PipelineConfig(tile_size=15)


class TestTraceContents:
    def test_memory_classes_present(self, simple_setup):
        pipe, cam = simple_setup
        res = one_draw(pipe, cam)
        classes = set()
        for k in res.kernels:
            fp = k.memory_footprint()
            classes.update(fp)
        assert DataClass.VERTEX in classes
        assert DataClass.PIPELINE in classes
        assert DataClass.TEXTURE in classes
        assert DataClass.FRAMEBUFFER in classes

    def test_tex_transactions_counted(self, simple_setup):
        pipe, cam = simple_setup
        res = one_draw(pipe, cam)
        tex_in_trace = 0
        for k in res.kernels:
            for cta in k.ctas:
                for w in cta.warps:
                    for inst in w:
                        if inst.op is Op.TEX:
                            tex_in_trace += inst.mem.num_transactions
        assert tex_in_trace == res.tex_transactions


class TestVulkanAPI:
    def make_device(self):
        dev = Device()
        dev.create_texture(Texture2D("tex", checkerboard(32)))
        return dev

    def record(self, dev):
        cb = dev.create_command_buffer().begin()
        fb = Framebuffer(64, 36)
        cb.begin_render_pass(fb, Camera(eye=(0, 2, -5)))
        cb.bind_pipeline("basic")
        cb.bind_textures(["tex"])
        cb.bind_vertex_buffer(grid_mesh(3, 3, extent=4.0))
        cb.draw_indexed("g")
        cb.end_render_pass()
        return cb.end()

    def test_full_flow(self):
        dev = self.make_device()
        res = dev.create_queue().submit(self.record(dev), 64, 36)
        assert res.kernels

    def test_draw_without_pipeline_fails(self):
        dev = self.make_device()
        cb = dev.create_command_buffer().begin()
        cb.begin_render_pass(Framebuffer(64, 36), Camera())
        cb.bind_vertex_buffer(grid_mesh(2, 2))
        with pytest.raises(VulkanError, match="pipeline"):
            cb.draw_indexed()

    def test_draw_outside_render_pass_fails(self):
        dev = self.make_device()
        cb = dev.create_command_buffer().begin()
        cb.bind_pipeline("basic")
        cb.bind_vertex_buffer(grid_mesh(2, 2))
        with pytest.raises(VulkanError, match="render pass"):
            cb.draw_indexed()

    def test_submit_unended_fails(self):
        dev = self.make_device()
        cb = dev.create_command_buffer().begin()
        with pytest.raises(VulkanError, match="end"):
            dev.create_queue().submit(cb, 64, 36)

    def test_end_with_open_pass_fails(self):
        dev = self.make_device()
        cb = dev.create_command_buffer().begin()
        cb.begin_render_pass(Framebuffer(64, 36), Camera())
        with pytest.raises(VulkanError, match="render pass"):
            cb.end()

    def test_bind_unknown_texture_fails(self):
        dev = self.make_device()
        cb = dev.create_command_buffer().begin()
        with pytest.raises(VulkanError, match="missing"):
            cb.bind_textures(["missing"])

    def test_duplicate_texture_name_fails(self):
        dev = self.make_device()
        with pytest.raises(VulkanError):
            dev.create_texture(Texture2D("tex", checkerboard(32)))

    def test_submit_empty_fails(self):
        dev = self.make_device()
        cb = dev.create_command_buffer().begin()
        cb.begin_render_pass(Framebuffer(64, 36), Camera())
        cb.end_render_pass()
        cb.end()
        with pytest.raises(VulkanError, match="draws"):
            dev.create_queue().submit(cb, 64, 36)

    def test_begin_twice_fails(self):
        dev = self.make_device()
        cb = dev.create_command_buffer().begin()
        with pytest.raises(VulkanError):
            cb.begin()


class TestFramebuffer:
    def test_validates_dims(self):
        with pytest.raises(ValueError):
            Framebuffer(0, 10)

    def test_pixel_addresses_require_place(self):
        fb = Framebuffer(8, 8)
        with pytest.raises(RuntimeError):
            fb.pixel_addresses(np.array([0]), np.array([0]))

    def test_pixel_addresses_row_major(self):
        from repro.memory import AddressAllocator
        fb = Framebuffer(8, 8)
        fb.place(AddressAllocator(region=6))
        a = fb.pixel_addresses(np.array([0, 1, 0]), np.array([0, 0, 1]))
        assert a[1] - a[0] == 4
        assert a[2] - a[0] == 32

    def test_clear_resets(self):
        fb = Framebuffer(4, 4)
        fb.write_color(np.array([1]), np.array([1]),
                       np.array([[1, 1, 1, 1]], dtype=np.float32))
        fb.clear()
        assert fb.color[1, 1, 0] == 0.0
        assert np.isinf(fb.depth).all()
