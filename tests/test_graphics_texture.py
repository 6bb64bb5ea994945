"""Tests for textures, mip chains, and the sampling model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphics import Texture2D, checkerboard, downsample, mip_level_count, noise_texture
from repro.memory import AddressAllocator


def placed(tex):
    tex.place(AddressAllocator(region=5))
    return tex


class TestMipChain:
    def test_level_count_formula(self):
        # Paper: total levels = log2(tex_dim) + 1.
        assert mip_level_count(4, 4) == 3
        assert mip_level_count(128, 128) == 8
        assert mip_level_count(64, 128) == 8

    def test_chain_generated_to_1x1(self):
        tex = Texture2D("t", checkerboard(16))
        assert tex.num_levels == 5
        assert tex.level_dims(4) == (1, 1)

    def test_each_level_halves(self):
        tex = Texture2D("t", checkerboard(16))
        for lvl in range(1, tex.num_levels):
            h_prev, w_prev = tex.level_dims(lvl - 1)
            h, w = tex.level_dims(lvl)
            assert w == max(1, w_prev // 2)
            assert h == max(1, h_prev // 2)

    def test_downsample_preserves_mean(self):
        img = noise_texture(16, seed=1)
        small = downsample(img)
        assert small.shape == (8, 8, 4)
        assert small.mean() == pytest.approx(img.mean(), abs=1e-5)

    def test_downsample_constant_stays_constant(self):
        img = np.full((8, 8, 4), 0.5, dtype=np.float32)
        assert np.allclose(downsample(img), 0.5)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Texture2D("bad", np.zeros((10, 10, 4), dtype=np.float32))

    def test_rejects_wrong_channels(self):
        with pytest.raises(ValueError):
            Texture2D("bad", np.zeros((8, 8, 3), dtype=np.float32))

    def test_no_mips_option(self):
        tex = Texture2D("flat", checkerboard(8), generate_mips=False)
        assert tex.num_levels == 1


class TestAddressing:
    def test_unplaced_raises(self):
        tex = Texture2D("t", checkerboard(8))
        with pytest.raises(RuntimeError):
            tex.texel_addresses(np.array([0]), np.array([0]), 0, np.array([0]))

    def test_levels_disjoint(self):
        tex = placed(Texture2D("t", checkerboard(8)))
        a0 = tex.texel_addresses(np.array([7]), np.array([7]), 0, np.array([0]))
        a1 = tex.texel_addresses(np.array([0]), np.array([0]), 1, np.array([0]))
        assert a0[0] != a1[0]

    def test_row_major_within_level(self):
        tex = placed(Texture2D("t", checkerboard(8)))
        a = tex.texel_addresses(np.array([0, 1]), np.array([0, 0]), 0,
                                np.array([0, 0]))
        assert a[1] - a[0] == tex.bytes_per_texel

    def test_layer_offsets(self):
        base = checkerboard(8)
        tex = placed(Texture2D("arr", base, layers=[base, base]))
        a = tex.texel_addresses(np.array([0, 0]), np.array([0, 0]), 0,
                                np.array([0, 1]))
        assert a[1] - a[0] == 8 * 8 * 4


class TestSampling:
    def test_nearest_returns_exact_texel(self):
        img = np.zeros((4, 4, 4), dtype=np.float32)
        img[1, 2] = (1.0, 0.5, 0.25, 1.0)
        tex = placed(Texture2D("t", img, generate_mips=False))
        colors, _ = tex.sample_nearest(np.array([2.5 / 4]), np.array([1.5 / 4]))
        assert np.allclose(colors[0], [1.0, 0.5, 0.25, 1.0])

    def test_uv_wrap_repeat(self):
        tex = placed(Texture2D("t", checkerboard(4)))
        c1, a1 = tex.sample_nearest(np.array([0.1]), np.array([0.1]))
        c2, a2 = tex.sample_nearest(np.array([1.1]), np.array([-0.9]))
        assert a1[0] == a2[0]

    def test_lod_none_uses_level0(self):
        tex = placed(Texture2D("t", checkerboard(8)))
        _, a = tex.sample_nearest(np.array([0.9]), np.array([0.9]), lod=None)
        level0 = tex.level_bases[0]
        assert level0 <= a[0] < level0 + tex.level_bytes(0)

    def test_high_lod_uses_top_level(self):
        tex = placed(Texture2D("t", checkerboard(8)))
        _, a = tex.sample_nearest(np.array([0.1]), np.array([0.2]),
                                  lod=np.array([99.0]))
        top = tex.level_bases[-1]
        assert a[0] == top

    def test_mip_merging_reduces_addresses(self):
        # The Fig 7 effect: 4 nearby samples -> 1 texel at the next level.
        tex = placed(Texture2D("t", checkerboard(4)))
        u = np.array([0.05, 0.3, 0.05, 0.3])
        v = np.array([0.05, 0.05, 0.3, 0.3])
        _, a0 = tex.sample_nearest(u, v, lod=np.zeros(4))
        _, a1 = tex.sample_nearest(u, v, lod=np.ones(4))
        assert len(np.unique(a0)) == 4
        assert len(np.unique(a1)) == 1

    def test_layer_sampling_uses_layer_content(self):
        base = np.zeros((4, 4, 4), dtype=np.float32)
        red = base.copy()
        red[..., 0] = 1.0
        tex = placed(Texture2D("arr", base, layers=[red], generate_mips=False))
        colors, _ = tex.sample_nearest(np.array([0.5]), np.array([0.5]),
                                       layer=np.array([1]))
        assert colors[0, 0] == 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0, 10))
    def test_property_sample_always_in_placed_range(self, u, v, lod):
        tex = placed(Texture2D("t", checkerboard(8)))
        colors, addrs = tex.sample_nearest(
            np.array([u]), np.array([v]), lod=np.array([lod]))
        lvl = int(np.clip(round(lod), 0, tex.num_levels - 1))
        base = tex.level_bases[lvl]
        assert base <= addrs[0] < base + tex.level_bytes(lvl)
        assert np.all(colors >= 0.0) and np.all(colors <= 1.0)


    @pytest.mark.parametrize("tex_filter", ["nearest", "bilinear",
                                            "trilinear"])
    def test_one_layout_reads_a_footprint_at_one_offset(self, tex_filter):
        # The fragment stage coalesces one texture's addresses per layout
        # and shifts them for the others; that needs a constant offset.
        alloc = AddressAllocator(region=5)
        a, b, c = (Texture2D(name, noise_texture(16, seed=i),
                             compression=fmt)
                   for i, (name, fmt) in enumerate(
                       [("a", "none"), ("b", "none"), ("c", "bc1")]))
        for tex in (a, b, c):
            tex.place(alloc)
        assert a.address_layout == b.address_layout != c.address_layout
        rng = np.random.default_rng(3)
        fp = a.footprint(rng.uniform(-1, 2, 64), rng.uniform(-1, 2, 64),
                         rng.uniform(0, 5, 64), tex_filter=tex_filter)
        shift = b.level_bases[0] - a.level_bases[0]
        np.testing.assert_array_equal(b.addresses(fp),
                                      a.addresses(fp) + shift)
        colors, addrs = b.gather(fp)
        np.testing.assert_array_equal(colors, b.colors(fp))
        np.testing.assert_array_equal(addrs, b.addresses(fp))


class TestProceduralTextures:
    def test_checkerboard_two_colors(self):
        img = checkerboard(8, squares=4)
        assert len(np.unique(img[..., 0])) == 2

    def test_checkerboard_rejects_npot(self):
        with pytest.raises(ValueError):
            checkerboard(10)

    def test_noise_deterministic(self):
        assert np.array_equal(noise_texture(8, seed=3), noise_texture(8, seed=3))

    def test_noise_seed_varies(self):
        assert not np.array_equal(noise_texture(8, seed=3), noise_texture(8, seed=4))
