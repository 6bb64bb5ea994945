"""Property-based tests of rasterization invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphics.raster import backface_cull, rasterize_batch

SIZE = 48


def raster(tri_pts, depth=None, early_z=True, depth_func="less"):
    screen = np.array([[x, y, z] for x, y, z in tri_pts], dtype=float)
    tris = backface_cull(screen, np.array([[0, 1, 2]]))
    if depth is None:
        depth = np.full((SIZE, SIZE), np.inf)
    attrs = {"uv": np.array([[0, 0], [1, 0], [0, 1]], dtype=float)}
    return rasterize_batch(screen, np.ones(3), tris, attrs, depth,
                           early_z=early_z, depth_func=depth_func), depth


coord = st.floats(-10.0, SIZE + 10.0)
depth_val = st.floats(0.01, 0.99)


@st.composite
def triangle(draw):
    pts = [(draw(coord), draw(coord), draw(depth_val)) for _ in range(3)]
    return pts


@settings(max_examples=60, deadline=None)
@given(triangle())
def test_property_fragments_on_screen_and_in_bbox(tri):
    fb, _ = raster(tri)
    if fb.count == 0:
        return
    xs = [p[0] for p in tri]
    ys = [p[1] for p in tri]
    assert fb.x.min() >= max(0, int(np.floor(min(xs))))
    assert fb.x.max() <= min(SIZE - 1, int(np.ceil(max(xs))))
    assert fb.y.min() >= max(0, int(np.floor(min(ys))))
    assert fb.y.max() <= min(SIZE - 1, int(np.ceil(max(ys))))
    assert np.all(fb.x >= 0) and np.all(fb.x < SIZE)
    assert np.all(fb.y >= 0) and np.all(fb.y < SIZE)


@settings(max_examples=60, deadline=None)
@given(triangle())
def test_property_no_duplicate_pixels(tri):
    fb, _ = raster(tri)
    keys = fb.y.astype(np.int64) * SIZE + fb.x
    assert len(np.unique(keys)) == fb.count


@settings(max_examples=60, deadline=None)
@given(triangle())
def test_property_depth_within_vertex_range(tri):
    fb, _ = raster(tri)
    if fb.count == 0:
        return
    zs = [p[2] for p in tri]
    assert fb.depth.min() >= min(zs) - 1e-9
    assert fb.depth.max() <= max(zs) + 1e-9


@settings(max_examples=60, deadline=None)
@given(triangle())
def test_property_uv_barycentric_bounds(tri):
    fb, _ = raster(tri)
    if fb.count == 0:
        return
    uv = fb.attrs["uv"]
    # Vertex uvs are (0,0),(1,0),(0,1): interpolants stay in the simplex.
    assert np.all(uv >= -1e-9)
    assert np.all(uv.sum(axis=1) <= 1.0 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(triangle(), triangle())
def test_property_early_z_never_increases_fragments(t1, t2):
    depth_a = np.full((SIZE, SIZE), np.inf)
    fb1a, _ = raster(t1, depth=depth_a)
    fb2a, _ = raster(t2, depth=depth_a)
    depth_b = np.full((SIZE, SIZE), np.inf)
    fb1b, _ = raster(t1, depth=depth_b, early_z=False)
    fb2b, _ = raster(t2, depth=depth_b, early_z=False)
    assert fb1a.count + fb2a.count <= fb1b.count + fb2b.count


@settings(max_examples=40, deadline=None)
@given(triangle())
def test_property_lequal_repass_shades_same_pixels(tri):
    """After a depth pre-pass of the same triangle, a LEQUAL color pass
    shades exactly the pixels the pre-pass resolved."""
    depth = np.full((SIZE, SIZE), np.inf)
    pre, _ = raster(tri, depth=depth)
    color, _ = raster(tri, depth=depth, depth_func="lequal")
    assert color.count == pre.count


@settings(max_examples=40, deadline=None)
@given(triangle())
def test_property_winding_culls_exactly_one_orientation(tri):
    screen = np.array([[x, y, z] for x, y, z in tri], dtype=float)
    fwd = backface_cull(screen, np.array([[0, 1, 2]]))
    rev = backface_cull(screen, np.array([[0, 2, 1]]))
    # A non-degenerate triangle survives in exactly one winding.
    assert len(fwd) + len(rev) <= 1
