"""Primitive assembly, culling, rasterization, and fragment grouping.

This implements the fixed-function middle of the pipeline (Fig 2, stages
4-5) *functionally*: clipping/culling removes invisible primitives,
surviving triangles are filled with perspective-correct interpolation, the
early-Z test kills occluded fragments against the depth buffer, and the
per-fragment LoD gradients are computed here so the texture unit can look
them up during shading (Section III).

Immediate Tiled Rendering: the screen is a grid of tiles; fragments are
binned by tile and packed into warps in tile order, so 2x2 quads form
naturally inside warps (the paper's approximated-quads approach).

Simplifications (documented in DESIGN.md): triangles touching the near
plane are dropped rather than clipped — the procedural scenes keep geometry
comfortably inside the frustum, so this matches what a clipper would output.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

DEFAULT_TILE_SIZE = 16


class FragmentBuffer:
    """Struct-of-arrays fragment batch produced by rasterization."""

    __slots__ = ("x", "y", "depth", "attrs", "dudx", "dvdx", "dudy", "dvdy")

    def __init__(self, x: np.ndarray, y: np.ndarray, depth: np.ndarray,
                 attrs: Dict[str, np.ndarray],
                 dudx: np.ndarray, dvdx: np.ndarray,
                 dudy: np.ndarray, dvdy: np.ndarray) -> None:
        self.x = x
        self.y = y
        self.depth = depth
        self.attrs = attrs
        self.dudx = dudx
        self.dvdx = dvdx
        self.dudy = dudy
        self.dvdy = dvdy

    @property
    def count(self) -> int:
        return len(self.x)

    @classmethod
    def empty(cls, attr_names: Tuple[str, ...] = ()) -> "FragmentBuffer":
        z = np.empty(0)
        return cls(z.astype(np.int64), z.astype(np.int64), z,
                   {n: np.empty((0, 0)) for n in attr_names}, z, z, z, z)

    @classmethod
    def concatenate(cls, buffers: List["FragmentBuffer"]) -> "FragmentBuffer":
        buffers = [b for b in buffers if b.count]
        if not buffers:
            return cls.empty()
        attrs = {
            name: np.concatenate([b.attrs[name] for b in buffers])
            for name in buffers[0].attrs
        }
        return cls(
            np.concatenate([b.x for b in buffers]),
            np.concatenate([b.y for b in buffers]),
            np.concatenate([b.depth for b in buffers]),
            attrs,
            np.concatenate([b.dudx for b in buffers]),
            np.concatenate([b.dvdx for b in buffers]),
            np.concatenate([b.dudy for b in buffers]),
            np.concatenate([b.dvdy for b in buffers]),
        )


def backface_cull(screen: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Keep counter-clockwise (front-facing) triangles with non-zero area."""
    p0 = screen[tris[:, 0], :2]
    p1 = screen[tris[:, 1], :2]
    p2 = screen[tris[:, 2], :2]
    area2 = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (
        p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0])
    return tris[area2 > 1e-12]


def frustum_cull(clip: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Drop triangles fully outside a clip plane, or touching the near plane."""
    if not len(tris):
        return tris
    w = clip[:, 3]
    keep = []
    for tri in tris:
        cw = w[tri]
        if np.any(cw <= 1e-9):
            continue  # near-plane crossers are dropped, not clipped
        c = clip[tri]
        outside = False
        for axis in range(3):
            if np.all(c[:, axis] > cw) or np.all(c[:, axis] < -cw):
                outside = True
                break
        if not outside:
            keep.append(tri)
    if not keep:
        return np.empty((0, 3), dtype=np.int64)
    return np.asarray(keep, dtype=np.int64)


def rasterize_batch(
    screen: np.ndarray,
    inv_w: np.ndarray,
    tris: np.ndarray,
    attrs: Dict[str, np.ndarray],
    depth_buffer: np.ndarray,
    early_z: bool = True,
    depth_func: str = "less",
) -> FragmentBuffer:
    """Rasterize triangles against the depth buffer.

    ``screen``: (V, 3) screen-space x, y, depth.  ``inv_w``: (V,) reciprocal
    clip w for perspective-correct interpolation.  ``attrs``: name ->
    (V, k) vertex attributes; ``uv`` must be present for LoD gradients.
    Triangles are processed in API order, so early-Z behaves as hardware
    would within a batch.  ``depth_func`` is "less" (default) or "lequal"
    (used by the color pass after a depth pre-pass, where the visible
    surface's depth is already in the buffer).
    """
    if depth_func not in ("less", "lequal"):
        raise ValueError("depth_func must be 'less' or 'lequal'")
    height, width = depth_buffer.shape
    frags: List[FragmentBuffer] = []
    attr_names = tuple(attrs)
    for tri in tris:
        v0, v1, v2 = (int(tri[0]), int(tri[1]), int(tri[2]))
        xs = screen[[v0, v1, v2], 0]
        ys = screen[[v0, v1, v2], 1]
        zs = screen[[v0, v1, v2], 2]
        x_min = max(int(np.floor(xs.min())), 0)
        x_max = min(int(np.ceil(xs.max())), width - 1)
        y_min = max(int(np.floor(ys.min())), 0)
        y_max = min(int(np.ceil(ys.max())), height - 1)
        if x_min > x_max or y_min > y_max:
            continue
        area2 = (xs[1] - xs[0]) * (ys[2] - ys[0]) - (ys[1] - ys[0]) * (xs[2] - xs[0])
        if area2 <= 1e-12:
            continue
        px, py = np.meshgrid(
            np.arange(x_min, x_max + 1) + 0.5,
            np.arange(y_min, y_max + 1) + 0.5,
        )
        # Affine barycentric weights in screen space (standard formula:
        # lambda_0 = [(y1-y2)(px-x2) + (x2-x1)(py-y2)] / det).
        det = (ys[1] - ys[2]) * (xs[0] - xs[2]) + (xs[2] - xs[1]) * (ys[0] - ys[2])
        w0 = ((ys[1] - ys[2]) * (px - xs[2]) + (xs[2] - xs[1]) * (py - ys[2])) / det
        w1 = ((ys[2] - ys[0]) * (px - xs[2]) + (xs[0] - xs[2]) * (py - ys[2])) / det
        w2 = 1.0 - w0 - w1
        inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
        if not inside.any():
            continue
        l0, l1, l2 = w0[inside], w1[inside], w2[inside]
        fx = (px[inside] - 0.5).astype(np.int64)
        fy = (py[inside] - 0.5).astype(np.int64)
        z = l0 * zs[0] + l1 * zs[1] + l2 * zs[2]
        if early_z:
            if depth_func == "less":
                passed = z < depth_buffer[fy, fx]
            else:
                passed = z <= depth_buffer[fy, fx] + 1e-12
            if not passed.any():
                continue
            fx, fy, z = fx[passed], fy[passed], z[passed]
            l0, l1, l2 = l0[passed], l1[passed], l2[passed]
            # In-order update; later triangles in this batch see it.
            depth_buffer[fy, fx] = z
        iw = inv_w[[v0, v1, v2]]
        # Affine barycentric gradients (constant per triangle).
        dl0dx = (ys[1] - ys[2]) / det
        dl1dx = (ys[2] - ys[0]) / det
        dl0dy = (xs[2] - xs[1]) / det
        dl1dy = (xs[0] - xs[2]) / det
        dl2dx = -dl0dx - dl1dx
        dl2dy = -dl0dy - dl1dy

        def persp(values: np.ndarray, a0, a1, a2) -> np.ndarray:
            """Perspective-correct interpolation at given barycentrics."""
            over_w = values * iw[:, None]
            num = a0[:, None] * over_w[0] + a1[:, None] * over_w[1] + a2[:, None] * over_w[2]
            den = a0 * iw[0] + a1 * iw[1] + a2 * iw[2]
            return num / den[:, None]

        out_attrs: Dict[str, np.ndarray] = {}
        for name in attr_names:
            vals = attrs[name][[v0, v1, v2]]
            out_attrs[name] = persp(vals, l0, l1, l2)
        uv_vals = attrs["uv"][[v0, v1, v2]]
        uv_c = out_attrs["uv"]
        uv_xp = persp(uv_vals, l0 + dl0dx, l1 + dl1dx, l2 + dl2dx)
        uv_yp = persp(uv_vals, l0 + dl0dy, l1 + dl1dy, l2 + dl2dy)
        frags.append(FragmentBuffer(
            fx, fy, z, out_attrs,
            dudx=uv_xp[:, 0] - uv_c[:, 0],
            dvdx=uv_xp[:, 1] - uv_c[:, 1],
            dudy=uv_yp[:, 0] - uv_c[:, 0],
            dvdy=uv_yp[:, 1] - uv_c[:, 1],
        ))
    if not frags:
        return FragmentBuffer.empty(attr_names)
    return FragmentBuffer.concatenate(frags)


def resolve_fragment_order(frag: FragmentBuffer, width: int,
                           tile_size: int = DEFAULT_TILE_SIZE) -> np.ndarray:
    """Sort order for ITR: by tile, then by pixel position inside the tile.

    Packing warps in this order groups nearby pixels (quads form naturally)
    and preserves the tiled traversal Immediate Tiled Rendering uses.
    """
    if frag.count == 0:
        return np.empty(0, dtype=np.int64)
    tile_x = frag.x // tile_size
    tile_y = frag.y // tile_size
    tiles_per_row = (width + tile_size - 1) // tile_size
    tile_id = tile_y * tiles_per_row + tile_x
    # Within a tile, visit 2x2 quads row-major, then the 4 pixels of a quad.
    half = max(1, tile_size // 2)
    quad_idx = ((frag.y % tile_size) // 2) * half + (frag.x % tile_size) // 2
    key = (tile_id * (half * half) + quad_idx) * 4 \
        + (frag.y % 2) * 2 + (frag.x % 2)
    return np.argsort(key, kind="stable")


def warp_rows(values: np.ndarray, warp_size: int = 32
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Chunk per-lane ``values`` (N, ...) into warps.

    Returns a (warps, warp_size, ...) block and each warp's live lanes.
    The ragged last warp is padded by repeating its last lane; the padded
    lanes are dead, and :func:`~repro.memory.address.coalesce_rows`
    ignores them.
    """
    count = len(values)
    rows = -(-count // warp_size)
    pad = rows * warp_size - count
    if pad:
        values = np.concatenate([values, np.repeat(values[-1:], pad, axis=0)])
    active = np.full(rows, warp_size, dtype=np.int64)
    active[-1] = count - (rows - 1) * warp_size
    return values.reshape((rows, warp_size) + values.shape[1:]), active
