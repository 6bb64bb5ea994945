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
    corners = clip[tris]                     # (T, 3 vertices, xyzw)
    cw = corners[:, :, 3]
    # Near-plane crossers are dropped, not clipped.
    keep = ~np.any(cw <= 1e-9, axis=1)
    for axis in range(3):
        c = corners[:, :, axis]
        keep &= ~(np.all(c > cw, axis=1) | np.all(c < -cw, axis=1))
    return np.asarray(tris[keep], dtype=np.int64).reshape(-1, 3)


#: Bounding-box pixels rasterized per step: consecutive triangles are
#: taken together up to this many candidates (a larger triangle alone),
#: which bounds the temporaries of a batch of large triangles.
_STEP_PIXELS = 1 << 16


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

    Triangles are rasterized together, a step of consecutive triangles
    at a time (:data:`_STEP_PIXELS`), with every per-triangle quantity
    gathered per candidate pixel; each value is computed by the same
    floating-point operations a one-triangle-at-a-time loop would use.
    """
    if depth_func not in ("less", "lequal"):
        raise ValueError("depth_func must be 'less' or 'lequal'")
    height, width = depth_buffer.shape
    attr_names = tuple(attrs)
    tris = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
    corners = screen[tris]                   # (T, 3 vertices, xyz)
    xs = corners[:, :, 0]
    ys = corners[:, :, 1]
    x_min = np.maximum(np.floor(xs.min(axis=1)), 0).astype(np.int64)
    x_max = np.minimum(np.ceil(xs.max(axis=1)), width - 1).astype(np.int64)
    y_min = np.maximum(np.floor(ys.min(axis=1)), 0).astype(np.int64)
    y_max = np.minimum(np.ceil(ys.max(axis=1)), height - 1).astype(np.int64)
    area2 = ((xs[:, 1] - xs[:, 0]) * (ys[:, 2] - ys[:, 0])
             - (ys[:, 1] - ys[:, 0]) * (xs[:, 2] - xs[:, 0]))
    keep = np.flatnonzero((x_min <= x_max) & (y_min <= y_max)
                          & (area2 > 1e-12))
    if not len(keep):
        return FragmentBuffer.empty(attr_names)
    tris, corners = tris[keep], corners[keep]
    x_min, x_max = x_min[keep], x_max[keep]
    y_min, y_max = y_min[keep], y_max[keep]
    # Every attribute is interpolated in one pass: pack them as the
    # columns of one (V, k) array (``spans`` locates each).
    spans: Dict[str, slice] = {}
    col = 0
    for name in attr_names:
        k = attrs[name].shape[1]
        spans[name] = slice(col, col + k)
        col += k
    packed = np.concatenate([attrs[name] for name in attr_names], axis=1)
    # Per-triangle setup: vertex x, y, z; the barycentric determinant
    # and gradients (constant per triangle); attributes over w.
    x0, x1, x2 = corners[:, 0, 0], corners[:, 1, 0], corners[:, 2, 0]
    y0, y1, y2 = corners[:, 0, 1], corners[:, 1, 1], corners[:, 2, 1]
    zs = corners[:, :, 2]
    a0, b0 = y1 - y2, x2 - x1
    a1, b1 = y2 - y0, x0 - x2
    det = a0 * (x0 - x2) + b0 * (y0 - y2)
    dl0dx, dl1dx = a0 / det, a1 / det
    dl0dy, dl1dy = b0 / det, b1 / det
    dl2dx = -dl0dx - dl1dx
    dl2dy = -dl0dy - dl1dy
    iw = inv_w[tris]                         # (T, 3)
    over_w = packed[tris] * iw[:, :, None]   # (T, 3, k)
    uv_over_w = over_w[:, :, spans["uv"]]
    nx = x_max - x_min + 1
    pixels = nx * (y_max - y_min + 1)
    ends = np.cumsum(pixels)
    parts: List[Tuple[np.ndarray, ...]] = []
    first = 0
    while first < len(tris):
        done = ends[first - 1] if first else 0
        stop = max(first + 1, int(np.searchsorted(
            ends, done + _STEP_PIXELS, side="right")))
        # Candidate pixels of triangles [first, stop), triangle-major
        # and row-major within each bounding box.
        t = np.repeat(np.arange(first, stop), pixels[first:stop])
        k = np.arange(done, done + len(t)) - (ends[t] - pixels[t])
        fx = k % nx[t] + x_min[t]
        fy = k // nx[t] + y_min[t]
        px = fx + 0.5
        py = fy + 0.5
        # Affine barycentric weights in screen space (standard formula:
        # lambda_0 = [(y1-y2)(px-x2) + (x2-x1)(py-y2)] / det).
        dx = px - x2[t]
        dy = py - y2[t]
        dt = det[t]
        w0 = (a0[t] * dx + b0[t] * dy) / dt
        w1 = (a1[t] * dx + b1[t] * dy) / dt
        w2 = 1.0 - w0 - w1
        inside = np.flatnonzero((w0 >= 0) & (w1 >= 0) & (w2 >= 0))
        t, fx, fy = t[inside], fx[inside], fy[inside]
        l0, l1, l2 = w0[inside], w1[inside], w2[inside]
        z = l0 * zs[t, 0] + l1 * zs[t, 1] + l2 * zs[t, 2]
        if early_z:
            passed = _early_z(fx, fy, z, depth_buffer, depth_func)
            t, fx, fy, z = t[passed], fx[passed], fy[passed], z[passed]
            l0, l1, l2 = l0[passed], l1[passed], l2[passed]
        parts.append((t, fx, fy, z, l0, l1, l2))
        first = stop
    t, fx, fy, z, l0, l1, l2 = (np.concatenate(c) for c in zip(*parts))
    if not len(t):
        return FragmentBuffer.empty(attr_names)
    ow = over_w[t]
    interp = _persp(ow, iw[t], l0, l1, l2)
    out_attrs = {name: interp[:, span] for name, span in spans.items()}
    uv_c = out_attrs["uv"]
    # UV one pixel right and one pixel down.
    uw = uv_over_w[t]
    uv_xp = _persp(uw, iw[t], l0 + dl0dx[t], l1 + dl1dx[t], l2 + dl2dx[t])
    uv_yp = _persp(uw, iw[t], l0 + dl0dy[t], l1 + dl1dy[t], l2 + dl2dy[t])
    return FragmentBuffer(
        fx, fy, z, out_attrs,
        dudx=uv_xp[:, 0] - uv_c[:, 0],
        dvdx=uv_xp[:, 1] - uv_c[:, 1],
        dudy=uv_yp[:, 0] - uv_c[:, 0],
        dvdy=uv_yp[:, 1] - uv_c[:, 1],
    )


def _early_z(fx: np.ndarray, fy: np.ndarray, z: np.ndarray,
             depth_buffer: np.ndarray, depth_func: str) -> np.ndarray:
    """Depth-test fragments in order, updating ``depth_buffer``; returns
    which passed.  A fragment sees the writes of every earlier fragment
    at its pixel: the ``r``-th fragment of each pixel is tested in round
    ``r``, and within a round no two fragments share a pixel."""
    pixel = fy * depth_buffer.shape[1] + fx
    order = np.argsort(pixel, kind="stable")
    ranked = pixel[order]
    index = np.arange(len(pixel))
    opens = np.ones(len(pixel), dtype=bool)
    opens[1:] = ranked[1:] != ranked[:-1]
    rank = np.empty(len(pixel), dtype=np.int64)
    rank[order] = index - np.maximum.accumulate(np.where(opens, index, 0))
    passed = np.zeros(len(pixel), dtype=bool)
    for r in range(int(rank.max()) + 1 if len(rank) else 0):
        sel = np.flatnonzero(rank == r)
        zs = z[sel]
        depth = depth_buffer[fy[sel], fx[sel]]
        sel = sel[zs < depth if depth_func == "less"
                  else zs <= depth + 1e-12]
        depth_buffer[fy[sel], fx[sel]] = z[sel]
        passed[sel] = True
    return passed


def _persp(over_w: np.ndarray, iw: np.ndarray, a0: np.ndarray,
           a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Perspective-correct interpolation at barycentrics ``a0``, ``a1``,
    ``a2`` of per-fragment (N, 3, k) vertex values over w, ``over_w``;
    ``iw`` (N, 3) holds the vertices' reciprocal clip w."""
    num = (a0[:, None] * over_w[:, 0] + a1[:, None] * over_w[:, 1]
           + a2[:, None] * over_w[:, 2])
    den = a0 * iw[:, 0] + a1 * iw[:, 1] + a2 * iw[:, 2]
    return num / den[:, None]


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
