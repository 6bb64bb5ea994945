"""Textures, mipmap chains, and the texture-unit sampling model.

Mipmaps are generated up front (the paper: "mipmaps are generated by the
driver before execution, and the total number of levels is
``log2(tex_dim) + 1``").  Sampling converts a normalized UV plus a
pre-computed LoD (calculated at rasterization, Section III) into concrete
texel byte addresses; the texture unit then merges lane requests that land
on the same cache line — the traffic-reduction effect of Fig 7 / Fig 9.

Array textures (stacked 2D layers indexed by a vertex attribute) model the
Planets workload's "3D texture with multiple layers of 2D texture".
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..memory.address import AddressAllocator


def mip_level_count(width: int, height: int) -> int:
    """Number of mip levels for a texture: log2(max dim) + 1."""
    return int(math.log2(max(width, height))) + 1


def downsample(image: np.ndarray) -> np.ndarray:
    """Box-filter a (H, W, C) image by 2x in each dimension (min size 1)."""
    h, w = image.shape[:2]
    nh, nw = max(1, h // 2), max(1, w // 2)
    # Trim to even extent, then average 2x2 blocks.
    trimmed = image[: nh * 2, : nw * 2] if h > 1 and w > 1 else image
    if h == 1 or w == 1:
        # Degenerate axis: average along the remaining one.
        if h == 1 and w == 1:
            return image.copy()
        axis = 1 if h == 1 else 0
        pairs = trimmed[:, : nw * 2] if axis == 1 else trimmed[: nh * 2]
        if axis == 1:
            return pairs.reshape(h, nw, 2, -1).mean(axis=2)
        return pairs.reshape(nh, 2, w, -1).mean(axis=1)
    return trimmed.reshape(nh, 2, nw, 2, -1).mean(axis=(1, 3))


#: Block-compression formats: (block edge, bytes per block).  The texel
#: values stay uncompressed in the functional model; compression changes
#: the *addressing* — footprint and traffic — which is what the paper's
#: memory studies measure ("Maps are saved in different formats").
COMPRESSION_FORMATS = {
    "none": (1, 0),
    "bc1": (4, 8),    # 0.5 B/texel
    "bc7": (4, 16),   # 1 B/texel
}


class Texture2D:
    """A (possibly layered) 2D texture with a full mip chain."""

    def __init__(
        self,
        name: str,
        image: np.ndarray,
        layers: Optional[Sequence[np.ndarray]] = None,
        bytes_per_texel: int = 4,
        generate_mips: bool = True,
        compression: str = "none",
    ) -> None:
        if compression not in COMPRESSION_FORMATS:
            raise ValueError("unknown compression %r; known: %s"
                             % (compression, sorted(COMPRESSION_FORMATS)))
        base_layers = [np.asarray(image, dtype=np.float32)]
        if layers is not None:
            base_layers.extend(np.asarray(l, dtype=np.float32) for l in layers)
        shape = base_layers[0].shape
        if len(shape) != 3 or shape[2] != 4:
            raise ValueError("texture images must be (H, W, 4)")
        if any(l.shape != shape for l in base_layers):
            raise ValueError("all layers must share one resolution")
        h, w = shape[:2]
        if w & (w - 1) or h & (h - 1):
            raise ValueError("texture dimensions must be powers of two")
        self.name = name
        self.width = w
        self.height = h
        self.num_layers = len(base_layers)
        self.bytes_per_texel = bytes_per_texel
        self.compression = compression
        # levels[lvl] has shape (layers, H>>lvl, W>>lvl, 4).
        self.levels: List[np.ndarray] = [np.stack(base_layers)]
        if generate_mips:
            current = base_layers
            while current[0].shape[0] > 1 or current[0].shape[1] > 1:
                current = [downsample(l) for l in current]
                self.levels.append(np.stack(current))
        self.level_bases: Optional[List[int]] = None

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def level_dims(self, level: int) -> Tuple[int, int]:
        lvl = self.levels[level]
        return lvl.shape[1], lvl.shape[2]

    def level_bytes(self, level: int) -> int:
        h, w = self.level_dims(level)
        edge, block_bytes = COMPRESSION_FORMATS[self.compression]
        if edge > 1:
            blocks = max(1, (h + edge - 1) // edge) * \
                max(1, (w + edge - 1) // edge)
            return self.num_layers * blocks * block_bytes
        return self.num_layers * h * w * self.bytes_per_texel

    @property
    def total_bytes(self) -> int:
        return sum(self.level_bytes(i) for i in range(self.num_levels))

    def place(self, allocator: AddressAllocator) -> None:
        """Assign device addresses to every mip level."""
        self.level_bases = [allocator.alloc(self.level_bytes(i))
                            for i in range(self.num_levels)]

    def _require_placed(self) -> List[int]:
        if self.level_bases is None:
            raise RuntimeError("texture %r not placed; call place() first" % self.name)
        return self.level_bases

    # -- sampling -------------------------------------------------------------
    def texel_coords(self, u: np.ndarray, v: np.ndarray, level: int
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Nearest-texel integer coordinates at ``level`` (repeat wrap)."""
        h, w = self.level_dims(level)
        x = np.floor(np.mod(u, 1.0) * w).astype(np.int64)
        y = np.floor(np.mod(v, 1.0) * h).astype(np.int64)
        return np.clip(x, 0, w - 1), np.clip(y, 0, h - 1)

    def texel_addresses(self, x: np.ndarray, y: np.ndarray, level: int,
                        layer: np.ndarray) -> np.ndarray:
        """Byte addresses of texels; row-major within each layer.

        For block-compressed formats the address is that of the 4x4 block
        containing the texel — neighbouring texels share a block, which is
        where compression's traffic reduction comes from.
        """
        bases = self._require_placed()
        h, w = self.level_dims(level)
        layer = np.mod(np.asarray(layer, dtype=np.int64), self.num_layers)
        edge, block_bytes = COMPRESSION_FORMATS[self.compression]
        if edge > 1:
            blocks_w = max(1, (w + edge - 1) // edge)
            blocks_h = max(1, (h + edge - 1) // edge)
            block = (y // edge) * blocks_w + (x // edge)
            offset = (layer * blocks_w * blocks_h + block) * block_bytes
            return bases[level] + offset
        offset = ((layer * h + y) * w + x) * self.bytes_per_texel
        return bases[level] + offset

    def sample_nearest(
        self,
        u: np.ndarray,
        v: np.ndarray,
        lod: Optional[np.ndarray] = None,
        layer: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample; returns ``(colors (N, 4), addresses (N,))``.

        ``lod`` is the per-lane level-of-detail from rasterization; ``None``
        (or LoD disabled) always references mip 0, which is exactly the
        "LoD off" configuration of Fig 9.
        """
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        n = len(u)
        if layer is None:
            layer = np.zeros(n, dtype=np.int64)
        if lod is None:
            levels = np.zeros(n, dtype=np.int64)
        else:
            levels = np.clip(np.rint(lod), 0, self.num_levels - 1).astype(np.int64)
        colors = np.empty((n, 4), dtype=np.float32)
        addresses = np.empty(n, dtype=np.int64)
        for lvl in np.unique(levels):
            mask = levels == lvl
            x, y = self.texel_coords(u[mask], v[mask], int(lvl))
            lay = np.mod(np.asarray(layer)[mask], self.num_layers)
            colors[mask] = self.levels[int(lvl)][lay, y, x]
            addresses[mask] = self.texel_addresses(x, y, int(lvl), lay)
        return colors, addresses

    def sample_bilinear(
        self,
        u: np.ndarray,
        v: np.ndarray,
        lod: Optional[np.ndarray] = None,
        layer: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bilinear sampling; returns ``(colors (N, 4), addresses (N, 4))``.

        Each lane blends the 2x2 texel footprint around its UV ("linear"
        filtering, the common real-time default).  Four texel addresses
        per lane reach the texture unit — quad-local footprints overlap
        heavily, so after merging the traffic increase over nearest is far
        below 4x.
        """
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        n = len(u)
        if layer is None:
            layer = np.zeros(n, dtype=np.int64)
        if lod is None:
            levels = np.zeros(n, dtype=np.int64)
        else:
            levels = np.clip(np.rint(lod), 0, self.num_levels - 1).astype(np.int64)
        colors = np.empty((n, 4), dtype=np.float32)
        addresses = np.empty((n, 4), dtype=np.int64)
        for lvl in np.unique(levels):
            mask = levels == lvl
            h, w = self.level_dims(int(lvl))
            lay = np.mod(np.asarray(layer)[mask], self.num_layers)
            # Texel centers sit at (i + 0.5) / w.
            fx = np.mod(u[mask], 1.0) * w - 0.5
            fy = np.mod(v[mask], 1.0) * h - 0.5
            x0 = np.floor(fx).astype(np.int64)
            y0 = np.floor(fy).astype(np.int64)
            wx = (fx - x0).astype(np.float32)[:, None]
            wy = (fy - y0).astype(np.float32)[:, None]
            img = self.levels[int(lvl)]
            acc = np.zeros((mask.sum(), 4), dtype=np.float32)
            for tap, (dx, dy) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
                xt = np.mod(x0 + dx, w)
                yt = np.mod(y0 + dy, h)
                weight = (wx if dx else 1 - wx) * (wy if dy else 1 - wy)
                acc += img[lay, yt, xt] * weight
                addresses[mask, tap] = self.texel_addresses(
                    xt, yt, int(lvl), lay)
            colors[mask] = acc
        return colors, addresses

    def sample_trilinear(
        self,
        u: np.ndarray,
        v: np.ndarray,
        lod: Optional[np.ndarray] = None,
        layer: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Trilinear sampling: bilinear taps in the two bracketing mip
        levels, blended by the fractional LoD.  Returns
        ``(colors (N, 4), addresses (N, 8))`` — the full 8-texel footprint
        reaching the texture unit.
        """
        u = np.asarray(u, dtype=np.float64)
        if lod is None:
            colors, addrs = self.sample_bilinear(u, v, None, layer)
            return colors, np.concatenate([addrs, addrs], axis=1)
        lod = np.clip(np.asarray(lod, dtype=np.float64), 0.0,
                      self.num_levels - 1)
        lo = np.floor(lod)
        frac = (lod - lo).astype(np.float32)[:, None]
        c_lo, a_lo = self.sample_bilinear(u, v, lo, layer)
        c_hi, a_hi = self.sample_bilinear(
            u, v, np.minimum(lo + 1, self.num_levels - 1), layer)
        colors = c_lo * (1.0 - frac) + c_hi * frac
        return colors.astype(np.float32), np.concatenate([a_lo, a_hi], axis=1)

    def __repr__(self) -> str:
        return "Texture2D(%r, %dx%d, %d layers, %d levels)" % (
            self.name, self.width, self.height, self.num_layers, self.num_levels)


def checkerboard(size: int, squares: int = 8,
                 color_a: Tuple[float, float, float] = (0.9, 0.9, 0.9),
                 color_b: Tuple[float, float, float] = (0.2, 0.2, 0.25)) -> np.ndarray:
    """Procedural checkerboard test texture, (size, size, 4)."""
    if size & (size - 1):
        raise ValueError("size must be a power of two")
    yy, xx = np.mgrid[0:size, 0:size]
    cell = size // squares if squares else size
    cell = max(1, cell)
    mask = ((xx // cell) + (yy // cell)) % 2 == 0
    img = np.empty((size, size, 4), dtype=np.float32)
    img[mask] = (*color_a, 1.0)
    img[~mask] = (*color_b, 1.0)
    return img


def noise_texture(size: int, seed: int = 0, scale: float = 1.0) -> np.ndarray:
    """Deterministic value-noise texture, (size, size, 4)."""
    rng = np.random.default_rng(seed)
    base = rng.random((size, size, 3)).astype(np.float32) * scale
    img = np.concatenate([base, np.ones((size, size, 1), dtype=np.float32)], axis=2)
    return np.clip(img, 0.0, 1.0)
