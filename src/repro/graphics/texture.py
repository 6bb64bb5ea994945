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
from typing import List, NamedTuple, Optional, Sequence, Tuple

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
        levels = [np.stack(base_layers)]
        if generate_mips:
            current = base_layers
            while current[0].shape[0] > 1 or current[0].shape[1] > 1:
                current = [downsample(l) for l in current]
                levels.append(np.stack(current))
        #: Every texel of every level, level-major, one RGBA row each;
        #: ``levels`` are views into it, and a :class:`Footprint` indexes
        #: it directly (``texel_starts[lvl]`` is level ``lvl``'s first row).
        self.texels = np.concatenate([l.reshape(-1, 4) for l in levels])
        self.texel_starts = np.cumsum(
            [0] + [l.shape[0] * l.shape[1] * l.shape[2] for l in levels[:-1]])
        self.levels: List[np.ndarray] = [
            self.texels[start:start + l.shape[0] * l.shape[1] * l.shape[2]]
            .reshape(l.shape) for start, l in zip(self.texel_starts, levels)]
        #: (height, width) of each level, indexable by a per-lane level.
        self._dims = np.array([l.shape[1:3] for l in levels], dtype=np.int64)
        self.level_bases: Optional[List[int]] = None

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def geometry(self) -> Tuple[int, int, int, int]:
        """``(width, height, levels, layers)``: all a :class:`Footprint`
        depends on, so textures of one geometry share footprints."""
        return self.width, self.height, self.num_levels, self.num_layers

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
    def texel_addresses(self, x: np.ndarray, y: np.ndarray, level,
                        layer: np.ndarray) -> np.ndarray:
        """Byte addresses of texels; row-major within each layer.

        ``level`` is one mip level or an array of them, one per texel.
        For block-compressed formats the address is that of the 4x4 block
        containing the texel — neighbouring texels share a block, which is
        where compression's traffic reduction comes from.
        """
        bases = np.asarray(self._require_placed(), dtype=np.int64)[level]
        dims = self._dims[level]
        h, w = dims[..., 0], dims[..., 1]
        layer = np.mod(np.asarray(layer, dtype=np.int64), self.num_layers)
        edge, block_bytes = COMPRESSION_FORMATS[self.compression]
        if edge > 1:
            blocks_w = np.maximum(1, (w + edge - 1) // edge)
            blocks_h = np.maximum(1, (h + edge - 1) // edge)
            block = (y // edge) * blocks_w + (x // edge)
            offset = (layer * blocks_w * blocks_h + block) * block_bytes
            return bases + offset
        offset = ((layer * h + y) * w + x) * self.bytes_per_texel
        return bases + offset

    def footprint(
        self,
        u: np.ndarray,
        v: np.ndarray,
        lod: Optional[np.ndarray] = None,
        layer: Optional[np.ndarray] = None,
        tex_filter: str = "nearest",
    ) -> "Footprint":
        """Which texels each lane of a ``tex_filter`` sample reads.

        LoD -> mip level, the texel coordinates and the filter weights
        depend only on :attr:`geometry`, so one footprint serves every
        texture of that geometry (:meth:`gather`).  ``lod`` is the
        per-lane level-of-detail from rasterization; ``None`` (LoD
        disabled) always references mip 0, which is exactly the "LoD off"
        configuration of Fig 9.
        """
        if tex_filter not in ("nearest", "bilinear", "trilinear"):
            raise ValueError(
                "tex_filter must be 'nearest', 'bilinear' or 'trilinear'")
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        n = len(u)
        if layer is None:
            layer = np.zeros(n, dtype=np.int64)
        lay = np.mod(np.asarray(layer, dtype=np.int64), self.num_layers)
        if tex_filter == "nearest":
            return Footprint(self.geometry, tex_filter,
                             [self._nearest_pass(u, v, lod, lay)])
        if tex_filter == "bilinear" or lod is None:
            return Footprint(self.geometry, tex_filter,
                             [self._bilinear_pass(u, v, lod, lay)])
        # Trilinear: bilinear taps in the two bracketing mip levels,
        # blended by the fractional LoD.
        lod = np.clip(np.asarray(lod, dtype=np.float64), 0.0,
                      self.num_levels - 1)
        lo = np.floor(lod)
        frac = (lod - lo).astype(np.float32)[:, None]
        hi = np.minimum(lo + 1, self.num_levels - 1)
        return Footprint(self.geometry, tex_filter,
                         [self._bilinear_pass(u, v, lo, lay),
                          self._bilinear_pass(u, v, hi, lay)], frac)

    def _pass_levels(self, lod: Optional[np.ndarray], n: int
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-lane mip level and that level's height and width."""
        if lod is None:
            levels = np.zeros(n, dtype=np.int64)
        else:
            levels = np.clip(np.rint(lod), 0,
                             self.num_levels - 1).astype(np.int64)
        return levels, self._dims[levels, 0], self._dims[levels, 1]

    def _nearest_pass(self, u, v, lod, lay) -> "_Pass":
        levels, h, w = self._pass_levels(lod, len(u))
        x = np.clip(np.floor(np.mod(u, 1.0) * w).astype(np.int64), 0, w - 1)
        y = np.clip(np.floor(np.mod(v, 1.0) * h).astype(np.int64), 0, h - 1)
        return _Pass(self, levels, lay, x, y, h, w, None)

    def _bilinear_pass(self, u, v, lod, lay) -> "_Pass":
        """Each lane's 2x2 texel footprint around its UV ("linear"
        filtering): taps (0,0), (1,0), (0,1), (1,1) on the trailing axis."""
        levels, h, w = self._pass_levels(lod, len(u))
        # Texel centers sit at (i + 0.5) / w.
        fx = np.mod(u, 1.0) * w - 0.5
        fy = np.mod(v, 1.0) * h - 0.5
        x0 = np.floor(fx).astype(np.int64)
        y0 = np.floor(fy).astype(np.int64)
        wx = (fx - x0).astype(np.float32)[:, None]
        wy = (fy - y0).astype(np.float32)[:, None]
        taps = ((0, 0), (1, 0), (0, 1), (1, 1))
        x = np.stack([np.mod(x0 + dx, w) for dx, _ in taps], axis=1)
        y = np.stack([np.mod(y0 + dy, h) for _, dy in taps], axis=1)
        weights = [(wx if dx else 1 - wx) * (wy if dy else 1 - wy)
                   for dx, dy in taps]
        return _Pass(self, levels[:, None], lay[:, None], x, y,
                     h[:, None], w[:, None], weights)

    def gather(self, footprint: "Footprint") -> Tuple[np.ndarray, np.ndarray]:
        """Sample this texture at ``footprint``; returns ``(colors (N, 4),
        addresses)``: (N,) texel addresses for nearest, (N, 4) for
        bilinear, (N, 8) for trilinear (the full 8-texel footprint
        reaching the texture unit)."""
        return self.colors(footprint), self.addresses(footprint)

    def colors(self, footprint: "Footprint") -> np.ndarray:
        """The filtered (N, 4) colours of :meth:`gather`."""
        self._check_footprint(footprint)
        colors = [self._pass_colors(p) for p in footprint.passes]
        if footprint.filter != "trilinear" or footprint.frac is None:
            return colors[0]
        c_lo, c_hi = colors
        frac = footprint.frac
        return (c_lo * (1.0 - frac) + c_hi * frac).astype(np.float32)

    def addresses(self, footprint: "Footprint") -> np.ndarray:
        """The texel addresses of :meth:`gather`."""
        self._check_footprint(footprint)
        addresses = [self.texel_addresses(p.x, p.y, p.levels, p.lay)
                     for p in footprint.passes]
        if footprint.filter != "trilinear":
            return addresses[0]
        if footprint.frac is None:
            return np.concatenate([addresses[0], addresses[0]], axis=1)
        return np.concatenate(addresses, axis=1)

    @property
    def address_layout(self) -> tuple:
        """All a texel's byte offset from ``level_bases[0]`` depends on:
        textures of one layout read a footprint's texels at the same
        offsets from their first level."""
        bases = self._require_placed()
        return (self.geometry, self.compression, self.bytes_per_texel,
                tuple(b - bases[0] for b in bases))

    def _check_footprint(self, footprint: "Footprint") -> None:
        if footprint.geometry != self.geometry:
            raise ValueError("footprint of a %r texture cannot sample %r"
                             % (footprint.geometry, self))

    def _pass_colors(self, p: "_Pass") -> np.ndarray:
        texels = self.texels[p.rows]
        if p.weights is None:
            return texels
        colors = np.zeros((len(texels), 4), dtype=np.float32)
        for tap, weight in enumerate(p.weights):
            colors += texels[:, tap] * weight
        return colors

    def sample_nearest(
        self,
        u: np.ndarray,
        v: np.ndarray,
        lod: Optional[np.ndarray] = None,
        layer: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample; returns ``(colors (N, 4), addresses (N,))``."""
        return self.gather(self.footprint(u, v, lod, layer, "nearest"))

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
        return self.gather(self.footprint(u, v, lod, layer, "bilinear"))

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
        return self.gather(self.footprint(u, v, lod, layer, "trilinear"))

    def __repr__(self) -> str:
        return "Texture2D(%r, %dx%d, %d layers, %d levels)" % (
            self.name, self.width, self.height, self.num_layers, self.num_levels)


class _Pass:
    """One nearest or bilinear evaluation: per lane (and tap, on a
    trailing axis) its mip level, layer, texel coordinates and the
    texel's row in :attr:`Texture2D.texels` (``rows``); ``weights`` are
    the four bilinear tap weights, None for nearest."""

    __slots__ = ("levels", "lay", "x", "y", "rows", "weights")

    def __init__(self, tex: Texture2D, levels: np.ndarray, lay: np.ndarray,
                 x: np.ndarray, y: np.ndarray, h: np.ndarray, w: np.ndarray,
                 weights: Optional[List[np.ndarray]]) -> None:
        self.levels = levels
        self.lay = lay
        self.x = x
        self.y = y
        self.rows = tex.texel_starts[levels] + (lay * h + y) * w + x
        self.weights = weights


class Footprint(NamedTuple):
    """The texels one sampling call reads, for any texture of one
    :attr:`~Texture2D.geometry` (see :meth:`Texture2D.footprint`).

    ``passes`` holds one :class:`_Pass`, or two for trilinear (the lower
    and upper bracketing levels, blended by ``frac``; with LoD off the one
    bilinear pass counts twice).
    """

    geometry: Tuple[int, int, int, int]
    filter: str
    passes: List[_Pass]
    frac: Optional[np.ndarray] = None


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
