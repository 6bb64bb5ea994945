"""Render targets: color + depth, with device addresses.

The ROP is deliberately not modelled in the performance model (Section III:
it "primarily affects the rendered image visually but has very limited
influence"), so the framebuffer's job is (1) functional output for image
comparisons (Fig 5 / Fig 8) and (2) providing real addresses for the
framebuffer stores fragment-shader traces emit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..memory.address import AddressAllocator


class Framebuffer:
    """A color+depth render target."""

    BYTES_PER_PIXEL = 4  # RGBA8
    BYTES_PER_DEPTH = 4  # D32F

    def __init__(self, width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("framebuffer dimensions must be positive")
        self.width = width
        self.height = height
        self.color = np.zeros((height, width, 4), dtype=np.float32)
        self.depth = np.full((height, width), np.inf, dtype=np.float64)
        self.color_base: int = -1
        self.depth_base: int = -1

    def place(self, allocator: AddressAllocator) -> None:
        self.color_base = allocator.alloc(self.width * self.height * self.BYTES_PER_PIXEL)
        self.depth_base = allocator.alloc(self.width * self.height * self.BYTES_PER_DEPTH)

    def clear(self, color: Tuple[float, float, float, float] = (0, 0, 0, 1)) -> None:
        self.color[:] = color
        self.depth[:] = np.inf

    def pixel_addresses(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Color-buffer byte addresses of the given pixels."""
        if self.color_base < 0:
            raise RuntimeError("framebuffer not placed; call place() first")
        return self.color_base + (y * self.width + x) * self.BYTES_PER_PIXEL

    def write_color(self, x: np.ndarray, y: np.ndarray, rgba: np.ndarray) -> None:
        self.color[y, x] = rgba

    def as_image(self) -> np.ndarray:
        """Color buffer as uint8 RGBA."""
        return (np.clip(self.color, 0.0, 1.0) * 255).astype(np.uint8)
