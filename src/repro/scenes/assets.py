"""Procedural meshes and textures for the scene builders.

The paper's scenes are real game assets; these builders create geometry with
matching *characteristics* (triangle counts, vertex-reuse topology, UV
layouts) and deterministic procedural textures, so the studies measure the
same phenomena (vertex batching reuse, texture footprint, mip traffic)
without binary assets.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..graphics.geometry import InstanceSet, Mesh
from ..graphics.texture import checkerboard, noise_texture


def grid_mesh(nx: int, nz: int, extent: float = 10.0, y: float = 0.0,
              uv_repeat: float = 4.0, name: str = "grid") -> Mesh:
    """A flat (nx x nz)-cell ground grid in the XZ plane."""
    if nx < 1 or nz < 1:
        raise ValueError("grid needs at least one cell per axis")
    xs = np.linspace(-extent, extent, nx + 1)
    zs = np.linspace(-extent, extent, nz + 1)
    px, pz = np.meshgrid(xs, zs)
    n = (nx + 1) * (nz + 1)
    positions = np.stack([px.ravel(), np.full(n, y), pz.ravel()], axis=1)
    normals = np.tile([0.0, 1.0, 0.0], (n, 1))
    uu = (px.ravel() / (2 * extent) + 0.5) * uv_repeat
    vv = (pz.ravel() / (2 * extent) + 0.5) * uv_repeat
    uvs = np.stack([uu, vv], axis=1)
    tris = []
    stride = nx + 1
    for j in range(nz):
        for i in range(nx):
            a = j * stride + i
            b = a + 1
            c = a + stride
            d = c + 1
            tris.append([a, c, b])
            tris.append([b, c, d])
    return Mesh(positions, normals, uvs, np.asarray(tris), name=name)


def box_mesh(size: Tuple[float, float, float] = (1.0, 1.0, 1.0),
             center: Tuple[float, float, float] = (0.0, 0.0, 0.0),
             name: str = "box") -> Mesh:
    """An axis-aligned box with per-face normals/UVs (24 verts, 12 tris)."""
    sx, sy, sz = (s / 2 for s in size)
    cx, cy, cz = center
    faces = [
        # (normal, corner order)
        ((0, 0, -1), [(-sx, -sy, -sz), (sx, -sy, -sz), (sx, sy, -sz), (-sx, sy, -sz)]),
        ((0, 0, 1), [(sx, -sy, sz), (-sx, -sy, sz), (-sx, sy, sz), (sx, sy, sz)]),
        ((-1, 0, 0), [(-sx, -sy, sz), (-sx, -sy, -sz), (-sx, sy, -sz), (-sx, sy, sz)]),
        ((1, 0, 0), [(sx, -sy, -sz), (sx, -sy, sz), (sx, sy, sz), (sx, sy, -sz)]),
        ((0, -1, 0), [(-sx, -sy, sz), (sx, -sy, sz), (sx, -sy, -sz), (-sx, -sy, -sz)]),
        ((0, 1, 0), [(-sx, sy, -sz), (sx, sy, -sz), (sx, sy, sz), (-sx, sy, sz)]),
    ]
    positions, normals, uvs, tris = [], [], [], []
    uv_quad = [(0, 0), (1, 0), (1, 1), (0, 1)]
    for normal, corners in faces:
        base = len(positions)
        for (px, py, pz), uv in zip(corners, uv_quad):
            positions.append((px + cx, py + cy, pz + cz))
            normals.append(normal)
            uvs.append(uv)
        tris.append([base, base + 1, base + 2])
        tris.append([base, base + 2, base + 3])
    return Mesh(np.asarray(positions, dtype=float), np.asarray(normals, dtype=float),
                np.asarray(uvs, dtype=float), np.asarray(tris), name=name)


def sphere_mesh(rings: int = 12, segments: int = 18, radius: float = 1.0,
                center: Tuple[float, float, float] = (0.0, 0.0, 0.0),
                name: str = "sphere") -> Mesh:
    """A UV sphere; high vertex reuse, exercising batch dedup."""
    if rings < 2 or segments < 3:
        raise ValueError("sphere needs rings >= 2 and segments >= 3")
    positions, normals, uvs = [], [], []
    for r in range(rings + 1):
        theta = math.pi * r / rings
        for s in range(segments + 1):
            phi = 2 * math.pi * s / segments
            nx = math.sin(theta) * math.cos(phi)
            ny = math.cos(theta)
            nz = math.sin(theta) * math.sin(phi)
            positions.append((center[0] + radius * nx,
                              center[1] + radius * ny,
                              center[2] + radius * nz))
            normals.append((nx, ny, nz))
            uvs.append((s / segments, r / rings))
    tris = []
    stride = segments + 1
    for r in range(rings):
        for s in range(segments):
            a = r * stride + s
            b = a + 1
            c = a + stride
            d = c + 1
            if r > 0:
                tris.append([a, b, c])
            if r < rings - 1:
                tris.append([b, d, c])
    return Mesh(np.asarray(positions, dtype=float), np.asarray(normals, dtype=float),
                np.asarray(uvs, dtype=float), np.asarray(tris), name=name)


def column_mesh(sides: int = 8, height: float = 3.0, radius: float = 0.3,
                center: Tuple[float, float, float] = (0.0, 0.0, 0.0),
                name: str = "column") -> Mesh:
    """An open cylinder — the Sponza atrium colonnade element."""
    if sides < 3:
        raise ValueError("column needs at least 3 sides")
    positions, normals, uvs = [], [], []
    for level, y in ((0, 0.0), (1, height)):
        for s in range(sides + 1):
            phi = 2 * math.pi * s / sides
            nx, nz = math.cos(phi), math.sin(phi)
            positions.append((center[0] + radius * nx,
                              center[1] + y,
                              center[2] + radius * nz))
            normals.append((nx, 0.0, nz))
            uvs.append((2.0 * s / sides, float(level)))
    tris = []
    stride = sides + 1
    for s in range(sides):
        a, b = s, s + 1
        c, d = s + stride, s + 1 + stride
        tris.append([a, c, b])
        tris.append([b, c, d])
    return Mesh(np.asarray(positions, dtype=float), np.asarray(normals, dtype=float),
                np.asarray(uvs, dtype=float), np.asarray(tris), name=name)


def rock_mesh(seed: int, rings: int = 6, segments: int = 9,
              radius: float = 0.4, name: str = "rock") -> Mesh:
    """A perturbed sphere — an asteroid for the Planets scene."""
    base = sphere_mesh(rings, segments, radius, name=name)
    rng = np.random.default_rng(seed)
    bumps = 1.0 + (rng.random(len(base.positions)) - 0.5) * 0.4
    positions = base.positions * bumps[:, None]
    return Mesh(positions, base.normals, base.uvs, base.indices, name=name)


def asteroid_field(count: int, seed: int = 7, spread: float = 9.0,
                   num_layers: int = 4) -> InstanceSet:
    """Instance records for the Planets asteroid belt."""
    rng = np.random.default_rng(seed)
    angles = rng.random(count) * 2 * math.pi
    radii = 3.0 + rng.random(count) * spread
    offsets = np.stack([
        np.cos(angles) * radii,
        (rng.random(count) - 0.5) * 2.0,
        np.sin(angles) * radii,
    ], axis=1)
    scales = 0.5 + rng.random(count) * 1.5
    layers = rng.integers(0, num_layers, count)
    return InstanceSet(offsets, scales, layers)


# -- textures ------------------------------------------------------------------

def brick_texture(size: int = 128, seed: int = 3) -> np.ndarray:
    """Brick-like pattern: checker base modulated with noise."""
    base = checkerboard(size, squares=16,
                        color_a=(0.62, 0.32, 0.22), color_b=(0.55, 0.27, 0.2))
    noise = noise_texture(size, seed=seed)
    out = base * (0.8 + 0.2 * noise)
    out[..., 3] = 1.0
    return np.clip(out, 0, 1).astype(np.float32)


def marble_texture(size: int = 128, seed: int = 5) -> np.ndarray:
    """Banded bright texture for floors/columns."""
    yy, xx = np.mgrid[0:size, 0:size] / size
    bands = 0.5 + 0.5 * np.sin((xx * 6 + yy * 2) * math.pi)
    rng = np.random.default_rng(seed)
    grain = rng.random((size, size)) * 0.1
    val = np.clip(0.7 + 0.25 * bands + grain, 0, 1).astype(np.float32)
    img = np.stack([val, val, val * 0.95, np.ones_like(val)], axis=2)
    return img


def pbr_map_set(size: int = 128, seed: int = 11) -> dict:
    """Eight named PBR maps (Section VI-B's Pistol texture set)."""
    from ..graphics.shaders import PBR_MAPS
    maps = {}
    for i, name in enumerate(PBR_MAPS):
        if name == "albedo":
            img = brick_texture(size, seed + i)
        elif name in ("metallic", "roughness", "ambient_occlusion"):
            img = noise_texture(size, seed=seed + i, scale=0.9)
        else:
            img = noise_texture(size, seed=seed + i)
        maps[name] = img
    return maps
