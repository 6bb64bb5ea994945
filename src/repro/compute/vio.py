"""VIO — Visual-Inertial Odometry pipeline (Section V-B).

The paper profiles state-of-the-art VIO (OpenVINS, Kimera) and offloads the
computer-vision 60% to the GPU: feature detection, undistortion, corner
detection (FAST/Harris-like), and pyramidal optical flow, fed by camera
frames (EuRoC-like input).  The workload signature that matters for the
concurrency studies: *many small kernels* — which is why Warped-Slicer's
sampling overhead cannot amortise on VIO (Fig 12 discussion).

Kernels operate on a small grayscale frame and a 3-level image pyramid.
"""

from __future__ import annotations

from typing import List

from ..isa import KernelTrace
from .builder import DeviceMemory, KernelBuilder

#: Camera frame dimensions (scaled-down EuRoC 752x480 -> 94x60).
FRAME_W, FRAME_H = 96, 64
PYRAMID_LEVELS = 3
MAX_FEATURES = 256


def _stencil(offset_rows: int):
    """Row-offset gather: thread i reads element i + offset_rows * width."""
    def fn(tids):
        return tids + offset_rows * FRAME_W
    return fn


def build_vio_kernels(frames: int = 1) -> List[KernelTrace]:
    """The VIO GPU pipeline for ``frames`` camera frames, in launch order."""
    mem = DeviceMemory()
    pixels = FRAME_W * FRAME_H
    raw = mem.buffer("raw_frame", pixels * 4)
    undist = mem.buffer("undistorted", pixels * 4)
    pyr = [mem.buffer("pyr_l%d" % l, (pixels >> (2 * l)) * 4)
           for l in range(PYRAMID_LEVELS)]
    grad = mem.buffer("gradients", pixels * 8)
    score = mem.buffer("corner_score", pixels * 4)
    feats = mem.buffer("features", MAX_FEATURES * 16)
    flow = mem.buffer("flow_vectors", MAX_FEATURES * 8)

    kernels: List[KernelTrace] = []
    warps = 4            # small blocks: 128 threads
    grid = max(1, pixels // (warps * 32))
    for _ in range(frames):
        # 1. Undistortion: gather with a remap table (non-coalesced reads).
        kernels.append(
            KernelBuilder("vio_undistort", grid, warps * 32, regs_per_thread=24)
            .load(raw, "random")       # remap gather
            .load(raw, "coalesced")    # bilinear neighbourhood
            .fp(10)
            .store(undist)
            .build())
        # 2. Pyramid construction: one downsample kernel per level.
        src = undist
        for lvl in range(1, PYRAMID_LEVELS):
            lvl_pixels = pixels >> (2 * lvl)
            lvl_grid = max(1, lvl_pixels // (warps * 32))
            kernels.append(
                KernelBuilder("vio_pyrdown_l%d" % lvl, lvl_grid, warps * 32,
                              regs_per_thread=20)
                .load(src, "strided")          # 2x2 box reads
                .load(src, _stencil(1))
                .fp(6)
                .store(pyr[lvl])
                .build())
            src = pyr[lvl]
        # 3. Gradient / feature detection (Sobel-like 3x3 stencil).
        kernels.append(
            KernelBuilder("vio_gradient", grid, warps * 32, regs_per_thread=28)
            .load(undist, _stencil(-1))
            .load(undist, _stencil(0))
            .load(undist, _stencil(1))
            .fp(18)
            .store(grad)
            .build())
        # 4. Corner detection (Harris response + threshold).  Only the
        # ~25% of pixels passing the threshold run the refinement math —
        # a genuinely divergent branch.
        kernels.append(
            KernelBuilder("vio_corner", grid, warps * 32, regs_per_thread=32)
            .load(grad, "coalesced", words=2)
            .fp(22)
            .intop(4)
            .divergent(0.25, lambda b: b.fp(8).intop(2))
            .store(score)
            .build())
        # 5. Feature compaction (small, latency-bound).
        kernels.append(
            KernelBuilder("vio_compact", 2, warps * 32, regs_per_thread=16)
            .load(score, "strided")
            .intop(8)
            .store(feats)
            .build())
        # 6. Pyramidal Lucas-Kanade optical flow: one kernel per level,
        #    coarse to fine, gathering patch windows around each feature.
        for lvl in reversed(range(PYRAMID_LEVELS)):
            kernels.append(
                KernelBuilder("vio_flow_l%d" % lvl, 2, warps * 32,
                              regs_per_thread=40)
                .load(pyr[lvl] if lvl else undist, "random", words=3)
                .load(feats, "coalesced")
                .fp(30)
                .sfu(2)
                .store(flow)
                .build())
    return kernels


def kernel_count_per_frame() -> int:
    """Kernels launched per camera frame (the 'many small kernels' trait)."""
    return 1 + (PYRAMID_LEVELS - 1) + 1 + 1 + 1 + PYRAMID_LEVELS
