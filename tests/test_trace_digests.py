"""Trace-digest golden: the lowered traces themselves are pinned.

The stats goldens (``test_golden_stats.py``) pin what the timing model
makes of one workload.  This file pins the traces the front-ends emit,
before any timing: the sha256 of the ``kernel_to_dict`` JSON of every
kernel, for SPL and PL under every texture filter, a depth pre-pass
frame, SPH (the 8-map PBR shader) and IT (instanced draws), and all
five compute workloads.  Any change to shader
lowering, coalescing, register allocation or address layout shows up
here as a digest mismatch, even when it happens not to move a cycle.

If a deliberate trace-format or front-end change alters a digest,
regenerate it with :func:`trace_digest` and say why in the commit.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.compute import WORKLOAD_BUILDERS, build_compute_workload
from repro.graphics.pipeline import GraphicsPipeline, PipelineConfig
from repro.isa.serialize import kernel_to_dict
from repro.scenes import build_scene, resolution

GRAPHICS_DIGESTS = {
    ("SPL", "nearest", False):
        "ba24a139580f4eb9eeb236deb8182726757970c24b2b4663506498d6ebc1ce89",
    ("SPL", "bilinear", False):
        "6c93e450cef071437db1c7a51328b4c87d3c5e15a87252b6fb494b298e30c8d2",
    ("SPL", "trilinear", False):
        "bd4f9c98f75338b3319071f747bf7c7d36772d10e198f0c6b1acce5363220fee",
    ("PL", "nearest", False):
        "70718902ececa0042a97266e489b2701a4f10ac088cf887a4632511e51202f78",
    ("PL", "bilinear", False):
        "c04c95d95efaa97833f047f394ada0df59f759396d06d37512c4143732df4a2b",
    ("PL", "trilinear", False):
        "08e697169debe32bc1cea4a27c048b99fd453ee48977931c4eb05ad09bfc9afe",
    ("SPL", "nearest", True):
        "a59cb6164f5a5f70a1769837b1d61f2c36f6e85b1a3537e8114b1260ee066d34",
    # The 8-map PBR shader and the instanced vertex stage.
    ("SPH", "nearest", False):
        "27bfe27c4af18f1ef8fc0d78c72502c8d97b4d15dee99c49e67ed735a28dd20b",
    # Re-pinned when the per-instance array layer stopped being
    # interpolated (97 of 1,219 fragments had truncated to the layer below).
    ("IT", "nearest", False):
        "3772d5f45ac6be1688da4023988a1947950cfbff0fb603e6b70e5454730ce9c7",
}

COMPUTE_DIGESTS = {
    "ATW": "516d5b1d804dfd9203c37cac76d90b77277371085f8c7169c9e087ee38f03117",
    "DLSS": "d508e2cb9d894654a554752036a3e4b980a0afd111e990b840872b86066ed707",
    "HOLO": "b5f2bce7064bdb0bcf49ccea0313428be27fa30a1bc173662bd5c6d048b3debb",
    "NN": "bcbb4ef052147569402e6202af045da631e3bc36a7b38ca731e5f498ed94d69a",
    "VIO": "eb05207ce677dc2d77c3175fbfe049c4c0ce688d0184ba836d8a7432083446ba",
}


def trace_digest(kernels) -> str:
    """sha256 over the canonical ``kernel_to_dict`` JSON of each kernel."""
    h = hashlib.sha256()
    for kernel in kernels:
        h.update(json.dumps(kernel_to_dict(kernel), sort_keys=True,
                            separators=(",", ":")).encode())
    return h.hexdigest()


def render_nano(scene_code: str, tex_filter: str, depth_prepass: bool):
    scene = build_scene(scene_code)
    pipe = GraphicsPipeline(scene.textures, config=PipelineConfig(
        tex_filter=tex_filter, depth_prepass=depth_prepass))
    width, height = resolution("nano")
    return pipe.render_frame(scene.draws, scene.camera, width, height).kernels


def test_every_compute_workload_is_pinned():
    assert set(COMPUTE_DIGESTS) == set(WORKLOAD_BUILDERS)


@pytest.mark.parametrize("scene,tex_filter,depth_prepass",
                         sorted(GRAPHICS_DIGESTS))
def test_graphics_trace_digest(scene, tex_filter, depth_prepass):
    kernels = render_nano(scene, tex_filter, depth_prepass)
    assert trace_digest(kernels) == GRAPHICS_DIGESTS[
        (scene, tex_filter, depth_prepass)]


@pytest.mark.parametrize("name", sorted(COMPUTE_DIGESTS))
def test_compute_trace_digest(name):
    assert trace_digest(build_compute_workload(name)) == COMPUTE_DIGESTS[name]
