"""Ablations of the pipeline design choices CRISP makes (Section III).

Each ablation flips one modelling decision and shows why the paper's
choice matters:

* **early-Z** — removing the depth pre-test shades occluded fragments.
* **ITR batch pipelining** — serialising the rendering kernels (no
  overlap of one batch's fragments with the next batch's vertices)
  inflates frame time.
* **tile size** — ITR's screen tiling drives texture locality: warps
  packed from larger, sparser tiles touch more cache lines per CTA.
"""

import numpy as np
from bench_util import print_header, run_once

from repro.config import RTX_3070_NANO
from repro.core import CRISP, GRAPHICS_STREAM
from repro.graphics import GraphicsPipeline, PipelineConfig
from repro.scenes import build_scene, resolution
from repro.timing import GPU


def _render(code, res, **cfg_kwargs):
    scene = build_scene(code)
    pipe = GraphicsPipeline(scene.textures, config=PipelineConfig(**cfg_kwargs))
    w, h = resolution(res)
    return pipe.render_frame(scene.draws, scene.camera, w, h)


def test_ablation_early_z(benchmark):
    def run():
        on = _render("SPL", "2k", early_z=True)
        off = _render("SPL", "2k", early_z=False)
        return (sum(d.fragments for d in on.draw_stats),
                sum(d.fragments for d in off.draw_stats))

    frags_on, frags_off = run_once(benchmark, run)
    print_header("Ablation — early-Z depth test")
    print("fragments shaded with early-Z:    %d" % frags_on)
    print("fragments shaded without early-Z: %d (+%.1f%%)"
          % (frags_off, (frags_off / frags_on - 1) * 100))
    assert frags_off > frags_on, \
        "disabling early-Z must shade occluded fragments"


def test_ablation_itr_pipelining(benchmark):
    def run():
        crisp = CRISP(RTX_3070_NANO)
        frame = crisp.trace_scene("SPH", "2k")
        out = {}
        for inflight in (1, 2, 4, 8):
            gpu = GPU(RTX_3070_NANO)
            sq = gpu.add_stream(GRAPHICS_STREAM, frame.kernels)
            sq.max_inflight = inflight
            out[inflight] = gpu.run().cycles
        return out

    cycles = run_once(benchmark, run)
    print_header("Ablation — ITR batch pipelining (in-flight kernel window)")
    for inflight, c in sorted(cycles.items()):
        print("  max_inflight=%d : %7d cycles (%.2fx vs serial)"
              % (inflight, c, cycles[1] / c))
    assert cycles[1] > cycles[4], \
        "pipelining batches must beat fully serial kernel execution"
    assert cycles[8] <= cycles[2]


def test_ablation_tile_size(benchmark):
    def run():
        out = {}
        for tile in (4, 16, 64):
            res = _render("SPL", "2k", tile_size=tile)
            lines = [l for d in res.draw_stats for l in d.tex_lines_per_cta]
            out[tile] = float(np.mean(lines))
        return out

    means = run_once(benchmark, run)
    print_header("Ablation — ITR tile size vs TEX lines per CTA")
    for tile, m in sorted(means.items()):
        print("  tile %3dpx : mean %.2f TEX lines/CTA" % (tile, m))
    # The traversal granularity measurably reshapes each CTA's texture
    # working set (which is why ITR's tiling is worth modelling at all):
    # tiny tiles pack CTAs from very compact clusters, mid sizes straddle
    # tile boundaries, large tiles approach scanline order.
    values = list(means.values())
    assert max(values) / min(values) > 1.2, \
        "tile size must have a visible effect on per-CTA texture footprint"
    assert means[4] < means[16], \
        "compact tiles shrink the per-CTA texture working set"


def test_ablation_depth_prepass(benchmark):
    """Depth pre-pass: extra vertex work buys fragment-shading savings on
    overdraw-heavy content (a technique built on the modelled early-Z)."""
    from repro.graphics import Texture2D, checkerboard
    from repro.graphics.geometry import DrawCall
    from repro.scenes.assets import box_mesh

    def draws():
        # Back-to-front layers: worst case for plain early-Z.
        layers = []
        for i in range(4):
            z = 3.0 - i * 1.2
            quad = box_mesh((8, 8, 0.1), center=(0, 0, z), name="q%d" % i)
            layers.append(DrawCall(quad, texture_slots=["tex"],
                                   name="layer%d" % i))
        return layers

    def run():
        from repro.graphics import Camera, GraphicsPipeline, PipelineConfig
        out = {}
        for prepass in (False, True):
            pipe = GraphicsPipeline(
                {"tex": Texture2D("tex", checkerboard(64))},
                config=PipelineConfig(depth_prepass=prepass))
            res = pipe.render_frame(
                draws(), Camera(eye=(0, 0, -6), target=(0, 0, 0)), 96, 54)
            out[prepass] = {
                "fragments": sum(d.fragments for d in res.draw_stats),
                "instructions": res.total_instructions,
            }
        return out

    r = run_once(benchmark, run)
    print_header("Ablation — depth pre-pass on 4-layer overdraw")
    for prepass, d in r.items():
        print("  prepass=%-5s fragments=%6d  total instr=%7d"
              % (prepass, d["fragments"], d["instructions"]))
    assert r[True]["fragments"] < r[False]["fragments"] * 0.5, \
        "the pre-pass must eliminate occluded fragment shading"


def test_ablation_texture_compression(benchmark):
    """Block compression (BC1/BC7): the 'different formats' of the PBR
    maps (Section VI-B) shrink texture footprint and L1 traffic."""
    from repro.graphics import Texture2D, checkerboard
    from repro.graphics.geometry import DrawCall
    from repro.graphics import Camera as Cam

    def run():
        out = {}
        for fmt in ("none", "bc7", "bc1"):
            tex = Texture2D("tex", checkerboard(128), compression=fmt)
            pipe = GraphicsPipeline({"tex": tex})
            res = pipe.render_frame(
                [DrawCall(build_scene("SPL").draws[0].mesh,
                          texture_slots=["tex"])],
                Cam(eye=(0, 2, -6)), 192, 108)
            out[fmt] = {
                "tex_tx": res.tex_transactions,
                "footprint_kb": tex.total_bytes // 1024,
            }
        return out

    r = run_once(benchmark, run)
    print_header("Ablation — texture block compression")
    for fmt, d in r.items():
        print("  %-5s footprint=%5d KB  tex transactions=%6d"
              % (fmt, d["footprint_kb"], d["tex_tx"]))
    assert r["bc1"]["footprint_kb"] < r["bc7"]["footprint_kb"] \
        < r["none"]["footprint_kb"]
    assert r["bc1"]["tex_tx"] <= r["none"]["tex_tx"]


def test_ablation_batch_size_invocations(benchmark):
    """Vertex-batch size vs shading work (the Fig 3 mechanism, as cost)."""
    from repro.graphics import build_batches, total_shader_invocations

    def run():
        scene = build_scene("IT")
        mesh = [d for d in scene.draws if d.instances is not None][0].mesh
        return {bs: total_shader_invocations(build_batches(mesh.indices, bs))
                for bs in (8, 32, 96, 384)}

    inv = run_once(benchmark, run)
    print_header("Ablation — vertex batch size vs VS invocations (IT rock)")
    for bs, n in sorted(inv.items()):
        print("  batch %3d : %6d invocations" % (bs, n))
    assert inv[8] > inv[96] >= inv[384], \
        "bigger batches dedup more vertices"
