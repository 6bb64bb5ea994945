"""The paper's claims as one table: run, print and judge every experiment.

Each :data:`RUNNERS` row runs one experiment, a table or figure of the
paper or one of its ablations, counter-baselines or extensions, and returns
``(claims, lines)``: its shape claims and the detail lines
``repro figure <id>`` prints.  A claim is a plain tuple
``(name, measured, op, bound)`` with ``op`` a key of :data:`OPS`; it holds
when ``OPS[op](measured, bound)``.  :class:`ExperimentRecord` judges every
claim, prints one ``PASS``/``CHECK``/``DEVIATION`` line per claim from
those four fields and derives the row's outcome and headline from them,
so nothing printed is unchecked.  A failing claim fails its row unless
:data:`DEVIATIONS` names it.  The row is the only place its experiment is
run, printed or judged; ``repro figure``, ``repro reproduce`` and
``repro validate regen-goldens`` all call it.  Claims are shapes (who
wins, which way an effect goes), not absolute numbers, since the
substrate is a simulator, not the authors' testbed (see EXPERIMENTS.md).

:func:`reproduce_all` is the artifact equivalent of ``run.sh`` +
``collect.sh``: it runs the requested rows and writes ``RESULTS.md``.
Used by ``python -m repro reproduce --out results/``.
"""

from __future__ import annotations

import operator
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import experiments as E
from . import hwref
from .analytic import estimate_concurrent, estimate_cycles
from .capabilities import format_table, verify_crisp_row
from .report import render_qos_campaign
from ..compute import (DeviceMemory, KernelBuilder, build_timewarp_kernels,
                       build_vio_kernels)
from ..config import CacheConfig, JETSON_ORIN_MINI, RTX_3070_MINI, RTX_3070_NANO
from ..api import simulate
from ..core import COMPUTE_STREAM, CRISP, GRAPHICS_STREAM, FGEvenPolicy, MPSPolicy
from ..graphics import (Camera, DrawCall, GraphicsPipeline, PipelineConfig,
                        Texture2D, build_batches, checkerboard,
                        total_shader_invocations)
from ..graphics.vertex_batch import vertex_cache_invocations
from ..qos import campaign as qos_campaign
from ..scenes import build_scene, resolution, scene_codes
from ..scenes.assets import box_mesh
from ..timing import GPU

Claim = Tuple[str, Any, str, Any]
Row = Tuple[List[Claim], List[str]]

OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
       "<=": operator.le, "==": operator.eq}

#: ``(exp_id, claim name)`` of claims the reproduction does not meet.
#: They print DEVIATION instead of CHECK and do not fail their row; each
#: is listed, with its reason, under EXPERIMENTS.md "Known deviations".
DEVIATIONS = {
    ("fig12", "Dynamic mean speedup > MPS"),
    ("fig14", "MiG loses on most pairs"),
}


def _fmt(value: Any) -> str:
    return "%.4g" % value if isinstance(value, float) else str(value)


class ExperimentRecord:
    """One experiment's judged claims for the report."""

    def __init__(self, exp_id: str, claims: List[Claim], seconds: float,
                 lines: Optional[List[str]] = None) -> None:
        self.exp_id = exp_id
        self.seconds = seconds
        self.lines = lines or []
        #: ``(verdict, name, measured, op, bound)`` per claim.
        self.claims = [("PASS" if OPS[op](m, b) else
                        "DEVIATION" if (exp_id, name) in DEVIATIONS else "CHECK",
                        name, m, op, b) for name, m, op, b in claims]
        verdicts = [c[0] for c in self.claims]
        self.ok = "CHECK" not in verdicts
        self.outcome = "PASS" if self.ok else "CHECK"
        self.headline = ", ".join("%d %s" % (verdicts.count(v), v) for v in
                                  ("PASS", "CHECK", "DEVIATION") if v in verdicts)

    def report(self, verdict: Optional[str] = None) -> str:
        """The summary line, then a line per claim (only ``verdict``'s, if given)."""
        lines = ["[%s] %-7s %s (%.1fs)"
                 % (self.outcome, self.exp_id, self.headline, self.seconds)]
        lines += ["  %-9s %s: %s %s %s" % (v, name, _fmt(m), op, _fmt(b))
                  for v, name, m, op, b in self.claims if verdict in (None, v)]
        return "\n".join(lines)


def _run_table1() -> Row:
    """Table I: simulator capability comparison.

    Each capability the CRISP row claims maps to a predicate over this
    codebase.
    """
    return ([("CRISP capability: %s" % name, int(ok), "==", 1)
             for name, ok in verify_crisp_row().items()],
            format_table().splitlines())


def _run_table2() -> Row:
    """Table II: simulation configurations (RTX 3070 and Jetson Orin)."""
    tables = E.run_table2()
    lines = [line for machine, rows in tables.items()
             for line in [machine] + ["  %-32s %s" % fv for fv in rows]]
    return [("%s %s" % (machine, field), dict(tables[machine])[field], "==", want)
            for machine, sms, bw in (("JetsonOrin", 14, "200GB/s"),
                                     ("RTX3070", 46, "448GB/s"))
            for field, want in (("# SMs", sms), ("# Registers / SM", 65536),
                                ("Memory BW", bw), ("L2 Cache", "4MB"))], lines


def _run_fig3() -> Row:
    """Fig 3: vertex shader invocation correlation (%) vs batch size.

    The simulator launches whole warps where the profiler counts threads,
    so the simulated count is never below the reference.
    """
    r = E.run_fig3(batch_sizes=(8, 16, 32, 64, 96, 128, 192, 256))
    corr = r.correlation_by_batch
    claims = [("batch-96 correlation >= best batch's - 0.5", corr[96], ">=",
               corr[r.best_batch] - 0.5),
              ("batch-96 correlation > batch 8's", corr[96], ">", corr[8]),
              ("batch-96 correlation > batch 16's", corr[96], ">", corr[16]),
              ("draws with sim >= reference",
               sum(sim >= ref for *_, sim, ref in r.rows), "==", len(r.rows))]
    lines = ["batch %4d: %.2f%%" % (bs, c) for bs, c in sorted(corr.items())]
    lines.append("best batch: %d" % r.best_batch)
    return claims, lines


def _run_fig6() -> Row:
    """Fig 6: frame-time correlation (%) against the silicon reference.

    The reference is the analytical silicon stand-in (see DESIGN.md); IT
    (Planets) is vertex-bound, so it scales least from 2K to 4K.
    """
    r = E.run_fig6()
    scalings = {c: r.scaling(c) for c in ("SPH", "PL", "MT", "SPL", "PT", "IT")}
    claims = [("correlation", r.correlation, ">", 80),
              ("points with sim >= reference",
               sum(sim >= ref for *_, sim, ref in r.rows), "==", len(r.rows)),
              ("IT 2K->4K scaling <= every other scene's", scalings["IT"], "<=",
               min(v for k, v in scalings.items() if k != "IT")),
              ("IT 2K->4K scaling", scalings["IT"], "<", 1.8),
              ("largest 2K->4K scaling", max(scalings.values()), ">", 2.0)]
    lines = ["%s@%s sim=%d ref=%.0f" % row for row in r.rows]
    lines.append("2K->4K scaling: %s" % {k: round(v, 2) for k, v in scalings.items()})
    return claims, lines


def _run_fig7() -> Row:
    """Fig 7: mipmapping merges four texture loads in one UV quadrant of
    a 4x4 texture."""
    r = E.run_fig7()
    return [("texel loads at mip 0", r.loads_level0, "==", 4),
            ("texel loads at mip 1", r.loads_level1, "==", 1)], []


def _run_fig9() -> Row:
    """Fig 9: L1 texture access MAPE (%), LoD on vs off.

    Without LoD the model always references mip 0.
    """
    r = E.run_fig9()
    overestimates = sum(1 for _, _, on, off, _ in r.rows if off > on)
    worst = max(off / on for _, _, on, off, _ in r.rows if on)
    return [("MAPE with LoD", r.mape_lod_on, "<", 60),
            ("MAPE without LoD", r.mape_lod_off, ">", 100),
            ("MAPE reduction (x)", r.mape_reduction, ">", 4),
            ("draws LoD-off overestimates", overestimates, ">", len(r.rows) * 0.8),
            ("worst LoD-off overestimate (x)", worst, ">", 3)], []


def _run_fig10() -> Row:
    """Fig 10: histogram of TEX cache lines per CTA in one Sponza drawcall.

    Single-texture draws stay in single digits; multi-map PBR draws go
    far higher.
    """
    r = E.run_fig10("SPL")
    means = {}
    for code in scene_codes():
        try:
            means[code] = r.mean if code == "SPL" else E.run_fig10(code).mean
        except IndexError:  # the scene has no texturing draw
            continue
    claims = [("mode lines/CTA", r.mode, ">=", 2),
              ("mode lines/CTA", r.mode, "<=", 8),
              ("mean lines/CTA", r.mean, ">=", 2.0),
              ("mean lines/CTA", r.mean, "<=", 25.0),
              ("CTAs in the histogram", len(r.lines_per_cta), ">=", 10),
              ("smallest scene mean lines/CTA", min(means.values()), "<", 8.0),
              ("spread of scene means (x)",
               max(means.values()) / min(means.values()), ">", 3.0)]
    lines = ["draw %s:" % r.draw_name]
    lines.extend("  %3d lines: %d CTAs" % hv for hv in r.histogram)
    lines.append("mean lines/CTA by scene: %s"
                 % ", ".join("%s %.2f" % cm for cm in means.items()))
    return claims, lines


def _run_fig11() -> Row:
    """Fig 11: L2 composition under PBR (PT, 8 maps) vs basic (SPL) shading."""
    r = E.run_fig11()
    share, hit = r.texture_share, r.l2_hit_rate
    claims = [("PT texture share > 2x SPL's", share["PT"], ">", 2 * share["SPL"]),
              ("PT texture share", share["PT"], ">", 0.30),
              ("SPL L2 hit rate > PT's", hit["SPL"], ">", hit["PT"]),
              ("PT L2 snapshots", len(r.snapshots["PT"]), ">", 0),
              ("SPL L2 snapshots", len(r.snapshots["SPL"]), ">", 0)]
    return claims, ["%s: texture share %.1f%%, hit rate %.1f%%"
                    % (c, share[c] * 100, hit[c] * 100) for c in share]


def _pair_lines(r: E.PolicyComparison) -> List[str]:
    return ["%s %s" % (pair, {k: round(v, 3) for k, v in d.items()})
            for pair, d in sorted(r.normalized().items())]


def _mean_over(r: E.PolicyComparison, suffix: str, policy: str) -> float:
    """Mean normalised speedup of ``policy`` over the pairs ending in ``suffix``."""
    norm = r.normalized()
    return float(np.mean([norm[p][policy] for p in norm if p.endswith(suffix)]))


def _run_fig12(jobs: int = 1, cache_dir: Optional[str] = None) -> Row:
    """Fig 12: Warped-Slicer (Dynamic) on rendering + compute pairs
    (Jetson Orin), speedups normalised to even MPS.

    Dynamic's sampling cannot see on-chip contention, and VIO's many
    small kernels make its overhead unjustifiable.
    """
    r = E.run_fig12(jobs=jobs, cache_dir=cache_dir)
    even, dyn = r.mean_speedup("fg-even"), r.mean_speedup("warped-slicer")
    return ([("EVEN mean speedup >= Dynamic's", even, ">=", dyn),
             ("EVEN mean speedup > MPS", even, ">", 1.0),
             ("Dynamic mean speedup > MPS", dyn, ">", 1.0),
             ("Dynamic VIO-pair speedup < EVEN's", _mean_over(r, "VIO", "warped-slicer"),
              "<", _mean_over(r, "VIO", "fg-even")),
             ("EVEN NN-pair speedup > MPS", _mean_over(r, "NN", "fg-even"), ">", 1.0)],
            _pair_lines(r))


def _run_fig13(jobs: int = 1, cache_dir: Optional[str] = None) -> Row:
    """Fig 13: Warped-Slicer's realtime partition ratio (PT + VIO).

    The ratio resets at every kernel launch / drawcall; register limits
    keep occupancy below 100%.  Graphics vs compute occupancy is summed
    over the last three quarters of the run.
    """
    r = E.run_fig13(jobs=jobs, cache_dir=cache_dir)
    mid = r.occupancy[len(r.occupancy) // 4:]
    return ([("sampling phases", r.samples_taken, ">=", 5),
             ("occupancy samples", len(r.occupancy), ">", 0),
             ("graphics occupancy > compute's",
              sum(g for _, g, _ in mid), ">", sum(c for _, _, c in mid)),
             ("peak total occupancy",
              max((g + c for _, g, c in r.occupancy), default=0.0), "<=", 1.0)],
            ["  cycle %d -> %.3f" % d for d in r.decisions])


def _run_fig14(jobs: int = 1, cache_dir: Optional[str] = None) -> Row:
    """Fig 14: TAP L2 partitioning vs MiG vs MPS (RTX 3070).

    TAP partitions sets inside every shared bank, MiG whole banks; the
    pairs are bandwidth-bound, so MiG loses L2 bandwidth.
    """
    r = E.run_fig14(jobs=jobs, cache_dir=cache_dir)
    tap, mig = r.mean_speedup("tap"), r.mean_speedup("mig")
    losses, pairs = sum(d["mig"] < 1.0 for d in r.normalized().values()), len(r.cycles)
    return ([("TAP mean speedup > MiG's", tap, ">", mig),
             ("|TAP mean speedup - MPS|", abs(tap - 1.0), "<", 0.08),
             ("MiG mean speedup < MPS", mig, "<", 1.0),
             ("MiG loses on at least half the pairs, rounded down",
              losses, ">=", pairs // 2),
             ("MiG loses on most pairs", losses, ">", pairs / 2)],
            _pair_lines(r))


def _run_fig15() -> Row:
    """Fig 15: normalised L2 composition under TAP (Sponza PBR + Hologram).

    HOLO is compute-bound; pipeline and texture data share the rendering
    stream's allocation.
    """
    r = E.run_fig15()
    ratio = r.final_ratio or {}  # None: TAP never repartitioned
    gfx, holo = ratio.get(GRAPHICS_STREAM, 0), ratio.get(COMPUTE_STREAM, 0)
    share, compute_share = r.mean_graphics_share, r.mean_compute_share
    return ([("graphics L2 share", share, ">", 0.5),
             ("graphics L2 share > 2x compute's", share, ">", 2 * compute_share),
             ("TAP repartitions", len(ratio), ">", 0),
             ("graphics sets/bank > HOLO's", gfx, ">", holo),
             ("HOLO sets/bank <= max(2, graphics/4)", holo, "<=", max(2, gfx // 4))],
            ["final ratio %s" % r.final_ratio])


def _run_ablation_pipeline() -> Row:
    """Ablations of the pipeline's design choices (Section III).

    Each flips one modelling decision: early-Z, the ITR in-flight kernel
    window, the ITR tile size, a depth pre-pass on 4-layer back-to-front
    overdraw, BC1/BC7 texture compression and the vertex-batch size.
    """
    def render(code, **cfg):
        scene = build_scene(code)
        pipe = GraphicsPipeline(scene.textures, config=PipelineConfig(**cfg))
        return pipe.render_frame(scene.draws, scene.camera, *resolution("2k"))

    def fragments(frame):
        return sum(d.fragments for d in frame.draw_stats)

    frags = {z: fragments(render("SPL", early_z=z)) for z in (True, False)}

    kernels = CRISP(RTX_3070_NANO).trace_scene("SPH", "2k").kernels
    window = {}
    for inflight in (1, 2, 4, 8):
        gpu = GPU(RTX_3070_NANO)
        gpu.add_stream(GRAPHICS_STREAM, kernels).max_inflight = inflight
        window[inflight] = gpu.run().cycles

    tiles = {t: float(np.mean([n for d in render("SPL", tile_size=t).draw_stats
                               for n in d.tex_lines_per_cta]))
             for t in (4, 16, 64)}

    layers = [DrawCall(box_mesh((8, 8, 0.1), center=(0, 0, 3.0 - i * 1.2),
                                name="q%d" % i),
                       texture_slots=["tex"], name="layer%d" % i)
              for i in range(4)]
    prepass = {on: GraphicsPipeline(
        {"tex": Texture2D("tex", checkerboard(64))},
        config=PipelineConfig(depth_prepass=on)).render_frame(
            layers, Camera(eye=(0, 0, -6), target=(0, 0, 0)), 96, 54)
        for on in (False, True)}

    mesh = build_scene("SPL").draws[0].mesh
    comp = {}  # format -> (footprint KB, TEX transactions)
    for fmt in ("none", "bc7", "bc1"):
        tex = Texture2D("tex", checkerboard(128), compression=fmt)
        frame = GraphicsPipeline({"tex": tex}).render_frame(
            [DrawCall(mesh, texture_slots=["tex"])], Camera(eye=(0, 2, -6)),
            192, 108)
        comp[fmt] = (tex.total_bytes // 1024, frame.tex_transactions)

    rock = next(d for d in build_scene("IT").draws if d.instances is not None)
    inv = {bs: total_shader_invocations(build_batches(rock.mesh.indices, bs))
           for bs in (8, 32, 96, 384)}

    no_pre, pre = (fragments(prepass[on]) for on in (False, True))
    claims = [("SPL fragments without early-Z > with", frags[False], ">", frags[True]),
              ("SPH cycles, serial kernels > 4 in flight", window[1], ">", window[4]),
              ("SPH cycles, 8 in flight <= 2 in flight", window[8], "<=", window[2]),
              ("tile-size spread of mean TEX lines/CTA (x)",
               max(tiles.values()) / min(tiles.values()), ">", 1.2),
              ("mean TEX lines/CTA, 4-px tiles < 16-px", tiles[4], "<", tiles[16]),
              ("fragments with depth pre-pass < half without", pre, "<", no_pre * 0.5),
              ("BC1 footprint KB < BC7's", comp["bc1"][0], "<", comp["bc7"][0]),
              ("BC7 footprint KB < uncompressed", comp["bc7"][0], "<", comp["none"][0]),
              ("BC1 TEX transactions <= uncompressed", comp["bc1"][1], "<=",
               comp["none"][1]),
              ("IT rock VS invocations, batch 8 > batch 96", inv[8], ">", inv[96]),
              ("IT rock VS invocations, batch 96 >= batch 384", inv[96], ">=", inv[384])]
    lines = ["SPL fragments: early-Z on %d, off %d (%+.1f%%)"
             % (frags[True], frags[False], (frags[False] / frags[True] - 1) * 100)]
    lines += ["SPH max_inflight=%d: %7d cycles (%.2fx vs serial)"
              % (n, c, window[1] / c) for n, c in window.items()]
    lines += ["SPL tile %3dpx: mean %.2f TEX lines/CTA" % tm for tm in tiles.items()]
    lines += ["4-layer overdraw, prepass=%-5s: fragments %6d, instructions %7d"
              % (on, fragments(f), f.total_instructions) for on, f in prepass.items()]
    lines += ["texture %-4s: footprint %5d KB, TEX transactions %6d" % ((fmt,) + v)
              for fmt, v in comp.items()]
    lines += ["IT rock batch %3d: %6d VS invocations" % bn for bn in inv.items()]
    return claims, lines


def _run_ablation_scaling() -> Row:
    """Machine scaling: SM count, DRAM bandwidth and L2 bank count on one
    SPH @ 4k frame (traced once), and sectored vs line-granular L1 on a
    strided kernel.

    Fig 14's bandwidth-bound claim only means something if the model
    exposes these limits; fewer L2 banks is the MiG mechanism.
    """
    def run(kernels, **changes):
        """(cycles, GPU) of ``kernels`` on RTX_3070_MINI with ``changes``."""
        gpu = GPU(RTX_3070_MINI.replace(**changes))
        gpu.add_stream(GRAPHICS_STREAM, kernels)
        return gpu.run().cycles, gpu

    frame = CRISP(RTX_3070_MINI).trace_scene("SPH", "4k").kernels
    sms = {n: run(frame, name="s%d" % n, num_sms=n)[0] for n in (1, 2, 4, 8)}
    bw = {b: run(frame, name="bw%d" % b, dram_bandwidth_gbps=b)[0]
          for b in (28.0, 112.0, 448.0)}
    l2 = CacheConfig(size_bytes=512 * 1024, assoc=16, hit_latency=120)
    banks = {n: run(frame, name="b%d" % n, l2=l2, l2_banks=n)[0]
             for n in (1, 4, 8)}
    dram = {}
    for label, sector in (("line-granular", 0), ("sectored-32B", 32)):
        buf = DeviceMemory(region=14).buffer("x", 1 << 22)
        sparse = KernelBuilder("sparse", 16, 128).load(buf, "strided").fp(4).build()
        _, gpu = run([sparse], name=label, l1=CacheConfig(
            size_bytes=128 * 1024, assoc=8, hit_latency=30, sector_size=sector))
        dram[label] = gpu.l2.dram.aggregate_bytes()

    claims = [("SPH cycles, 2 SMs < 1 SM", sms[2], "<", sms[1]),
              ("SPH cycles, 4 SMs < 2 SMs", sms[4], "<", sms[2]),
              ("4->8 SM speedup", sms[4] / sms[8], ">=", 1.0),
              ("4->8 SM speedup <= 1->2 SM speedup", sms[4] / sms[8], "<=",
               sms[1] / sms[2]),
              ("SPH cycles, 28 GB/s DRAM > 448 GB/s", bw[28.0], ">", bw[448.0]),
              ("strided-kernel DRAM bytes, sectored L1 < half line-granular",
               dram["sectored-32B"], "<", dram["line-granular"] / 2),
              ("SPH cycles, 1 L2 bank > 8 banks", banks[1], ">", banks[8])]
    lines = ["%2d SMs: %8d cycles (%.2fx vs 1 SM)" % (n, c, sms[1] / c)
             for n, c in sms.items()]
    lines += ["%5.0f GB/s DRAM: %8d cycles" % bc for bc in bw.items()]
    lines += ["%2d L2 banks: %8d cycles" % bc for bc in banks.items()]
    lines += ["strided kernel, %-13s L1: %9d DRAM bytes" % ld for ld in dram.items()]
    return claims, lines


def _run_baselines() -> Row:
    """The counter-baselines the paper argues against.

    Section I: a Teapot-era post-transform vertex cache (32-entry FIFO)
    mispredicts the VS invocations of batch-based hardware on every
    multi-batch draw, in both directions: strips undercount (cross-batch
    reuse hardware no longer does), wide rings overcount (FIFO thrashing
    batch dedup does not suffer).  Section VII: a Hong-Kim-style analytic
    model gives one policy-blind estimate where the cycle model separates
    the partition policies (PT + HOLO on Jetson Orin).
    """
    errors, lines = [], []
    for code in scene_codes():
        for d in build_scene(code).draws:
            batch = hwref.reference_vs_invocations(d.mesh.indices)
            if batch <= 96:
                continue  # fits one batch: the models agree trivially
            vcache = vertex_cache_invocations(d.mesh.indices, 32)
            errors.append(vcache / batch - 1)
            lines.append("%-4s %-12s batch-based %6d, vertex cache %6d (%+.1f%%)"
                         % (code, d.name, batch, vcache, errors[-1] * 100))
    mean_error = float(np.mean(np.abs(errors))) if errors else 0.0

    cfg = JETSON_ORIN_MINI
    crisp = CRISP(cfg)
    streams = {GRAPHICS_STREAM: crisp.trace_scene("PT", "4k").kernels,
               COMPUTE_STREAM: crisp.trace_compute("HOLO")}
    analytic = estimate_concurrent(streams, cfg)
    sim = {p: simulate(config=cfg, streams=streams, policy=p).total_cycles
           for p in ("mps", "mig", "fg-even")}
    ratios = [c / analytic for c in sim.values()]
    single = estimate_cycles(streams[GRAPHICS_STREAM], cfg)

    claims = [("multi-batch draws compared", len(errors), ">", 0),
              ("draws the vertex cache mispredicts by > 3%",
               sum(abs(e) > 0.03 for e in errors), "==", len(errors)),
              ("draws the vertex cache undercounts", sum(e < 0 for e in errors), ">", 0),
              ("draws the vertex cache overcounts", sum(e > 0 for e in errors), ">", 0),
              ("vertex-cache mean |error|", mean_error, ">", 0.05),
              ("cycle-model spread over policies (cycles)",
               max(sim.values()) - min(sim.values()), ">", 0),
              ("policies with cycle/analytic ratio > 0.1",
               sum(r > 0.1 for r in ratios), "==", len(ratios)),
              ("policies with cycle/analytic ratio < 30",
               sum(r < 30 for r in ratios), "==", len(ratios))]
    lines.append("PT+HOLO analytic estimate (any policy): %.0f cycles" % analytic)
    lines += ["PT+HOLO cycle model under %-8s: %8d cycles (%.2fx analytic)"
              % (p, c, c / analytic) for p, c in sim.items()]
    lines.append("PT analytic terms: compute=%.0f memory=%.0f MWP=%.1f CWP=%.1f"
                 % (single.compute_cycles, single.memory_cycles, single.mwp,
                    single.cwp))
    return claims, lines


def _run_ext_3way() -> Row:
    """More than two workloads (Section IV: "easily extended"): a full XR
    frame, SPH rendering + VIO tracking + asynchronous timewarp, shares a
    Jetson Orin three ways under inter-SM (MPS) and intra-SM (FG)
    partitioning; every stream completes with separable stats."""
    cfg = JETSON_ORIN_MINI
    streams = {0: CRISP(cfg).trace_scene("SPH", "2k").kernels,
               1: build_vio_kernels(frames=2), 2: build_timewarp_kernels(frames=2)}
    ids = sorted(streams)
    completed = timed = 0
    lines = []
    for name, policy in (("mps-3way", MPSPolicy.even(cfg.num_sms, ids)),
                         ("fg-3way", FGEvenPolicy.even(ids))):
        stats = simulate(config=cfg, streams=streams, policy=policy).stats
        per = [stats.stream_cycles(sid) for sid in ids]
        completed += sum(stats.stream(sid).kernels_completed == len(streams[sid])
                         for sid in ids)
        timed += sum(c > 0 for c in per)
        lines.append("%-9s total=%7d  render=%7d  vio=%6d  atw=%6d"
                     % ((name, stats.cycles) + tuple(per)))
    runs = 2 * len(ids)
    return ([("streams that ran every kernel, over both policies", completed, "==", runs),
             ("streams with per-stream cycles > 0, over both policies", timed, "==", runs)],
            lines)


def _run_ext_qos() -> Row:
    """Open-loop QoS (Section VIII's future work) on the flood scenario,
    seed 7: an NN tenant floods the GPU while the VIO tenant's sensor rate
    steps up mid-run.  The adaptive quota controller meets the VIO SLO
    that every static policy (MPS, MiG, TAP, Warped-Slicer) misses, and
    intervenes without thrashing."""
    doc = qos_campaign.run_campaign(scenarios=["flood"], seed=7)
    rows = {r["policy"]: r for r in doc["rows"]}
    adaptive = rows.pop("adaptive")
    return ([("adaptive meets the vio SLO", int(adaptive["clients"]["vio"]["met"]),
              "==", 1),
             ("static policies that meet the vio SLO",
              sum(r["clients"]["vio"]["met"] for r in rows.values()), "==", 0),
             ("adaptive interventions", adaptive["interventions"], ">", 0),
             ("adaptive interventions", adaptive["interventions"], "<=", 32)],
            render_qos_campaign(doc).splitlines())


#: Experiment id -> row.  Rows backed by the campaign runner (fig12/13/14)
#: take ``jobs`` and ``cache_dir``; every row runs with its defaults.
RUNNERS: Dict[str, Callable[..., Row]] = {
    "table1": _run_table1,
    "table2": _run_table2,
    "fig3": _run_fig3,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "fig12": _run_fig12,
    "fig13": _run_fig13,
    "fig14": _run_fig14,
    "fig15": _run_fig15,
    "ablation-pipeline": _run_ablation_pipeline,
    "ablation-scaling": _run_ablation_scaling,
    "baselines": _run_baselines,
    "ext-3way": _run_ext_3way,
    "ext-qos": _run_ext_qos,
}


def run_experiment(exp_id: str, **kw) -> ExperimentRecord:
    """Run one row, timed."""
    start = time.time()
    claims, lines = RUNNERS[exp_id](**kw)
    return ExperimentRecord(exp_id, claims, time.time() - start, lines)


def reproduce_all(out_dir: str,
                  only: Optional[List[str]] = None) -> List[ExperimentRecord]:
    """Run the requested experiments, write RESULTS.md, return records."""
    ids = list(only) if only else list(RUNNERS)
    unknown = [i for i in ids if i not in RUNNERS]
    if unknown:
        raise KeyError("unknown experiment ids: %s (known: %s)"
                       % (unknown, sorted(RUNNERS)))
    os.makedirs(out_dir, exist_ok=True)
    records = [run_experiment(exp_id) for exp_id in ids]
    with open(os.path.join(out_dir, "RESULTS.md"), "w") as f:
        f.write("# Reproduction results\n\n")
        f.write("| experiment | outcome | claims | seconds |\n")
        f.write("|---|---|---|---|\n")
        for rec in records:
            f.write("| %s | %s | %s | %.1f |\n"
                    % (rec.exp_id, rec.outcome, rec.headline, rec.seconds))
        for rec in records:
            f.write("\n## %s\n\n```\n%s\n```\n"
                    % (rec.exp_id, "\n".join(rec.lines + [rec.report()])))
    return records
