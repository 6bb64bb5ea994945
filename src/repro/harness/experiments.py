"""Experiment runners: one per table/figure of the paper.

Each function is self-contained — it builds its workloads, runs the
simulations, and returns a plain-data result object the benchmarks print
and assert on.  Default configurations use the mini presets so every
experiment completes in seconds; the experiment-to-module mapping lives in
DESIGN.md's experiment index and measured-vs-paper numbers are recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import (
    concordance,
    correlation_percent,
    graphics_vs_compute,
    mape,
    mean_fraction,
    mode,
)
from ..analysis.working_set import binned_histogram
from ..api import simulate
from ..compute import build_compute_workload
from ..config import GPUConfig, JETSON_ORIN_MINI, RTX_3070_MINI, RTX_3070_NANO
from ..core import (
    COMPUTE_STREAM,
    CRISP,
    GRAPHICS_STREAM,
    TAPPolicy,
)
from ..graphics import Texture2D, checkerboard
from ..isa import DataClass, KernelTrace
from ..scenes import build_scene, scene_codes
from ..timing import GPU
from . import hwref

#: Workload pairs evaluated in the concurrency case studies.
PAIR_SCENES = ("SPH", "PT", "SPL")
PAIR_COMPUTE = ("VIO", "HOLO", "NN")


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def run_table2() -> Dict[str, List[Tuple[str, object]]]:
    """Table II: the two machine configurations."""
    from ..config import JETSON_ORIN, RTX_3070
    return {
        "JetsonOrin": JETSON_ORIN.summary_rows(),
        "RTX3070": RTX_3070.summary_rows(),
    }


# ---------------------------------------------------------------------------
# Fig 3 — vertex shader invocations vs batch size
# ---------------------------------------------------------------------------

@dataclass
class Fig3Result:
    #: batch size -> correlation (%) between sim and reference counts.
    correlation_by_batch: Dict[int, float]
    #: per-draw (scene, draw, sim invocations, reference invocations) at 96.
    rows: List[Tuple[str, str, int, int]]

    @property
    def best_batch(self) -> int:
        return max(self.correlation_by_batch,
                   key=lambda b: self.correlation_by_batch[b])


def run_fig3(batch_sizes: Sequence[int] = (8, 32, 96, 192),
             codes: Optional[Sequence[str]] = None) -> Fig3Result:
    """Vertex batching correlation sweep (best at batch = 96)."""
    from ..graphics.vertex_batch import build_batches, total_shader_invocations
    codes = list(codes or scene_codes())
    draws = []
    for code in codes:
        scene = build_scene(code)
        for d in scene.draws:
            draws.append((code, d))
    correlations: Dict[int, float] = {}
    rows: List[Tuple[str, str, int, int]] = []
    for bs in batch_sizes:
        sim_counts = []
        ref_counts = []
        for code, d in draws:
            batches = build_batches(d.mesh.indices, bs)
            sim = total_shader_invocations(batches) * d.instance_count
            ref = hwref.reference_vs_invocations(d.mesh.indices) * d.instance_count
            sim_counts.append(sim)
            ref_counts.append(ref)
            if bs == 96:
                rows.append((code, d.name, sim, ref))
        # Concordance: penalises the inflation/deflation wrong batch sizes
        # introduce, which plain Pearson would wash out.
        correlations[bs] = concordance(ref_counts, sim_counts) * 100.0
    return Fig3Result(correlations, rows)


# ---------------------------------------------------------------------------
# Fig 6 — frame time correlation vs the silicon reference
# ---------------------------------------------------------------------------

@dataclass
class Fig6Result:
    #: (scene, res, simulated cycles, reference cycles)
    rows: List[Tuple[str, str, int, float]]
    correlation: float

    def scaling(self, code: str) -> float:
        """Simulated 4K/2K frame-time ratio for one scene."""
        by = {(c, r): cyc for c, r, cyc, _ in self.rows}
        return by[(code, "4k")] / by[(code, "2k")]


def run_fig6(config: Optional[GPUConfig] = None,
             codes: Optional[Sequence[str]] = None,
             resolutions: Sequence[str] = ("2k", "4k")) -> Fig6Result:
    # The nano preset restores the paper's pixels-per-SM regime for the
    # scaled-down frames (see config.presets.RTX_3070_NANO).
    config = config or RTX_3070_NANO
    codes = list(codes or scene_codes())
    crisp = CRISP(config)
    rows: List[Tuple[str, str, int, float]] = []
    for code in codes:
        for res in resolutions:
            frame = crisp.trace_scene(code, res)
            stats = simulate(config=config,
                             streams={GRAPHICS_STREAM: frame.kernels}).stats
            ref = hwref.reference_frame_cycles(
                frame.kernels, config, "%s@%s" % (code, res))
            rows.append((code, res, stats.cycles, ref))
    if len(rows) >= 2:
        corr = correlation_percent([r[3] for r in rows], [r[2] for r in rows])
    else:
        corr = float("nan")
    return Fig6Result(rows, corr)


# ---------------------------------------------------------------------------
# Fig 7 — mip-level request merging on a 4x4 texture
# ---------------------------------------------------------------------------

@dataclass
class Fig7Result:
    loads_level0: int
    loads_level1: int


def run_fig7() -> Fig7Result:
    """Four texel loads at mip 0 merge into one at mip 1 (Fig 7)."""
    tex = Texture2D("demo4x4", checkerboard(4, squares=2))
    from ..memory.address import AddressAllocator
    tex.place(AddressAllocator(region=9))
    # Four samples inside the [0, 0.5) x [0, 0.5) quadrant.
    u = np.array([0.05, 0.30, 0.05, 0.30])
    v = np.array([0.05, 0.05, 0.30, 0.30])
    _, a0 = tex.sample_nearest(u, v, lod=np.zeros(4))
    _, a1 = tex.sample_nearest(u, v, lod=np.ones(4))
    return Fig7Result(len(np.unique(a0)), len(np.unique(a1)))


# ---------------------------------------------------------------------------
# Fig 9 — L1 texture traffic: LoD on vs off
# ---------------------------------------------------------------------------

@dataclass
class Fig9Result:
    #: per-draw rows: (scene, draw, tx lod-on, tx lod-off, reference)
    rows: List[Tuple[str, str, int, int, float]]
    mape_lod_on: float
    mape_lod_off: float

    @property
    def mape_reduction(self) -> float:
        return self.mape_lod_off / max(self.mape_lod_on, 1e-9)


def run_fig9(codes: Optional[Sequence[str]] = None, res: str = "2k"
             ) -> Fig9Result:
    codes = list(codes or scene_codes())
    crisp = CRISP()
    rows: List[Tuple[str, str, int, int, float]] = []
    for code in codes:
        frame_on = crisp.trace_scene(code, res, lod_enabled=True)
        frame_off = crisp.trace_scene(code, res, lod_enabled=False)
        for d_on, d_off in zip(frame_on.draw_stats, frame_off.draw_stats):
            if d_on.tex_transactions == 0:
                continue
            ref = hwref.reference_tex_transactions(
                "%s/%s" % (code, d_on.name), d_on.tex_transactions)
            rows.append((code, d_on.name, d_on.tex_transactions,
                         d_off.tex_transactions, ref))
    refs = [r[4] for r in rows]
    m_on = mape(refs, [r[2] for r in rows])
    m_off = mape(refs, [r[3] for r in rows])
    return Fig9Result(rows, m_on, m_off)


# ---------------------------------------------------------------------------
# Fig 10 — TEX cache lines per CTA histogram
# ---------------------------------------------------------------------------

@dataclass
class Fig10Result:
    draw_name: str
    lines_per_cta: List[int]
    histogram: List[Tuple[int, int]]
    mode: int
    mean: float


def run_fig10(code: str = "SPL", res: str = "2k",
              draw_index: int = 0) -> Fig10Result:
    crisp = CRISP()
    frame = crisp.trace_scene(code, res)
    stats = [d for d in frame.draw_stats if d.tex_lines_per_cta]
    if draw_index >= len(stats):
        raise IndexError("scene %s has %d texturing draws" % (code, len(stats)))
    d = stats[draw_index]
    lines = d.tex_lines_per_cta
    return Fig10Result(
        draw_name=d.name,
        lines_per_cta=list(lines),
        histogram=binned_histogram(lines),
        mode=mode(lines),
        mean=sum(lines) / len(lines),
    )


# ---------------------------------------------------------------------------
# Fig 11 — L2 composition: PBR vs basic shading
# ---------------------------------------------------------------------------

@dataclass
class Fig11Result:
    #: scene code -> mean texture fraction of occupied L2.
    texture_share: Dict[str, float]
    #: scene code -> overall L2 hit rate.
    l2_hit_rate: Dict[str, float]
    #: scene code -> (cycle, {class: lines}) snapshots.
    snapshots: Dict[str, list]


def run_fig11(codes: Sequence[str] = ("PT", "SPL"),
              config: Optional[GPUConfig] = None, res: str = "2k",
              sample_interval: int = 800) -> Fig11Result:
    config = config or RTX_3070_MINI
    crisp = CRISP(config)
    tex_share: Dict[str, float] = {}
    hit: Dict[str, float] = {}
    snaps: Dict[str, list] = {}
    for code in codes:
        frame = crisp.trace_scene(code, res)
        gpu = GPU(config, sample_interval=sample_interval)
        gpu.add_stream(GRAPHICS_STREAM, frame.kernels)
        stats = gpu.run()
        tex_share[code] = mean_fraction(stats.l2_snapshots, DataClass.TEXTURE)
        l2 = gpu.l2.aggregate_stats()
        hit[code] = l2.hit_rate
        snaps[code] = stats.l2_snapshots
    return Fig11Result(tex_share, hit, snaps)


# ---------------------------------------------------------------------------
# Concurrency studies (Fig 12-15)
# ---------------------------------------------------------------------------

#: Compute-workload sizing for the pairing studies: each workload is scaled
#: so it runs for a comparable span as one rendering frame, as the paper's
#: co-executed traces do.  Plain argument dicts so the sizing travels
#: inside declarative campaign job specs.
PAIR_COMPUTE_ARGS: Dict[str, Dict[str, object]] = {
    "VIO": {"frames": 2},
    "HOLO": {"passes": 3},
    "NN": {"coverage": 1.0, "inferences": 3},
}


def _pair_streams(crisp: CRISP, scene: str, compute: str, res: str = "2k"
                  ) -> Dict[int, List[KernelTrace]]:
    frame = crisp.trace_scene(scene, res)
    kernels = build_compute_workload(
        compute, **PAIR_COMPUTE_ARGS.get(compute, {}))
    return {GRAPHICS_STREAM: frame.kernels, COMPUTE_STREAM: kernels}


def _pair_job(scene: str, compute: str, policy: str, config: GPUConfig,
              res: str, sample_interval: Optional[int] = None) -> "Job":
    """One concurrency-study point as a campaign job spec."""
    from ..campaign import Job
    return Job(scene=scene, compute=compute,
               compute_args=PAIR_COMPUTE_ARGS.get(compute),
               policy=policy, config=config, res=res,
               sample_interval=sample_interval,
               label="%s+%s/%s" % (scene, compute, policy))


@dataclass
class PolicyComparison:
    """Total-time comparison of several policies over workload pairs."""

    #: pair name -> {policy: total cycles}
    cycles: Dict[str, Dict[str, int]] = field(default_factory=dict)
    baseline: str = "mps"

    def normalized(self) -> Dict[str, Dict[str, float]]:
        """Speedup over the baseline policy (higher is better)."""
        out: Dict[str, Dict[str, float]] = {}
        for pair, by_policy in self.cycles.items():
            base = by_policy[self.baseline]
            out[pair] = {pol: base / c for pol, c in by_policy.items()}
        return out

    def mean_speedup(self, policy: str) -> float:
        norm = self.normalized()
        vals = [norm[p][policy] for p in norm]
        return float(np.exp(np.mean(np.log(vals))))


def run_policy_comparison(
    policies: Sequence[str],
    config: GPUConfig,
    scenes: Sequence[str] = PAIR_SCENES,
    compute: Sequence[str] = PAIR_COMPUTE,
    res: str = "4k",
    baseline: str = "mps",
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    runner=None,
) -> PolicyComparison:
    """Scene x compute x policy sweep through the campaign runner.

    ``jobs`` fans the sweep out over worker processes; ``cache_dir`` (or a
    pre-built ``runner``) turns re-runs into cache hits.  Each scene x
    compute pair is traced once and every policy simulates on those
    streams.  Results are identical to running each point on its own:
    job ordering is deterministic and simulation never changes a trace.
    """
    from ..campaign import CampaignRunner
    if runner is None:
        runner = CampaignRunner(workers=jobs, cache_dir=cache_dir)
    specs = [
        _pair_job(scene, comp, pol_name, config, res)
        for scene in scenes
        for comp in compute
        for pol_name in policies
    ]
    campaign = runner.run(specs)
    failures = campaign.failures()
    if failures:
        raise RuntimeError("policy sweep failed: %s"
                           % "; ".join("%s (%s)" % (f.label, f.status)
                                       for f in failures))
    result = PolicyComparison(baseline=baseline)
    it = iter(campaign.results)
    for scene in scenes:
        for comp in compute:
            pair_name = "%s+%s" % (scene, comp)
            result.cycles[pair_name] = {
                pol_name: next(it).total_cycles for pol_name in policies}
    return result


def run_fig12(config: Optional[GPUConfig] = None, **kw) -> PolicyComparison:
    """Warped-Slicer study on the Orin: MPS vs FG-EVEN vs Dynamic."""
    return run_policy_comparison(
        ("mps", "fg-even", "warped-slicer"),
        config or JETSON_ORIN_MINI, **kw)


def run_fig14(config: Optional[GPUConfig] = None, **kw) -> PolicyComparison:
    """TAP study on the RTX 3070: MPS vs MiG vs TAP."""
    return run_policy_comparison(
        ("mps", "mig", "tap"), config or RTX_3070_MINI, **kw)


@dataclass
class Fig13Result:
    #: (cycle, graphics occupancy fraction, compute occupancy fraction)
    occupancy: List[Tuple[int, float, float]]
    #: (cycle, chosen graphics fraction) warped-slicer decisions.
    decisions: List[Tuple[int, float]]
    samples_taken: int


def run_fig13(scene: str = "PT", compute: str = "VIO",
              config: Optional[GPUConfig] = None, res: str = "4k",
              sample_interval: int = 400, jobs: int = 1,
              cache_dir: Optional[str] = None, runner=None) -> Fig13Result:
    from ..campaign import CampaignRunner
    from ..timing import GPUStats
    config = config or JETSON_ORIN_MINI
    if runner is None:
        runner = CampaignRunner(workers=jobs, cache_dir=cache_dir)
    job = _pair_job(scene, compute, "warped-slicer", config, res,
                    sample_interval=sample_interval)
    campaign = runner.run([job])
    result = campaign.results[0]
    if not result.ok:
        raise RuntimeError("fig13 job failed: %s" % result.error)
    stats = GPUStats.from_dict(result.stats)
    occ = [
        (s.cycle, s.fraction(GRAPHICS_STREAM), s.fraction(COMPUTE_STREAM))
        for s in stats.occupancy_trace
    ]
    decisions = [tuple(d) for d in result.extras.get("decisions", [])]
    return Fig13Result(occ, decisions, result.extras.get("samples_taken", 0))


@dataclass
class Fig15Result:
    #: (cycle, graphics L2 fraction, compute L2 fraction)
    composition: List[Tuple[int, float, float]]
    #: final TAP sets-per-bank decision, {stream: sets}.
    final_ratio: Optional[Dict[int, int]]
    mean_graphics_share: float
    mean_compute_share: float


def run_fig15(scene: str = "SPH", compute: str = "HOLO",
              config: Optional[GPUConfig] = None, res: str = "2k",
              sample_interval: int = 800) -> Fig15Result:
    config = config or RTX_3070_MINI
    crisp = CRISP(config)
    streams = _pair_streams(crisp, scene, compute, res)
    policy = TAPPolicy.even(config.num_sms, sorted(streams))
    gpu = GPU(config, policy=policy, sample_interval=sample_interval)
    for sid, ks in sorted(streams.items()):
        gpu.add_stream(sid, ks)
    stats = gpu.run()
    comp = graphics_vs_compute(stats.l2_snapshots)
    gfx = [g for _, g, _ in comp if g or _]
    cmp_ = [c for _, _, c in comp]
    return Fig15Result(
        composition=comp,
        final_ratio=policy.current_ratio(),
        mean_graphics_share=float(np.mean([g for _, g, c in comp])) if comp else 0.0,
        mean_compute_share=float(np.mean(cmp_)) if cmp_ else 0.0,
    )
