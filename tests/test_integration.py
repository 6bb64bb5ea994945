"""Integration tests: the full platform end to end.

These exercise the paper's headline capability — rendering and CUDA kernels
executing concurrently on one GPU model under every partition policy — plus
small versions of the case-study experiments.
"""

import numpy as np
import pytest

from repro.api import simulate
from repro.config import JETSON_ORIN_MINI
from repro.core import (
    COMPUTE_STREAM,
    CRISP,
    GRAPHICS_STREAM,
    POLICY_NAMES,
    make_policy,
)
from repro.core.platform import PairResult
from repro.isa import DataClass, ShaderKind
from repro.timing import GPU


def run_pair(crisp, graphics, compute, policy):
    """The old CRISP.run_pair convenience, expressed via repro.api."""
    streams = {GRAPHICS_STREAM: list(graphics), COMPUTE_STREAM: list(compute)}
    pol = make_policy(policy, crisp.config, sorted(streams))
    return PairResult(
        simulate(config=crisp.config, streams=streams, policy=pol).stats, pol)


def run_single(crisp, kernels):
    return simulate(config=crisp.config,
                    streams={GRAPHICS_STREAM: list(kernels)}).stats


@pytest.fixture(scope="module")
def crisp():
    return CRISP(JETSON_ORIN_MINI)


@pytest.fixture(scope="module")
def spl_frame(crisp):
    return crisp.trace_scene("SPL", "2k")


@pytest.fixture(scope="module")
def vio_kernels(crisp):
    return crisp.trace_compute("VIO")


class TestPlatformFacade:
    def test_trace_scene_kinds(self, spl_frame):
        kinds = {k.kind for k in spl_frame.kernels}
        assert kinds == {ShaderKind.VERTEX, ShaderKind.FRAGMENT}

    def test_run_single(self, crisp, spl_frame):
        stats = run_single(crisp, spl_frame.kernels)
        assert stats.cycles > 0
        assert stats.stream(GRAPHICS_STREAM).instructions == \
            sum(k.num_instructions for k in spl_frame.kernels)

    def test_policy_factory_covers_all_names(self):
        for name in POLICY_NAMES:
            pol = make_policy(name, JETSON_ORIN_MINI, [0, 1])
            assert pol.name == name or name == "shared"

    def test_policy_factory_unknown(self):
        with pytest.raises(KeyError):
            make_policy("bogus", JETSON_ORIN_MINI, [0, 1])

    @pytest.mark.parametrize("policy", ["mps", "mig", "fg-even",
                                        "warped-slicer", "tap"])
    def test_concurrent_pair_completes_under_every_policy(
            self, crisp, spl_frame, vio_kernels, policy):
        result = run_pair(crisp, spl_frame.kernels, vio_kernels, policy)
        gfx = result.stats.stream(GRAPHICS_STREAM)
        cmp_ = result.stats.stream(COMPUTE_STREAM)
        assert gfx.kernels_completed == len(spl_frame.kernels)
        assert cmp_.kernels_completed == len(vio_kernels)
        assert result.graphics_cycles > 0
        assert result.compute_cycles > 0

    def test_concurrent_execution_overlaps(self, crisp, spl_frame, vio_kernels):
        """Both streams make progress in the same cycle span (the paper's
        core capability)."""
        result = run_pair(crisp, spl_frame.kernels, vio_kernels, "mps")
        gfx = result.stats.stream(GRAPHICS_STREAM)
        cmp_ = result.stats.stream(COMPUTE_STREAM)
        overlap_start = max(gfx.first_issue_cycle, cmp_.first_issue_cycle)
        overlap_end = min(gfx.last_commit_cycle, cmp_.last_commit_cycle)
        assert overlap_end > overlap_start

    def test_concurrent_slower_than_isolated(self, crisp, spl_frame,
                                             vio_kernels):
        iso = run_single(crisp, spl_frame.kernels).cycles
        pair = run_pair(crisp, spl_frame.kernels, vio_kernels, "mps")
        assert pair.total_cycles > iso * 0.8  # sharing cannot be free

    def test_mig_limits_l2_banks(self, crisp, spl_frame, vio_kernels):
        streams = {GRAPHICS_STREAM: spl_frame.kernels,
                   COMPUTE_STREAM: vio_kernels}
        pol = make_policy("mig", JETSON_ORIN_MINI, [0, 1])
        gpu = GPU(JETSON_ORIN_MINI, policy=pol)
        for sid, ks in sorted(streams.items()):
            gpu.add_stream(sid, ks)
        gpu.run()
        by_stream = {}
        for b_idx, bank in enumerate(gpu.l2.banks):
            for stream, st in bank.stats.items():
                if st.accesses:
                    by_stream.setdefault(stream, set()).add(b_idx)
        assert by_stream[GRAPHICS_STREAM].isdisjoint(by_stream[COMPUTE_STREAM])

    def test_lod_toggle_through_facade(self, crisp):
        on = crisp.trace_scene("SPL", "2k", lod_enabled=True)
        off = crisp.trace_scene("SPL", "2k", lod_enabled=False)
        assert off.tex_transactions > on.tex_transactions

    def test_lod_override_keeps_other_pipeline_settings(self):
        """Overriding lod_enabled changes only that field: a bilinear
        pipeline must not fall back to the default nearest filter."""
        from dataclasses import replace

        from repro.graphics.pipeline import GraphicsPipeline, PipelineConfig
        from repro.isa.serialize import traces_equal
        from repro.scenes import build_scene, resolution

        cfg = PipelineConfig(tex_filter="bilinear")
        frame = CRISP(pipeline_config=cfg).trace_scene(
            "SPL", "nano", lod_enabled=False)
        scene = build_scene("SPL")
        pipe = GraphicsPipeline(scene.textures,
                                config=replace(cfg, lod_enabled=False))
        expected = pipe.render_frame(scene.draws, scene.camera,
                                     *resolution("nano"))
        assert traces_equal(frame.kernels, expected.kernels)
        assert np.array_equal(frame.framebuffer.color,
                              expected.framebuffer.color)

    def test_l2_composition_tagged_during_run(self, crisp, spl_frame):
        gpu = GPU(JETSON_ORIN_MINI, sample_interval=500)
        gpu.add_stream(GRAPHICS_STREAM, spl_frame.kernels)
        stats = gpu.run()
        classes = set()
        for _, comp in stats.l2_snapshots:
            classes.update(comp)
        assert DataClass.TEXTURE in classes
        assert DataClass.PIPELINE in classes


class TestExperimentRunnersSmall:
    """Small-parameter versions of the figure runners (full versions are
    the benchmarks)."""

    def test_fig3_small(self):
        from repro.harness.experiments import run_fig3
        r = run_fig3(batch_sizes=(8, 96), codes=("SPL",))
        assert r.correlation_by_batch[96] > r.correlation_by_batch[8]

    def test_fig6_small(self):
        from repro.harness.experiments import run_fig6
        r = run_fig6(codes=("PT",), resolutions=("2k",))
        sim = r.rows[0][2]
        ref = r.rows[0][3]
        assert sim >= ref

    def test_fig7(self):
        from repro.harness.experiments import run_fig7
        r = run_fig7()
        assert r.loads_level0 == 4
        assert r.loads_level1 == 1

    def test_fig9_small(self):
        from repro.harness.experiments import run_fig9
        r = run_fig9(codes=("PT",))
        assert r.mape_lod_off > r.mape_lod_on

    def test_fig10_small(self):
        from repro.harness.experiments import run_fig10
        r = run_fig10("SPL")
        assert r.lines_per_cta
        assert r.mode >= 1

    def test_fig11_small(self):
        from repro.harness.experiments import run_fig11
        r = run_fig11(codes=("PT", "SPL"), config=JETSON_ORIN_MINI)
        assert r.texture_share["PT"] > r.texture_share["SPL"]

    def test_policy_comparison_small(self):
        from repro.harness.experiments import run_policy_comparison
        r = run_policy_comparison(("mps", "fg-even"), JETSON_ORIN_MINI,
                                  scenes=("SPL",), compute=("VIO",),
                                  res="2k")
        norm = r.normalized()
        assert set(norm) == {"SPL+VIO"}
        assert norm["SPL+VIO"]["mps"] == 1.0

    def test_fig13_small(self):
        from repro.harness.experiments import run_fig13
        r = run_fig13("SPL", "VIO", res="2k")
        assert r.samples_taken > 0
        assert r.occupancy

    def test_fig15_small(self):
        from repro.harness.experiments import run_fig15
        r = run_fig15("SPL", "HOLO", config=JETSON_ORIN_MINI)
        assert r.mean_graphics_share > r.mean_compute_share

    def test_table2(self):
        from repro.harness.experiments import run_table2
        t = run_table2()
        assert set(t) == {"JetsonOrin", "RTX3070"}
