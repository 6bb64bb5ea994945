"""Tests for the extension workloads (timewarp, DLSS-style upscaler)."""


from repro.compute import (
    build_compute_workload,
    build_timewarp_kernels,
    build_upscaler_kernels,
)
from repro.api import simulate as api_simulate
from repro.config import JETSON_ORIN_MINI
from repro.core import CRISP
from repro.isa import Op
from repro.timing import simulate


class TestTimewarp:
    def test_one_kernel_per_frame(self):
        assert len(build_timewarp_kernels(frames=1)) == 1
        assert len(build_timewarp_kernels(frames=3)) == 3

    def test_gather_pattern_present(self):
        k = build_timewarp_kernels()[0]
        # The reprojection gather produces scattered (multi-line) loads.
        max_tx = max(i.mem.num_transactions
                     for cta in k.ctas for w in cta.warps for i in w
                     if i.op is Op.LDG)
        assert max_tx > 4

    def test_framebuffer_aliasing(self):
        base = 123 * 128
        k = build_timewarp_kernels(framebuffer_base=base)[0]
        lines = set()
        for cta in k.ctas:
            for w in cta.warps:
                for i in w:
                    if i.op is Op.LDG and i.mem.num_transactions > 1:
                        lines.update(i.mem.lines)
        span = 96 * 64 * 4
        assert all(base <= l < base + span + 128 for l in lines)

    def test_runs_on_timing_model(self):
        stats = simulate(JETSON_ORIN_MINI, {0: build_timewarp_kernels()})
        assert stats.stream(0).kernels_completed == 1

    def test_latency_critical_short(self):
        """ATW must be far shorter than a rendering frame (its whole point)."""
        crisp = CRISP(JETSON_ORIN_MINI)
        frame_cycles = api_simulate(
            config=crisp.config,
            streams={0: crisp.trace_scene("SPL", "2k").kernels},
        ).stats.cycles
        atw_cycles = api_simulate(
            config=crisp.config,
            streams={0: build_timewarp_kernels()}).stats.cycles
        assert atw_cycles < frame_cycles / 3


class TestUpscaler:
    def test_three_kernels_per_frame(self):
        assert len(build_upscaler_kernels(frames=1)) == 3
        assert len(build_upscaler_kernels(frames=2)) == 6

    def test_tensor_dominated(self):
        total = {}
        for k in build_upscaler_kernels():
            for op, n in k.instruction_mix().items():
                total[op] = total.get(op, 0) + n
        assert total[Op.HMMA] > total.get(Op.MUFU_SIN, 0)
        assert total[Op.HMMA] >= total[Op.FFMA] * 0.5

    def test_uses_shared_memory_tiling(self):
        ks = build_upscaler_kernels()
        assert any(k.shared_mem_per_cta >= 8 * 1024 for k in ks)
        assert any(Op.BAR in k.instruction_mix() for k in ks)

    def test_registered_in_workload_registry(self):
        assert build_compute_workload("DLSS")
        assert build_compute_workload("ATW")

    def test_complementary_with_rendering(self):
        """DLSS (tensor) + rendering (FP) share an SM with little unit
        overlap: FG sharing must not collapse either stream."""
        crisp = CRISP(JETSON_ORIN_MINI)
        frame = crisp.trace_scene("SPL", "4k")
        dlss = build_upscaler_kernels(frames=2)
        streams = {0: frame.kernels, 1: dlss}
        pair = api_simulate(config=crisp.config, streams=streams,
                            policy="fg-even").stats
        mps = api_simulate(config=crisp.config, streams=streams,
                           policy="mps").stats
        # Intra-SM sharing with complementary units is at worst mildly
        # slower, typically faster, than dedicating SMs.
        assert pair.cycles < mps.cycles * 1.15
