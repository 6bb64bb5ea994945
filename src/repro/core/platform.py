"""CRISP platform facade: the library's main entry point.

Ties the pieces together the way Fig 1 does: the Vulkan front-end renders a
frame and produces shader traces; the compute tracer produces CUDA kernel
traces; both are registered as streams on one Accel-Sim-style GPU model and
executed under a chosen partition policy.

Typical use::

    from repro.api import simulate

    crisp = CRISP(JETSON_ORIN_MINI)
    frame = crisp.trace_scene("SPL", "2k")
    vio = crisp.trace_compute("VIO")
    result = simulate(config=crisp.config,
                      streams={GRAPHICS_STREAM: frame.kernels,
                               COMPUTE_STREAM: vio},
                      policy="fg-even")
    print(result.graphics_cycles, result.compute_cycles)
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..compute import build_compute_workload
from ..config import GPUConfig, JETSON_ORIN_MINI
from ..graphics.pipeline import GraphicsPipeline, PipelineConfig
from ..graphics.tracegen import FrameResult
from ..isa import KernelTrace
from ..scenes import build_scene, resolution
from ..timing import GPUStats, PartitionPolicy
from .partition import FGEvenPolicy, MiGPolicy, MPSPolicy
from .streams import COMPUTE_STREAM, GRAPHICS_STREAM
from .tap import TAPPolicy
from .warped_slicer import WarpedSlicerPolicy

#: Policies runnable by name; each factory gets (config, stream_ids).
POLICY_NAMES = ("shared", "mps", "mig", "fg-even", "warped-slicer", "tap")


def make_policy(name: str, config: GPUConfig,
                streams: Sequence[int]) -> PartitionPolicy:
    """Construct a partition policy by its experiment name."""
    streams = list(streams)
    if name == "shared":
        return PartitionPolicy()
    if name == "mps":
        return MPSPolicy.even(config.num_sms, streams)
    if name == "mig":
        return MiGPolicy.even(config.num_sms, streams, config.l2_banks)
    if name == "fg-even":
        return FGEvenPolicy.even(streams)
    if name == "warped-slicer":
        return WarpedSlicerPolicy(streams)
    if name == "tap":
        return TAPPolicy.even(config.num_sms, streams)
    raise KeyError("unknown policy %r; known: %s" % (name, POLICY_NAMES))


class PairResult:
    """Outcome of one concurrent run."""

    def __init__(self, stats: GPUStats, policy: PartitionPolicy) -> None:
        self.stats = stats
        self.policy = policy

    @property
    def total_cycles(self) -> int:
        return self.stats.cycles

    @property
    def graphics_cycles(self) -> int:
        return self.stats.stream_cycles(GRAPHICS_STREAM)

    @property
    def compute_cycles(self) -> int:
        return self.stats.stream_cycles(COMPUTE_STREAM)

    def __repr__(self) -> str:
        return "PairResult(policy=%s, total=%d, gfx=%d, compute=%d)" % (
            self.policy.name, self.total_cycles,
            self.graphics_cycles, self.compute_cycles)


class CRISP:
    """Concurrent Rendering and Compute Simulation Platform."""

    def __init__(self, config: Optional[GPUConfig] = None,
                 pipeline_config: Optional[PipelineConfig] = None) -> None:
        self.config = config or JETSON_ORIN_MINI
        self.pipeline_config = pipeline_config or PipelineConfig()

    # -- trace collection ----------------------------------------------------
    def trace_scene(self, code: str, res: str = "2k",
                    lod_enabled: Optional[bool] = None) -> FrameResult:
        """Render one frame of a catalog scene, returning its traces."""
        scene = build_scene(code)
        cfg = self.pipeline_config
        if lod_enabled is not None and lod_enabled != cfg.lod_enabled:
            cfg = replace(cfg, lod_enabled=lod_enabled)
        pipe = GraphicsPipeline(scene.textures, config=cfg)
        w, h = resolution(res)
        return pipe.render_frame(scene.draws, scene.camera, w, h)

    def trace_compute(self, name: str) -> List[KernelTrace]:
        """Build a compute workload's kernel traces by its paper code."""
        return build_compute_workload(name)

    # Execution lives in repro.api.simulate; CRISP is the tracing facade.


# ---------------------------------------------------------------------------
# Pure job functions
# ---------------------------------------------------------------------------
# The campaign runner fans simulations out over worker processes, so the
# run_pair path is also exposed as top-level functions of plain-data
# arguments: everything here pickles (GPUConfig is a frozen dataclass,
# the rest are strings/ints), and a call is fully reproducible from its
# arguments alone — the property campaign fingerprints rely on.

def collect_streams(
    config: GPUConfig,
    scene: Optional[str] = None,
    res: str = "2k",
    lod_enabled: Optional[bool] = None,
    compute: Optional[str] = None,
    compute_args: Optional[Dict[str, object]] = None,
    graphics_trace: Optional[str] = None,
    compute_trace: Optional[str] = None,
) -> Dict[int, List[KernelTrace]]:
    """Build the stream dict one job spec describes.

    Graphics kernels come from rendering ``scene`` at ``res`` or from a
    saved trace file; compute kernels from tracing the named workload
    (``compute_args`` forwarded to its builder) or from a saved trace file.
    """
    if scene and graphics_trace:
        raise ValueError("give either scene or graphics_trace, not both")
    if compute and compute_trace:
        raise ValueError("give either compute or compute_trace, not both")
    from ..isa import load_traces
    streams: Dict[int, List[KernelTrace]] = {}
    if scene:
        crisp = CRISP(config)
        streams[GRAPHICS_STREAM] = crisp.trace_scene(
            scene, res, lod_enabled=lod_enabled).kernels
    elif graphics_trace:
        streams[GRAPHICS_STREAM] = load_traces(graphics_trace)
    if compute:
        streams[COMPUTE_STREAM] = build_compute_workload(
            compute, **(compute_args or {}))
    elif compute_trace:
        streams[COMPUTE_STREAM] = load_traces(compute_trace)
    if not streams:
        raise ValueError("job spec produced no streams; give a scene, a "
                         "compute workload, or saved trace files")
    return streams
