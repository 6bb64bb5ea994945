"""repro.api — the unified execution surface.

Every way of running a simulation — CLI subcommands, campaign jobs,
benchmarks, library use — funnels through one function::

    from repro.api import RunRequest, WorkloadSpec, simulate

    result = simulate(RunRequest(
        config="JetsonOrin-mini",
        workload=WorkloadSpec(scene="SPL", res="nano", compute="HOLO"),
        policy="mps",
    ))
    print(result.total_cycles)

A :class:`RunRequest` describes *what* to simulate (a prebuilt stream dict
or a declarative :class:`WorkloadSpec`) and under which policy;
:func:`simulate` runs it on the serial timing model and returns a
:class:`RunResult`.  Runs parallelise across whole jobs, through
:class:`repro.campaign.CampaignRunner`, never inside one simulation.

:meth:`RunResult.to_record` is the one speed record: its ``instructions``
and ``wall_seconds`` give the run repository's ``instructions_per_second``,
which the dashboard's sim-rate trend reads.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Union

from .config import GPUConfig, get_preset
from .isa import KernelTrace
from .timing import GPU, GPUStats, PartitionPolicy

__all__ = ["WorkloadSpec", "RunRequest", "RunResult", "simulate"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of what to trace into streams.

    Mirrors :func:`repro.core.platform.collect_streams`: graphics kernels
    from rendering ``scene`` at ``res`` or a saved ``graphics_trace``;
    compute kernels from tracing ``compute`` (with ``compute_args``) or a
    saved ``compute_trace``.
    """

    scene: Optional[str] = None
    res: str = "2k"
    lod_enabled: Optional[bool] = None
    compute: Optional[str] = None
    compute_args: Optional[Dict[str, object]] = None
    graphics_trace: Optional[str] = None
    compute_trace: Optional[str] = None

    def collect(self, config: GPUConfig) -> Dict[int, List[KernelTrace]]:
        from .core.platform import collect_streams
        return collect_streams(
            config,
            scene=self.scene, res=self.res, lod_enabled=self.lod_enabled,
            compute=self.compute, compute_args=self.compute_args,
            graphics_trace=self.graphics_trace,
            compute_trace=self.compute_trace,
        )


@dataclass
class RunRequest:
    """One simulation, fully specified.

    Exactly one of ``streams`` (prebuilt traces) or ``workload`` (a
    declarative spec, traced at execution time) must be given.  ``policy``
    is a name from ``POLICY_NAMES`` or a policy instance; a *named* policy
    is only applied when more than one stream runs (single-stream runs own
    the whole GPU), matching the long-standing platform behaviour, while
    an *instance* is always applied.
    """

    config: Union[str, GPUConfig] = "JetsonOrin-mini"
    streams: Optional[Dict[int, Sequence[KernelTrace]]] = None
    workload: Optional[WorkloadSpec] = None
    policy: Union[str, PartitionPolicy, None] = None
    sample_interval: Optional[int] = None
    telemetry: Optional[object] = None
    #: Open-loop arrival cycles, ``{stream_id: [cycle per kernel]}``.
    #: Streams absent from the dict stay closed-loop (ready at cycle 0).
    arrivals: Optional[Dict[int, Sequence[int]]] = None
    max_cycles: int = 200_000_000

    def resolved_config(self) -> GPUConfig:
        if isinstance(self.config, GPUConfig):
            return self.config
        return get_preset(self.config)

    def resolved_streams(self, config: GPUConfig) -> Dict[int, List[KernelTrace]]:
        if (self.streams is None) == (self.workload is None):
            raise ValueError(
                "RunRequest needs exactly one of streams= or workload=")
        if self.streams is not None:
            return {sid: list(kernels)
                    for sid, kernels in self.streams.items()}
        return self.workload.collect(config)

    def resolved_policy(self, config: GPUConfig,
                        streams: Dict[int, Sequence[KernelTrace]]
                        ) -> Optional[PartitionPolicy]:
        if not self.policy:
            return None
        if isinstance(self.policy, str):
            if len(streams) <= 1:
                return None
            from .core.platform import make_policy
            return make_policy(self.policy, config, sorted(streams))
        return self.policy


@dataclass
class RunResult:
    """Outcome of one :func:`simulate` call."""

    stats: GPUStats
    #: The policy object actually used (post-run state carries e.g. TAP's
    #: final ratio); None for unpartitioned runs.
    policy: Optional[PartitionPolicy]
    #: The request that produced this result.
    request: Optional[RunRequest] = None

    # -- cycle accessors ----------------------------------------------------
    @property
    def total_cycles(self) -> int:
        return self.stats.cycles

    def stream_cycles(self, stream: int) -> int:
        return self.stats.stream_cycles(stream)

    @property
    def graphics_cycles(self) -> int:
        from .core.streams import GRAPHICS_STREAM
        return self.stats.stream_cycles(GRAPHICS_STREAM)

    @property
    def compute_cycles(self) -> int:
        from .core.streams import COMPUTE_STREAM
        return self.stats.stream_cycles(COMPUTE_STREAM)

    def __repr__(self) -> str:
        return "RunResult(policy=%s, total=%d)" % (
            self.policy.name if self.policy else None, self.total_cycles)

    def to_record(self, label: str = "",
                  wall_seconds: Optional[float] = None) -> Dict[str, object]:
        """Flatten into the run-repository record shape.

        The document :meth:`repro.service.RunRepository.add_record` stores
        and ``repro db ingest`` re-reads (``kind: "run"``, schema
        ``repro.service.records.RUN_RECORD_SCHEMA``).
        """
        from .service.records import RUN_RECORD_SCHEMA
        config = (self.request.resolved_config()
                  if self.request is not None else None)
        stats = self.stats.to_dict()
        instructions = sum(s.get("instructions", 0)
                           for s in stats.get("streams", {}).values())
        return {
            "kind": "run",
            "schema": RUN_RECORD_SCHEMA,
            "label": label,
            "config_fingerprint": config.fingerprint() if config else None,
            "config_name": config.name if config else None,
            "policy": self.policy.name if self.policy else None,
            "cycles": self.stats.cycles,
            "instructions": instructions,
            "wall_seconds": wall_seconds,
            "stats": stats,
            "extras": {},
        }


def simulate(request: Optional[RunRequest] = None, **kwargs) -> RunResult:
    """Execute one simulation — the single entry point for every caller.

    Accepts either a prebuilt :class:`RunRequest` or its fields as keyword
    arguments (``simulate(workload=..., policy="mps")``).
    """
    if request is None:
        request = RunRequest(**kwargs)
    elif kwargs:
        request = replace(request, **kwargs)
    # A run's object graph is acyclic (tests/test_run_lifetime.py), so
    # reference counting frees it and the cyclic collector, which the
    # trace and the run would otherwise trigger hundreds of times, has
    # nothing to find.  The caller's collector state comes back on exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
        config = request.resolved_config()
        streams = request.resolved_streams(config)
        policy = request.resolved_policy(config, streams)
        gpu = GPU(config, policy=policy,
                  sample_interval=request.sample_interval,
                  telemetry=request.telemetry)
        arrivals = request.arrivals or {}
        for sid, kernels in sorted(streams.items()):
            gpu.add_stream(sid, kernels, arrivals=arrivals.get(sid))
        stats = gpu.run(max_cycles=request.max_cycles)
    finally:
        if collecting:
            gc.enable()
    return RunResult(stats=stats, policy=policy, request=request)
