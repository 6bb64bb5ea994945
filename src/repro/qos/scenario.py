"""Declarative QoS scenarios and the open-loop workload builder.

A :class:`Scenario` is a named set of :class:`ClientSpec` s — each an
independent tenant with a workload template (one rendered frame or one
compute-task iteration per request), an arrival process, a request count
and an SLO budget.  :func:`build_open_loop` turns a scenario plus a seed
into everything one ``repro.api.simulate`` call needs: per-stream kernel
lists (each request is a fresh clone of the template, so kernel uids stay
unique), per-kernel arrival cycles, and a fully-registered
:class:`~repro.qos.monitor.QoSMonitor`.

SLO budgets are specified in cycles (exact integers — the bit-identity
currency); reports convert to milliseconds with the config's core clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import GPUConfig, get_preset
from ..isa import KernelTrace
from .arrivals import (ArrivalProcess, BurstyProcess, PoissonProcess,
                       RampProcess, TraceProcess, client_rng)
from .monitor import QoSMonitor

__all__ = ["ClientSpec", "Scenario", "SCENARIOS", "scenario_names",
           "get_scenario", "build_open_loop"]

#: Template cache: (workload, res, config name) -> kernel list.  Tracing a
#: scene takes ~100ms; scenarios reuse the same template across requests,
#: policies and campaign legs.
_TEMPLATE_CACHE: Dict[Tuple[str, str, str], List[KernelTrace]] = {}


@dataclass(frozen=True)
class ClientSpec:
    """One open-loop tenant of a QoS scenario."""

    name: str
    #: "render:<scene>" (one frame per request) or a compute workload code
    #: from ``WORKLOAD_BUILDERS`` (one task iteration per request).
    workload: str
    process: ArrivalProcess
    requests: int
    #: Frame-time budget in cycles; None = best-effort (never violated).
    slo_cycles: Optional[int] = None
    res: str = "nano"
    #: Leading requests injected normally (their queueing is real) but
    #: excluded from latency/SLO accounting — the discard-the-warmup
    #: convention, identical under every policy.
    warmup_requests: int = 0

    def describe(self) -> dict:
        return {
            "workload": self.workload,
            "requests": self.requests,
            "slo_cycles": self.slo_cycles,
            "warmup_requests": self.warmup_requests,
            "arrivals": self.process.describe(),
        }


@dataclass(frozen=True)
class Scenario:
    """A named multi-client QoS experiment."""

    name: str
    description: str
    clients: Tuple[ClientSpec, ...]
    config: str = "RTX3070-mini"
    #: Adaptive-controller epoch length for this scenario (cycles).
    epoch_interval: int = 8_000
    extra: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "config": self.config,
            "epoch_interval": self.epoch_interval,
            "clients": {c.name: c.describe() for c in self.clients},
        }


def _template(workload: str, res: str, config: GPUConfig) -> List[KernelTrace]:
    key = (workload, res, config.name)
    cached = _TEMPLATE_CACHE.get(key)
    if cached is not None:
        return cached
    if workload.startswith("render:"):
        from ..core.platform import collect_streams
        scene = workload.split(":", 1)[1]
        streams = collect_streams(config, scene=scene, res=res)
        kernels = next(iter(streams.values()))
    else:
        from ..compute import build_compute_workload
        kernels = build_compute_workload(workload)
    _TEMPLATE_CACHE[key] = kernels
    return kernels


def _clone(kernel: KernelTrace, depends_on_prev: bool) -> KernelTrace:
    # Fresh uid, shared (read-only) CTA traces — same recipe as the
    # differential shrinker's _subset_kernel.
    return KernelTrace(
        kernel.name, kernel.ctas, kernel.threads_per_cta,
        regs_per_thread=kernel.regs_per_thread,
        shared_mem_per_cta=kernel.shared_mem_per_cta,
        kind=kernel.kind, depends_on_prev=depends_on_prev,
    )


def build_open_loop(scenario: Scenario, seed: int,
                    clients: Optional[int] = None,
                    requests: Optional[int] = None):
    """Materialise a scenario at one seed.

    Returns ``(config, streams, arrivals, monitor, stream_clients)``:
    kernel streams (one per client, ids 0..n-1), per-kernel arrival
    cycles, a QoSMonitor with every injected kernel registered, and the
    stream-id -> client-name map.  ``clients`` truncates the client list;
    ``requests`` overrides every client's request count (short CI runs).
    """
    config = get_preset(scenario.config)
    specs = list(scenario.clients)
    if clients is not None:
        if not 1 <= clients <= len(specs):
            raise ValueError("scenario %s has %d clients, %d requested"
                             % (scenario.name, len(specs), clients))
        specs = specs[:clients]
    monitor = QoSMonitor()
    streams: Dict[int, List[KernelTrace]] = {}
    arrivals: Dict[int, List[int]] = {}
    stream_clients: Dict[int, str] = {}
    for index, spec in enumerate(specs):
        template = _template(spec.workload, spec.res, config)
        n = requests if requests is not None else spec.requests
        if n < 1:
            raise ValueError("client %s needs at least one request"
                             % spec.name)
        times = spec.process.times(n, client_rng(seed, index))
        monitor.add_client(spec.name, slo_budget=spec.slo_cycles)
        # Keep at least one measured request even under short CI
        # request-count overrides.
        warmup = min(spec.warmup_requests, n - 1)
        kernels: List[KernelTrace] = []
        cycle_list: List[int] = []
        for req, at in enumerate(times):
            for ki, k in enumerate(template):
                # A request's first kernel is independent of the previous
                # request (frames pipeline); within a request the
                # template's own dependency structure is preserved.
                clone = _clone(k, k.depends_on_prev if ki > 0 else False)
                kernels.append(clone)
                cycle_list.append(at)
                monitor.track(clone.uid, spec.name, req, at,
                              last=(ki == len(template) - 1),
                              warmup=(req < warmup))
        streams[index] = kernels
        arrivals[index] = cycle_list
        stream_clients[index] = spec.name
    return config, streams, arrivals, monitor, stream_clients


# ---------------------------------------------------------------------------
# The scenario suite
# ---------------------------------------------------------------------------

_RENDER = "render:SPL"

SCENARIOS: Dict[str, Scenario] = {}


def _register(s: Scenario) -> Scenario:
    SCENARIOS[s.name] = s
    return s


#: Steady-state mix: all three tenants comfortably below saturation.
STEADY = _register(Scenario(
    name="steady",
    description="SPL render + VIO + NN at steady Poisson load",
    clients=(
        ClientSpec("render", _RENDER, PoissonProcess(14_000),
                   requests=14, slo_cycles=34_000),
        ClientSpec("vio", "VIO", PoissonProcess(12_000),
                   requests=14, slo_cycles=40_000),
        ClientSpec("nn", "NN", PoissonProcess(11_000),
                   requests=16, slo_cycles=None),
    ),
))

#: On/off bursts on the render tenant expose tail-latency divergence.
BURSTY = _register(Scenario(
    name="bursty",
    description="render bursts against steady VIO + NN background",
    clients=(
        ClientSpec("render", _RENDER,
                   BurstyProcess(calm_interarrival=18_000,
                                 burst_interarrival=3_000,
                                 phase_len=4, burst_len=4),
                   requests=16, slo_cycles=45_000),
        ClientSpec("vio", "VIO", PoissonProcess(12_000),
                   requests=14, slo_cycles=45_000),
        ClientSpec("nn", "NN", PoissonProcess(11_000),
                   requests=16, slo_cycles=None),
    ),
))

#: Diurnal-style ramp: NN load climbs from idle to saturation.
RAMP = _register(Scenario(
    name="ramp",
    description="NN load ramps up under a latency-critical render tenant",
    clients=(
        ClientSpec("render", _RENDER, PoissonProcess(14_000),
                   requests=14, slo_cycles=38_000),
        ClientSpec("vio", "VIO", PoissonProcess(13_000),
                   requests=12, slo_cycles=45_000),
        ClientSpec("nn", "NN", RampProcess(20_000, 3_000),
                   requests=24, slo_cycles=None),
    ),
))

def _vio_sensor_trace() -> Tuple[int, ...]:
    """Deterministic VIO camera trace: 30 frames at a relaxed 4000-cycle
    period, a 4-frame ramp at 1700 as the platform starts moving, then a
    sustained 1500-cycle period for 56 frames.  The ramp is where an
    arrival-rate detector can act: a 4-SM static share serves a frame in
    ~1590 cycles under the flood, so at 1700 spacing frames still finish
    before the next one arrives and a repartition's cache warm-up hides
    in the slack, while at 1500 spacing the same share diverges by
    ~90 cycles per frame — the adaptive controller has to catch the
    shift during the ramp or pay the transient under backlog."""
    times: List[int] = []
    t = 0
    for _ in range(30):
        t += 4_000
        times.append(t)
    for _ in range(4):
        t += 1_700
        times.append(t)
    for _ in range(56):
        t += 1_500
        times.append(t)
    return tuple(times)


#: Adversarial compute flood: a best-effort NN tenant saturates the
#: machine while a sensor-driven VIO tenant holds a tight SLO and its
#: frame rate steps up mid-run.  Two clients so every static policy
#: (including 2-stream Warped-Slicer) can run.
FLOOD = _register(Scenario(
    name="flood",
    description="NN flood against an SLO-bound VIO tenant whose "
                "sensor rate steps up mid-run",
    clients=(
        ClientSpec("vio", "VIO", TraceProcess(_vio_sensor_trace()),
                   requests=90, slo_cycles=2_200, warmup_requests=4),
        ClientSpec("nn-flood", "NN", PoissonProcess(600),
                   requests=360, slo_cycles=None),
    ),
    epoch_interval=2_500,
))


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError("unknown scenario %r; known: %s"
                       % (name, scenario_names())) from None
