"""repro: a from-scratch reproduction of CRISP (IISWC 2024) — a concurrent
rendering and compute simulation platform for GPUs.

Public entry points:

* :func:`repro.simulate` — run one simulation, described by a
  :class:`RunRequest` (or its fields as keywords), returning a
  :class:`RunResult`.  This is the single execution surface.
* :class:`repro.core.CRISP` — the tracing facade (trace scenes, trace
  compute workloads).  Execution lives in :func:`simulate`.
* :mod:`repro.graphics` — the Vulkan-like front-end and rendering pipeline.
* :mod:`repro.compute` — the CUDA-like kernel tracer and XR workloads.
* :mod:`repro.timing` — the Accel-Sim-style GPU timing model.
* :mod:`repro.campaign` — parallel, cached, resumable simulation sweeps.
* :mod:`repro.telemetry` — tracing, stall attribution, time-series metrics.
* :mod:`repro.scenes` — the six rendering workloads of the paper.
"""

from .api import RunRequest, RunResult, WorkloadSpec, simulate
from .core import CRISP

__version__ = "2.0.0"
__all__ = [
    "CRISP",
    "RunRequest",
    "RunResult",
    "WorkloadSpec",
    "simulate",
    "__version__",
]
