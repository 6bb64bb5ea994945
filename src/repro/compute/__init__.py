"""Synthetic CUDA workloads: the kernel tracer DSL and the XR system tasks
(VIO, HOLO, NN) of Section V-B."""

from .builder import (
    COMPUTE_REGION,
    Buffer,
    DeviceMemory,
    KernelBuilder,
)
from .hologram import build_hologram_kernels
from .nn import build_nn_kernels
from .pka import coverage_of, principal_kernels
from .timewarp import build_timewarp_kernels
from .upscaler import build_upscaler_kernels
from .vio import build_vio_kernels, kernel_count_per_frame

WORKLOAD_BUILDERS = {
    "VIO": build_vio_kernels,
    "HOLO": build_hologram_kernels,
    "NN": build_nn_kernels,
    # Extension workloads from the paper's background (Section II):
    "ATW": build_timewarp_kernels,
    "DLSS": build_upscaler_kernels,
}


def build_compute_workload(name, **kwargs):
    """Build a compute workload's kernel list by its paper code.

    ``kwargs`` are forwarded to the workload builder (e.g. ``frames`` for
    VIO, ``passes`` for HOLO), which is how declarative campaign job specs
    size their compute streams.
    """
    try:
        builder = WORKLOAD_BUILDERS[name]
    except KeyError:
        raise KeyError("unknown compute workload %r; known: %s"
                       % (name, sorted(WORKLOAD_BUILDERS))) from None
    return builder(**kwargs)


__all__ = [
    "COMPUTE_REGION",
    "Buffer",
    "DeviceMemory",
    "KernelBuilder",
    "WORKLOAD_BUILDERS",
    "build_compute_workload",
    "build_hologram_kernels",
    "build_nn_kernels",
    "build_timewarp_kernels",
    "build_upscaler_kernels",
    "build_vio_kernels",
    "coverage_of",
    "kernel_count_per_frame",
    "principal_kernels",
]
