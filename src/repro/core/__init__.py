"""CRISP core: the concurrent rendering + compute platform and the GPU
partitioning mechanisms it evaluates."""

from .partition import (
    FGDynamicPolicy,
    FGEvenPolicy,
    MiGPolicy,
    MPSPolicy,
    even_bank_split,
    even_sm_split,
)
from .platform import CRISP, POLICY_NAMES, make_policy
from .streams import COMPUTE_STREAM, GRAPHICS_STREAM, WorkloadPair
from .tap import TAPPolicy, UtilityMonitor, lookahead_partition
from .warped_slicer import WarpedSlicerPolicy, water_filling

__all__ = [
    "COMPUTE_STREAM",
    "CRISP",
    "FGDynamicPolicy",
    "FGEvenPolicy",
    "GRAPHICS_STREAM",
    "MPSPolicy",
    "MiGPolicy",
    "POLICY_NAMES",
    "TAPPolicy",
    "UtilityMonitor",
    "WarpedSlicerPolicy",
    "WorkloadPair",
    "even_bank_split",
    "even_sm_split",
    "lookahead_partition",
    "make_policy",
    "water_filling",
]
