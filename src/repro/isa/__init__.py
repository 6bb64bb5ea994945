"""SASS-analog trace ISA consumed by the timing model."""

from .instructions import MemAccess, WarpInstruction
from .opcodes import DataClass, Op, OpInfo, Space, Unit, op_info
from .serialize import load_metadata, load_traces, save_traces, traces_equal
from .trace import (
    CTAResources,
    CTATrace,
    KernelTrace,
    ShaderKind,
    WarpTemplate,
    WarpTrace,
    lower,
)

__all__ = [
    "CTAResources",
    "CTATrace",
    "DataClass",
    "KernelTrace",
    "MemAccess",
    "Op",
    "OpInfo",
    "ShaderKind",
    "Space",
    "Unit",
    "WarpInstruction",
    "WarpTemplate",
    "WarpTrace",
    "load_metadata",
    "load_traces",
    "lower",
    "save_traces",
    "traces_equal",
    "op_info",
]
