"""Cycle-accounting GPU timing model (Accel-Sim substrate)."""

from .cta import CTAScheduler, PartitionPolicy, StreamQueue
from .gpu import GPU, DeadlockError
from .ldst import LDSTPath
from .occupancy import OccupancyReport, occupancy_of
from .scheduler import GTOScheduler
from .slots import SlotState
from .sm import SM, ResidentCTA
from .stats import GPUStats, OccupancySample, StreamStats
from .warp import BLOCKED, WarpContext

__all__ = [
    "BLOCKED",
    "CTAScheduler",
    "DeadlockError",
    "GPU",
    "GPUStats",
    "GTOScheduler",
    "LDSTPath",
    "OccupancyReport",
    "OccupancySample",
    "PartitionPolicy",
    "ResidentCTA",
    "SM",
    "SlotState",
    "StreamQueue",
    "StreamStats",
    "WarpContext",
    "occupancy_of",
]
