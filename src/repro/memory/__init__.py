"""Memory hierarchy: coalescing, caches, banked L2, DRAM."""

from .address import (
    LINE_SIZE,
    SECTOR_SIZE,
    AddressAllocator,
    coalesce,
    coalesce_array,
    coalesce_rows,
    coalesce_sectors,
    line_of,
    span_lines,
)
from .cache import CacheStats, SetAssocCache, SetPartition, sector_mask_of
from .dram import DRAM, DRAMStats
from .l2 import L2Cache

__all__ = [
    "AddressAllocator",
    "CacheStats",
    "DRAM",
    "DRAMStats",
    "L2Cache",
    "LINE_SIZE",
    "SECTOR_SIZE",
    "SetAssocCache",
    "SetPartition",
    "coalesce",
    "coalesce_array",
    "coalesce_rows",
    "coalesce_sectors",
    "line_of",
    "sector_mask_of",
    "span_lines",
]
