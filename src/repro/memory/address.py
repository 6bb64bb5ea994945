"""Address-space layout and warp-level coalescing helpers.

The functional front-ends (graphics pipeline, compute tracer) produce real
byte addresses for every lane of every memory instruction.  These helpers
coalesce lane addresses into distinct cache-line transactions — the job the
hardware coalescer (and, for TEX, the texture unit) performs — and hand out
non-overlapping address regions to buffers so traces from concurrently
running workloads never alias by accident.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

LINE_SIZE = 128
SECTOR_SIZE = 32

#: Address-space regions, 1 TB apart so no workload can cross into another.
_REGION_STRIDE = 1 << 40


class AddressAllocator:
    """Bump allocator handing out line-aligned buffer base addresses.

    Each allocator instance owns one region (e.g. one workload's address
    space).  Allocations are aligned to the cache-line size so that distinct
    buffers never share a line.
    """

    def __init__(self, region: int = 0, line_size: int = LINE_SIZE) -> None:
        if region < 0:
            raise ValueError("region must be non-negative")
        self._base = region * _REGION_STRIDE
        self._next = self._base
        self._line = line_size

    def alloc(self, num_bytes: int) -> int:
        """Reserve ``num_bytes`` and return the base address."""
        if num_bytes <= 0:
            raise ValueError("allocation size must be positive")
        base = self._next
        aligned = (num_bytes + self._line - 1) // self._line * self._line
        self._next += aligned
        return base

    @property
    def bytes_allocated(self) -> int:
        return self._next - self._base


def line_of(addr: int, line_size: int = LINE_SIZE) -> int:
    """Return the line-start address containing byte ``addr``."""
    return addr - (addr % line_size)


def coalesce(addresses: Sequence[int], line_size: int = LINE_SIZE) -> List[int]:
    """Coalesce per-lane byte addresses into distinct line addresses.

    Order is preserved by first occurrence, matching the order transactions
    are generated by the hardware coalescer.
    """
    seen = {}
    for a in addresses:
        ln = a - (a % line_size)
        if ln not in seen:
            seen[ln] = None
    return list(seen)


def coalesce_array(addresses: np.ndarray, line_size: int = LINE_SIZE) -> List[int]:
    """Vectorised :func:`coalesce` for numpy address arrays."""
    if addresses.size == 0:
        return []
    lines = addresses.astype(np.int64) // line_size * line_size
    # np.unique sorts; preserve first-occurrence order with index trick.
    _, idx = np.unique(lines, return_index=True)
    return [int(lines[i]) for i in np.sort(idx)]


def coalesce_rows(addresses: np.ndarray, active
                  ) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, ...]]]:
    """:func:`coalesce_array` of every warp of a kernel at once, at line
    and at sector granularity.

    ``addresses`` is a (warps, lanes, ...) block: row ``r`` is one warp,
    and any trailing axes (the four texels of a bilinear tap) belong to
    their lane, as in a raveled per-warp slice.  ``active`` gives each
    row's live lanes (a scalar applies to every row); the lanes after them
    are dead, as in the ragged last warp of a draw, and are padded with
    the row's first address so they add nothing.

    Returns ``(lines, sectors)``: row ``r`` of ``lines`` holds
    ``coalesce_array(addresses[r, :active[r]].ravel(), LINE_SIZE)``, its
    distinct lines in first-occurrence order, as a tuple, and row ``r`` of
    ``sectors`` the same at ``SECTOR_SIZE``.
    """
    lines, line_counts, sectors, sector_counts = coalesce_flat(addresses,
                                                               active)
    return split_rows(lines, line_counts), split_rows(sectors, sector_counts)


def coalesce_flat(addresses: np.ndarray, active
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`coalesce_rows` before the rows are cut apart.

    Returns ``(lines, line_counts, sectors, sector_counts)``: every row's
    distinct lines, concatenated row after row, and how many each row
    has; the same for sectors.  Shifting a block's addresses by a
    multiple of ``LINE_SIZE`` shifts these by the same amount and leaves
    the counts alone, so a caller can coalesce one block and
    :func:`split_rows` it at several such offsets.

    One stable sort of the sector addresses serves the whole block and
    both granularities: a line's sectors form one run of a sorted row, so
    the line's first occurrence is the lowest lane index over that run.
    """
    block = np.asarray(addresses)
    if block.ndim < 2:
        raise ValueError("addresses must be a (warps, lanes, ...) block")
    rows, lanes = block.shape[:2]
    live = np.broadcast_to(np.asarray(active, dtype=np.int64), (rows,))
    if rows and (live.min() < 1 or live.max() > lanes):
        raise ValueError("active lanes must be in 1..%d" % lanes)
    if not rows:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    sectors = (block.astype(np.int64) // SECTOR_SIZE
               * SECTOR_SIZE).reshape(rows, -1)
    width = sectors.shape[1]
    dead = np.arange(width) >= (live * (width // lanes))[:, None]
    sectors = np.where(dead, sectors[:, :1], sectors)
    order = np.argsort(sectors, axis=1, kind="stable")
    # Row-major flat positions of each row's sorted order.
    flat_order = (order + (np.arange(rows) * width)[:, None]).ravel()
    ranked = sectors.ravel()[flat_order].reshape(rows, width)
    # A stable sort puts each sector's first occurrence at the head of its
    # run, so scattering the run starts back marks first occurrences.
    starts = np.ones(ranked.shape, dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    first = np.empty(rows * width, dtype=bool)
    first[flat_order] = starts.ravel()
    first = first.reshape(rows, width)
    lines = sectors // LINE_SIZE * LINE_SIZE
    ranked //= LINE_SIZE
    line_starts = np.ones(ranked.shape, dtype=bool)
    line_starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    # Every row opens a run, so no run spans two rows of the flat order.
    heads = np.minimum.reduceat(flat_order, np.flatnonzero(line_starts))
    line_first = np.zeros(rows * width, dtype=bool)
    line_first[heads] = True
    line_first = line_first.reshape(rows, width)
    return (lines[line_first], line_first.sum(axis=1),
            sectors[first], first.sum(axis=1))


def split_rows(flat: np.ndarray, counts: np.ndarray
               ) -> List[Tuple[int, ...]]:
    """Cut a row-major flat array into tuples of ``counts`` items (the
    form a :class:`~repro.isa.MemAccess` keeps, so it copies nothing)."""
    items = tuple(flat.tolist())
    ends = np.cumsum(counts).tolist()
    return list(map(items.__getitem__, map(slice, [0] + ends[:-1], ends)))


def coalesce_sectors(addresses: np.ndarray,
                     sector_size: int = SECTOR_SIZE) -> List[int]:
    """Coalesce per-lane byte addresses into distinct 32B sector addresses.

    The refinement sectored caches use: a warp touching 4 bytes of a line
    fetches one sector, not the whole 128B.
    """
    return coalesce_array(np.asarray(addresses), line_size=sector_size)


def span_lines(base: int, num_bytes: int, line_size: int = LINE_SIZE) -> List[int]:
    """All line addresses overlapped by ``[base, base + num_bytes)``."""
    if num_bytes <= 0:
        return []
    first = line_of(base, line_size)
    last = line_of(base + num_bytes - 1, line_size)
    return list(range(first, last + line_size, line_size))
