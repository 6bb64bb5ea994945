"""DRAM channel model: fixed access latency plus bandwidth occupancy.

Each channel serialises line transfers.  A request pays the DRAM latency and
then occupies its channel for ``line_size / bytes_per_cycle_per_channel``
cycles, so aggregate throughput saturates at the configured bandwidth.
This is the level of detail the paper's contention studies need — MiG's
slowdown in Fig 14 comes from *bandwidth* limits, which this model exposes.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import GPUConfig


class DRAMStats:
    __slots__ = ("reads", "writes", "bytes_transferred", "busy_cycles")

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_transferred = 0
        self.busy_cycles = 0


class DRAM:
    """Multi-channel DRAM with per-channel bandwidth accounting."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.num_channels = config.dram_channels
        self.latency = config.dram_latency
        per_channel = config.dram_bytes_per_cycle / config.dram_channels
        if per_channel <= 0:
            raise ValueError("DRAM bandwidth must be positive")
        self._bytes_per_cycle_per_channel = per_channel
        self._line_size = config.l2.line_size
        # Cycles one full-line transfer occupies a channel.
        self.cycles_per_line = max(1.0, self._line_size / per_channel)
        self._channel_free = [0.0] * self.num_channels
        self.stats: Dict[int, DRAMStats] = {}

    def _stats(self, stream: int) -> DRAMStats:
        st = self.stats.get(stream)
        if st is None:
            st = DRAMStats()
            self.stats[stream] = st
        return st

    def channel_of(self, line_addr: int) -> int:
        return (line_addr // self._line_size) % self.num_channels

    def access(self, line_addr: int, cycle: int, stream: int = 0,
               is_store: bool = False, num_bytes: Optional[int] = None) -> int:
        """Issue one transfer; returns the cycle the data is available.

        ``num_bytes`` defaults to a whole line; sectored configurations
        pass the touched sectors' total so bandwidth is charged for what
        actually moves.
        """
        if num_bytes:
            nbytes = num_bytes
            occupancy = max(1.0, nbytes / self._bytes_per_cycle_per_channel)
        else:
            nbytes = self._line_size
            occupancy = self.cycles_per_line
        ch = self.channel_of(line_addr)
        start = max(float(cycle), self._channel_free[ch])
        self._channel_free[ch] = start + occupancy
        st = self._stats(stream)
        if is_store:
            st.writes += 1
        else:
            st.reads += 1
        st.bytes_transferred += nbytes
        st.busy_cycles += int(occupancy)
        return int(start + occupancy) + self.latency

    def aggregate_bytes(self) -> int:
        return sum(s.bytes_transferred for s in self.stats.values())

    # -- telemetry ---------------------------------------------------------
    def bytes_by_stream(self) -> Dict[int, int]:
        """Cumulative bytes moved per stream (read-only telemetry hook)."""
        return {stream: st.bytes_transferred
                for stream, st in self.stats.items()}

    def channel_backlog(self, cycle: int) -> float:
        """Total cycles of queued transfer time across channels."""
        return sum(free - cycle for free in self._channel_free
                   if free > cycle)
