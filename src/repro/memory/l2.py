"""Banked L2 cache shared by all SMs.

The physical L2 is split into banks addressed by a line-address hash.  Three
sharing modes cover the partitioning methods of Section III-A / Fig 4:

* **shared** (MPS / FG): every stream may use every bank and every set.
* **bank partition** (MiG): each stream is routed to a disjoint subset of
  banks.  Capacity *and* bandwidth are split — the paper shows the
  bandwidth loss is what hurts (Fig 14).
* **set partition** (TAP): all banks serve all streams, but within each bank
  a :class:`~repro.memory.cache.SetPartition` assigns sets per stream.

Each bank has a throughput port (one access per ``bank_port_interval``
cycles), so bank contention is modelled.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import CacheConfig, GPUConfig
from ..isa import DataClass
from .cache import CacheStats, SetAssocCache
from .dram import DRAM


class L2Cache:
    """The L2: a set of :class:`SetAssocCache` banks in front of DRAM."""

    def __init__(self, config: GPUConfig, dram: Optional[DRAM] = None) -> None:
        self.config = config
        self.num_banks = config.l2_banks
        sets_per_bank = config.l2.num_sets // config.l2_banks
        bank_cfg = CacheConfig(
            size_bytes=config.l2.size_bytes // config.l2_banks,
            assoc=config.l2.assoc,
            line_size=config.l2.line_size,
            mshr_entries=config.l2.mshr_entries,
            hit_latency=config.l2.hit_latency,
        )
        assert bank_cfg.num_sets == sets_per_bank
        self.banks: List[SetAssocCache] = [
            SetAssocCache(bank_cfg, name="l2b%d" % i) for i in range(self.num_banks)
        ]
        self.dram = dram or DRAM(config)
        # Per-access constants, resolved once (GPUConfig is frozen).
        self._line_size = config.l2.line_size
        self._hit_latency = config.l2.hit_latency
        self._bank_free = [0] * self.num_banks
        self.bank_port_interval = 2
        # MiG routing: stream -> list of bank indices; None means shared.
        self._bank_assignment: Optional[Dict[int, List[int]]] = None
        #: Optional hook called on every access with (line_addr, stream);
        #: TAP's utility monitors attach here.  ``GPU.run`` clears it on
        #: exit, so the L2 never outlives a run pointing at its policy.
        self.access_observer = None

    # -- partition control ---------------------------------------------------
    def partition_banks(self, assignment: Optional[Dict[int, List[int]]]) -> None:
        """Install MiG-style bank routing (or clear it with ``None``)."""
        if assignment is not None:
            self._check_assignment(assignment)
        self._bank_assignment = assignment

    def _check_assignment(self, assignment: Dict[int, List[int]]) -> None:
        """Raise ``ValueError`` unless every stream gets a non-empty set of
        in-range banks and no bank serves two streams."""
        claimed: set = set()
        for stream, banks in assignment.items():
            if not banks:
                raise ValueError("stream %d assigned zero banks" % stream)
            if any(b < 0 or b >= self.num_banks for b in banks):
                raise ValueError("bank index out of range")
            overlap = claimed.intersection(banks)
            if overlap:
                raise ValueError("banks %s assigned to multiple streams"
                                 % sorted(overlap))
            claimed.update(banks)

    def partition_sets(self, ratios: Optional[Dict[int, int]]) -> None:
        """Install TAP-style per-bank set partitioning."""
        for bank in self.banks:
            bank.partition_sets(ratios)

    def validate_partitions(self) -> None:
        """Re-check bank routing and per-bank set partitions for soundness.

        Raises ``ValueError`` when a bank assignment stops being disjoint or
        a bank's resolved set-mapping tables drift from its installed
        partition (see :meth:`SetAssocCache.validate_partition`).  TAP
        re-points set ranges at every epoch, so the invariant checker calls
        this after each repartition as well as at sample ticks."""
        if self._bank_assignment is not None:
            self._check_assignment(self._bank_assignment)
        ref = self.banks[0].set_partition
        ref_ranges = ref.ranges if ref is not None else None
        for bank in self.banks:
            bank.validate_partition()
            ranges = (bank.set_partition.ranges
                      if bank.set_partition is not None else None)
            if ranges != ref_ranges:
                raise ValueError(
                    "%s set partition differs from bank 0 (%r vs %r); "
                    "partition_sets installs one ratio map on every bank"
                    % (bank.name, ranges, ref_ranges))

    @property
    def sets_per_bank(self) -> int:
        return self.banks[0].num_sets

    # -- access ---------------------------------------------------------------
    def bank_of(self, line_addr: int, stream: int = 0) -> int:
        raw = (line_addr // self._line_size) % self.num_banks
        if self._bank_assignment is not None:
            banks = self._bank_assignment.get(stream)
            if banks:
                return banks[raw % len(banks)]
        return raw

    def access(
        self,
        line_addr: int,
        cycle: int,
        data_class: DataClass,
        stream: int = 0,
        is_store: bool = False,
        sector_mask: int = 0,
        fetch_bytes: Optional[int] = None,
    ) -> int:
        """Access the L2; returns the cycle the request's data is ready.

        Stores are write-allocate and acknowledge after the bank access.
        Loads that miss go to DRAM and fill on return; a second load to an
        in-flight line merges into the outstanding fill.  Sectored callers
        pass ``sector_mask`` (touched sectors within the line) and
        ``fetch_bytes`` (the DRAM transfer they imply).
        """
        if self.access_observer is not None:
            self.access_observer(line_addr, stream)
        bank_idx = self.bank_of(line_addr, stream)
        bank = self.banks[bank_idx]
        free = self._bank_free[bank_idx]
        start = cycle if cycle > free else free
        self._bank_free[bank_idx] = start + self.bank_port_interval
        access_done = start + self._hit_latency
        hit, ready = bank.access(line_addr, cycle, stream, is_store,
                                 sector_mask)
        if ready is not None:
            # The line's fill is still in flight: merge into it (MSHR
            # behaviour).  A hit on the installed line counts as a merge
            # too, since its data has not arrived.
            if hit:
                bank.stats[stream].mshr_merges += 1
            return max(access_done, ready)
        if hit:
            return access_done
        # Miss: fetch the line (or its touched sectors) from DRAM.  Stores
        # allocate too (fetch-on-write): the fetch is a read; the write
        # reaches DRAM later as a dirty-eviction write-back.
        dram_ready = self.dram.access(line_addr, access_done, stream,
                                      is_store=False, num_bytes=fetch_bytes)
        victim = bank.fill(line_addr, data_class, stream, sector_mask,
                           ready=dram_ready, dirty=is_store)
        if victim is not None:
            # The L2 is write-back (unlike the L1): the dirty victim goes
            # to DRAM at the cycle of the access that evicted it.
            self.dram.access(victim[0], cycle, victim[1], is_store=True)
        return dram_ready

    # -- introspection ---------------------------------------------------------
    def mshr_inflight(self, cycle: int) -> int:
        """Fills in flight at ``cycle`` across all banks (telemetry hook)."""
        return sum(bank.inflight(cycle) for bank in self.banks)

    def bank_queue_depths(self, cycle: int) -> List[int]:
        """Per-bank port backlog in cycles at ``cycle`` (telemetry hook)."""
        return [free - cycle if free > cycle else 0
                for free in self._bank_free]

    def composition(self) -> Dict[DataClass, int]:
        comp: Dict[DataClass, int] = {}
        for bank in self.banks:
            for cls, n in bank.composition().items():
                comp[cls] = comp.get(cls, 0) + n
        return comp

    def composition_by_stream(self) -> Dict[int, int]:
        comp: Dict[int, int] = {}
        for bank in self.banks:
            for stream, n in bank.composition_by_stream().items():
                comp[stream] = comp.get(stream, 0) + n
        return comp

    def stats_for(self, stream: int) -> CacheStats:
        return CacheStats.sum(bank.stats[stream] for bank in self.banks
                              if stream in bank.stats)

    def aggregate_stats(self) -> CacheStats:
        return CacheStats.sum(st for bank in self.banks
                              for st in bank.stats.values())
