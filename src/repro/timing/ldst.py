"""Load/store path: coalesced transactions through L1 to L2/DRAM.

Each SM owns one :class:`LDSTPath` wrapping the unified L1 data cache
(texture requests go through the same L1 — CRISP removed the dedicated
texture cache to match post-Volta hardware, Section III).  The path issues
one line transaction per cycle per LDST pipe; misses cross the interconnect
to a hashed L2 bank.

Policy follows GPU convention: L1 is write-through / write-no-allocate
(stores always go to L2), loads allocate on fill.
"""

from __future__ import annotations

from typing import Optional

from ..config import CacheConfig, GPUConfig
from ..isa import MemAccess, OpInfo, Space
from ..memory import L2Cache, SetAssocCache, sector_mask_of
from .stats import StreamStats


class LDSTPath:
    """Per-SM memory pipeline: L1 + interconnect + shared-memory access."""

    def __init__(self, sm_id: int, config: GPUConfig, l2: L2Cache) -> None:
        self.sm_id = sm_id
        self.config = config
        # Ampere unifies L1 and shared memory in one physical array
        # (Table II: "L1 Data Cache + Shared Memory").  The L1 is built
        # over the whole array; the usable-way limit shrinks as resident
        # CTAs allocate shared memory (the carveout) — which is how
        # "rendering uses the remaining L1 as texture cache" while a
        # matmul kernel holds shared memory (Fig 12 discussion).
        sets = config.l1.num_sets
        line = config.l1.line_size
        total_ways = max(config.l1.assoc,
                         (config.l1.size_bytes + config.shared_mem_per_sm)
                         // (sets * line))
        array_cfg = CacheConfig(
            size_bytes=total_ways * sets * line,
            assoc=total_ways,
            line_size=line,
            mshr_entries=config.l1.mshr_entries,
            hit_latency=config.l1.hit_latency,
            sector_size=config.l1.sector_size,
        )
        self._l1_sets = sets
        self._l1_line = line
        self.l1 = SetAssocCache(array_cfg, name="l1.sm%d" % sm_id)
        self.l2 = l2
        self.shared_latency = 25
        # Per-access invariants, resolved once (GPUConfig is frozen).
        self._l1_hit_latency = config.l1.hit_latency
        self._icnt_latency = config.icnt_latency
        self._l1_sector_size = config.l1.sector_size
        # Interconnect injection port: one request per cycle per SM.  A
        # burst of misses queues here before paying the crossbar latency,
        # so memory-divergent kernels feel realistic injection pressure.
        self._icnt_free = 0

    def _inject(self, cycle: int) -> int:
        """Claim the SM's interconnect injection port; returns launch cycle."""
        free = self._icnt_free
        start = cycle if cycle > free else free
        self._icnt_free = start + 1
        return start

    # -- telemetry ---------------------------------------------------------
    def mshr_inflight(self, cycle: int) -> int:
        """L1 fills in flight at ``cycle`` (read-only)."""
        return self.l1.inflight(cycle)

    def icnt_queue_depth(self, cycle: int) -> int:
        """Cycles of backlog at this SM's interconnect injection port."""
        backlog = self._icnt_free - cycle
        return backlog if backlog > 0 else 0

    def update_carveout(self, shared_mem_used: int) -> None:
        """Re-balance the unified array: shared memory in use shrinks the
        cache-usable portion."""
        total = self.l1.config.size_bytes
        usable_bytes = max(self._l1_sets * self._l1_line,
                           total - shared_mem_used)
        ways = max(1, usable_bytes // (self._l1_sets * self._l1_line))
        self.l1.set_usable_ways(min(ways, self.l1.assoc))

    def issue(self, info: OpInfo, mem: Optional[MemAccess], cycle: int,
              stream: int, sstat: StreamStats) -> int:
        """Execute a memory instruction of opcode ``info`` whose operand
        is ``mem``; returns its completion cycle.  ``sstat``
        (``stream``'s stats) takes one update per instruction."""
        space = info.space
        if space is Space.SHARED:
            sstat.shared_accesses += 1
            return cycle + self.shared_latency
        if space is Space.CONST:
            return cycle + info.latency
        if mem is None or not mem.lines:
            return cycle + info.latency
        return self._global_access(info, mem, cycle, stream, sstat)

    def _global_access(self, info: OpInfo, mem: MemAccess, cycle: int,
                       stream: int, sstat: StreamStats) -> int:
        is_store = info.is_store
        bypass_l1 = mem.bypass_l1
        data_class = mem.data_class
        icnt = self._icnt_latency
        hit_latency = self._l1_hit_latency
        l1 = self.l1
        l2_access = self.l2.access
        # Under sectoring a load fetches only the sectors it touches.
        sector_size = self._l1_sector_size if mem.sectors is not None else 0
        line_size = self._l1_line
        mask = 0
        fetch_bytes = None
        done = cycle
        hits = 0
        # Transactions serialise on the L1 port: one line per cycle.
        # Coalescing emits distinct line addresses in first-occurrence
        # (lane) order, so each loop iteration touches a fresh line — no
        # per-line dedup needed here.
        for i, line in enumerate(mem.lines):
            t_cycle = cycle + i
            if is_store:
                # Write-through, no-allocate: update L1 if present, forward
                # the store to L2.  Store acks do not stall the warp long.
                if l1.probe(line, stream):
                    hits += 1
                launch = self._inject(t_cycle)
                l2_access(line, launch + icnt, data_class, stream,
                          is_store=True)
                completion = t_cycle + info.latency
            elif bypass_l1:
                # Streaming load (ld.cg): straight to L2, no L1 fill.
                launch = self._inject(t_cycle)
                completion = l2_access(
                    line, launch + icnt, data_class, stream) + icnt
            else:
                if sector_size:
                    sectors = mem.sectors_of_line(line, line_size)
                    if sectors:
                        mask = sector_mask_of(line, sectors, sector_size,
                                              line_size)
                        fetch_bytes = len(sectors) * sector_size
                    else:
                        mask, fetch_bytes = 0, None
                hit, ready = l1.access(line, t_cycle, stream, False, mask)
                if hit or ready is not None:
                    # A hit, or a merge into the line's in-flight fill.
                    hits += 1
                    completion = t_cycle + hit_latency
                    if ready is not None and ready > completion:
                        completion = ready
                else:
                    # Miss: take an MSHR (stalling until one frees if the
                    # file is full), cross the interconnect, access L2,
                    # come back, fill.
                    launch = self._inject(l1.mshr_cycle(t_cycle))
                    completion = l2_access(
                        line, launch + icnt, data_class, stream,
                        sector_mask=mask, fetch_bytes=fetch_bytes) + icnt
                    l1.fill(line, data_class, stream, mask, ready=completion)
            if completion > done:
                done = completion
        if bypass_l1 and not is_store:
            sstat.mem_transactions += len(mem.lines)
        else:
            sstat.note_l1(hits, len(mem.lines), data_class)
        return done
