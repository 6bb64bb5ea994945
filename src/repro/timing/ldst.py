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

from ..config import GPUConfig
from ..isa import DataClass, Space, WarpInstruction
from ..memory import L2Cache, SetAssocCache
from .stats import GPUStats


class LDSTPath:
    """Per-SM memory pipeline: L1 + interconnect + shared-memory access."""

    def __init__(self, sm_id: int, config: GPUConfig, l2: L2Cache,
                 stats: GPUStats) -> None:
        self.sm_id = sm_id
        self.config = config
        # Ampere unifies L1 and shared memory in one physical array
        # (Table II: "L1 Data Cache + Shared Memory").  The L1 is built
        # over the whole array; the usable-way limit shrinks as resident
        # CTAs allocate shared memory (the carveout) — which is how
        # "rendering uses the remaining L1 as texture cache" while a
        # matmul kernel holds shared memory (Fig 12 discussion).
        from ..config import CacheConfig
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
        self.stats = stats
        self.shared_latency = 25
        # Per-access invariants, resolved once (GPUConfig is frozen).
        self._l1_hit_latency = config.l1.hit_latency
        self._icnt_latency = config.icnt_latency
        self._l1_sectored = bool(config.l1.sector_size)
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
    def mshr_inflight(self) -> int:
        """L1 MSHR entries currently tracking in-flight fills (read-only)."""
        return len(self.l1._pending)

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

    def issue(self, inst: WarpInstruction, cycle: int, stream: int) -> int:
        """Execute a memory instruction; returns its completion cycle."""
        space = inst.info.space
        if space is Space.SHARED:
            self.stats.stream(stream).shared_accesses += 1
            return cycle + self.shared_latency
        if space is Space.CONST:
            return cycle + inst.info.latency
        if inst.mem is None or not inst.mem.lines:
            return cycle + inst.info.latency
        return self._global_access(inst, cycle, stream)

    def _sector_request(self, inst: WarpInstruction, line: int):
        """(sector_mask, fetch_bytes) for one line, under sectoring.

        Returns (0, None) when the L1 is unsectored or the trace carries
        no sector refinement.
        """
        ssize = self.config.l1.sector_size
        if not ssize or inst.mem.sectors is None:
            return 0, None
        from ..memory.cache import sector_mask_of
        sectors = inst.mem.sectors_of_line(line, self._l1_line)
        if not sectors:
            return 0, None
        mask = sector_mask_of(line, sectors, ssize, self._l1_line)
        return mask, len(sectors) * ssize

    def _global_access(self, inst: WarpInstruction, cycle: int, stream: int) -> int:
        mem = inst.mem
        assert mem is not None
        info = inst.info
        is_store = info.is_store
        bypass_l1 = mem.bypass_l1
        data_class = mem.data_class
        sstat = self.stats.stream(stream)
        icnt = self._icnt_latency
        l2_access = self.l2.access
        sectored = self._l1_sectored and mem.sectors is not None
        done = cycle
        # Transactions serialise on the L1 port: one line per cycle.
        # Coalescing emits distinct line addresses in first-occurrence
        # (lane) order, so each loop iteration touches a fresh line — no
        # per-line dedup needed here.
        for i, line in enumerate(mem.lines):
            t_cycle = cycle + i
            if is_store:
                # Write-through, no-allocate: update L1 if present, forward
                # the store to L2.  Store acks do not stall the warp long.
                hit = self.l1.probe(line, stream)
                sstat.note_l1(hit, data_class)
                launch = self._inject(t_cycle)
                l2_access(line, launch + icnt, data_class, stream,
                          is_store=True)
                completion = t_cycle + info.latency
            elif bypass_l1:
                # Streaming load (ld.cg): straight to L2, no L1 fill.
                sstat.mem_transactions += 1
                launch = self._inject(t_cycle)
                completion = l2_access(
                    line, launch + icnt, data_class, stream) + icnt
            else:
                if sectored:
                    mask, fetch_bytes = self._sector_request(inst, line)
                else:
                    mask, fetch_bytes = 0, None
                completion = self._load_line(line, t_cycle, data_class,
                                             stream, mask, fetch_bytes)
            if completion > done:
                done = completion
        return done

    def _load_line(self, line: int, cycle: int, data_class: DataClass,
                   stream: int, sector_mask: int = 0,
                   fetch_bytes: Optional[int] = None) -> int:
        sstat = self.stats.stream(stream)
        l1 = self.l1
        hit_latency = self._l1_hit_latency
        pending: Optional[int] = l1._pending.get(line)
        if pending is not None:
            if pending > cycle:
                hit, merged = l1.access(line, cycle, data_class, stream,
                                        sector_mask=sector_mask)
                sstat.note_l1(hit or merged, data_class)
                if hit or merged:
                    done = cycle + hit_latency
                    return done if done > pending else pending
                # Sector miss on the in-flight line: fetch the rest below.
            else:
                l1.complete_pending(line)
                hit, _ = l1.access(line, cycle, data_class, stream,
                                   sector_mask=sector_mask)
                sstat.note_l1(hit, data_class)
                if hit:
                    return cycle + hit_latency
        else:
            hit, _ = l1.access(line, cycle, data_class, stream,
                               sector_mask=sector_mask)
            sstat.note_l1(hit, data_class)
            if hit:
                return cycle + hit_latency
        # Miss: allocate an MSHR (stalling until one frees if the file is
        # full), cross the interconnect, access L2, come back, fill.
        if not l1.mshr_free:
            l1.purge_pending(cycle)
            if not l1.mshr_free:
                wait = l1.earliest_pending()
                assert wait is not None
                cycle = max(cycle, wait)
                l1.purge_pending(cycle)
        icnt = self._icnt_latency
        launch = self._inject(cycle)
        l2_ready = self.l2.access(line, launch + icnt, data_class, stream,
                                  sector_mask=sector_mask,
                                  fetch_bytes=fetch_bytes)
        ready = l2_ready + icnt
        l1.fill(line, data_class, stream, sector_mask)
        l1.note_pending(line, ready)
        return ready
