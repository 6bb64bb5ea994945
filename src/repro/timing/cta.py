"""CTA (thread-block) scheduler with pluggable GPU partitioning.

By default the simulator behaves like stock Accel-Sim: CTAs from one kernel
are launched exhaustively before the next kernel gets a turn, so a large
kernel monopolises the machine (Section III-A).  CRISP adds partition
policies — MPS, MiG, fine-grained intra-SM — expressed here as a
:class:`PartitionPolicy` strategy object the scheduler consults on every
issue:

* ``allowed_sms``    — which SMs a stream may occupy (inter-SM methods).
* ``quota``          — per-SM per-stream resource ceilings (intra-SM methods).
* ``configure_memory`` — L2 bank/set partitioning (MiG, TAP).
* ``on_epoch`` / ``on_kernel_start`` — hooks for dynamic mechanisms
  (Warped-Slicer re-partitioning, TAP ratio updates).

Dynamic quota shrinks follow the paper's drain semantics: the scheduler
simply stops issuing CTAs for an over-quota stream and waits for enough
CTAs to commit (Section III-A's "wait until two CTAs from kernel A commit").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from ..config import GPUConfig
from ..isa import CTAResources, KernelTrace
from .sm import SM, ResidentCTA

if TYPE_CHECKING:  # pragma: no cover
    from .gpu import GPU


class PartitionPolicy:
    """Fully shared GPU, exhaustive per-kernel launch (Accel-Sim default)."""

    name = "shared"
    #: Round-robin CTA issue across streams instead of exhaustive.
    interleave = False
    #: If set, the GPU calls :meth:`on_epoch` every this-many cycles.
    epoch_interval: Optional[int] = None

    def allowed_sms(self, stream: int, num_sms: int) -> Sequence[int]:
        return range(num_sms)

    def quota(self, sm: SM, stream: int, config: GPUConfig) -> Optional[CTAResources]:
        """Per-stream resource ceiling on ``sm``; None = whole SM."""
        return None

    def configure_memory(self, l2, stream_ids: Sequence[int]) -> None:
        """Install L2 partitioning before the run starts."""

    def on_epoch(self, gpu: "GPU", cycle: int) -> None:
        """Periodic hook for dynamic mechanisms."""

    def on_kernel_start(self, gpu: "GPU", stream: int, kernel: KernelTrace,
                        cycle: int) -> None:
        """Called when the first CTA of a kernel issues."""


class _KernelState:
    """Issue/completion bookkeeping for one kernel in a stream."""

    __slots__ = ("kernel", "next_cta", "outstanding", "started", "complete",
                 "start_cycle", "complete_cycle", "arrival_cycle")

    def __init__(self, kernel: KernelTrace) -> None:
        self.kernel = kernel
        self.next_cta = 0
        self.outstanding = 0
        self.started = False
        self.complete = False
        self.start_cycle = -1
        self.complete_cycle = -1
        #: Earliest cycle this kernel may start issuing (open-loop arrival).
        self.arrival_cycle = 0

    @property
    def fully_issued(self) -> bool:
        return self.next_cta >= self.kernel.num_ctas


class StreamQueue:
    """Kernel queue of one stream, with pipelined in-order issue.

    Kernels issue in order, but a kernel whose ``depends_on_prev`` is False
    may *start* as soon as its predecessor has fully issued — this is how
    the rendering pipeline overlaps one batch's fragment shading with the
    next batch's vertex shading (ITR).  ``depends_on_prev=True`` kernels
    (CUDA semantics, and FS after its own VS) wait for the predecessor to
    fully complete.  ``max_inflight`` bounds how many kernels may be live
    at once.
    """

    def __init__(self, stream_id: int, kernels: Sequence[KernelTrace],
                 max_inflight: int = 8,
                 arrivals: Optional[Sequence[int]] = None) -> None:
        if not kernels:
            raise ValueError("stream %d has no kernels" % stream_id)
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.stream_id = stream_id
        self.states: List[_KernelState] = [_KernelState(k) for k in kernels]
        self._by_uid: Dict[int, _KernelState] = {
            st.kernel.uid: st for st in self.states
        }
        self.has_arrivals = arrivals is not None
        if arrivals is not None:
            if len(arrivals) != len(self.states):
                raise ValueError(
                    "stream %d: %d arrivals for %d kernels"
                    % (stream_id, len(arrivals), len(self.states)))
            prev = 0
            for st, at in zip(self.states, arrivals):
                at = int(at)
                if at < 0 or at < prev:
                    raise ValueError(
                        "stream %d: arrival cycles must be non-negative "
                        "and non-decreasing" % stream_id)
                st.arrival_cycle = at
                prev = at
        self.max_inflight = max_inflight
        self._issue_idx = 0
        #: (kernel name, completion cycle) pairs, in completion order.
        self.kernel_completions: List = []

    @property
    def kernels(self) -> List[KernelTrace]:
        return [st.kernel for st in self.states]

    @property
    def all_complete(self) -> bool:
        return all(st.complete for st in self.states)

    @property
    def inflight(self) -> int:
        return sum(1 for st in self.states if st.started and not st.complete)

    def _issuable_state(self, cycle: Optional[int] = None
                        ) -> Optional[_KernelState]:
        # Skip past fully-issued kernels.
        while (self._issue_idx < len(self.states)
               and self.states[self._issue_idx].fully_issued):
            self._issue_idx += 1
        if self._issue_idx >= len(self.states):
            return None
        st = self.states[self._issue_idx]
        if st.started:
            return st
        # Start conditions for a new kernel.
        if self._issue_idx > 0:
            prev = self.states[self._issue_idx - 1]
            if st.kernel.depends_on_prev and not prev.complete:
                return None
        if self.inflight >= self.max_inflight:
            return None
        # Open-loop gate: an unstarted kernel may not issue before its
        # arrival cycle.  Cycle-less callers see the over-approximation
        # (arrival ignored), which the issue path never uses.
        if self.has_arrivals and cycle is not None and st.arrival_cycle > cycle:
            return None
        return st

    def next_arrival_after(self, cycle: int) -> Optional[int]:
        """Earliest future arrival cycle of an unstarted kernel, or None."""
        best: Optional[int] = None
        for st in self.states[self._issue_idx:]:
            if st.started or st.fully_issued:
                continue
            if st.arrival_cycle > cycle and (best is None
                                             or st.arrival_cycle < best):
                best = st.arrival_cycle
        return best

    def current_kernel(self) -> Optional[KernelTrace]:
        st = self._issuable_state()
        return st.kernel if st is not None else None

    @property
    def has_issuable_cta(self) -> bool:
        return self._issuable_state() is not None

    @property
    def next_kernel_starting(self) -> bool:
        """True when the next take_cta() starts a new kernel."""
        st = self._issuable_state()
        return st is not None and not st.started

    def take_cta(self, cycle: int = 0):
        st = self._issuable_state(cycle)
        assert st is not None
        if not st.started:
            st.started = True
            st.start_cycle = cycle
        cta = st.kernel.ctas[st.next_cta]
        st.next_cta += 1
        st.outstanding += 1
        return st.kernel, cta

    def note_cta_complete(self, kernel_uid: int, cycle: int) -> bool:
        """Returns True when that CTA's kernel just fully completed."""
        st = self._by_uid.get(kernel_uid)
        if st is None:
            raise KeyError("unknown kernel uid %d in stream %d"
                           % (kernel_uid, self.stream_id))
        st.outstanding -= 1
        assert st.outstanding >= 0
        if st.outstanding == 0 and st.fully_issued and not st.complete:
            st.complete = True
            st.complete_cycle = cycle
            self.kernel_completions.append((st.kernel.name, cycle))
            return True
        return False

    def timeline(self) -> List:
        """(kernel name, start cycle, complete cycle) per finished kernel,
        in launch order — the per-drawcall/per-kernel timeline reports."""
        return [(st.kernel.name, st.start_cycle, st.complete_cycle)
                for st in self.states if st.complete]

    def kernel_span(self, kernel_uid: int):
        """(name, start_cycle, complete_cycle) of one kernel by uid."""
        st = self._by_uid[kernel_uid]
        return st.kernel.name, st.start_cycle, st.complete_cycle


class CTAScheduler:
    """Issues CTAs onto SMs subject to the partition policy."""

    def __init__(self, config: GPUConfig, sms: List[SM],
                 policy: Optional[PartitionPolicy] = None) -> None:
        self.config = config
        self.sms = sms
        self.policy = policy or PartitionPolicy()
        #: The running GPU, passed to the policy and telemetry hooks.
        #: ``GPU.run`` sets it for the run and clears it on exit.
        self.gpu: Optional["GPU"] = None
        self.streams: Dict[int, StreamQueue] = {}
        self._rr_offset = 0

    def add_stream(self, stream_id: int, kernels: Sequence[KernelTrace],
                   arrivals: Optional[Sequence[int]] = None) -> StreamQueue:
        if stream_id in self.streams:
            raise ValueError("stream %d already registered" % stream_id)
        sq = StreamQueue(stream_id, kernels, arrivals=arrivals)
        self.streams[stream_id] = sq
        return sq

    @property
    def all_complete(self) -> bool:
        return all(sq.all_complete for sq in self.streams.values())

    @property
    def has_issuable_work(self) -> bool:
        return any(sq.has_issuable_cta for sq in self.streams.values())

    @property
    def has_arrivals(self) -> bool:
        """True when any stream runs open-loop (arrival-gated kernels)."""
        return any(sq.has_arrivals for sq in self.streams.values())

    def next_arrival_after(self, cycle: int) -> Optional[int]:
        """Earliest future arrival across all streams, or None."""
        best: Optional[int] = None
        for sid in sorted(self.streams):
            sq = self.streams[sid]
            if not sq.has_arrivals:
                continue
            t = sq.next_arrival_after(cycle)
            if t is not None and (best is None or t < best):
                best = t
        return best

    # -- issue -----------------------------------------------------------------
    def _quota_allows(self, sm: SM, stream: int, res: CTAResources) -> bool:
        q = self.policy.quota(sm, stream, self.config)
        if q is None:
            return True
        u = sm.stream_usage(stream)
        return (
            u.threads + res.threads <= q.threads
            and u.registers + res.registers <= q.registers
            and u.shared_mem + res.shared_mem <= q.shared_mem
            and u.warps + res.warps <= q.warps
        )

    def _try_issue_one(self, sq: StreamQueue, cycle: int) -> bool:
        st = sq._issuable_state(cycle)
        if st is None:
            return False
        kernel = st.kernel
        res = kernel.cta_resources(self.config.warp_size)
        best_sm: Optional[SM] = None
        best_free = -1
        for sm_id in self.policy.allowed_sms(sq.stream_id, len(self.sms)):
            sm = self.sms[sm_id]
            if not sm.fits(res):
                continue
            if not self._quota_allows(sm, sq.stream_id, res):
                continue
            if sm.free_warp_slots > best_free:
                best_free = sm.free_warp_slots
                best_sm = sm
        if best_sm is None:
            return False
        if not st.started and self.gpu is not None:
            self.policy.on_kernel_start(self.gpu, sq.stream_id, kernel, cycle)
            self.gpu.telemetry.on_kernel_start(sq.stream_id, kernel, cycle)
        kernel_ref, cta = sq.take_cta(cycle)
        resident = best_sm.launch_cta(kernel_ref, cta, sq.stream_id)
        resident.launch_cycle = cycle
        return True

    def fill(self, cycle: int) -> int:
        """Issue as many CTAs as the policy admits; returns the count."""
        issued = 0
        stream_ids = sorted(self.streams)
        if not stream_ids:
            return 0
        if self.policy.interleave:
            # Round-robin one CTA per stream per pass, starting after the
            # last stream served, until no stream can issue.
            progressed = True
            while progressed:
                progressed = False
                n = len(stream_ids)
                for k in range(n):
                    sid = stream_ids[(self._rr_offset + k) % n]
                    if self._try_issue_one(self.streams[sid], cycle):
                        issued += 1
                        progressed = True
                self._rr_offset = (self._rr_offset + 1) % n
        else:
            # Exhaustive: drain the earliest stream with work first
            # (Accel-Sim's default launch order).
            for sid in stream_ids:
                sq = self.streams[sid]
                while self._try_issue_one(sq, cycle):
                    issued += 1
        return issued

    def on_cta_complete(self, sm: SM, cta: ResidentCTA, cycle: int) -> None:
        sq = self.streams.get(cta.stream)
        if sq is None:
            return
        if sq.note_cta_complete(cta.kernel.uid, cycle):
            stats = sm.stats.stream(cta.stream)
            stats.kernels_completed += 1
            if self.gpu is not None:
                name, start, end = sq.kernel_span(cta.kernel.uid)
                self.gpu.telemetry.on_kernel_complete(
                    cta.stream, cta.kernel.uid, name, start, end)
