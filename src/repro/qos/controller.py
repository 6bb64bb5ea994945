"""Adaptive partition controller: epoch-driven hill climbing.

:class:`AdaptiveQoSPolicy` is a fine-grained intra-SM partition (every
stream runs on every SM under a per-stream warp/thread/register quota,
the FG mechanism of Section III-A) whose shares are *live*: every
``epoch_interval`` cycles the GPU's existing epoch hook (the same one
TAP repartitions through) hands the policy an observation window from
the :class:`~repro.qos.monitor.QoSMonitor` and a pluggable
:class:`ControllerPolicy` decides one move — shift one compute-quota
slot or a slice of L2 sets from a client with slack to the worst SLO
violator.  Shrinking a client's quota drains by attrition (the CTA
scheduler just stops placing CTAs for an over-quota stream), exactly
the paper's drain semantics, so no preemption machinery is needed.

Quota moves are the reason the adaptive policy partitions *within* SMs
rather than granting whole SMs: every stream keeps touching every SM,
so each SM's L1 stays warm for each stream and a repartition takes
effect at the next CTA issue with no cache warm-up transient.  Granting
a whole SM instead hands the victim a cache that is stone cold for its
working set — and under any backlog the greedy CTA placer floods the
empty SM, putting ~10x-slower cold CTAs on every frame's critical path
for several frames.

The controller interface is deliberately tiny (one ``decide`` method
over a plain observation dict) so a learned controller can replace the
heuristic without touching the policy plumbing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..config import GPUConfig
from ..isa import CTAResources
from ..timing.cta import PartitionPolicy
from ..timing.sm import SM
from .monitor import QoSMonitor

__all__ = ["ControllerPolicy", "HillClimbController", "AdaptiveQoSPolicy"]


class ControllerPolicy:
    """Pluggable decision maker: observation in, one move (or None) out.

    The observation is a plain dict::

        {"epoch_cycle": int,
         "compute_shares": {stream: quota_slots},
         "l2_shares":      {stream: set_count},
         "window":         {stream: {"frames", "violations", "frame_sum",
                                     "frame_max", "arrivals",
                                     "slo_budget"}}}

    A decision is ``{"kind": "compute"|"l2", "from": stream,
    "to": stream}`` or ``None`` (hold).
    """

    name = "null"

    def decide(self, observation: dict) -> Optional[dict]:
        return None


class HillClimbController(ControllerPolicy):
    """Violation-driven hill climbing over compute-quota and L2 shares.

    One move per epoch at most: pick the most stressed client — SLO
    violations in the window, or frame times within ``headroom`` of the
    budget (acting on near-misses starts the climb before the SLO is
    actually breached, while the backlog is still shallow) — pick the
    donor with the most slack, and grant one compute-quota slot or
    ``l2_step`` L2 sets.
    The climbing dimension is chosen by outcome, not by rote alternation:
    the controller keeps granting the same resource kind while the
    victim's stress keeps falling, and flips to the other kind when a
    grant demonstrably failed to help — so a compute-bound victim gets
    quota slots and a cache-thrashed victim gets L2 sets without either
    case being hardcoded.  After each grant the controller holds for
    ``settle_epochs`` epochs: a grant takes effect by attrition (the
    donor's over-quota CTAs drain off; remapped L2 sets re-warm), so the
    stress signal lags the move and reacting to it immediately just
    overshoots.

    After a sustained calm stretch the controller drifts one step back
    toward the even split, so transient bursts don't permanently distort
    the partition — but a drift that is punished (stress reappears while
    the give-back is the most recent move) doubles the calm requirement,
    so under sustained load the probing give-backs decay instead of
    oscillating forever.
    """

    name = "hill-climb"

    def __init__(self, l2_step: int = 2, min_compute: int = 2,
                 min_l2_sets: int = 2, calm_epochs: int = 3,
                 max_calm_epochs: int = 64, headroom: float = 0.85,
                 settle_epochs: int = 2, shift_ratio: float = 1.75,
                 rate_alpha: float = 0.2, rate_warmup_epochs: int = 4) -> None:
        self.l2_step = l2_step
        #: No donor shrinks below this many quota slots.  One slot of an
        #: 8-slot total sits below the largest single-CTA footprint of the
        #: bundled compute workloads, where the policy's deadlock floor
        #: binds and the applied quota silently exceeds the controller's
        #: model of it; two slots keeps model and machine in agreement.
        self.min_compute = min_compute
        self.min_l2_sets = min_l2_sets
        #: Consecutive stress-free epochs required before granted
        #: resources drift back toward even (prevents give-back/violate
        #: oscillation right at the stability boundary).
        self.calm_epochs = calm_epochs
        #: Ceiling for the exponential give-back backoff.
        self.max_calm_epochs = max_calm_epochs
        #: Fraction of the SLO budget at which a client counts as
        #: stressed even without a hard violation.
        self.headroom = headroom
        #: Grant-to-grant cooldown (epochs) covering the attrition lag.
        self.settle_epochs = settle_epochs
        #: Arrival rate (vs the EWMA baseline) that counts as a demand
        #: shift.  Once a client's share is too small for its new rate,
        #: its backlog grows every frame and drains only at the thin
        #: margin between service and arrival — so the controller must
        #: move on the *arrival* signal, which leads the latency signal
        #: by a full frame time, not wait for violations to appear.
        self.shift_ratio = shift_ratio
        #: EWMA smoothing for the per-client arrival-rate baseline.
        self.rate_alpha = rate_alpha
        #: Epochs of rate history required before the shift detector arms.
        self.rate_warmup_epochs = rate_warmup_epochs
        self._calm_required = calm_epochs
        self._calm_streak = 0
        self._cooldown = 0
        self._drifting = False
        #: Current climbing dimension, kept while grants keep helping.
        self._grant_kind = "compute"
        #: (kind, victim stream, stress score) of the previous grant —
        #: the baseline the next grant decision judges progress against.
        self._last_grant: Optional[tuple] = None
        #: Per-stream arrival-rate EWMA (arrivals per epoch window) and
        #: the one-shot arming state of the shift detector.
        self._rate: Dict[int, float] = {}
        self._rate_armed: Dict[int, bool] = {}
        self._epochs_seen = 0

    def _drift_move(self, shares: Dict[int, int], kind: str,
                    step: int, minimum: int) -> Optional[dict]:
        streams = sorted(shares)
        hi = max(streams, key=lambda s: (shares[s], -s))
        lo = min(streams, key=lambda s: (shares[s], s))
        # Hysteresis: only drift back while the imbalance exceeds one
        # give-back step *beyond* even.  Chasing the last step back to a
        # perfectly even split is where give-back/violate oscillation
        # lives — the marginal resource is by construction the one the
        # stressed client just needed.
        if shares[hi] - shares[lo] > 2 * step and shares[hi] - step >= minimum:
            return {"kind": kind, "from": hi, "to": lo}
        return None

    def _stress(self, w: dict) -> int:
        """Stress score for one client window: hard violations count
        double, a near-miss (frame_max inside the headroom band) counts
        once, anything else is calm."""
        if w["slo_budget"] is None or w["frames"] == 0:
            return 0
        score = 2 * w["violations"]
        if w["frame_max"] > self.headroom * w["slo_budget"]:
            score += 1
        return score

    def _demand_shifts(self, window: Dict[int, dict]) -> List[int]:
        """Feed-forward leg of the controller: streams whose arrival rate
        just stepped up against their EWMA baseline.

        Completions lag arrivals by a full frame, and once the old share
        is too small for the new rate every frame of lag adds backlog
        that later drains only at the thin margin between service and
        arrival — waiting for the latency signal means adapting under
        debt.  The detector is one-shot per excursion: it fires once per
        rate step and re-arms when the rate falls back to the (by then
        adapted) baseline, so a sustained higher rate yields one
        proactive grant, not one per epoch.
        """
        shifted: List[int] = []
        armed_now = self._epochs_seen >= self.rate_warmup_epochs
        for s in sorted(window):
            w = window[s]
            arrivals = w.get("arrivals", 0)
            baseline = self._rate.get(s, 0.0)
            if w["slo_budget"] is not None and baseline > 0.0 and armed_now:
                ratio = arrivals / baseline
                if (self._rate_armed.get(s, True) and arrivals >= 2
                        and ratio >= self.shift_ratio):
                    shifted.append(s)
                    self._rate_armed[s] = False
                elif ratio <= 1.0:
                    self._rate_armed[s] = True
            self._rate[s] = (baseline * (1.0 - self.rate_alpha)
                             + arrivals * self.rate_alpha)
        self._epochs_seen += 1
        return shifted

    def decide(self, observation: dict) -> Optional[dict]:
        window: Dict[int, dict] = observation["window"]
        compute_shares: Dict[int, int] = observation["compute_shares"]
        l2_shares: Dict[int, int] = observation["l2_shares"]
        shifted = self._demand_shifts(window)

        def urgency(s: int) -> int:
            return self._stress(window[s]) + (1 if s in shifted else 0)

        stressed = sorted((s for s in window if urgency(s) > 0),
                          key=lambda s: (-urgency(s), s))
        if self._cooldown > 0:
            # A grant is still taking effect by attrition; acting on the
            # lagging stress signal now would overshoot.
            self._cooldown -= 1
            if stressed:
                self._calm_streak = 0
            return None
        if not stressed:
            if not any(w["frames"] > 0 for w in window.values()):
                return None  # idle window: no evidence of calm or stress
            self._last_grant = None  # stress episode over; keep the kind
            self._calm_streak += 1
            if self._calm_streak < self._calm_required:
                return None
            # Sustained calm: relax one step toward even, compute first.
            move = self._drift_move(compute_shares, "compute", 1,
                                    self.min_compute)
            if move is None:
                move = self._drift_move(l2_shares, "l2", self.l2_step,
                                        self.min_l2_sets)
            if move is not None:
                self._calm_streak = 0
                self._drifting = True
            return move
        if self._drifting:
            # The most recent move was a give-back and stress followed:
            # the load is sustained, so probe less often.
            self._calm_required = min(self._calm_required * 2,
                                      self.max_calm_epochs)
        self._drifting = False
        self._calm_streak = 0
        worst = stressed[0]

        def slack(s: int) -> int:
            w = window[s]
            if w["slo_budget"] is None:
                return 1 << 30  # best-effort client: always donatable
            return w["slo_budget"] - w["frame_max"]

        donors = sorted(
            (s for s, w in window.items()
             if s != worst and urgency(s) == 0),
            key=lambda s: (-slack(s), s))
        if not donors:
            return None
        # Continuous stress score for the victim: window violations plus
        # how deep the worst frame sits in the budget.  Falling score
        # means the last grant is working.
        w = window[worst]
        score = w["violations"] + (w["frame_max"] / w["slo_budget"]
                                   if w["slo_budget"] else 0.0)
        if (self._last_grant is not None
                and self._last_grant[0] == self._grant_kind
                and self._last_grant[1] == worst
                and score > self._last_grant[2] + 0.05):
            # Granting this kind left the victim clearly worse off:
            # climb the other dimension.
            self._grant_kind = "l2" if self._grant_kind == "compute" \
                else "compute"
        # Grant only the current climbing dimension; when it is exhausted
        # (donors at their floor) the controller holds rather than
        # spending the other resource on an unproven hunch — the outcome
        # check above is the only way the dimension flips.
        for donor in donors:
            if (self._grant_kind == "compute"
                    and compute_shares[donor] - 1 >= self.min_compute):
                self._last_grant = ("compute", worst, score)
                self._cooldown = self.settle_epochs
                return {"kind": "compute", "from": donor, "to": worst}
            if (self._grant_kind == "l2"
                    and l2_shares[donor] - self.l2_step
                    >= self.min_l2_sets):
                self._last_grant = ("l2", worst, score)
                self._cooldown = self.settle_epochs
                return {"kind": "l2", "from": donor, "to": worst}
        return None


class AdaptiveQoSPolicy(PartitionPolicy):
    """Fine-grained intra-SM partition with live, controller-driven
    compute-quota and L2 set shares.

    Every stream may run on every SM; each stream's ceiling on threads,
    registers, shared memory and warp slots is ``slots/total`` of the SM
    (the FG mechanism).  One *slot* is one SM's worth of intra-SM
    capacity, so an even split across N streams on an 8-SM part reads as
    8/N slots each.  Because streams never move between SMs, every L1
    stays warm for every stream and a quota move has no cache warm-up
    transient — the property that makes frequent epoch-driven
    repartitioning affordable (see the module docstring).
    """

    name = "adaptive"
    interleave = True

    def __init__(self, compute_slots: Dict[int, int],
                 monitor: QoSMonitor,
                 stream_clients: Dict[int, str],
                 controller: Optional[ControllerPolicy] = None,
                 epoch_interval: int = 25_000,
                 floors: Optional[Dict[int, CTAResources]] = None) -> None:
        if not compute_slots:
            raise ValueError("adaptive policy needs per-stream slots")
        if any(n < 1 for n in compute_slots.values()):
            raise ValueError("every stream needs at least one slot")
        self.compute_slots = dict(compute_slots)
        self.total_slots = sum(compute_slots.values())
        #: Per-stream quota floor: the largest single-CTA footprint in the
        #: stream's kernel mix.  A quota below one CTA would deadlock the
        #: stream (the scheduler could never place its next CTA), so
        #: shrinking drains to the floor and no further — every stream
        #: keeps forward progress under any controller decision.
        self.floors = dict(floors or {})
        self.monitor = monitor
        self.stream_clients = dict(stream_clients)
        self.controller = controller or HillClimbController()
        self.epoch_interval = epoch_interval
        self._l2 = None
        self.l2_shares: Dict[int, int] = {}
        #: quota() results per stream; cleared when a run starts
        #: (configure_memory) and when _apply moves compute slots.
        self._quotas: Dict[int, Optional[CTAResources]] = {}
        #: (cycle, decision dict) per applied move — the audit trail the
        #: QoS report and campaign artifact carry.
        self.decision_history: List = []

    @classmethod
    def even(cls, num_slots: int, streams: Sequence[int], *,
             monitor: QoSMonitor, stream_clients: Dict[int, str],
             controller: Optional[ControllerPolicy] = None,
             epoch_interval: int = 25_000,
             floors: Optional[Dict[int, CTAResources]] = None,
             ) -> "AdaptiveQoSPolicy":
        streams = list(streams)
        if num_slots < len(streams):
            raise ValueError("fewer quota slots than streams")
        base = num_slots // len(streams)
        extra = num_slots % len(streams)
        slots = {sid: base + (1 if i < extra else 0)
                 for i, sid in enumerate(streams)}
        return cls(slots, monitor, stream_clients, controller=controller,
                   epoch_interval=epoch_interval, floors=floors)

    # -- partition plumbing ------------------------------------------------
    def configure_memory(self, l2, stream_ids: Sequence[int]) -> None:
        self._l2 = l2
        self._quotas = {}
        streams = sorted(stream_ids)
        per_bank = l2.sets_per_bank
        base = per_bank // len(streams)
        shares = {sid: base for sid in streams}
        shares[streams[-1]] += per_bank - base * len(streams)
        self.l2_shares = shares
        l2.partition_sets(dict(shares))

    # -- partition mechanics ----------------------------------------------
    def quota(self, sm: SM, stream: int, config: GPUConfig
              ) -> Optional[CTAResources]:
        try:
            return self._quotas[stream]
        except KeyError:
            q = self._quotas[stream] = self._compute_quota(stream, config)
            return q

    def _compute_quota(self, stream: int, config: GPUConfig
                       ) -> Optional[CTAResources]:
        slots = self.compute_slots.get(stream)
        if slots is None:
            return None
        total = self.total_slots
        floor = self.floors.get(stream)
        q = CTAResources(
            threads=config.max_threads_per_sm * slots // total,
            registers=config.registers_per_sm * slots // total,
            shared_mem=config.shared_mem_per_sm * slots // total,
            warps=config.max_warps_per_sm * slots // total,
        )
        if floor is None:
            return q
        return CTAResources(
            threads=max(q.threads, floor.threads),
            registers=max(q.registers, floor.registers),
            shared_mem=max(q.shared_mem, floor.shared_mem),
            warps=max(q.warps, floor.warps),
        )

    # -- the epoch hook ----------------------------------------------------
    def on_epoch(self, gpu, cycle: int) -> None:
        window_by_client = self.monitor.take_window(cycle)
        window = {
            sid: window_by_client[client]
            for sid, client in sorted(self.stream_clients.items())
            if client in window_by_client
        }
        observation = {
            "epoch_cycle": cycle,
            "compute_shares": dict(sorted(self.compute_slots.items())),
            "l2_shares": dict(self.l2_shares),
            "window": window,
        }
        decision = self.controller.decide(observation)
        if decision is None:
            return
        self._apply(decision)
        self.decision_history.append((cycle, dict(decision)))
        if gpu is not None:
            gpu.telemetry.on_repartition(
                cycle, self.name,
                {"decision": dict(decision),
                 "compute_shares": {str(s): n for s, n in
                                    sorted(self.compute_slots.items())},
                 "l2_shares": {str(s): n for s, n in
                               sorted(self.l2_shares.items())}})

    def _apply(self, decision: dict) -> None:
        src, dst = decision["from"], decision["to"]
        if decision["kind"] == "compute":
            if self.compute_slots[src] <= 1:
                raise ValueError("stream %d cannot drop below one slot"
                                 % src)
            self.compute_slots[src] -= 1
            self.compute_slots[dst] += 1
            self._quotas = {}
        elif decision["kind"] == "l2":
            step = min(self.controller.l2_step
                       if hasattr(self.controller, "l2_step") else 2,
                       self.l2_shares[src] - 1)
            self.l2_shares[src] -= step
            self.l2_shares[dst] += step
            if self._l2 is not None:
                self._l2.partition_sets(dict(self.l2_shares))
        else:
            raise ValueError("unknown decision kind %r" % decision["kind"])
