"""Warped-Slicer: dynamic intra-SM partitioning (Xu et al., Section VI-C).

Warped-Slicer shares each SM between kernels and picks the per-SM CTA split
with a sampled performance model: at the start of execution, *parallel SMs*
each run a different mix of the two kernels; measuring per-SM throughput
yields an IPC-versus-quota curve per kernel, and the water-filling step
picks the split maximising combined normalised throughput.

Following the paper's methodology, the partition is re-sampled at every new
kernel launch for compute and at every new drawcall batch for rendering
("the dynamic partition is reset at the new kernel launch ... and at the
new drawcall").  This re-sampling is the overhead that sinks VIO (many
small kernels) in Fig 12, and the unbalanced mixes run *during* sampling
are faithfully simulated, so the overhead is organic, not a fudge factor.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .partition import FGDynamicPolicy

#: Quota ladder sampled across SMs: stream-0 fraction per rung.
DEFAULT_LADDER = (0.25, 0.375, 0.5, 0.625, 0.75)


def water_filling(
    curve_a: Dict[float, float],
    curve_b: Dict[float, float],
) -> float:
    """Pick the stream-A fraction maximising combined normalised IPC.

    ``curve_a[f]`` is stream A's measured IPC when A holds fraction ``f`` of
    an SM; ``curve_b[f]`` is B's IPC when *A* holds ``f`` (B holds ``1-f``).
    Normalising each curve by its own maximum makes the two kernels
    commensurable — the role the water-filling step plays in Warped-Slicer.
    """
    if not curve_a or set(curve_a) != set(curve_b):
        raise ValueError("curves must cover the same fraction ladder")
    max_a = max(curve_a.values()) or 1.0
    max_b = max(curve_b.values()) or 1.0
    best_f = None
    best_score = float("-inf")
    for f in sorted(curve_a):
        score = curve_a[f] / max_a + curve_b[f] / max_b
        if score > best_score:
            best_score = score
            best_f = f
    assert best_f is not None
    return best_f


class WarpedSlicerPolicy(FGDynamicPolicy):
    """Intra-SM dynamic partitioning driven by parallel-SM sampling."""

    name = "warped-slicer"

    def __init__(
        self,
        streams: Sequence[int],
        ladder: Sequence[float] = DEFAULT_LADDER,
        sample_cycles: int = 1500,
        epoch_interval: int = 500,
    ) -> None:
        streams = list(streams)
        if len(streams) != 2:
            raise ValueError("Warped-Slicer partitions exactly 2 workloads")
        super().__init__({sid: 0.5 for sid in streams})
        self.streams: Tuple[int, int] = (streams[0], streams[1])
        self.ladder = tuple(ladder)
        self.sample_cycles = sample_cycles
        self.epoch_interval = epoch_interval
        self._sampling = False
        self._sample_end = 0
        self._baseline: Dict[int, Dict[int, int]] = {}
        self._sm_rung: Dict[int, float] = {}
        #: (cycle, chosen stream-0 fraction) decisions, for Fig 13.
        self.decisions: List[Tuple[int, float]] = []
        self._sample_requests = 0

    # -- sampling lifecycle -----------------------------------------------------
    def on_kernel_start(self, gpu, stream: int, kernel, cycle: int) -> None:
        """New kernel/drawcall: restart the sampling phase."""
        self._begin_sampling(gpu, cycle)

    def _begin_sampling(self, gpu, cycle: int) -> None:
        self._sampling = True
        self._sample_requests += 1
        self._sample_end = cycle + self.sample_cycles
        gpu.telemetry.on_instant(cycle, "warped-slicer:sample-start",
                                 args={"until": self._sample_end})
        self._baseline = {
            sm.sm_id: dict(sm.issued_by_stream) for sm in gpu.sms
        }
        self._sm_rung = {}
        num = len(gpu.sms)
        for sm_id in range(num):
            frac = self.ladder[sm_id % len(self.ladder)]
            self._sm_rung[sm_id] = frac
            self.set_sm_override(sm_id, {
                self.streams[0]: frac,
                self.streams[1]: 1.0 - frac,
            })

    def on_epoch(self, gpu, cycle: int) -> None:
        if not self._sampling or cycle < self._sample_end:
            return
        self._finish_sampling(gpu, cycle)

    def _finish_sampling(self, gpu, cycle: int) -> None:
        curve_a: Dict[float, List[float]] = {f: [] for f in self.ladder}
        curve_b: Dict[float, List[float]] = {f: [] for f in self.ladder}
        elapsed = max(1, self.sample_cycles)
        for sm in gpu.sms:
            frac = self._sm_rung.get(sm.sm_id)
            if frac is None:
                continue
            base = self._baseline.get(sm.sm_id, {})
            a = sm.issued_by_stream.get(self.streams[0], 0) - \
                base.get(self.streams[0], 0)
            b = sm.issued_by_stream.get(self.streams[1], 0) - \
                base.get(self.streams[1], 0)
            curve_a[frac].append(a / elapsed)
            curve_b[frac].append(b / elapsed)
        mean_a = {f: (sum(v) / len(v) if v else 0.0) for f, v in curve_a.items()}
        mean_b = {f: (sum(v) / len(v) if v else 0.0) for f, v in curve_b.items()}
        chosen = water_filling(mean_a, mean_b)
        self._sampling = False
        self.clear_sm_overrides()
        self.set_fraction(self.streams[0], chosen, cycle)
        self.set_fraction(self.streams[1], 1.0 - chosen, cycle)
        self.decisions.append((cycle, chosen))
        gpu.telemetry.on_repartition(
            cycle, self.name,
            {"fraction": {str(self.streams[0]): chosen,
                          str(self.streams[1]): 1.0 - chosen}})

    # -- reporting ------------------------------------------------------------
    @property
    def samples_taken(self) -> int:
        return self._sample_requests
