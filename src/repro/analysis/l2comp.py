"""L2 composition analysis (Fig 11 / Fig 15).

The timing model snapshots the L2's valid lines periodically, tagged by the
data class of the fill that brought each line in.  These helpers reduce the
snapshot series into the fractions the paper plots.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..isa import DataClass

Snapshot = Tuple[int, Dict[DataClass, int]]


def composition_fractions(snapshots: Sequence[Snapshot]
                          ) -> List[Tuple[int, Dict[DataClass, float]]]:
    """Per-snapshot line-count fractions (cycle, {class: fraction})."""
    out = []
    for cycle, comp in snapshots:
        total = sum(comp.values())
        if total == 0:
            out.append((cycle, {}))
            continue
        out.append((cycle, {cls: n / total for cls, n in comp.items()}))
    return out


def mean_fraction(snapshots: Sequence[Snapshot], cls: DataClass) -> float:
    """Average share of the (occupied) L2 a data class holds over the run."""
    fracs = [f.get(cls, 0.0) for _, f in composition_fractions(snapshots) if f]
    return sum(fracs) / len(fracs) if fracs else 0.0


def graphics_vs_compute(snapshots: Sequence[Snapshot]
                        ) -> List[Tuple[int, float, float]]:
    """(cycle, graphics fraction, compute fraction) series for Fig 15."""
    out = []
    for cycle, frac in composition_fractions(snapshots):
        gfx = sum(v for cls, v in frac.items() if cls.is_graphics)
        cmp_ = frac.get(DataClass.COMPUTE, 0.0)
        out.append((cycle, gfx, cmp_))
    return out


def summarize(snapshots: Sequence[Snapshot]) -> Dict[str, float]:
    """Compact per-class mean shares, keyed by class name."""
    return {cls.value: mean_fraction(snapshots, cls) for cls in DataClass}
