"""Correlation and error metrics used by the validation figures."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def _pair(actual: Sequence[float], predicted: Sequence[float]
          ) -> Tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape or a.ndim != 1:
        raise ValueError("actual and predicted must be equal-length 1D")
    if len(a) == 0:
        raise ValueError("need at least one sample")
    return a, p


def mape(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute percentage error, in percent (Fig 9's metric)."""
    a, p = _pair(actual, predicted)
    if np.any(a == 0):
        raise ValueError("MAPE undefined when an actual value is zero")
    return float(np.mean(np.abs((p - a) / a)) * 100.0)


def pearson(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Pearson correlation coefficient (Fig 3 / Fig 6's metric)."""
    a, p = _pair(actual, predicted)
    if len(a) < 2:
        raise ValueError("correlation needs at least two samples")
    sa, sp = a.std(), p.std()
    if sa == 0 or sp == 0:
        raise ValueError("correlation undefined for constant series")
    return float(np.corrcoef(a, p)[0, 1])


def correlation_percent(actual: Sequence[float], predicted: Sequence[float]
                        ) -> float:
    """Correlation expressed as a percentage, as the paper reports it."""
    return pearson(actual, predicted) * 100.0


def concordance(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Lin's concordance correlation coefficient.

    Unlike Pearson, concordance penalises slope and offset deviation, so it
    distinguishes "proportional but inflated" from "matching" — the right
    notion for counter validation like the Fig 3 batch-size sweep, where
    every batch size correlates linearly but only one reproduces hardware's
    actual invocation counts.
    """
    a, p = _pair(actual, predicted)
    if len(a) < 2:
        raise ValueError("concordance needs at least two samples")
    cov = float(np.mean((a - a.mean()) * (p - p.mean())))
    denom = a.var() + p.var() + (a.mean() - p.mean()) ** 2
    if denom == 0:
        raise ValueError("concordance undefined for identical constants")
    return 2.0 * cov / float(denom)
