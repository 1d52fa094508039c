"""Summary statistics the benchmark reports.

Timings are reported as a median plus a tail percentile.  A tail is
reported only when at least :data:`MIN_BEYOND` samples lie beyond it, so
a p95 needs 200 samples; with fewer, :func:`percentile` refuses rather
than quoting a tail set by one or two samples.
"""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100).

    The value returned is the ``ceil(q/100 * n)``-th smallest sample.
    Above the median, at least :data:`MIN_BEYOND` samples must rank
    beyond it.

    Raises
    ------
    ValueError
        For no samples or ``q`` outside (0, 100].
    TooFewSamples
        When fewer than :data:`MIN_BEYOND` samples lie beyond a tail.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * n))
    if q > 50.0 and n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    """The nearest-rank median (:func:`percentile` at 50)."""
    return percentile(samples, 50.0)

