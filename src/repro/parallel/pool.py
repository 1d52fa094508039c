"""The blockwise kernel loop.

Contract (DESIGN.md §14): block boundaries are a pure function of the
problem size, every block computes row-local math, and results are
assembled in block order — so a block carries exactly the bits of its
rows computed on their own.  Each block boundary is a deadline check,
which is where a request that ran out of time, or a cancelled job,
stops.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro import obs
from repro.core.deadline import current_deadline

T = TypeVar("T")
R = TypeVar("R")

# Default row granularity: bounds a block's (rows, n) scratch while
# keeping the per-block overhead (one deadline check) noise.
DEFAULT_BLOCK_ROWS = 2048


def row_blocks(
    n_rows: int, block_rows: int = DEFAULT_BLOCK_ROWS
) -> list[tuple[int, int]]:
    """Deterministic ``[start, stop)`` row ranges covering ``n_rows``."""
    if n_rows < 0:
        raise ValueError(f"n_rows must be >= 0, got {n_rows}")
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    return [
        (start, min(start + block_rows, n_rows))
        for start in range(0, n_rows, block_rows)
    ]


def map_blocks(fn: Callable[[T], R], items: Sequence[T], *, name: str) -> list[R]:
    """``[fn(item) for item in items]`` inside one ``kernel.<name>`` span,
    checking the bound deadline before every item."""
    deadline = current_deadline()
    results = []
    with obs.span(f"kernel.{name}", blocks=len(items)):
        for index, item in enumerate(items):
            if deadline is not None:
                deadline.check(f"kernel.{name} block {index}")
            results.append(fn(item))
    return results


def resolve_workers(workers: int | None) -> int:
    """Always 1.  Kept only because the frozen benchmark harness
    (``perfbench/bench.py``) imports it to report its worker count."""
    return 1
