"""Materialized rollup layer: derived demand tables + additive KDE grids.

The derived-table layer ROADMAP item 2 calls for.  A
:class:`~repro.rollup.store.RollupStore` holds, per S2 granularity, the
per-customer demand partials (NaN-aware sums and observed-hour counts per
epoch-aligned bucket) and cached *kernel-sum grids* — the unnormalised
additive part of the paper's Eq. 3 KDE.  Stream ticks fold each hour into
the demand partials and drop the folded buckets' grids, which the next
query rebuilds exactly from the partials, so any granularity/quantile
sweep is answered from the rollups in O(cells) per warm field,
independent of how many raw readings exist.
"""

from repro.rollup.kde import KdeAccumulator
from repro.rollup.store import BucketRollup, RollupMiss, RollupStore

__all__ = [
    "BucketRollup",
    "KdeAccumulator",
    "RollupMiss",
    "RollupStore",
]
