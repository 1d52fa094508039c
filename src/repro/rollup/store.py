"""The materialized rollup store: demand tables + incremental KDE grids.

One :class:`RollupStore` covers one fixed customer population on one
evaluation grid.  Per tracked S2 resolution it keeps a *derived table* of
:class:`BucketRollup` rows, each holding

- the **demand rollup**: per-customer NaN-aware sums and observed-hour
  counts over the bucket (additive, exact integers of hours), and
- a lazily materialized **kernel-sum grid**: the additive, unnormalised
  part of the Eq. 3 KDE over the bucket's demand (see
  :mod:`repro.rollup.kde`).

Maintenance is incremental: :meth:`RollupStore.apply_hours` folds each fed
hour into every resolution's open bucket — sums/counts always, and for
buckets whose grid is already materialized, one shared hour-grid matmul
added in place ("each fed hour adds its kernel contributions").  Because
float addition drifts, every ``refold_every`` folded hours a bucket's grid
is **refolded** — recomputed exactly from its demand rollup — which bounds
the drift the replay-equivalence suite pins.

Queries never touch raw readings: a warm granularity/quantile sweep is
answered in O(cells) per field, independent of ``n_readings``.  Cold
buckets materialize their grid from the demand rollup in O(n·cells) once.

Exactness fallback: the O(cells) fast path requires the bucket's
per-customer observation counts to be uniform (then the count cancels out
of the normalised density) and its demand non-negative (then the batch
path's clipping is a no-op).  Buckets with missing readings or negative
demand fall back to :meth:`~repro.rollup.kde.KdeAccumulator
.field_from_weights` — still O(n·cells), still independent of
``n_readings``, and matching the batch path to float tolerance.

Subset feeds: per-customer ``applied_through`` watermarks let feeds
covering disjoint customer subsets apply the same hour range without
double counting; staleness is the lag between the slowest watermark and
the source database's end hour.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.shift.grids import DensityGrid, GridSpec
from repro.data.timeseries import (
    ALL_RESOLUTIONS,
    HourWindow,
    Resolution,
    SeriesSet,
)
from repro.preprocess.resample import BucketPartials, bucket_partials
from repro.rollup.kde import KdeAccumulator

__all__ = ["BucketRollup", "RollupMiss", "RollupStore"]

#: Refold a bucket's kernel grid after this many incremental hour adds.
DEFAULT_REFOLD_EVERY = 168


class RollupMiss(LookupError):
    """A query needs data the rollup store does not (yet) materialize."""


@dataclass(slots=True)
class BucketRollup:
    """One derived-table row: a bucket's demand rollup + kernel grid.

    ``sums``/``counts`` are the always-maintained demand rollup;
    ``kernel_grid`` is the lazily built, incrementally maintained raw
    kernel sum ``sum_i sums_i * K_i`` (``None`` until first queried).
    """

    bucket: int
    start_hour: int
    end_hour: int
    sums: np.ndarray
    counts: np.ndarray
    has_negative: bool = False
    kernel_grid: np.ndarray | None = None
    hours_since_refold: int = 0

    @property
    def uniform_counts(self) -> bool:
        """Whether every customer has the same observation count — the
        condition under which counts cancel out of the normalised KDE."""
        return float(self.counts.min()) == float(self.counts.max())


class RollupStore:
    """Per-granularity demand rollups + additive KDE grid accumulators.

    Parameters
    ----------
    positions:
        ``(n, 2)`` customer (lon, lat) in *readings row order* — the order
        ``db.demand(window, None)`` returns values in.
    customer_ids:
        Row labels matching ``positions``.
    spec:
        Evaluation grid shared by every produced field.
    resolutions:
        Which S2 granularities to materialize (all seven by default).
    bandwidth_m:
        Pinned KDE bandwidth; Silverman's rule over the full population
        when omitted (matching what a batch sweep with no explicit
        bandwidth uses).
    refold_every:
        Incremental hour-adds a bucket's kernel grid tolerates before it
        is refolded exactly from the demand rollup (drift bound).
    metrics:
        Registry receiving rollup counters; the process default when
        omitted.
    """

    def __init__(
        self,
        positions: np.ndarray,
        customer_ids,
        spec: GridSpec,
        resolutions: tuple[Resolution, ...] = ALL_RESOLUTIONS,
        bandwidth_m: float | None = None,
        refold_every: int = DEFAULT_REFOLD_EVERY,
        metrics: obs.MetricsRegistry | None = None,
    ) -> None:
        if refold_every < 1:
            raise ValueError(f"refold_every must be >= 1, got {refold_every}")
        resolutions = tuple(resolutions)
        if not resolutions:
            raise ValueError("a rollup store needs at least one resolution")
        self.acc = KdeAccumulator(positions, spec, bandwidth_m=bandwidth_m)
        self.spec = spec
        self.customer_ids = [int(cid) for cid in customer_ids]
        if len(self.customer_ids) != self.acc.n:
            raise ValueError(
                f"{len(self.customer_ids)} customer ids for "
                f"{self.acc.n} positions"
            )
        self._row_of = {cid: i for i, cid in enumerate(self.customer_ids)}
        if len(self._row_of) != len(self.customer_ids):
            raise ValueError("customer ids contain duplicates")
        self.resolutions = resolutions
        self.refold_every = refold_every
        self._metrics = metrics
        self._lock = threading.RLock()
        self._tables: dict[Resolution, dict[int, BucketRollup]] = {
            r: {} for r in resolutions
        }
        self.first_hour: int | None = None
        # Per-customer ingestion watermark (end-hour exclusive): subset
        # feeds advance disjoint row sets independently.
        self._applied_through: np.ndarray | None = None
        self.rebuilds_total = 0
        self.hours_applied_total = 0
        self.grid_builds_total = 0
        self.grid_adds_total = 0
        self.grid_refolds_total = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> obs.MetricsRegistry:
        return self._metrics if self._metrics is not None else obs.get_registry()

    @property
    def n_customers(self) -> int:
        return self.acc.n

    @property
    def bandwidth_m(self) -> float:
        """The pinned kernel bandwidth every rollup grid was built with."""
        return self.acc.bandwidth_m

    @property
    def last_applied_hour(self) -> int | None:
        """The end hour (exclusive) every customer is rolled up through —
        the slowest per-customer watermark when subset feeds are uneven."""
        if self._applied_through is None:
            return None
        return int(self._applied_through.min())

    def buckets(self, resolution: Resolution) -> list[int]:
        """Materialized bucket ordinals for a resolution, ascending."""
        table = self._tables.get(resolution)
        if table is None:
            raise RollupMiss(f"resolution {resolution} is not tracked")
        with self._lock:
            return sorted(table)

    def bucket(self, resolution: Resolution, bucket: int) -> BucketRollup:
        """One derived-table row; :class:`RollupMiss` if absent."""
        table = self._tables.get(resolution)
        if table is None:
            raise RollupMiss(f"resolution {resolution} is not tracked")
        with self._lock:
            row = table.get(int(bucket))
        if row is None:
            raise RollupMiss(
                f"bucket {bucket} of {resolution} is not materialized"
            )
        return row

    def status(self, source_end_hour: int | None = None) -> dict[str, object]:
        """Staleness + maintenance counters (the telemetry block's source).

        ``source_end_hour`` is the authoritative database's current end
        hour; when given, ``lag_hours`` reports how far the rollups trail
        it (0 = fresh).
        """
        with self._lock:
            last = self.last_applied_hour
            lag = None
            if source_end_hour is not None and last is not None:
                lag = max(0, int(source_end_hour) - last)
            tables = [
                {
                    "resolution": str(res),
                    "n_buckets": len(table),
                    "grids_cached": sum(
                        1 for row in table.values()
                        if row.kernel_grid is not None
                    ),
                }
                for res, table in self._tables.items()
            ]
            return {
                "n_customers": self.n_customers,
                "bandwidth_m": self.bandwidth_m,
                "first_hour": self.first_hour,
                "last_applied_hour": last,
                "source_end_hour": (
                    None if source_end_hour is None else int(source_end_hour)
                ),
                "lag_hours": lag,
                "rebuilds_total": self.rebuilds_total,
                "hours_applied_total": self.hours_applied_total,
                "grid_builds_total": self.grid_builds_total,
                "grid_adds_total": self.grid_adds_total,
                "grid_refolds_total": self.grid_refolds_total,
                "refold_every": self.refold_every,
                "tables": tables,
            }

    # ------------------------------------------------------------------
    # (re)build from batch data
    # ------------------------------------------------------------------
    def rebuild(self, readings: SeriesSet) -> None:
        """Rebuild every demand rollup from a full readings snapshot.

        Kernel grids are dropped (they re-materialize lazily, exactly,
        from the fresh demand rollups).  The readings must cover exactly
        this store's customers; rows may be in any order.
        """
        ids = [int(cid) for cid in readings.customer_ids]
        if set(ids) != set(self.customer_ids):
            raise ValueError("readings cover different customers than the store")
        if ids != self.customer_ids:
            readings = readings.select_customers(self.customer_ids)
        partials = {
            res: bucket_partials(readings, res) for res in self.resolutions
        }
        self._load_partials(
            partials, readings.start_hour, readings.end_hour
        )

    def rebuild_from(self, db) -> None:
        """Rebuild from a database's
        :meth:`~repro.db.engine.EnergyDatabase.rollup_partials` (rows in
        readings order, which is this store's row order)."""
        span = db.time_span
        partials = db.rollup_partials(self.resolutions)
        for p in partials.values():
            if p.sums.shape[0] != self.n_customers:
                raise ValueError(
                    f"partials cover {p.sums.shape[0]} customers, "
                    f"store has {self.n_customers}"
                )
        self._load_partials(partials, span.start_hour, span.end_hour)

    def _load_partials(
        self,
        partials: dict[Resolution, BucketPartials],
        start_hour: int,
        end_hour: int,
    ) -> None:
        with self._lock:
            for res in self.resolutions:
                p = partials[res]
                table: dict[int, BucketRollup] = {}
                for i, b in enumerate(p.buckets):
                    sums = np.ascontiguousarray(p.sums[:, i])
                    counts = np.ascontiguousarray(p.counts[:, i])
                    table[int(b)] = BucketRollup(
                        bucket=int(b),
                        start_hour=int(p.edges[i]),
                        end_hour=int(p.edges[i + 1]),
                        sums=sums,
                        counts=counts,
                        has_negative=bool((sums < 0).any()),
                    )
                self._tables[res] = table
            self.first_hour = int(start_hour)
            self._applied_through = np.full(
                self.n_customers, int(end_hour), dtype=np.int64
            )
            self.rebuilds_total += 1
            self.metrics.counter("rollup_rebuilds_total").inc()
        obs.log_event(
            "rollup.rebuild",
            start_hour=int(start_hour),
            end_hour=int(end_hour),
            resolutions=len(self.resolutions),
        )

    # ------------------------------------------------------------------
    # incremental maintenance (the stream tick path)
    # ------------------------------------------------------------------
    def apply_hours(
        self,
        values: np.ndarray,
        start_hour: int,
        customer_ids=None,
    ) -> int:
        """Fold hourly columns into every resolution's rollups.

        ``values`` is ``(m, n_hours)`` with rows ordered by
        ``customer_ids`` (all customers, in store order, when omitted).
        Columns must extend each covered customer's watermark exactly —
        gaps or overlaps would corrupt the additive tables, so they
        raise.  Subset feeds therefore apply the same hour range for
        disjoint row subsets without double counting.

        For each fed hour, buckets with a materialized kernel grid get
        the hour's kernel contributions added in place (one shared
        matmul per hour across all resolutions); every
        :data:`refold_every` adds a grid is refolded exactly from its
        demand rollup to bound float drift.

        Returns the store's new :attr:`last_applied_hour`.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        n = self.n_customers
        if customer_ids is None:
            rows = None
            if values.shape[0] != n:
                raise ValueError(
                    f"expected {n} rows, got {values.shape[0]}"
                )
        else:
            ids = [int(cid) for cid in customer_ids]
            if len(ids) != values.shape[0]:
                raise ValueError(
                    f"got {len(ids)} customer ids for {values.shape[0]} rows"
                )
            try:
                idx = np.array([self._row_of[cid] for cid in ids], dtype=np.int64)
            except KeyError as exc:
                raise KeyError(f"unknown customer_id {exc.args[0]}") from None
            rows = None if len(ids) == n and set(ids) == set(
                self.customer_ids
            ) and ids == self.customer_ids else idx
            if rows is None and ids != self.customer_ids:
                rows = idx
        start_hour = int(start_hour)
        n_hours = values.shape[1]
        with self._lock:
            if self._applied_through is None:
                self.first_hour = start_hour
                self._applied_through = np.full(n, start_hour, dtype=np.int64)
            marks = (
                self._applied_through
                if rows is None
                else self._applied_through[rows]
            )
            if not (marks == start_hour).all():
                raise ValueError(
                    f"rollup apply must be contiguous: batch starts at hour "
                    f"{start_hour} but covered customers are applied through "
                    f"{int(marks.min())}..{int(marks.max())}"
                )
            for j in range(n_hours):
                self._fold_hour(values[:, j], start_hour + j, rows)
            if rows is None:
                self._applied_through[:] = start_hour + n_hours
            else:
                self._applied_through[rows] = start_hour + n_hours
            self.hours_applied_total += n_hours
            self.metrics.counter("rollup_hours_applied_total").inc(n_hours)
            return self.last_applied_hour

    def apply_batch(self, batch, customer_ids=None) -> int:
        """Fold one stream :class:`~repro.stream.feed.Batch` in."""
        return self.apply_hours(
            np.asarray(batch.values, dtype=np.float64),
            batch.start_hour,
            customer_ids=customer_ids,
        )

    def _fold_hour(
        self, col: np.ndarray, hour: int, rows: np.ndarray | None
    ) -> None:
        """Add one hourly column (rows subset or full) at ``hour``."""
        observed = ~np.isnan(col)
        filled = np.where(observed, col, 0.0)
        negative = bool((filled < 0).any())
        # One full-length column (zeros outside the subset) shared by
        # every resolution's kernel-grid add this hour.
        if rows is None:
            full = filled
            full_observed = observed
        else:
            full = np.zeros(self.acc.n)
            full[rows] = filled
            full_observed = np.zeros(self.acc.n, dtype=bool)
            full_observed[rows] = observed
        hour_grid: np.ndarray | None = None
        for res in self.resolutions:
            b = res.bucket_of(hour)
            table = self._tables[res]
            row = table.get(b)
            if row is None:
                row = BucketRollup(
                    bucket=b,
                    start_hour=hour,
                    end_hour=hour + 1,
                    sums=np.zeros(self.acc.n),
                    counts=np.zeros(self.acc.n),
                )
                table[b] = row
            row.sums += full
            row.counts += full_observed.astype(np.float64)
            row.start_hour = min(row.start_hour, hour)
            row.end_hour = max(row.end_hour, hour + 1)
            row.has_negative = row.has_negative or negative
            if row.kernel_grid is not None:
                if hour_grid is None:
                    hour_grid = self.acc.grid(full)
                row.kernel_grid += hour_grid
                row.hours_since_refold += 1
                self.grid_adds_total += 1
                self.metrics.counter("rollup_grid_adds_total").inc()
                if row.hours_since_refold >= self.refold_every:
                    self._refold(row)

    def _refold(self, row: BucketRollup) -> None:
        """Recompute a bucket's kernel grid exactly from its demand
        rollup, zeroing accumulated float drift."""
        row.kernel_grid = self.acc.grid(row.sums)
        row.hours_since_refold = 0
        self.grid_refolds_total += 1
        self.metrics.counter("rollup_grid_refolds_total").inc()

    def refold_all(self) -> int:
        """Refold every materialized kernel grid; returns how many."""
        with self._lock:
            refolded = 0
            for table in self._tables.values():
                for row in table.values():
                    if row.kernel_grid is not None:
                        self._refold(row)
                        refolded += 1
            return refolded

    # ------------------------------------------------------------------
    # queries (never touch raw readings)
    # ------------------------------------------------------------------
    def bucket_weights(self, resolution: Resolution, bucket: int) -> np.ndarray:
        """Per-customer mean demand of a bucket — exactly what
        ``db.demand(bucket_window, statistic="mean")`` returns, from the
        rollup instead of the raw matrix."""
        row = self.bucket(resolution, bucket)
        with self._lock:
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(row.counts > 0, row.sums / row.counts, 0.0)

    def bucket_field(
        self,
        resolution: Resolution,
        bucket: int,
        bandwidth_m: float | None = None,
    ) -> DensityGrid:
        """The bucket's Eq. 3 density from the rollup tables.

        O(cells) when the kernel grid is warm and the bucket is *clean*
        (uniform observation counts, non-negative demand, queried at the
        store's pinned bandwidth); the first query on a cold bucket
        materializes the grid from the demand rollup in O(n·cells).
        Unclean buckets evaluate through the exact per-weight path —
        still independent of ``n_readings``.
        """
        row = self.bucket(resolution, bucket)
        want_bw = self.bandwidth_m if bandwidth_m is None else float(bandwidth_m)
        with self._lock:
            fast = (
                want_bw == self.bandwidth_m
                and not row.has_negative
                and row.uniform_counts
            )
            if fast:
                total = float(row.sums.sum())
                if np.isfinite(total):
                    if row.kernel_grid is None:
                        self._refold(row)
                        self.grid_builds_total += 1
                        self.metrics.counter("rollup_grid_builds_total").inc()
                    return self.acc.field(row.kernel_grid, total)
            weights = np.where(
                row.counts > 0,
                np.divide(
                    row.sums,
                    row.counts,
                    out=np.zeros_like(row.sums),
                    where=row.counts > 0,
                ),
                0.0,
            )
        return self.acc.field_from_weights(weights, bandwidth_m=want_bw)

    def window_demand(
        self, window: HourWindow, statistic: str = "mean"
    ) -> np.ndarray:
        """Per-customer demand over an arbitrary hour window, assembled
        from the hourly rollup — mirrors ``db.demand`` semantics
        (NaN-aware; customers with no observed hours get 0).

        Raises
        ------
        RollupMiss
            If the hourly resolution is not tracked or the window is not
            fully inside the rolled-up span.
        ValueError
            For an unknown statistic.
        """
        if statistic not in ("mean", "sum"):
            raise ValueError(
                f"unknown statistic {statistic!r}; pick 'mean' or 'sum'"
            )
        if Resolution.HOURLY not in self._tables:
            raise RollupMiss("window_demand needs the hourly resolution")
        with self._lock:
            last = self.last_applied_hour
            if (
                self.first_hour is None
                or last is None
                or window.start_hour < self.first_hour
                or window.end_hour > last
            ):
                raise RollupMiss(
                    f"window [{window.start_hour}, {window.end_hour}) is "
                    f"outside the rolled-up span "
                    f"[{self.first_hour}, {last})"
                )
            table = self._tables[Resolution.HOURLY]
            sums = np.zeros(self.acc.n)
            counts = np.zeros(self.acc.n)
            for hour in range(window.start_hour, window.end_hour):
                row = table.get(hour)
                if row is None:
                    raise RollupMiss(f"hour {hour} is not materialized")
                sums += row.sums
                counts += row.counts
        if statistic == "sum":
            return np.where(counts > 0, sums, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, sums / counts, 0.0)

    def window_field(
        self,
        window: HourWindow,
        rows: np.ndarray | None = None,
        bandwidth_m: float | None = None,
    ) -> DensityGrid:
        """Eq. 3 over an arbitrary window (optionally a customer subset),
        weighted by rollup-derived mean demand — the quantile sweep's
        field primitive."""
        weights = self.window_demand(window, statistic="mean")
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            weights = weights[rows]
        return self.acc.field_from_weights(
            weights, rows=rows, bandwidth_m=bandwidth_m
        )
