"""The database facade: customers + readings.

:class:`EnergyDatabase` is the data layer the rest of the tool talks to —
the role PostgreSQL/PostGIS plays in the paper.  It owns

- a typed customers table (id, lon, lat, zone, archetype) queryable through
  :mod:`repro.db.query`,
- the dense hourly readings (:class:`~repro.data.timeseries.SeriesSet`),

and answers the composed spatio-temporal requests the logic layer issues:
"customers in this polygon", "their readings for this window", "per-customer
demand between t1 and t2" (the input of the KDE shift model).

Spatial queries are vectorised numpy scans over the table's ``lon``/``lat``
columns: at city scale (thousands of customers) one mask beats any tree walk
in Python, so there is no spatial index to build or keep in sync.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from repro import obs
from repro.data.meter import Customer
from repro.data.timeseries import HourWindow, SeriesSet
from repro.db.query import Query
from repro.db.spatial import BBox, Circle, Polygon
from repro.db.table import ColumnSpec, Schema, Table

CUSTOMER_SCHEMA = Schema(
    [
        ColumnSpec("customer_id", "int"),
        ColumnSpec("lon", "float"),
        ColumnSpec("lat", "float"),
        ColumnSpec("zone", "str"),
        ColumnSpec("archetype", "str"),
    ]
)

DEMAND_STATISTICS = ("mean", "sum", "max")


class EnergyDatabase:
    """In-memory spatio-temporal store for one metering data set.

    Parameters
    ----------
    customers:
        Customer rows; ids must be unique.
    readings:
        Hourly readings whose customer ids exactly match ``customers``.
    metrics:
        Registry receiving ``db_query_seconds`` histograms (one per query
        kind); the process-wide default registry when omitted.
    slow_query_seconds:
        Queries slower than this are logged (``db.slow_query``, warning)
        and offered to the process slow-op log with the request ID that
        issued them.
    """

    def __init__(
        self,
        customers: Sequence[Customer],
        readings: SeriesSet,
        metrics: obs.MetricsRegistry | None = None,
        slow_query_seconds: float = 0.25,
    ) -> None:
        self._metrics = metrics
        # Serving threads issue composed reads concurrently; a reentrant
        # read lock keeps each query atomic over table + readings
        # (the composed demand path nests readings_for inside demand).
        self._read_lock = threading.RLock()
        if slow_query_seconds <= 0:
            raise ValueError(
                f"slow_query_seconds must be positive, got {slow_query_seconds}"
            )
        self.slow_query_seconds = slow_query_seconds
        customers = list(customers)
        if not customers:
            raise ValueError("a database needs at least one customer")
        ids = [c.customer_id for c in customers]
        if len(set(ids)) != len(ids):
            raise ValueError("customer ids contain duplicates")
        if set(ids) != {int(cid) for cid in readings.customer_ids}:
            raise ValueError("customers and readings cover different ids")

        self._customers = {c.customer_id: c for c in customers}
        self.readings = readings
        self.table = Table("customers", CUSTOMER_SCHEMA)
        self.table.insert_columns(
            {
                "customer_id": ids,
                "lon": [c.lon for c in customers],
                "lat": [c.lat for c in customers],
                "zone": [c.zone.value for c in customers],
                "archetype": [c.archetype.value for c in customers],
            }
        )

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> obs.MetricsRegistry:
        """This database's registry (the process default unless injected)."""
        return self._metrics if self._metrics is not None else obs.get_registry()

    @contextmanager
    def _timed(self, op: str):
        """Timer context recording one query into ``db_query_seconds``;
        queries over :attr:`slow_query_seconds` are also logged and
        offered to the slow-op log (correlated by request ID)."""
        registry = self.metrics
        hist = registry.histogram("db_query_seconds", op=op)
        start = registry.clock()
        try:
            with self._read_lock:
                yield
        finally:
            elapsed = registry.clock() - start
            hist.observe(elapsed)
            if elapsed >= self.slow_query_seconds:
                obs.get_slow_log().offer(f"db.{op}", elapsed)
                obs.log_event(
                    "db.slow_query",
                    level="warning",
                    op=op,
                    duration_ms=round(elapsed * 1000.0, 3),
                )

    def __len__(self) -> int:
        return len(self._customers)

    @property
    def customer_ids(self) -> list[int]:
        """All customer ids, ascending."""
        return sorted(self._customers)

    @property
    def time_span(self) -> HourWindow:
        """The hour window covered by the readings."""
        return HourWindow(self.readings.start_hour, self.readings.end_hour)

    def customer(self, customer_id: int) -> Customer:
        """Look up one customer; raises ``KeyError`` if unknown."""
        if customer_id not in self._customers:
            raise KeyError(f"unknown customer_id {customer_id}")
        return self._customers[customer_id]

    def query(self) -> Query:
        """A fresh fluent query over the customers table."""
        return Query(self.table)

    def sql(self, statement: str) -> list[dict[str, object]]:
        """Run a SQL SELECT against the ``customers`` table.

        See :mod:`repro.db.sql` for the supported dialect.

        Raises
        ------
        repro.db.sql.SqlError
            On parse errors or unknown tables/columns.
        """
        from repro.db.sql import execute_sql  # local: avoid import cycle

        with self._timed("sql"):
            return execute_sql({"customers": self.table}, statement)

    def bounding_box(self) -> BBox:
        """Smallest box covering every customer."""
        with self._read_lock:
            return BBox.from_points(
                self.table.column("lon"), self.table.column("lat")
            )

    # ------------------------------------------------------------------
    # spatial queries
    # ------------------------------------------------------------------
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (id, lon, lat) columns, in table insertion order."""
        table = self.table
        return (
            table.column("customer_id"),
            table.column("lon"),
            table.column("lat"),
        )

    def ids_in_bbox(self, box: BBox) -> np.ndarray:
        """Customer ids inside the box (inclusive edges), ascending."""
        with self._timed("bbox"):
            ids, lons, lats = self._columns()
            return np.sort(ids[box.contains_many(lons, lats)])

    def ids_in_radius(self, circle: Circle) -> np.ndarray:
        """Customer ids inside the circle, ascending."""
        with self._timed("radius"):
            ids, lons, lats = self._columns()
            return np.sort(ids[circle.contains_many(lons, lats)])

    def ids_in_polygon(self, polygon: Polygon) -> np.ndarray:
        """Customer ids inside the polygon (bbox pre-filter + exact test)."""
        with self._timed("polygon"):
            ids, lons, lats = self._columns()
            cand = np.flatnonzero(polygon.bbox().contains_many(lons, lats))
            hit = polygon.contains_many(lons[cand], lats[cand])
            return np.sort(ids[cand[hit]])

    def nearest(self, lon: float, lat: float, k: int = 1) -> np.ndarray:
        """Ids of the k customers nearest to a point, closest first.

        Distance is planar in degree space; ties break toward the earlier
        table row — exactly a stable argsort over all customers, including
        ties at the k-th distance.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        with self._timed("nearest"):
            ids, lons, lats = self._columns()
            d2 = (lons - lon) ** 2 + (lats - lat) ** 2
            k = min(k, d2.size)
            # Every row at or under the k-th smallest distance, so a tie
            # straddling the partition boundary cannot drop an earlier row.
            kth = np.partition(d2, k - 1)[k - 1]
            cand = np.flatnonzero(d2 <= kth)
            order = cand[np.lexsort((cand, d2[cand]))[:k]]
            return ids[order]

    def ids_in_zone(self, zone: str) -> np.ndarray:
        """Customer ids in a land-use zone, ascending."""
        with self._read_lock:
            positions = np.flatnonzero(self.table.column("zone") == zone)
            return np.sort(self.table.column("customer_id")[positions])

    def positions_of(self, customer_ids: Sequence[int]) -> np.ndarray:
        """``(n, 2)`` array of (lon, lat) for the given ids, same order."""
        with self._read_lock:
            return np.array(
                [
                    (self._customers[int(cid)].lon, self._customers[int(cid)].lat)
                    for cid in customer_ids
                ],
                dtype=np.float64,
            ).reshape(len(list(customer_ids)), 2)

    # ------------------------------------------------------------------
    # temporal queries
    # ------------------------------------------------------------------
    def readings_for(
        self,
        customer_ids: Sequence[int] | None = None,
        window: HourWindow | None = None,
    ) -> SeriesSet:
        """Readings sliced to a customer subset and/or an hour window."""
        with self._timed("readings"):
            out = self.readings
            if customer_ids is not None:
                out = out.select_customers([int(cid) for cid in customer_ids])
            if window is not None:
                out = out.slice_hours(window.start_hour, window.end_hour)
            return out

    def demand(
        self,
        window: HourWindow,
        customer_ids: Sequence[int] | None = None,
        statistic: str = "mean",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-customer demand over a window — the KDE model's input.

        Returns ``(positions, values)`` where positions is ``(n, 2)`` of
        (lon, lat) and values the chosen per-customer statistic over the
        window (NaN-aware; customers with no readings in the window get 0).

        Raises
        ------
        ValueError
            For an unknown statistic or a window outside the data span.
        """
        if statistic not in DEMAND_STATISTICS:
            raise ValueError(
                f"unknown statistic {statistic!r}; pick one of {DEMAND_STATISTICS}"
            )
        with self._timed("demand"), obs.span("db.demand", statistic=statistic):
            if customer_ids is None:
                customer_ids = [int(cid) for cid in self.readings.customer_ids]
            sliced = self.readings_for(customer_ids, window)
            matrix = sliced.matrix
            values = np.zeros(len(customer_ids))
            if matrix.shape[1] > 0:
                observed = ~np.isnan(matrix).all(axis=1)
                with np.errstate(invalid="ignore"):
                    if statistic == "mean":
                        stat = np.nanmean(matrix[observed], axis=1)
                    elif statistic == "sum":
                        stat = np.nansum(matrix[observed], axis=1)
                    else:  # max
                        stat = np.nanmax(matrix[observed], axis=1)
                values[observed] = stat
            return self.positions_of(customer_ids), values

    def top_consumers(
        self,
        window: HourWindow,
        k: int = 10,
        statistic: str = "mean",
    ) -> tuple[np.ndarray, np.ndarray]:
        """The k heaviest consumers over a window, heaviest first.

        Returns ``(ids, values)``; ties on the statistic break toward the
        smaller customer id so the ranking is deterministic.

        Raises
        ------
        ValueError
            For ``k < 1`` or an unknown statistic.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        with self._timed("topk"):
            ids = np.asarray(
                [int(cid) for cid in self.readings.customer_ids],
                dtype=np.int64,
            )
            _, values = self.demand(window, None, statistic)
            # lexsort: last key is primary — descending value, then id.
            order = np.lexsort((ids, -values))[:k]
            return ids[order], values[order]

    def rollup_partials(
        self,
        resolutions: Sequence["Resolution"],
        window: HourWindow | None = None,
    ) -> dict["Resolution", "BucketPartials"]:
        """Per-customer bucket partials for the rollup layer, one entry
        per requested resolution, rows in readings order.

        The shared bucketing primitive
        (:func:`~repro.preprocess.resample.bucket_partials`) does the
        work, so the derived tables a :class:`~repro.rollup.store
        .RollupStore` rebuilds from here cannot drift from the batch
        resample path.  ``window`` restricts the partials to an hour
        range.
        """
        from repro.preprocess.resample import bucket_partials

        with self._timed("rollup_partials"):
            readings = self.readings
            if window is not None:
                readings = readings.slice_hours(
                    window.start_hour, window.end_hour
                )
            return {res: bucket_partials(readings, res) for res in resolutions}

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def ingest_hours(
        self,
        values: np.ndarray,
        start_hour: int,
        customer_ids: Sequence[int] | None = None,
    ) -> int:
        """Append hourly columns to the readings (the stream write path).

        The batch must start exactly where the stored readings end and
        cover every customer (``customer_ids`` may reorder the rows; it
        must be a permutation of the stored ids).  The new
        :class:`~repro.data.timeseries.SeriesSet` is built off-lock-free
        reads and swapped in atomically under the write lock, so a
        concurrent reader sees either the old or the new readings —
        never a torn matrix.

        Returns the new ``end_hour``.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(
                f"ingest values must be 2-D, got shape {values.shape}"
            )
        with self._read_lock:
            readings = self.readings
            stored_ids = [int(cid) for cid in readings.customer_ids]
            if customer_ids is None:
                rows = values
            else:
                batch_ids = [int(cid) for cid in customer_ids]
                if len(batch_ids) != values.shape[0]:
                    raise ValueError(
                        f"got {len(batch_ids)} customer ids for "
                        f"{values.shape[0]} rows"
                    )
                if sorted(batch_ids) != sorted(stored_ids):
                    raise ValueError(
                        "ingest batch must cover exactly the stored "
                        "customers"
                    )
                row_of = {cid: i for i, cid in enumerate(batch_ids)}
                rows = values[[row_of[cid] for cid in stored_ids]]
            if rows.shape[0] != len(stored_ids):
                raise ValueError(
                    f"ingest batch has {rows.shape[0]} rows for "
                    f"{len(stored_ids)} customers"
                )
            if start_hour != readings.end_hour:
                raise ValueError(
                    f"ingest batch must start at hour {readings.end_hour} "
                    f"(the current end), got {start_hour}"
                )
            merged = SeriesSet(
                customer_ids=stored_ids,
                start_hour=readings.start_hour,
                matrix=np.hstack([readings.matrix, rows]),
            )
            # Atomic swap: readers holding the old reference keep a
            # consistent snapshot.
            self.readings = merged
        self.metrics.counter("db_ingest_hours_total").inc(int(values.shape[1]))
        return merged.end_hour
