"""The VAP logic layer: one facade over data, models and views.

:class:`VapSession` is the object the paper's Figure 1 loop runs through —
Data → Models → Visualization → Users → (refine parameters) → Models.  It
owns an :class:`~repro.db.engine.EnergyDatabase`, performs preprocessing
once, caches embeddings per parameter set (the "refine and re-explore"
loop), and exposes every analytical operation the REST API and the
dashboard need:

- typical patterns: ``embed`` → ``selection_session`` → ``pattern_of`` /
  ``profile_of`` (views C and B);
- shift patterns: ``density`` / ``shift`` / ``flows`` (view A);
- baselines: ``kmeans_baseline`` for the S1d comparison.

A session is safe to share between server threads.  Every cache is a
:class:`~repro.core.singleflight.SingleFlightCache`: concurrent identical
requests compute once (the leader) while the rest wait for its result,
the embedding cache is LRU-bounded (embeddings are the big objects), and
waits are capped by the request deadline when one is bound (see
:mod:`repro.core.deadline`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.cluster.kmeans import KMeansResult, kmeans, minibatch_kmeans
from repro.core.reduction.dtw import MAX_DTW_ROWS_CEILING
from repro.core.patterns.labeling import (
    PatternLabel,
    label_customers,
    label_selection,
)
from repro.core.patterns.selection import SelectionSession
from repro.core.deadline import DeadlineExceeded, current_deadline
from repro.core.reduction.mds import mds
from repro.core.reduction.tsne import tsne
from repro.core.shift.flow import FlowArrow, ShiftField, flow_vectors, major_flows
from repro.core.shift.grids import DensityGrid, GridSpec
from repro.core.shift.kde import kde_density
from repro.core.shift.sensitivity import (
    GranularityResult,
    QuantileResult,
    granularity_sweep as _granularity_sweep_raw,
    granularity_sweep_from_rollups,
    quantile_sweep as _quantile_sweep_raw,
    quantile_sweep_from_rollups,
)
from repro.core.singleflight import HIT, SingleFlightCache, WaitTimeout
from repro.data.timeseries import HourWindow, Resolution, SeriesSet
from repro.db.engine import EnergyDatabase
from repro.rollup.store import RollupMiss, RollupStore
from repro.preprocess.cleaning import AnomalyReport, remove_anomalies
from repro.preprocess.features import FeatureKind, extract_features
from repro.preprocess.imputation import impute
from repro.preprocess.normalize import normalize_matrix
from repro.preprocess.quality import DataQualityReport, assess_quality
from repro.resilience.breaker import BreakerOpen, CircuitBreaker

EMBED_METHODS = ("tsne", "mds", "mds_classical")

# Kernel operations guarded by a circuit breaker (and therefore able to
# degrade to their last-good result when the breaker is open).
BREAKER_OPS = ("embed", "density")


@dataclass(slots=True)
class EmbeddingInfo:
    """An embedding plus the diagnostics its reducer reported."""

    coords: np.ndarray
    method: str
    metric: str
    feature_kind: FeatureKind
    objective: float  # KL for t-SNE, stress for MDS


class VapSession:
    """One analysis session over one data set (the paper's logic layer).

    Parameters
    ----------
    db:
        The data layer.
    feature_kind:
        Default profile folding for embeddings (see
        :class:`~repro.preprocess.features.FeatureKind`).
    preprocess:
        When True (default), readings are anomaly-filtered and imputed at
        construction — the paper's stated preprocessing.  Pass False when
        the readings are already clean.
    metrics:
        Metrics registry receiving cache hit/miss counters and stage
        timings; the process-wide default registry when omitted.
    max_embeddings:
        LRU bound on the embedding cache — embeddings are the big cached
        objects, so the "refine and re-explore" history is kept but does
        not grow without limit.
    max_densities:
        LRU bound on the density-grid cache (windowed KDE surfaces).
    breakers:
        Per-operation circuit breakers for the heavy kernels (keys from
        :data:`BREAKER_OPS`).  Defaults are built when omitted; pass
        ``{}`` to disable breaking entirely.  While a breaker is open,
        cache *misses* for its operation return the last successfully
        computed result with a ``degraded`` marker (see
        :meth:`embed_degradable`) instead of running the kernel; with no
        last-good result, :class:`~repro.resilience.breaker.BreakerOpen`
        propagates and the API layer answers 503 + Retry-After.
    """

    def __init__(
        self,
        db: EnergyDatabase,
        feature_kind: FeatureKind = FeatureKind.MEAN_WEEK,
        preprocess: bool = True,
        metrics: obs.MetricsRegistry | None = None,
        max_embeddings: int = 16,
        max_densities: int = 32,
        breakers: dict[str, CircuitBreaker] | None = None,
    ) -> None:
        self.db = db
        self._metrics = metrics
        self.feature_kind = feature_kind
        self.quality: DataQualityReport = assess_quality(db.readings)
        self.anomalies: AnomalyReport | None = None
        if preprocess:
            cleaned, self.anomalies = remove_anomalies(db.readings)
            self.series: SeriesSet = impute(cleaned)
        else:
            self.series = db.readings
        self._features: SingleFlightCache[FeatureKind, np.ndarray] = (
            SingleFlightCache(name="features")
        )
        self._member_labels: SingleFlightCache[str, list[PatternLabel]] = (
            SingleFlightCache(name="labels")
        )
        self._embeddings: SingleFlightCache[tuple, EmbeddingInfo] = (
            SingleFlightCache(
                max_entries=max_embeddings,
                on_evict=lambda key, value: self._evicted("embed"),
                name="embed",
            )
        )
        self._densities: SingleFlightCache[tuple, DensityGrid] = (
            SingleFlightCache(
                max_entries=max_densities,
                on_evict=lambda key, value: self._evicted("density"),
                name="density",
            )
        )
        self._grid_lock = threading.RLock()
        self._grid: GridSpec | None = None
        self._rollups: RollupStore | None = None
        self._rollups_lock = threading.Lock()
        if breakers is None:
            breakers = {
                op: CircuitBreaker(name=f"pipeline.{op}", metrics=metrics)
                for op in BREAKER_OPS
            }
        self.breakers = breakers
        # Most recent successful (cache_key, value) per op — the
        # degrade-to-last-good fallback.  Tagging the value with the
        # single-flight cache key it was computed under lets a
        # breaker-open response say exactly *which* parameters the
        # served result belongs to (it may not match the request's).
        self._last_good: dict[str, tuple[object, object]] = {}
        self._last_good_lock = threading.Lock()

    @classmethod
    def from_city(
        cls,
        dataset,
        use_raw: bool = True,
        **kwargs,
    ) -> "VapSession":
        """Build a session from a generated
        :class:`~repro.data.generator.simulate.CityDataset`."""
        from repro.db import build_database

        readings = dataset.raw if use_raw else dataset.clean
        db = build_database(
            dataset.customers, readings, metrics=kwargs.get("metrics")
        )
        return cls(db, **kwargs)

    @property
    def metrics(self) -> obs.MetricsRegistry:
        """This session's registry (the process default unless injected)."""
        return self._metrics if self._metrics is not None else obs.get_registry()

    def _cache(self, op: str, hit: bool) -> None:
        result = "hit" if hit else "miss"
        self.metrics.counter("pipeline_cache_total", op=op, result=result).inc()

    def _evicted(self, cache: str) -> None:
        self.metrics.counter("pipeline_cache_evictions_total", cache=cache).inc()

    def _flight(self, cache: SingleFlightCache, op: str, key, compute):
        """Run ``compute`` through a cache with single-flight semantics."""
        value, _ = self._flight_degradable(cache, op, key, compute)
        return value

    def _flight_degradable(
        self, cache: SingleFlightCache, op: str, key, compute
    ) -> tuple[object, dict | bool]:
        """Single-flight caching with circuit breaking; returns
        ``(value, degraded)``.

        ``degraded`` is ``False`` on the healthy path.  On a
        breaker-open fallback it is a dict describing exactly what was
        served: ``served_key`` (the cache key the last-good value was
        computed under), ``requested_key``, and ``exact`` (whether they
        match) — so a response built from parameters other than the
        request's is never silent.

        Leaders count as cache misses, hits and deduplicated waiters as
        hits (they did not compute); both leader and waiter outcomes are
        additionally recorded in ``pipeline_singleflight_total``.  A
        bound request deadline caps how long a waiter blocks and is
        checked before leading a computation.

        When ``op`` has a circuit breaker, the leader computes through
        it; a refused call (breaker open) degrades to the operation's
        last-good result — ``degraded`` True — rather than erroring, and
        propagates :class:`~repro.resilience.breaker.BreakerOpen` only
        when there is nothing to fall back to.

        Raises
        ------
        DeadlineExceeded
            When the bound deadline expired, or elapsed while waiting
            for another thread's in-flight computation.
        BreakerOpen
            When the breaker refuses the call and no last-good result
            exists for this operation.
        """
        deadline = current_deadline()
        timeout = None
        if deadline is not None:
            deadline.check(op)
            timeout = deadline.remaining()
        breaker = self.breakers.get(op)
        guarded = compute if breaker is None else (lambda: breaker.call(compute))
        try:
            value, outcome = cache.get_or_compute(key, guarded, timeout=timeout)
        except WaitTimeout:
            raise DeadlineExceeded(
                f"request deadline exceeded waiting for in-flight {op}"
            ) from None
        except BreakerOpen:
            # Prefer the exact cached value for this key (the breaker
            # only guards *misses*); otherwise fall back to the op's
            # last-good value, reporting whose parameters it carries.
            exact = cache.peek(key)
            if exact is not None:
                served_key = key
                fallback = exact
            else:
                with self._last_good_lock:
                    last = self._last_good.get(op)
                if last is None:
                    raise
                served_key, fallback = last
            degraded = {
                "reason": "breaker_open",
                "served_key": str(served_key),
                "requested_key": str(key),
                "exact": served_key == key,
            }
            self.metrics.counter("pipeline_degraded_total", op=op).inc()
            obs.log_event(
                "pipeline.degraded",
                level="warning",
                op=op,
                reason="breaker_open",
                served_key=str(served_key),
                requested_key=str(key),
                exact=served_key == key,
            )
            return fallback, degraded
        self._cache(op, hit=outcome == HIT)
        if outcome != HIT:
            self.metrics.counter(
                "pipeline_singleflight_total", op=op, result=outcome
            ).inc()
        with self._last_good_lock:
            self._last_good[op] = (key, value)
        return value, False

    # ------------------------------------------------------------------
    # typical patterns (views B and C)
    # ------------------------------------------------------------------
    def features(self, kind: FeatureKind | None = None) -> np.ndarray:
        """Feature matrix for the embedding, cached per kind."""
        kind = kind or self.feature_kind

        def compute() -> np.ndarray:
            with obs.span("pipeline.features", kind=kind.value):
                return extract_features(self.series, kind)

        return self._flight(self._features, "features", kind, compute)

    def embed(
        self,
        method: str = "tsne",
        metric: str = "pearson",
        feature_kind: FeatureKind | None = None,
        perplexity: float = 30.0,
        n_iter: int = 500,
        seed: int = 0,
        tsne_method: str = "auto",
        theta: float = 0.5,
        n_landmarks: int | None = None,
        dtw_max_rows: int | None = None,
    ) -> EmbeddingInfo:
        """Reduce the series to 2-D; cached per parameter set.

        ``tsne_method`` selects the t-SNE gradient engine (``"auto"``,
        ``"exact"``, ``"bh"`` for Barnes–Hut at opening angle ``theta``,
        or ``"landmark"`` for the out-of-core engine embedding
        ``n_landmarks`` representatives); every knob that changes the
        result is part of the cache key so variants never alias.
        ``dtw_max_rows`` lifts the DTW pairwise ceiling, capped at
        ``MAX_DTW_ROWS_CEILING``.

        Raises
        ------
        ValueError
            For an unknown method or an out-of-range ``dtw_max_rows``.
        """
        info, _ = self.embed_degradable(
            method=method,
            metric=metric,
            feature_kind=feature_kind,
            perplexity=perplexity,
            n_iter=n_iter,
            seed=seed,
            tsne_method=tsne_method,
            theta=theta,
            n_landmarks=n_landmarks,
            dtw_max_rows=dtw_max_rows,
        )
        return info

    def embed_degradable(
        self,
        method: str = "tsne",
        metric: str = "pearson",
        feature_kind: FeatureKind | None = None,
        perplexity: float = 30.0,
        n_iter: int = 500,
        seed: int = 0,
        tsne_method: str = "auto",
        theta: float = 0.5,
        n_landmarks: int | None = None,
        dtw_max_rows: int | None = None,
    ) -> tuple[EmbeddingInfo, dict | bool]:
        """:meth:`embed`, reporting degradation: ``(info, degraded)``.

        ``degraded`` is falsy on the healthy path.  When the embed
        circuit breaker refused the computation and ``info`` is the
        session's last successfully computed embedding, ``degraded`` is
        a (truthy) dict recording the ``served_key`` vs the
        ``requested_key`` — possibly different parameters — so the
        serving layer marks such responses instead of failing them.

        Raises
        ------
        ValueError
            For an unknown method.
        BreakerOpen
            Breaker open with no last-good embedding to fall back to.
        """
        if method not in EMBED_METHODS:
            raise ValueError(
                f"unknown method {method!r}; pick one of {EMBED_METHODS}"
            )
        if dtw_max_rows is not None and not (
            1 <= int(dtw_max_rows) <= MAX_DTW_ROWS_CEILING
        ):
            raise ValueError(
                f"dtw_max_rows must be in [1, {MAX_DTW_ROWS_CEILING}], "
                f"got {dtw_max_rows}"
            )
        kind = feature_kind or self.feature_kind
        key = (
            method, metric, kind, perplexity, n_iter, seed, tsne_method,
            theta, n_landmarks, dtw_max_rows,
        )

        def compute() -> EmbeddingInfo:
            start = self.metrics.clock()
            with obs.span("pipeline.embed", method=method, metric=metric), \
                    self.metrics.timer("pipeline_seconds", op="embed"):
                feats = self.features(kind)
                if method == "tsne":
                    result = tsne(
                        feats,
                        metric=metric,
                        perplexity=perplexity,
                        n_iter=n_iter,
                        seed=seed,
                        method=tsne_method,
                        theta=theta,
                        n_landmarks=n_landmarks,
                        dtw_max_rows=dtw_max_rows,
                    )
                    info = EmbeddingInfo(
                        coords=result.embedding,
                        method=method,
                        metric=metric,
                        feature_kind=kind,
                        objective=result.kl_divergence,
                    )
                else:
                    mds_method = (
                        "classical" if method == "mds_classical" else "smacof"
                    )
                    result = mds(
                        feats, metric=metric, method=mds_method,
                        dtw_max_rows=dtw_max_rows,
                    )
                    info = EmbeddingInfo(
                        coords=result.embedding,
                        method=method,
                        metric=metric,
                        feature_kind=kind,
                        objective=result.stress,
                    )
            elapsed = self.metrics.clock() - start
            obs.get_slow_log().offer(
                "pipeline.embed", elapsed, method=method, metric=metric
            )
            obs.log_event(
                "pipeline.embed.compute",
                method=method,
                metric=metric,
                perplexity=perplexity,
                n_iter=n_iter,
                seed=seed,
                duration_ms=round(elapsed * 1000.0, 3),
            )
            return info

        value, degraded = self._flight_degradable(
            self._embeddings, "embed", key, compute
        )
        return value, degraded

    def selection_session(
        self, embedding: EmbeddingInfo | None = None
    ) -> SelectionSession:
        """Start an interactive selection session over an embedding."""
        info = embedding or self.embed()
        return SelectionSession(embedding=info.coords)

    def member_labels(self) -> list[PatternLabel]:
        """Template labels for every customer (population context), cached."""
        return self._flight(
            self._member_labels,
            "member_labels",
            "all",
            lambda: label_customers(self.series),
        )

    def _validate_indices(self, indices: np.ndarray) -> np.ndarray:
        """Embedding row indices as int64, bounds-checked.

        Out-of-range values — including negative ones, which numpy would
        silently wrap around to the *wrong customer* — raise ValueError.
        """
        indices = np.asarray(indices, dtype=np.int64)
        n = len(self.series.customer_ids)
        if indices.size:
            lo, hi = int(indices.min()), int(indices.max())
            if lo < 0 or hi >= n:
                raise ValueError(
                    f"embedding row indices must be in [0, {n}); "
                    f"got values spanning [{lo}, {hi}]"
                )
        return indices

    def pattern_of(self, indices: np.ndarray) -> PatternLabel:
        """Name the pattern of a selection (what the analyst reads off
        view B).

        Raises
        ------
        ValueError
            For row indices outside the embedding.
        """
        indices = self._validate_indices(indices)
        return label_selection(
            self.series, indices, member_labels=self.member_labels()
        )

    def profile_of(self, indices: np.ndarray) -> np.ndarray:
        """View B's aggregated consumption curve for a selection.

        Raises
        ------
        ValueError
            If the selection is empty, or for row indices outside the
            embedding.
        """
        indices = self._validate_indices(indices)
        if indices.size == 0:
            raise ValueError("cannot aggregate an empty selection")
        ids = [int(self.series.customer_ids[i]) for i in indices]
        return self.series.select_customers(ids).mean_profile()

    def customers_of(self, indices: np.ndarray) -> list[int]:
        """Customer ids behind embedding row indices.

        Raises
        ------
        ValueError
            For row indices outside the embedding.
        """
        indices = self._validate_indices(indices)
        return [int(self.series.customer_ids[int(i)]) for i in indices]

    def kmeans_baseline(
        self,
        k: int = 5,
        feature_kind: FeatureKind | None = None,
        seed: int = 0,
        algorithm: str = "lloyd",
    ) -> KMeansResult:
        """The S1d baseline: k-means on z-scored features.

        ``algorithm`` is ``"lloyd"`` (full-batch, the default) or
        ``"minibatch"`` (Sculley-style, for fleet-scale feature sets).

        Raises
        ------
        ValueError
            For an unknown algorithm.
        DeadlineExceeded
            When the bound request deadline is already spent.
        """
        if algorithm not in ("lloyd", "minibatch"):
            raise ValueError(
                f"algorithm must be 'lloyd' or 'minibatch', got {algorithm!r}"
            )
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("kmeans_baseline")
        with obs.span("pipeline.kmeans_baseline", k=k, algorithm=algorithm), \
                self.metrics.timer("pipeline_seconds", op="kmeans_baseline"):
            feats = normalize_matrix(self.features(feature_kind), "zscore")
            if algorithm == "minibatch":
                return minibatch_kmeans(feats, k=k, seed=seed)
            return kmeans(feats, k=k, seed=seed)

    def forecast(
        self, customer_id: int, horizon: int = 24, method: str = "profile"
    ) -> np.ndarray:
        """Day-ahead-style forecast for one customer.

        ``method`` is ``"profile"`` (pattern-based, the paper's downstream
        claim), ``"seasonal"`` (repeat last week) or ``"naive"``.

        Raises
        ------
        ValueError
            For an unknown method or customer.
        KeyError
            For an unknown customer id.
        """
        from repro.forecast.baselines import NaiveForecaster, SeasonalNaive
        from repro.forecast.profile import ProfileForecaster

        history = self.series.series(customer_id).values
        if method == "profile":
            model = ProfileForecaster()
            model.fit(history, start_phase=self.series.start_hour % model.season)
        elif method == "seasonal":
            model = SeasonalNaive(168).fit(history)
        elif method == "naive":
            model = NaiveForecaster().fit(history)
        else:
            raise ValueError(
                f"unknown method {method!r}; pick profile/seasonal/naive"
            )
        return model.predict(horizon)

    # ------------------------------------------------------------------
    # shift patterns (view A)
    # ------------------------------------------------------------------
    def grid(self, nx: int | None = None, ny: int | None = None) -> GridSpec:
        """The session's shared density grid (covers every customer).

        With no arguments, the current grid is returned as-is (building a
        default 96x96 one on first use) — so a grid chosen with an
        explicit resolution stays in force for later default-size calls
        instead of being silently rebuilt and dropped.  Passing ``nx``/
        ``ny`` rebuilds only when the resolution actually differs.
        """
        explicit = nx is not None or ny is not None
        want_nx = 96 if nx is None else nx
        want_ny = 96 if ny is None else ny
        with self._grid_lock:
            if self._grid is not None and (
                not explicit or (self._grid.nx, self._grid.ny) == (want_nx, want_ny)
            ):
                return self._grid
            positions = self.db.positions_of(self.db.customer_ids)
            self._grid = GridSpec.covering(positions, nx=want_nx, ny=want_ny)
            return self._grid

    def density(
        self,
        window: HourWindow,
        bandwidth_m: float | None = None,
        customer_ids: list[int] | None = None,
        method: str = "auto",
    ) -> DensityGrid:
        """Eq. 3: demand-weighted density for one window (view A heat map).

        ``method`` selects the KDE engine (``"auto"``, ``"exact"`` or
        ``"binned"``) and is part of the cache key so exact and binned
        surfaces never alias.  Results are cached per ``(window,
        bandwidth, customers, grid, method)`` with single-flight misses,
        so concurrent identical heat-map requests run the KDE kernel once.
        """
        grid, _ = self.density_degradable(
            window, bandwidth_m=bandwidth_m, customer_ids=customer_ids,
            method=method,
        )
        return grid

    def density_degradable(
        self,
        window: HourWindow,
        bandwidth_m: float | None = None,
        customer_ids: list[int] | None = None,
        method: str = "auto",
    ) -> tuple[DensityGrid, dict | bool]:
        """:meth:`density`, reporting degradation: ``(grid, degraded)``.

        ``degraded`` is falsy on the healthy path, or a (truthy) dict
        recording the served vs requested cache key when the density
        circuit breaker refused the computation and ``grid`` is the last
        successfully computed surface (possibly for a different window).

        Raises
        ------
        BreakerOpen
            Breaker open with no last-good density to fall back to.
        """
        spec = self.grid()
        ids_key = None if customer_ids is None else tuple(
            int(cid) for cid in customer_ids
        )
        key = (
            window.start_hour, window.end_hour, bandwidth_m, ids_key, spec,
            method,
        )

        def compute() -> DensityGrid:
            with obs.span(
                "pipeline.density", start=window.start_hour, end=window.end_hour
            ), self.metrics.timer("pipeline_seconds", op="density"):
                positions, values = self.db.demand(window, customer_ids)
                return kde_density(
                    positions, values, spec, bandwidth_m=bandwidth_m,
                    method=method,
                )

        value, degraded = self._flight_degradable(
            self._densities, "density", key, compute
        )
        return value, degraded

    def shift(
        self,
        t1: HourWindow,
        t2: HourWindow,
        bandwidth_m: float | None = None,
        customer_ids: list[int] | None = None,
        method: str = "auto",
    ) -> ShiftField:
        """Eq. 4: the density difference between two windows."""
        field, _ = self.shift_degradable(
            t1, t2, bandwidth_m=bandwidth_m, customer_ids=customer_ids,
            method=method,
        )
        return field

    def shift_degradable(
        self,
        t1: HourWindow,
        t2: HourWindow,
        bandwidth_m: float | None = None,
        customer_ids: list[int] | None = None,
        method: str = "auto",
    ) -> tuple[ShiftField, dict | bool]:
        """:meth:`shift`, reporting degradation: ``(field, degraded)``.

        ``degraded`` is falsy unless either underlying density came from
        the breaker-open fallback path (then it is that density's
        served/requested-key record).
        """
        with obs.span("pipeline.shift"), \
                self.metrics.timer("pipeline_seconds", op="shift"):
            before, degraded_1 = self.density_degradable(
                t1, bandwidth_m, customer_ids, method
            )
            after, degraded_2 = self.density_degradable(
                t2, bandwidth_m, customer_ids, method
            )
            return ShiftField.between(before, after), degraded_1 or degraded_2

    # ------------------------------------------------------------------
    # rollup-backed sweeps (S2)
    # ------------------------------------------------------------------
    def rollups(self, rebuild: bool = False) -> RollupStore:
        """The session's materialized rollup store, built lazily.

        The store covers every customer on the session grid and is
        rebuilt from the database on first use.  ``rebuild`` forces a fresh
        rebuild — the CLI's ``rollup rebuild`` path.
        """
        with self._rollups_lock:
            store = self._rollups
            if store is None:
                store = RollupStore(
                    self.db.positions_of(
                        [int(cid) for cid in self.db.readings.customer_ids]
                    ),
                    [int(cid) for cid in self.db.readings.customer_ids],
                    self.grid(),
                    metrics=self._metrics,
                )
                store.rebuild_from(self.db)
                self._rollups = store
            elif rebuild:
                store.rebuild_from(self.db)
            return store

    def rollup_status(self) -> dict[str, object]:
        """Staleness + maintenance state of the rollup layer.

        ``enabled`` is False (with every other key still present) until
        the store has been built — the telemetry block stays
        schema-stable either way.
        """
        with self._rollups_lock:
            store = self._rollups
        if store is None:
            return {"enabled": False, "status": None}
        return {
            "enabled": True,
            "status": store.status(source_end_hour=self.db.time_span.end_hour),
        }

    def _rollup_sweep(
        self,
        op: str,
        use_rollups: bool,
        from_rollups: Callable[[RollupStore], list],
        raw: Callable[[], list],
    ) -> list:
        """Answer a sweep from the caught-up rollups, else from raw
        readings.

        The store first folds the hours the database ingested since its
        last apply (incremental, O(lag)).  Any rollup gap
        (:class:`~repro.rollup.store.RollupMiss`) falls back to the exact
        raw-readings sweep and is counted in
        ``pipeline_rollup_fallback_total{op}``.
        """
        with obs.span(f"pipeline.{op}"), \
                self.metrics.timer("pipeline_seconds", op=op):
            if use_rollups:
                try:
                    store = self.rollups()
                    store.catch_up(self.db)
                    return from_rollups(store)
                except RollupMiss as exc:
                    self.metrics.counter(
                        "pipeline_rollup_fallback_total", op=op
                    ).inc()
                    obs.log_event(
                        "pipeline.rollup_fallback", level="warning", op=op,
                        reason=str(exc),
                    )
            return raw()

    def granularity_sweep(
        self,
        resolutions: tuple[Resolution, ...] = tuple(Resolution),
        max_pairs_per_resolution: int = 8,
        bandwidth_m: float | None = None,
        use_rollups: bool = True,
    ) -> list[GranularityResult]:
        """S2's temporal-granularity sweep, answered from the rollup
        layer when possible — latency independent of how many raw
        readings exist — with the exact raw sweep as the fallback."""
        return self._rollup_sweep(
            "granularity_sweep",
            use_rollups,
            lambda store: granularity_sweep_from_rollups(
                store,
                resolutions=resolutions,
                max_pairs_per_resolution=max_pairs_per_resolution,
                bandwidth_m=bandwidth_m,
            ),
            lambda: _granularity_sweep_raw(
                self.db,
                resolutions=resolutions,
                spec=self.grid(),
                max_pairs_per_resolution=max_pairs_per_resolution,
                bandwidth_m=bandwidth_m,
            ),
        )

    def quantile_sweep(
        self,
        t1: HourWindow,
        t2: HourWindow,
        quantiles: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        bandwidth_m: float | None = None,
        use_rollups: bool = True,
    ) -> list[QuantileResult]:
        """S2's consumption-intensity sweep, rollup-backed with the same
        exact-fallback contract as :meth:`granularity_sweep`."""
        return self._rollup_sweep(
            "quantile_sweep",
            use_rollups,
            lambda store: quantile_sweep_from_rollups(
                store, t1, t2, quantiles=quantiles, bandwidth_m=bandwidth_m
            ),
            lambda: _quantile_sweep_raw(
                self.db,
                t1,
                t2,
                quantiles=quantiles,
                spec=self.grid(),
                bandwidth_m=bandwidth_m,
            ),
        )

    def flows(
        self,
        t1: HourWindow,
        t2: HourWindow,
        style: str = "major",
        bandwidth_m: float | None = None,
        customer_ids: list[int] | None = None,
    ) -> list[FlowArrow]:
        """Flow arrows for view A.

        ``style`` is ``"major"`` (blob-to-blob transport, the Figure 3
        narrative arrows) or ``"field"`` (dense gradient arrows).

        Raises
        ------
        ValueError
            For an unknown style.
        """
        if style not in ("major", "field"):
            raise ValueError(f"style must be 'major' or 'field', got {style!r}")
        field = self.shift(t1, t2, bandwidth_m, customer_ids)
        if style == "major":
            return major_flows(field)
        return flow_vectors(field)
