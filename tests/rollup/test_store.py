"""RollupStore: derived tables, incremental maintenance, staleness.

The store's contract has three faces, each pinned here:

- **batch parity** — rollup-backed demand and fields reproduce what the
  database/batch-KDE path computes over the same hours;
- **incremental == rebuild** — applying hours one tick at a time lands on
  the same tables (and the same cached grids, bit for bit) a fresh
  rebuild over the full span produces;
- **safety rails** — non-contiguous applies, batches that do not cover
  exactly the store's customers and out-of-span queries fail loudly
  instead of corrupting the tables.
"""

import numpy as np
import pytest

from repro.core.shift.grids import GridSpec
from repro.core.shift.kde import kde_density
from repro.data.timeseries import HourWindow, Resolution, SeriesSet
from repro.db.engine import EnergyDatabase
from repro.rollup import RollupMiss, RollupStore


def _make_series(n_customers=12, n_hours=96, start=0, seed=3, nan_rate=0.0):
    rng = np.random.default_rng(seed)
    matrix = rng.gamma(2.0, 1.5, size=(n_customers, n_hours))
    if nan_rate:
        matrix[rng.random(matrix.shape) < nan_rate] = np.nan
    return SeriesSet(list(range(n_customers)), start, matrix)


def _make_store(series, seed=3, **kwargs):
    rng = np.random.default_rng(seed + 100)
    n = series.n_customers
    positions = rng.uniform([12.5, 55.6], [12.7, 55.8], size=(n, 2))
    spec = GridSpec.covering(positions, nx=16, ny=16)
    store = RollupStore(
        positions, list(series.customer_ids), spec, **kwargs
    )
    return store, positions, spec


class TestRebuild:
    def test_hourly_rollup_reproduces_matrix(self):
        series = _make_series()
        store, _, _ = _make_store(series)
        store.rebuild(series)
        row = store.bucket(Resolution.HOURLY, 5)
        np.testing.assert_allclose(row.sums, series.matrix[:, 5])
        np.testing.assert_array_equal(row.counts, np.ones(12))

    def test_daily_bucket_sums_hours(self):
        series = _make_series(n_hours=48)
        store, _, _ = _make_store(series)
        store.rebuild(series)
        row = store.bucket(Resolution.DAILY, 0)
        np.testing.assert_allclose(
            row.sums, series.matrix[:, :24].sum(axis=1)
        )

    def test_nan_hours_are_excluded_from_counts(self):
        series = _make_series(nan_rate=0.2, seed=9)
        store, _, _ = _make_store(series)
        store.rebuild(series)
        row = store.bucket(Resolution.DAILY, 0)
        observed = (~np.isnan(series.matrix[:, :24])).sum(axis=1)
        np.testing.assert_array_equal(row.counts, observed)

    def test_rejects_foreign_customers(self):
        series = _make_series()
        store, _, _ = _make_store(series)
        foreign = SeriesSet([100 + i for i in range(12)], 0, series.matrix)
        with pytest.raises(ValueError, match="different customers"):
            store.rebuild(foreign)

    def test_reorders_shuffled_rows(self):
        series = _make_series()
        store, _, _ = _make_store(series)
        order = np.random.default_rng(0).permutation(12)
        shuffled = SeriesSet(
            [int(series.customer_ids[i]) for i in order],
            series.start_hour,
            series.matrix[order],
        )
        store.rebuild(shuffled)
        row = store.bucket(Resolution.HOURLY, 0)
        np.testing.assert_allclose(row.sums, series.matrix[:, 0])

    def test_rebuild_from_database(self):
        series = _make_series()
        store, positions, _ = _make_store(series)
        customers = _customers_for(series, positions)
        db = EnergyDatabase(customers, series)
        store.rebuild_from(db)
        assert store.last_applied_hour == series.end_hour
        assert store.first_hour == series.start_hour


def _customers_for(series, positions):
    from repro.data.meter import Customer, CustomerType, ZoneKind

    return [
        Customer(
            customer_id=int(cid),
            lon=float(positions[i, 0]),
            lat=float(positions[i, 1]),
            zone=ZoneKind.COMMERCIAL,
            archetype=next(iter(CustomerType)),
        )
        for i, cid in enumerate(series.customer_ids)
    ]


class TestIncrementalEqualsRebuild:
    def test_apply_hours_matches_full_rebuild(self):
        series = _make_series(n_hours=72, nan_rate=0.1, seed=11)
        batch_store, positions, spec = _make_store(series, seed=11)
        batch_store.rebuild(series)
        inc_store = RollupStore(
            positions, list(series.customer_ids), spec
        )
        for j in range(0, 72, 6):
            inc_store.apply_hours(series.matrix[:, j:j + 6], j)
        for res in (Resolution.HOURLY, Resolution.DAILY, Resolution.WEEKLY):
            assert inc_store.buckets(res) == batch_store.buckets(res)
            for b in inc_store.buckets(res):
                got, want = inc_store.bucket(res, b), batch_store.bucket(res, b)
                np.testing.assert_allclose(got.sums, want.sums, rtol=1e-12)
                np.testing.assert_array_equal(got.counts, want.counts)

    def test_warm_grid_follows_applied_hours(self):
        series = _make_series(n_hours=48)
        store, _, _ = _make_store(series)
        store.apply_hours(series.matrix[:, :36], 0)
        # Materialize the open daily bucket's grid, then keep feeding it:
        # a fold drops the cached grid and the next read rebuilds it from
        # the bucket's sums.
        store.bucket_field(Resolution.DAILY, 1)
        store.apply_hours(series.matrix[:, 36:], 36)
        row = store.bucket(Resolution.DAILY, 1)
        assert row.kernel_grid is None
        store.bucket_field(Resolution.DAILY, 1)
        assert store.grid_builds_total == 2
        np.testing.assert_array_equal(
            row.kernel_grid, store.acc.grid(row.sums)
        )

    def test_warm_read_after_folds_equals_rebuild_bitwise(self):
        series = _make_series(n_hours=96, seed=5)
        store, positions, spec = _make_store(series, seed=5)
        store.apply_hours(series.matrix[:, :30], 0)
        store.bucket_field(Resolution.WEEKLY, 0)  # warm the open bucket
        for j in range(30, 96):
            store.apply_hours(series.matrix[:, j:j + 1], j)
        got = store.bucket_field(Resolution.WEEKLY, 0)
        rebuilt = RollupStore(positions, list(series.customer_ids), spec)
        rebuilt.rebuild(series)
        want = rebuilt.bucket_field(Resolution.WEEKLY, 0)
        np.testing.assert_array_equal(got.values, want.values)


class TestSafetyRails:
    def test_gap_rejected(self):
        series = _make_series()
        store, _, _ = _make_store(series)
        store.apply_hours(series.matrix[:, :4], 0)
        with pytest.raises(ValueError, match="contiguous"):
            store.apply_hours(series.matrix[:, 6:8], 6)

    def test_overlap_rejected(self):
        series = _make_series()
        store, _, _ = _make_store(series)
        store.apply_hours(series.matrix[:, :4], 0)
        with pytest.raises(ValueError, match="contiguous"):
            store.apply_hours(series.matrix[:, 2:6], 2)

    def test_unknown_customer_rejected(self):
        series = _make_series()
        store, _, _ = _make_store(series)
        ids = list(series.customer_ids)
        ids[0] = 999
        with pytest.raises(ValueError, match="exactly the store's customers"):
            store.apply_hours(series.matrix[:, :4], 0, customer_ids=ids)

    def test_subset_batch_rejected(self):
        series = _make_series()
        store, _, _ = _make_store(series)
        with pytest.raises(ValueError, match="exactly the store's customers"):
            store.apply_hours(
                series.matrix[:6, :4], 0, customer_ids=list(range(6))
            )
        assert store.last_applied_hour is None

    def test_permuted_batch_is_reordered(self):
        series = _make_series()
        store, _, _ = _make_store(series)
        order = np.random.default_rng(4).permutation(12)
        store.apply_hours(
            series.matrix[order, :4], 0, customer_ids=order.tolist()
        )
        np.testing.assert_array_equal(
            store.bucket(Resolution.HOURLY, 2).sums, series.matrix[:, 2]
        )

    def test_untracked_resolution_misses(self):
        series = _make_series()
        store, _, _ = _make_store(
            series, resolutions=(Resolution.HOURLY,)
        )
        store.rebuild(series)
        with pytest.raises(RollupMiss):
            store.buckets(Resolution.DAILY)

    def test_window_outside_span_misses(self):
        series = _make_series(n_hours=48)
        store, _, _ = _make_store(series)
        store.rebuild(series)
        with pytest.raises(RollupMiss, match="outside"):
            store.window_demand(HourWindow(40, 60))

    def test_unbuilt_store_misses(self):
        series = _make_series()
        store, _, _ = _make_store(series)
        with pytest.raises(RollupMiss):
            store.bucket(Resolution.HOURLY, 0)


class TestShardStyleSubsetApplies:
    """Staleness: the store's one watermark against the source end hour."""

    def test_lag_reported_against_source(self):
        series = _make_series(n_hours=24)
        store, _, _ = _make_store(series)
        store.apply_hours(series.matrix[:, :20], 0)
        status = store.status(source_end_hour=24)
        assert status["last_applied_hour"] == 20
        assert status["lag_hours"] == 4


class TestQueries:
    def test_window_demand_matches_database(self):
        series = _make_series(n_hours=72, nan_rate=0.15, seed=13)
        store, positions, _ = _make_store(series, seed=13)
        store.rebuild(series)
        db = EnergyDatabase(_customers_for(series, positions), series)
        window = HourWindow(10, 40)
        for stat in ("mean", "sum"):
            _, want = db.demand(window, None, statistic=stat)
            got = store.window_demand(window, statistic=stat)
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_bucket_field_fast_path_matches_batch_kde(self):
        series = _make_series(n_hours=48, seed=17)  # no NaN: clean buckets
        store, positions, spec = _make_store(series, seed=17)
        store.rebuild(series)
        weights = store.bucket_weights(Resolution.DAILY, 0)
        want = kde_density(
            positions, weights, spec, bandwidth_m=store.bandwidth_m
        )
        got = store.bucket_field(Resolution.DAILY, 0)
        assert store.grid_builds_total == 1  # fast path materialized
        np.testing.assert_allclose(got.values, want.values, rtol=1e-9)

    def test_bucket_field_slow_path_on_missing_data(self):
        series = _make_series(n_hours=48, nan_rate=0.3, seed=19)
        store, positions, spec = _make_store(series, seed=19)
        store.rebuild(series)
        got = store.bucket_field(Resolution.DAILY, 0)
        assert store.grid_builds_total == 0  # non-uniform counts: no cache
        weights = store.bucket_weights(Resolution.DAILY, 0)
        want = kde_density(
            positions, weights, spec, bandwidth_m=store.bandwidth_m
        )
        np.testing.assert_array_equal(got.values, want.values)

    def test_negative_demand_disables_fast_path(self):
        # A bucket whose *sum* goes negative would be clipped by the
        # batch path's weight normalisation; the store must notice and
        # take the exact per-weight path instead of the additive grid.
        series = _make_series(n_hours=24)
        series.matrix[2, 3] = -1000.0
        store, positions, spec = _make_store(series)
        store.rebuild(series)
        got = store.bucket_field(Resolution.DAILY, 0)
        assert store.grid_builds_total == 0
        weights = store.bucket_weights(Resolution.DAILY, 0)
        want = kde_density(
            positions, weights, spec, bandwidth_m=store.bandwidth_m
        )
        np.testing.assert_array_equal(got.values, want.values)

    def test_window_field_subset_matches_batch_kde(self):
        series = _make_series(n_hours=48, seed=23)
        store, positions, spec = _make_store(series, seed=23)
        store.rebuild(series)
        rows = np.array([1, 4, 6, 9])
        window = HourWindow(0, 30)
        weights = store.window_demand(window)[rows]
        got = store.window_field(window, rows=rows, bandwidth_m=700.0)
        want = kde_density(
            positions[rows], weights, spec, bandwidth_m=700.0
        )
        np.testing.assert_array_equal(got.values, want.values)

    def test_status_counters_track_maintenance(self):
        series = _make_series(n_hours=48)
        store, _, _ = _make_store(series)
        store.rebuild(series)
        store.bucket_field(Resolution.DAILY, 0)
        status = store.status()
        assert status["rebuilds_total"] == 1
        assert status["grid_builds_total"] == 1
        hourly = next(
            t for t in status["tables"] if t["resolution"] == "hourly"
        )
        assert hourly["n_buckets"] == 48
