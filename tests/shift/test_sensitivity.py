"""Tests for the S2 sensitivity sweeps."""

import numpy as np
import pytest

from repro.core.shift.grids import GridSpec
from repro.core.shift.sensitivity import (
    _window_pairs,
    granularity_sweep,
    quantile_sweep,
)
from repro.data.timeseries import ALL_RESOLUTIONS, HourWindow, Resolution
from repro.preprocess.resample import resample


@pytest.fixture(scope="module")
def sweep_spec(small_db):
    return GridSpec.covering(
        small_db.positions_of(small_db.customer_ids), nx=40, ny=40
    )


class TestGranularitySweep:
    def test_covers_requested_resolutions(self, small_db, sweep_spec):
        resolutions = (Resolution.HOURLY, Resolution.DAILY, Resolution.WEEKLY)
        results = granularity_sweep(
            small_db, resolutions, spec=sweep_spec, max_pairs_per_resolution=3
        )
        assert [r.resolution for r in results] == list(resolutions)
        for r in results:
            assert r.n_window_pairs >= 1
            assert np.isfinite(r.mean_energy)
            assert r.peak_gain > 0 > r.peak_loss

    def test_too_coarse_resolution_yields_nan(self, small_db, sweep_spec):
        # 3 weeks of data has only one yearly bucket -> no pairs.
        results = granularity_sweep(
            small_db, (Resolution.YEARLY,), spec=sweep_spec
        )
        assert results[0].n_window_pairs == 0
        assert np.isnan(results[0].mean_energy)

    def test_pair_cap_respected(self, small_db, sweep_spec):
        results = granularity_sweep(
            small_db, (Resolution.HOURLY,), spec=sweep_spec,
            max_pairs_per_resolution=2,
        )
        assert results[0].n_window_pairs == 2

    def test_rejects_bad_cap(self, small_db, sweep_spec):
        with pytest.raises(ValueError):
            granularity_sweep(small_db, spec=sweep_spec, max_pairs_per_resolution=0)

    def test_hourly_energy_exceeds_weekly(self, small_db, sweep_spec):
        """The S2 finding: short windows catch diurnal churn that weekly
        averaging smooths away (weekly pairs differ only by noise and
        seasonality)."""
        results = granularity_sweep(
            small_db,
            (Resolution.HOURLY, Resolution.WEEKLY),
            spec=sweep_spec,
            max_pairs_per_resolution=6,
        )
        hourly, weekly = results
        assert hourly.mean_energy > weekly.mean_energy


    @pytest.mark.parametrize("resolution", ALL_RESOLUTIONS)
    def test_window_pairs_match_a_full_resample(self, small_db, resolution):
        """The sweep lists its pairs from the time axis alone; they equal
        the pairs of the resampled readings."""
        readings = small_db.readings.slice_hours(5, 400)
        want = resample(readings, resolution, aggregate="sum").window_pairs()
        assert _window_pairs(readings, resolution) == want


class TestQuantileSweep:
    def test_customer_counts_decrease(self, small_db, sweep_spec):
        t1 = HourWindow(61, 63)
        t2 = HourWindow(67, 69)
        results = quantile_sweep(
            small_db, t1, t2, quantiles=(0.3, 0.6, 0.9), spec=sweep_spec
        )
        counts = [r.n_customers for r in results]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]

    def test_all_results_have_energy(self, small_db, sweep_spec):
        results = quantile_sweep(
            small_db,
            HourWindow(61, 63),
            HourWindow(67, 69),
            quantiles=(0.3, 0.5, 0.7),
            spec=sweep_spec,
        )
        for r in results:
            assert np.isfinite(r.energy)
            assert r.n_flows >= 0

    def test_rejects_bad_quantiles(self, small_db, sweep_spec):
        with pytest.raises(ValueError):
            quantile_sweep(
                small_db,
                HourWindow(0, 2),
                HourWindow(2, 4),
                quantiles=(1.0,),
                spec=sweep_spec,
            )

    def test_default_grid_built_when_omitted(self, small_db):
        results = quantile_sweep(
            small_db, HourWindow(61, 63), HourWindow(67, 69), quantiles=(0.5,)
        )
        assert len(results) == 1
