"""Window-first ``demand``/``readings_for`` against the select-then-slice
definition they replace.

The oracle picks the customers' whole histories, cuts the window, then
takes the NaN-aware statistic; the engine cuts the window first and
never copies a full history.  The answers must be byte-identical.
"""

import numpy as np
import pytest

from repro.data.timeseries import HourWindow
from repro.db.engine import DEMAND_STATISTICS


def oracle_demand(db, window, customer_ids, statistic):
    """select -> slice -> nan-statistic, with positions from the
    customer records."""
    if customer_ids is None:
        customer_ids = [int(cid) for cid in db.readings.customer_ids]
    sliced = db.readings.select_customers(customer_ids).slice_hours(
        window.start_hour, window.end_hour
    )
    matrix = sliced.matrix
    values = np.zeros(len(customer_ids))
    if matrix.shape[1] > 0:
        observed = ~np.isnan(matrix).all(axis=1)
        reduce = {"mean": np.nanmean, "sum": np.nansum, "max": np.nanmax}[statistic]
        with np.errstate(invalid="ignore"):
            values[observed] = reduce(matrix[observed], axis=1)
    positions = np.array(
        [(db.customer(cid).lon, db.customer(cid).lat) for cid in customer_ids],
        dtype=np.float64,
    ).reshape(len(customer_ids), 2)
    return positions, values


def subsets(db):
    ids = db.customer_ids
    rng = np.random.default_rng(11)
    return {
        "all": None,
        "ascending": ids[:17],
        "reordered": [int(cid) for cid in rng.permutation(ids)[:23]],
        "single": [ids[-1]],
        "none": [],
    }


def windows(db):
    span = db.time_span
    return {
        "inside": HourWindow(span.start_hour + 30, span.start_hour + 101),
        "clipped_left": HourWindow(span.start_hour - 40, span.start_hour + 20),
        "clipped_right": HourWindow(span.end_hour - 7, span.end_hour + 50),
        "whole": HourWindow(span.start_hour - 1, span.end_hour + 1),
        "empty": HourWindow(span.start_hour + 9, span.start_hour + 9),
        "past_end": HourWindow(span.end_hour + 3, span.end_hour + 8),
    }


@pytest.fixture(scope="module")
def sparse_db(small_city):
    """The small city with whole-window gaps, so some customers have no
    reading in a window and take the zero default."""
    from repro.db.engine import EnergyDatabase

    raw = small_city.raw.copy()
    raw.matrix[::5, 30:101] = np.nan
    raw.matrix[1::7] = np.nan
    return EnergyDatabase(small_city.customers, raw)


@pytest.mark.parametrize("statistic", DEMAND_STATISTICS)
@pytest.mark.parametrize("window_name", [
    "inside", "clipped_left", "clipped_right", "whole", "empty", "past_end",
])
@pytest.mark.parametrize("subset", ["all", "ascending", "reordered", "single", "none"])
def test_demand_byte_identical(sparse_db, statistic, window_name, subset):
    window = windows(sparse_db)[window_name]
    ids = subsets(sparse_db)[subset]
    got_pos, got_val = sparse_db.demand(window, ids, statistic)
    want_pos, want_val = oracle_demand(sparse_db, window, ids, statistic)
    assert got_pos.dtype == want_pos.dtype and got_val.dtype == want_val.dtype
    assert got_pos.shape == want_pos.shape and got_val.shape == want_val.shape
    assert got_pos.tobytes() == want_pos.tobytes()
    assert got_val.tobytes() == want_val.tobytes()


@pytest.mark.parametrize("window_name", ["inside", "clipped_left", "empty", None])
@pytest.mark.parametrize("subset", ["all", "reordered", "single"])
def test_readings_for_byte_identical(sparse_db, window_name, subset):
    ids = subsets(sparse_db)[subset]
    window = None if window_name is None else windows(sparse_db)[window_name]
    got = sparse_db.readings_for(ids, window)
    want = sparse_db.readings
    if ids is not None:
        want = want.select_customers(ids)
    if window is not None:
        want = want.slice_hours(window.start_hour, window.end_hour)
    assert got.start_hour == want.start_hour
    assert got.customer_ids.tolist() == want.customer_ids.tolist()
    assert got.matrix.shape == want.matrix.shape
    assert got.matrix.tobytes() == want.matrix.tobytes()


def test_readings_for_result_does_not_alias_the_store(sparse_db):
    window = windows(sparse_db)["inside"]
    out = sparse_db.readings_for(None, window)
    assert not np.shares_memory(out.matrix, sparse_db.readings.matrix)


def test_demand_positions_do_not_alias_the_store(small_db):
    positions, _ = small_db.demand(HourWindow(0, 24))
    positions[:] = 0.0
    again, _ = small_db.demand(HourWindow(0, 24))
    assert (again != 0.0).any()


def test_demand_unknown_id_raises_key_error(small_db):
    with pytest.raises(KeyError):
        small_db.demand(HourWindow(0, 24), [small_db.customer_ids[0], -1])


def test_demand_repeated_ids_rejected(small_db):
    cid = small_db.customer_ids[0]
    with pytest.raises(ValueError, match="duplicates"):
        small_db.demand(HourWindow(0, 24), [cid, cid])


class TestPositionsOf:
    def test_requested_order_and_values(self, small_db):
        ids = subsets(small_db)["reordered"]
        positions = small_db.positions_of(ids)
        assert positions.shape == (len(ids), 2)
        assert positions.dtype == np.float64
        for row, cid in enumerate(ids):
            customer = small_db.customer(cid)
            assert tuple(positions[row]) == (customer.lon, customer.lat)

    def test_empty_request(self, small_db):
        assert small_db.positions_of([]).shape == (0, 2)

    def test_unknown_id_raises_key_error(self, small_db):
        with pytest.raises(KeyError):
            small_db.positions_of([small_db.customer_ids[0], -1])

    def test_result_does_not_alias_the_store(self, small_db):
        ids = small_db.customer_ids
        small_db.positions_of(ids)[:] = 0.0
        assert (small_db.positions_of(ids) != 0.0).any()
