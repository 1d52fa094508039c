"""Rollup maintenance under concurrency: one critical section per fold.

Two interleavings used to fold the same hours twice, so the second fold
raised ``rollup apply must be contiguous``:

- two rollup-backed sweeps that both read the store's watermark before
  either folded the hours the database had ingested since;
- a sweep landing between a stream tick's database ingest and its
  rollup fold.

Each test forces its interleaving with a hook on the database instance.
Where the fix serialises the two sides, the hook waits a bounded time for
a partner that never arrives and then lets the call proceed.
"""

import threading

import numpy as np
import pytest

from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.data.timeseries import HourWindow, Resolution
from repro.db.engine import EnergyDatabase
from repro.stream.feed import Batch
from repro.stream.routing import ShardRouter

HEAD_HOURS = 48
WAIT_SECONDS = 0.5


@pytest.fixture()
def live():
    """A session whose rollups are built over the first 48 hours, plus
    the hours a stream would still deliver."""
    city = generate_city(CityConfig(n_customers=15, n_days=4, seed=5))
    start = city.raw.start_hour
    head = city.raw.slice_hours(start, start + HEAD_HOURS)
    tail = city.raw.slice_hours(start + HEAD_HOURS, city.raw.end_hour)
    db = EnergyDatabase(city.customers, head)
    session = VapSession(db, preprocess=False)
    store = session.rollups()
    return db, session, store, tail


def _sweep(session, errors):
    start = session.db.time_span.start_hour
    try:
        session.quantile_sweep(
            HourWindow(start, start + 24),
            HourWindow(start + 24, start + HEAD_HOURS),
            quantiles=(0.5,),
        )
    except Exception as exc:  # collected and asserted on by the caller
        errors.append(exc)


def test_concurrent_sweeps_fold_ingested_hours_once(live):
    db, session, store, tail = live
    db.ingest_hours(
        tail.matrix[:, :6], db.time_span.end_hour,
        customer_ids=tail.customer_ids,
    )
    barrier = threading.Barrier(2, timeout=WAIT_SECONDS)
    original = db.readings_for

    def readings_for(*args, **kwargs):
        # Both sweeps meet here after reading the watermark, unless the
        # catch-up is one critical section and the second never gets in.
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        return original(*args, **kwargs)

    db.readings_for = readings_for
    errors: list[Exception] = []
    threads = [
        threading.Thread(target=_sweep, args=(session, errors))
        for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert store.last_applied_hour == db.time_span.end_hour
    assert store.hours_applied_total == 6


def test_sweep_during_tick_waits_for_its_fold(live):
    db, session, store, tail = live
    ids = [int(cid) for cid in tail.customer_ids]
    router = ShardRouter(db, ids, rollups=store)
    original = db.ingest_hours
    errors: list[Exception] = []
    sweeps: list[threading.Thread] = []

    def ingest_then_sweep(*args, **kwargs):
        # A sweep lands after the tick's ingest, before its fold.
        end = original(*args, **kwargs)
        sweep = threading.Thread(target=_sweep, args=(session, errors))
        sweep.start()
        sweep.join(timeout=WAIT_SECONDS)
        sweeps.append(sweep)
        return end

    db.ingest_hours = ingest_then_sweep
    batch = Batch(
        tick=0, start_hour=db.time_span.end_hour, values=tail.matrix[:, :2]
    )
    end = router.apply(batch)
    sweeps[0].join()
    assert errors == []
    assert store.last_applied_hour == end
    np.testing.assert_array_equal(
        store.bucket_weights(Resolution.HOURLY, end - 1),
        np.nan_to_num(tail.matrix[:, 1]),
    )
