"""Concurrency stress: stream ingest against concurrent readers.

One writer thread replays the tail of a city through
:class:`~repro.stream.routing.ShardRouter` (each tick an
:meth:`~repro.db.engine.EnergyDatabase.ingest_hours` swap) while eight
reader threads hammer the composed read paths.  The assertions pin the
consistency model down — **no torn reads**:

- any window fully inside the pre-loaded prefix comes back
  byte-identical to the source matrix, no matter how many ticks land
  mid-read;
- every readings snapshot is a clean column *prefix* of the final data
  (a torn matrix would mix tick boundaries or rows).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.data.generator.simulate import CityConfig, generate_city
from repro.data.timeseries import HourWindow
from repro.db.engine import EnergyDatabase
from repro.stream import ReplayFeed, ShardRouter

N_READERS = 8
READER_ITERATIONS = 30


@pytest.fixture()
def stress_city():
    return generate_city(CityConfig(n_customers=64, n_days=14, seed=7))


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


class TestWritersVersusReaders:
    def test_no_torn_reads_under_concurrent_ingest(self, stress_city):
        total = stress_city.raw.n_steps
        half = total // 2
        head = stress_city.raw.slice_hours(0, half)
        registry = obs.MetricsRegistry()
        db = EnergyDatabase(stress_city.customers, head, metrics=registry)
        source = stress_city.raw
        source_ids = [int(cid) for cid in source.customer_ids]
        stable = HourWindow(0, half)
        stable_ids = source_ids[::3]
        stable_want = _bits(source.matrix[::3, :half])

        rest = source.slice_hours(half, total)
        feed = ReplayFeed(rest, hours_per_tick=4)
        errors: list[BaseException] = []
        errors_lock = threading.Lock()

        def record(exc: BaseException) -> None:
            with errors_lock:
                errors.append(exc)

        def writer() -> None:
            try:
                ShardRouter(db, rest.customer_ids).replay(feed)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                record(exc)

        def reader() -> None:
            try:
                for _ in range(READER_ITERATIONS):
                    # Stable-prefix window: immune to concurrent ticks.
                    got = db.readings_for(stable_ids, stable)
                    assert _bits(got.matrix) == stable_want, "torn read"
                    # Whole snapshot: a clean column prefix of the final
                    # data, in source row order.
                    snap = db.readings
                    width = snap.n_steps
                    assert half <= width <= total
                    assert [int(c) for c in snap.customer_ids] == source_ids
                    assert _bits(snap.matrix) == _bits(
                        source.matrix[:, :width]
                    ), "readings snapshot is not a source prefix"
                    # Composed reads stay live mid-ingest.
                    db.demand(stable, stable_ids, "mean")
                    db.top_consumers(stable, k=5)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                record(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(N_READERS)
        ]
        # Switch threads far more often than the 5 ms default so a write
        # that is not atomic has many chances to interleave with a read.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive(), "stress thread deadlocked"
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:3]

        # Every tick landed: the final state equals the full source.
        assert db.time_span.end_hour == total
        assert _bits(db.readings.matrix) == _bits(source.matrix)
        ingested = [
            record["value"]
            for record in registry.snapshot()["counters"]
            if record["name"] == "db_ingest_hours_total"
        ]
        assert ingested == [total - half]
