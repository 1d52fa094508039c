"""Routing of replay batches (stream → data plane)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.generator.simulate import CityConfig, generate_city
from repro.db.engine import EnergyDatabase
from repro.stream import ReplayFeed, ShardRouter


@pytest.fixture()
def city():
    return generate_city(CityConfig(n_customers=20, n_days=4, seed=11))


def _split(city):
    total = city.raw.n_steps
    half = total // 2
    return city.raw.slice_hours(0, half), city.raw.slice_hours(half, total)


class TestShardRouter:
    def test_routes_to_plain_engine(self, city):
        head, rest = _split(city)
        db = EnergyDatabase(city.customers, head)
        feed = ReplayFeed(rest, hours_per_tick=6)
        applied = ShardRouter(db, rest.customer_ids).replay(feed)
        assert applied == feed.n_ticks
        assert db.time_span.end_hour == city.raw.n_steps
        np.testing.assert_array_equal(db.readings.matrix, city.raw.matrix)

    def test_routes_permuted_batch_rows(self, city):
        head, rest = _split(city)
        db = EnergyDatabase(city.customers, head)
        perm = np.random.default_rng(3).permutation(rest.n_customers)
        ids = [int(rest.customer_ids[i]) for i in perm]
        ShardRouter(db, ids).replay(
            ReplayFeed(rest.select_customers(ids), hours_per_tick=6)
        )
        assert db.time_span.end_hour == city.raw.n_steps
        np.testing.assert_array_equal(db.readings.matrix, city.raw.matrix)

    def test_max_ticks_stops_early(self, city):
        head, rest = _split(city)
        db = EnergyDatabase(city.customers, head)
        applied = ShardRouter(db, rest.customer_ids).replay(
            ReplayFeed(rest, hours_per_tick=1), max_ticks=3
        )
        assert applied == 3
        assert db.time_span.end_hour == head.end_hour + 3

