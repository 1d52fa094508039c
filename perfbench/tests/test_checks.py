"""The output checks pass on served answers and catch perturbed ones."""

import json

import numpy as np
import pytest

from repro import obs
from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.db import build_database
from repro.server.app import VapApp
from repro.server.client import TestClient

from perfbench import checks, streams


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    city = generate_city(CityConfig(n_customers=40, n_days=14, seed=3))
    registry = obs.MetricsRegistry()
    db = build_database(city.customers, city.raw, shards=1, metrics=registry)
    session = VapSession(db, metrics=registry)
    app = VapApp(
        session=session,
        layout=city.layout,
        registry=registry,
        window_store=obs.TimeWindowStore(),
        slow_log=obs.SlowOpLog(),
        jobs_root=str(tmp_path_factory.mktemp("jobs")),
    )
    return session, TestClient(app)


def _get(client, url):
    response = client.get(url)
    assert response.ok, response.body
    return json.loads(response.body)


def test_density_check(served):
    session, client = served
    url = "/api/density?t_start=24&t_end=48"
    payload = _get(client, url)
    assert checks.check_density(session, url, payload) == []
    values = np.asarray(payload["values"])
    values[10, 10] += 0.01 * values.max()
    assert checks.check_density(session, url, {**payload, "values": values.tolist()})


def test_shift_check(served):
    session, client = served
    url = "/api/shift?t1_start=0&t1_end=24&t2_start=24&t2_end=48"
    payload = _get(client, url)
    assert checks.check_shift(session, url, payload) == []
    assert checks.check_shift(session, url, {**payload, "energy": payload["energy"] * 1.01})
    gain = list(payload["peak_gain"])
    gain[2] *= 0.9
    assert checks.check_shift(session, url, {**payload, "peak_gain": gain})


def test_sweep_checks(served):
    session, client = served
    url = "/api/sweep/quantile?t1_start=200&t1_end=224&t2_start=224&t2_end=248"
    payload = _get(client, url)
    assert checks.check_quantile(session, url, payload) == []
    rows = [dict(r) for r in payload["results"]]
    rows[0]["energy"] *= 1.001
    assert checks.check_quantile(session, url, {"results": rows})

    rolled = _get(client, "/api/sweep/granularity")
    raw = _get(client, "/api/sweep/granularity?source=raw")
    assert checks.check_granularity(rolled, raw) == []
    rows = [dict(r) for r in rolled["results"]]
    rows[1]["mean_energy"] *= 1.001
    assert checks.check_granularity({"results": rows}, raw)


@pytest.mark.parametrize("kind", ["rect", "radius", "knn", "lasso"])
def test_selection_check(served, kind):
    _, client = served
    # Selections run on the default embedding.
    embedding = _get(client, "/api/embedding")
    coords, ids = np.asarray(embedding["points"]), embedding["customer_ids"]
    gesture = {"type": kind, "anchor": 0.5, "aspect": 1.0, "k": 7, "radii": [1.0] * 8}
    body = streams.selection_body(gesture, coords)
    response = client.post("/api/selection", json=body)
    assert response.ok
    payload = json.loads(response.body)
    assert payload["customer_ids"], "the gesture should select someone"
    assert checks.check_selection(body, payload, coords, ids) == []
    wrong = {**payload, "customer_ids": payload["customer_ids"][1:]}
    assert checks.check_selection(body, wrong, coords, ids)
