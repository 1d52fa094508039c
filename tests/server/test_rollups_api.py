"""REST surface of the rollup layer: status, rebuild, and the sweeps.

Uses its own (module-scoped) session rather than the shared read-only
one, because building rollups and rebuilding them mutates session state.
"""

import pytest

from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.server import TestClient, VapApp

RESOLUTION_NAMES = {
    "hourly", "four_hourly", "daily", "weekly", "monthly", "quarterly",
    "yearly",
}


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(n_customers=30, n_days=10, seed=33))


@pytest.fixture(scope="module")
def client(city):
    session = VapSession.from_city(city)
    return TestClient(VapApp(session, layout=city.layout))


class TestRollupStatus:
    def test_disabled_before_first_use(self, city):
        session = VapSession.from_city(city)
        fresh = TestClient(VapApp(session, layout=city.layout))
        body = fresh.get("/api/rollups").json
        assert body["enabled"] is False
        assert body["last_applied_hour"] is None
        assert body["tables"] == []

    def test_rebuild_populates_status(self, client):
        assert client.post("/api/rollups/rebuild", {}).ok
        body = client.get("/api/rollups").json
        assert body["enabled"] is True
        assert body["lag_hours"] == 0
        assert body["last_applied_hour"] == body["source_end_hour"]
        assert {t["resolution"] for t in body["tables"]} == RESOLUTION_NAMES

    def test_counters_survive_requeries(self, client):
        client.post("/api/rollups/rebuild", {})
        before = client.get("/api/rollups").json["rebuilds_total"]
        client.post("/api/rollups/rebuild", {})
        after = client.get("/api/rollups").json["rebuilds_total"]
        assert after == before + 1


class TestSweepEndpoints:
    def test_granularity_sweep_returns_all_resolutions(self, client):
        body = client.get("/api/sweep/granularity").json
        assert {r["resolution"] for r in body["results"]} == RESOLUTION_NAMES
        hourly = next(
            r for r in body["results"] if r["resolution"] == "hourly"
        )
        assert hourly["n_window_pairs"] > 0
        assert hourly["mean_energy"] is not None

    def test_granularity_rollup_vs_raw_agree(self, client):
        rollup = client.get("/api/sweep/granularity").json["results"]
        raw = client.get("/api/sweep/granularity?source=raw").json["results"]
        for a, b in zip(raw, rollup):
            assert a["resolution"] == b["resolution"]
            assert a["n_window_pairs"] == b["n_window_pairs"]
            if a["mean_energy"] is not None:
                assert b["mean_energy"] == pytest.approx(
                    a["mean_energy"], rel=1e-6
                )

    def test_quantile_sweep_shape(self, client):
        body = client.get(
            "/api/sweep/quantile?t1_start=0&t1_end=24&t2_start=24&t2_end=48"
        ).json
        assert len(body["results"]) == 7
        first = body["results"][0]
        assert first["quantile"] == pytest.approx(0.3)
        assert first["n_customers"] > 0

    def test_quantile_rollup_vs_raw_agree(self, client):
        query = "t1_start=0&t1_end=24&t2_start=24&t2_end=48"
        rollup = client.get(f"/api/sweep/quantile?{query}").json["results"]
        raw = client.get(
            f"/api/sweep/quantile?{query}&source=raw"
        ).json["results"]
        for a, b in zip(raw, rollup):
            assert a["n_customers"] == b["n_customers"]
            if a["energy"] is not None:
                assert b["energy"] == pytest.approx(a["energy"], rel=1e-6)

    def test_bad_window_rejected(self, client):
        resp = client.get("/api/sweep/quantile?t1_start=abc")
        assert resp.status == 400


class TestTelemetryRollupBlock:
    def test_block_present_and_populated_after_rebuild(self, client):
        client.post("/api/rollups/rebuild", {})
        block = client.get("/api/telemetry").json["rollup"]
        assert block["enabled"] is True
        assert block["rebuilds_total"] >= 1
        assert block["last_applied_hour"] == block["source_end_hour"]
