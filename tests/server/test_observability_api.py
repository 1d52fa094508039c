"""End-to-end observability: /api/traces, /api/profile, SLO burn alerts.

Covers the acceptance criteria of the observability-v2 story:

- a request produces ONE trace whose tree contains its database query
  spans, each carrying the HTTP request's id, retrievable via
  ``GET /api/traces/<id>``;
- ``GET /api/profile`` serves folded stacks, flamegraph SVG and JSON in
  both burst and continuous modes;
- a synthetic 50% error burst flips the fast burn-rate rule to firing,
  delivers an alert through a stream sink, and ``/api/telemetry`` shows
  the depleted error budget.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from repro import obs
from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.obs import MetricsRegistry, SlowOpLog, TimeWindowStore, TraceStore
from repro.obs.profiler import parse_folded
from repro.obs.slo import SloEngine
from repro.resilience.retry import RetryPolicy
from repro.server import TestClient, VapApp
from repro.stream.alerts import AlertDispatcher, MemorySink


@pytest.fixture(scope="module")
def obs_city():
    return generate_city(CityConfig(n_customers=30, n_days=7, seed=31))


@pytest.fixture()
def trace_store():
    previous = obs.get_tracer()
    store = TraceStore()
    obs.configure(sink=obs.NullSink(), trace_store=store)
    yield store
    obs.configure(tracer=previous)


def make_app(city, **kwargs):
    session = VapSession.from_city(city, metrics=MetricsRegistry())
    kwargs.setdefault("window_store", TimeWindowStore())
    kwargs.setdefault("slow_log", SlowOpLog())
    return VapApp(session, layout=city.layout, **kwargs)


class TestTracesApi:
    def test_request_yields_one_stitched_trace(
        self, obs_city, trace_store
    ):
        client = TestClient(make_app(obs_city))
        response = client.get(
            "/api/density?t_start=8&t_end=12",
            headers={"X-Request-ID": "req-acceptance"},
        )
        assert response.ok
        listing = client.get("/api/traces?request_id=req-acceptance").json
        assert listing["count"] == 1
        summary = listing["traces"][0]
        assert summary["name"] == "http.request"
        assert summary["request_id"] == "req-acceptance"
        assert summary["n_spans"] >= 2

        detail = client.get(f"/api/traces/{summary['trace_id']}").json
        tree = detail["trace"]
        assert tree["trace_id"] == summary["trace_id"]

        def walk(node):
            yield node
            for child in node.get("children", []):
                yield from walk(child)

        spans = list(walk(tree))
        db_spans = [s for s in spans if s["name"] == "db.demand"]
        assert db_spans
        # Every query span carries the originating HTTP request's id.
        assert all(s["request_id"] == "req-acceptance" for s in db_spans)
        # And parents back into this trace, not a disconnected root.
        span_ids = {s["span_id"] for s in spans}
        assert all(s["parent_id"] in span_ids for s in db_spans)

    def test_trace_listing_filters_by_tenant(self, obs_city, trace_store):
        client = TestClient(make_app(obs_city))
        assert client.get("/api/density?t_start=8&t_end=10").ok
        listing = client.get("/api/traces?tenant=default").json
        assert listing["count"] >= 1
        assert all(t["tenant"] == "default" for t in listing["traces"])
        assert client.get("/api/traces?tenant=nobody").json["count"] == 0

    def test_unknown_trace_404(self, obs_city, trace_store):
        client = TestClient(make_app(obs_city))
        response = client.get("/api/traces/deadbeef00000000")
        assert response.status == 404
        assert "unknown trace" in response.json["error"]

    def test_traces_404_when_tracing_disabled(self, obs_city):
        previous = obs.get_tracer()
        obs.configure(tracer=obs.Tracer())  # no store, no sink
        try:
            client = TestClient(make_app(obs_city))
            response = client.get("/api/traces")
            assert response.status == 404
            assert "tracing is not enabled" in response.json["error"]
        finally:
            obs.configure(tracer=previous)

    def test_trace_limit_param(self, obs_city, trace_store):
        client = TestClient(make_app(obs_city))
        for _ in range(3):
            assert client.get("/api/health").ok
        listing = client.get("/api/traces?limit=2").json
        assert listing["count"] == 2
        assert listing["stored"] >= 3


class TestProfileApi:
    def test_folded_output_parses(self, obs_city):
        client = TestClient(make_app(obs_city))
        response = client.get("/api/profile?seconds=0.2&hz=200")
        assert response.ok
        assert response.headers["Content-Type"].startswith("text/plain")
        parse_folded(response.body.decode("utf-8"))  # malformed would raise

    def test_svg_output_is_wellformed(self, obs_city):
        client = TestClient(make_app(obs_city))
        response = client.get("/api/profile?seconds=0.2&hz=200&format=svg")
        assert response.ok
        assert response.headers["Content-Type"] == "image/svg+xml"
        root = ET.fromstring(response.body.decode("utf-8"))
        assert root.tag.endswith("svg")

    def test_json_output_burst_mode(self, obs_city):
        client = TestClient(make_app(obs_city))
        payload = client.get(
            "/api/profile?seconds=0.2&hz=200&format=json"
        ).json
        assert payload["seconds"] == 0.2
        assert payload["continuous"] is False
        assert isinstance(payload["stacks"], dict)

    def test_continuous_profiler_reports_delta(self, obs_city):
        profiler = obs.StackProfiler(hz=200.0)
        profiler.start()
        try:
            client = TestClient(make_app(obs_city, profiler=profiler))
            payload = client.get(
                "/api/profile?seconds=0.2&format=json"
            ).json
            assert payload["continuous"] is True
        finally:
            profiler.stop()

    def test_parameter_validation(self, obs_city):
        client = TestClient(make_app(obs_city))
        assert client.get("/api/profile?seconds=0").status == 400
        assert client.get("/api/profile?seconds=120").status == 400
        assert client.get("/api/profile?hz=0").status == 400
        assert client.get("/api/profile?hz=5000").status == 400
        assert client.get("/api/profile?format=perf").status == 400


class TestSloBurnIntegration:
    def _burst_app(self, city):
        sink = MemorySink()
        dispatcher = AlertDispatcher(
            sinks=[sink],
            retry=RetryPolicy(
                base_delay=0.0, max_delay=0.0, sleeper=lambda s: None,
                metrics=MetricsRegistry(),
            ),
            metrics=MetricsRegistry(),
        )
        engine = SloEngine(
            dispatcher=dispatcher, registry=MetricsRegistry()
        )
        app = make_app(city, slo_engine=engine)

        def boom(request):
            raise OSError("synthetic backend outage")

        app.router.add("GET", "/api/boom", boom)
        return app, sink, engine

    def test_error_burst_fires_fast_rule_and_delivers_alert(self, obs_city):
        app, sink, engine = self._burst_app(obs_city)
        client = TestClient(app)
        # Synthetic 50% error rate: way past the 14.4x fast burn
        # threshold for a 99.9% availability objective.
        for _ in range(10):
            assert client.get("/api/health").ok
            assert client.get("/api/boom").status == 503
        results = {r["name"]: r for r in engine.evaluate()}
        availability = results["availability"]
        fast = next(
            r for r in availability["rules"] if r["rule"] == "fast"
        )
        assert fast["firing"]
        assert fast["short_burn_rate"] >= fast["threshold"]
        assert availability["firing"]
        assert availability["error_budget_remaining"] == 0.0

        # The alert went out through the stream sink — edge-triggered,
        # so one per rule even though evaluate() ran repeatedly.
        alerts = [
            a for a in sink.alerts()
            if a["type"] == "slo_burn_rate" and a["slo"] == "availability"
        ]
        rules_alerted = [a["rule"] for a in alerts]
        assert "fast" in rules_alerted
        assert len(rules_alerted) == len(set(rules_alerted))

        # /api/telemetry surfaces the depleted budget.
        telemetry = client.get("/api/telemetry").json
        slos = {s["name"]: s for s in telemetry["slo"]["slos"]}
        assert slos["availability"]["error_budget_remaining"] == 0.0
        assert slos["availability"]["firing"]

    def test_healthy_traffic_keeps_budget_full(self, obs_city):
        app, sink, engine = self._burst_app(obs_city)
        client = TestClient(app)
        for _ in range(10):
            assert client.get("/api/health").ok
        telemetry = client.get("/api/telemetry").json
        slos = {s["name"]: s for s in telemetry["slo"]["slos"]}
        assert slos["availability"]["error_budget_remaining"] == 1.0
        assert not slos["availability"]["firing"]
        assert sink.alerts() == []

    def test_profile_burst_does_not_burn_latency_budget(self, obs_city):
        # /api/profile?seconds=N is slow on purpose; the stock latency
        # SLO excludes observability routes so profiling the server
        # cannot page the server.
        client = TestClient(make_app(obs_city))
        assert client.get("/api/health").ok
        assert client.get("/api/profile?seconds=0.6&hz=50").ok
        assert client.get("/api/density?t_start=8&t_end=10").ok
        telemetry = client.get("/api/telemetry").json
        slos = {s["name"]: s for s in telemetry["slo"]["slos"]}
        assert slos["latency"]["error_budget_remaining"] == 1.0
        assert not slos["latency"]["firing"]

    def test_slo_block_always_present(self, obs_city):
        # Even without an injected engine the telemetry schema is stable.
        client = TestClient(make_app(obs_city))
        telemetry = client.get("/api/telemetry").json
        names = [s["name"] for s in telemetry["slo"]["slos"]]
        assert names == ["availability", "latency"]
