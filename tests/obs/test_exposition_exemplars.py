"""Exposition tests: exemplars and label escaping under the strict parser.

Two claims from the observability-v2 story:

- histogram buckets carry OpenMetrics exemplar suffixes linking latency
  samples to trace ids, and the suffix parses under the strict
  mini-parser (plain 0.0.4 scrapers see it as a comment);
- label values render properly escaped (quotes, backslashes, newlines).
"""

from __future__ import annotations

from repro import obs
from repro.obs import MetricsRegistry, TraceStore
from repro.obs.prometheus import render_prometheus

from .prom import parse_prometheus


class TestExemplarExposition:
    def test_bucket_exemplar_renders_and_parses(self):
        registry = MetricsRegistry(clock=lambda: 0.0)
        registry.histogram("req_seconds", route="/r").observe(
            0.007, trace_id="abcd1234abcd1234"
        )
        text = render_prometheus(registry.snapshot())
        types, samples = parse_prometheus(text)
        assert types["req_seconds"] == "histogram"
        with_exemplar = [
            s for s in samples
            if s.name == "req_seconds_bucket" and s.exemplar is not None
        ]
        assert with_exemplar, text
        exemplar = with_exemplar[0].exemplar
        assert exemplar.labels == {"trace_id": "abcd1234abcd1234"}
        assert exemplar.value == 0.007

    def test_exemplar_lands_on_smallest_covering_bucket(self):
        registry = MetricsRegistry(clock=lambda: 0.0)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(
            0.5, trace_id="t1"
        )
        _, samples = parse_prometheus(render_prometheus(registry.snapshot()))
        by_le = {
            s.labels["le"]: s.exemplar
            for s in samples
            if s.name == "lat_bucket"
        }
        assert by_le["0.1"] is None
        assert by_le["1"] is not None and by_le["1"].labels["trace_id"] == "t1"
        # Cumulative buckets above keep their own (absent) exemplar.
        assert by_le["+Inf"] is None

    def test_overflow_observation_exemplar_on_inf_bucket(self):
        registry = MetricsRegistry(clock=lambda: 0.0)
        registry.histogram("lat", buckets=(0.1,)).observe(9.0, trace_id="big")
        _, samples = parse_prometheus(render_prometheus(registry.snapshot()))
        inf = next(
            s for s in samples
            if s.name == "lat_bucket" and s.labels["le"] == "+Inf"
        )
        assert inf.exemplar is not None
        assert inf.exemplar.labels["trace_id"] == "big"

    def test_no_exemplar_without_trace(self):
        registry = MetricsRegistry(clock=lambda: 0.0)
        registry.histogram("plain").observe(0.01)
        text = render_prometheus(registry.snapshot())
        assert " # " not in text
        parse_prometheus(text)  # still strictly valid

    def test_exemplar_escapes_label_value(self):
        registry = MetricsRegistry(clock=lambda: 0.0)
        registry.histogram("esc").observe(0.01, trace_id='we"ird\\id')
        text = render_prometheus(registry.snapshot())
        _, samples = parse_prometheus(text)
        exemplars = [s.exemplar for s in samples if s.exemplar is not None]
        assert exemplars[0].labels["trace_id"] == 'we"ird\\id'


class TestExemplarProvider:
    def test_open_span_supplies_trace_id(self, fresh_obs):
        obs.configure(trace_store=TraceStore())
        registry = obs.get_registry()
        with obs.span("work") as rec:
            registry.histogram("kernel_runtime_seconds", kernel="kde").observe(
                0.02
            )
        snap = registry.snapshot()
        hist = next(
            h for h in snap["histograms"]
            if h["name"] == "kernel_runtime_seconds"
        )
        exemplars = [
            e["exemplar"] for e in hist["buckets"] if e.get("exemplar")
        ]
        assert exemplars
        assert exemplars[0]["trace_id"] == rec.trace_id

    def test_no_provider_trace_outside_span(self, fresh_obs):
        obs.configure(trace_store=TraceStore())
        registry = obs.get_registry()
        registry.histogram("idle_seconds").observe(0.02)
        snap = registry.snapshot()
        hist = next(
            h for h in snap["histograms"] if h["name"] == "idle_seconds"
        )
        assert all(not e.get("exemplar") for e in hist["buckets"])


class TestShardLabelExposition:
    def test_shard_label_values_escaped(self):
        registry = MetricsRegistry(clock=lambda: 0.0)
        registry.counter("db_query_total", shard='0"\\\n').inc()
        text = render_prometheus(registry.snapshot())
        _, samples = parse_prometheus(text)
        assert samples[0].labels["shard"] == '0"\\\n'
