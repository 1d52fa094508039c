"""Self time, the per-route breakdown and the patching wrappers."""

import types

import pytest

from perfbench import tracing
from perfbench.tracing import Recorder, Span, Target, breakdown, covered, self_times


def test_covered_counts_overlaps_once():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)
    assert covered(0.0, 10.0, [(1.0, 2.0), (2.0, 3.0), (5.0, 6.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(6.0)
    assert covered(0.0, 10.0, []) == 0.0


def test_covered_clips_to_the_span():
    assert covered(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)
    assert covered(2.0, 6.0, [(7.0, 9.0)]) == 0.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),   # overlaps a: the union is [1, 6]
        Span("c", 1.5, 2.0, 1),   # grandchild: only a's self time shrinks
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.5, 3.0, 0.5])


def test_breakdown_reports_layers_and_unattributed():
    spans = [
        Span("shift", 0.0, 10.0, -1),
        Span("server.request", 0.5, 9.5, 0),
        Span(tracing.UNATTRIBUTED, 1.0, 8.0, 1),
        Span("db.demand", 2.0, 4.0, 2),
        Span("shift.kde", 4.0, 5.0, 2),
        Span("server.json_encode", 8.0, 9.0, 1),
        Span("shift", 10.0, 12.0, -1),
        Span("server.request", 10.0, 12.0, 6),
    ]
    route = breakdown(spans)["shift"]
    assert route.n == 2
    assert route.total_s == pytest.approx(12.0)
    # Root self 1.0 (first op) + handler self 4.0; the second op has none.
    assert route.unattributed_s == pytest.approx(5.0)
    assert route.layers["db.demand"] == pytest.approx([1, 2.0])
    assert route.layers["server.request"] == pytest.approx([2, 1.0 + 2.0])
    assert tracing.UNATTRIBUTED not in route.layers
    # Every second of the route is either a layer's or unattributed.
    total = route.unattributed_s + sum(s for _, s in route.layers.values())
    assert total == pytest.approx(route.total_s)


def _fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_patched_wraps_and_restores():
    module = types.ModuleType("fake_layer")

    def work(x):
        return module.inner(x) + 1

    module.work = work
    module.inner = lambda x: x * 2

    class Store:
        def get(self, x):
            return x

    module.Store = Store
    targets = (
        Target("fake_layer", "work", "layer.work"),
        Target("fake_layer", "inner", "layer.inner"),
        Target("fake_layer:Store", "get", "layer.get"),
    )
    import sys

    sys.modules["fake_layer"] = module
    try:
        recorder = Recorder(clock=_fake_clock())
        original_get = Store.__dict__["get"]
        with tracing.patched(recorder, targets):
            with recorder.span("op"):
                assert module.work(3) == 7
                assert Store().get(5) == 5
        assert module.work is work
        assert Store.__dict__["get"] is original_get
        names = [s.name for s in recorder.spans]
        assert names == ["op", "layer.work", "layer.inner", "layer.get"]
        parents = [s.parent for s in recorder.spans]
        assert parents == [-1, 0, 1, 0]
        assert all(s.end > s.start for s in recorder.spans)
    finally:
        del sys.modules["fake_layer"]


def test_internal_calls_are_not_entries():
    recorder = Recorder(clock=_fake_clock())
    inner = recorder.wrap(lambda: None, Target("m", "f", "db.readings_for", ("db.demand",)))

    def demand():
        inner()

    outer = recorder.wrap(demand, Target("m", "g", "db.demand"))
    outer()
    inner()
    assert [s.name for s in recorder.spans] == ["db.demand", "db.readings_for"]
    assert [s.parent for s in recorder.spans] == [-1, -1]


def test_every_target_resolves():
    for target in tracing.TARGETS:
        owner = tracing._resolve(target.owner)
        assert target.attribute in vars(owner), target
