"""Layer tracing from the benchmark's own files.

The program is not edited to be traced.  Instead :func:`patched` replaces
each layer's public entry point, at the name its caller looks it up
under, with a wrapper that records a span into a :class:`Recorder`.  A
module-level function is patched in the *calling* module (the pipeline
calls ``repro.core.pipeline.kde_density``, so that is the name replaced);
a method is patched on its class.  Everything is restored on exit.

Spans stay in memory; :meth:`Recorder.dump` writes them out at the end.
:func:`breakdown` turns them into per-route calls, self time and an
``unattributed`` remainder: the time of each request not covered by any
layer span.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

# Spans that belong to no layer: their self time is the unattributed
# remainder of a route.  ``server.handler`` is the VapApp route method
# (glue between layers); a root span is one benchmark operation.
UNATTRIBUTED = "server.handler"

HANDLERS = (
    "customers", "readings", "embedding", "selection", "density", "shift",
    "sweep_granularity", "sweep_quantile", "proposals", "kmeans",
)


@dataclass(frozen=True, slots=True)
class Target:
    """One entry point to wrap.

    ``owner`` is ``"module"`` or ``"module:Class"``.  A call made while a
    span named in ``internal_to`` is innermost is part of that span's
    work, not a separate entry into the layer, and is not recorded.
    """

    owner: str
    attribute: str
    span: str
    internal_to: tuple[str, ...] = ()


TARGETS: tuple[Target, ...] = (
    Target("repro.server.app:VapApp", "__call__", "server.request"),
    *(Target("repro.server.app:VapApp", h, UNATTRIBUTED) for h in HANDLERS),
    Target("repro.server.json_codec", "dumps", "server.json_encode"),
    Target("repro.db.engine:EnergyDatabase", "demand", "db.demand"),
    Target(
        "repro.db.engine:EnergyDatabase", "readings_for", "db.readings_for",
        internal_to=("db.demand",),
    ),
    Target("repro.db.engine:EnergyDatabase", "ids_in_bbox", "db.ids_in_bbox"),
    Target("repro.db.engine:EnergyDatabase", "ingest_hours", "db.ingest_hours"),
    Target(
        "repro.db.engine:EnergyDatabase", "rollup_partials", "db.rollup_partials"
    ),
    Target("repro.core.pipeline", "remove_anomalies", "preprocess.clean_impute"),
    Target("repro.core.pipeline", "impute", "preprocess.clean_impute"),
    Target("repro.core.shift.sensitivity", "resample", "preprocess.resample"),
    Target(
        "repro.preprocess.resample", "bucket_partials", "preprocess.bucket_partials"
    ),
    Target("repro.rollup.store", "bucket_partials", "preprocess.bucket_partials"),
    Target("repro.core.pipeline", "kde_density", "shift.kde"),
    Target("repro.core.shift.sensitivity", "kde_density", "shift.kde"),
    Target("repro.server.app", "major_flows", "shift.major_flows"),
    Target("repro.core.shift.sensitivity", "major_flows", "shift.major_flows"),
    Target("repro.rollup.store:RollupStore", "rebuild_from", "rollup.rebuild"),
    Target("repro.rollup.store:RollupStore", "apply_batch", "rollup.apply_batch"),
    Target("repro.rollup.store:RollupStore", "bucket_field", "rollup.field"),
    Target("repro.rollup.store:RollupStore", "window_field", "rollup.field"),
    Target("repro.stream.routing:ShardRouter", "apply", "stream.apply"),
    Target("repro.core.pipeline", "tsne", "reduction.tsne"),
    Target(
        "repro.core.reduction.tsne", "pairwise_distances", "reduction.distances"
    ),
    *(
        Target(f"repro.core.patterns.selection:{cls}", "apply", "patterns.select")
        for cls in (
            "RectSelection", "RadiusSelection", "LassoSelection", "KnnSelection"
        )
    ),
    Target("repro.core.pipeline", "label_selection", "patterns.label"),
    Target("repro.core.pipeline", "label_customers", "patterns.label"),
    Target(
        "repro.core.patterns.autodiscover", "propose_selections",
        "patterns.propose",
    ),
    Target("repro.core.pipeline", "kmeans", "cluster.kmeans"),
    Target("repro.core.pipeline", "minibatch_kmeans", "cluster.kmeans"),
)


@dataclass(slots=True)
class Span:
    """One recorded interval; ``parent`` indexes :attr:`Recorder.spans`
    (-1 for a root)."""

    name: str
    start: float
    end: float
    parent: int


class Recorder:
    """In-memory span recorder for one thread of control."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as a span (a root when none is open)."""
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self._open.pop()
        self.spans[index].end = self.clock()

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """``fn`` recording a ``target.span`` span per entry into it."""
        name = target.span
        skip = {name, *target.internal_to}
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_ and spans[open_[-1]].name in skip:
                return fn(*args, **kwargs)
            index = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)

        return traced

    def dump(self, path, meta: dict) -> None:
        """Write ``meta`` plus every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    **meta,
                    "spans": [
                        [s.name, s.start, s.end, s.parent] for s in self.spans
                    ],
                },
                out,
            )


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def patched(
    recorder: Recorder, targets: Sequence[Target] = TARGETS
) -> Iterator[None]:
    """Install a wrapper at every target; restore the originals on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for target in targets:
            owner = _resolve(target.owner)
            original = vars(owner)[target.attribute]
            saved.append((owner, target.attribute, original))
            setattr(owner, target.attribute, recorder.wrap(original, target))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def covered(start: float, end: float, intervals: Sequence[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``;
    overlapping intervals count once."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if min(b, end) > max(a, start)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(s.start, s.end, children.get(i, ()))
        for i, s in enumerate(spans)
    ]


@dataclass(slots=True)
class RouteBreakdown:
    """Where one route's time went, summed over its operations."""

    n: int = 0
    total_s: float = 0.0
    unattributed_s: float = 0.0
    layers: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(lambda: [0, 0.0])
    )  # span name -> [calls, self seconds]


def breakdown(spans: Sequence[Span]) -> dict[str, RouteBreakdown]:
    """Per root-span name (one route), the calls and self time of every
    layer under it, and the unattributed remainder: the self time of the
    root and of :data:`UNATTRIBUTED` spans."""
    own = self_times(spans)
    root_of: list[int] = []
    routes: dict[str, RouteBreakdown] = defaultdict(RouteBreakdown)
    for i, s in enumerate(spans):
        root = i if s.parent < 0 else root_of[s.parent]
        root_of.append(root)
        route = routes[spans[root].name]
        if s.parent < 0:
            route.n += 1
            route.total_s += s.end - s.start
            route.unattributed_s += own[i]
        elif s.name == UNATTRIBUTED:
            route.unattributed_s += own[i]
        else:
            layer = route.layers[s.name]
            layer[0] += 1
            layer[1] += own[i]
    return dict(routes)
