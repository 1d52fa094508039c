"""Set-up and timed phase of each workload.

Both drive one :class:`~repro.server.app.VapApp` in process through
:class:`~repro.server.client.TestClient`, from one closed-loop client:
the next request goes out when the previous answer is back.

- ``linked-views`` — S1 on the linked views: cold t-SNE embeddings,
  each followed by a burst that mixes view-C selection gestures,
  proposals and k-means with view A/B drill-down (shift pairs and
  density windows at three widths, a quarter repeating recent windows,
  viewport bbox pans and one-week readings).  Loads reduction, patterns
  and cluster, and ``db.demand``, the KDE, ``major_flows`` and JSON
  encoding; the rollups, resampling and stream layers stay idle.
- ``s2-live`` — S2 near-real-time: the tail of the series is replayed
  one hour per tick through the stream router (db + rollup writes), each
  tick followed by a shift and a rollup-backed quantile-sweep refresh;
  every few ticks both granularity sweeps run.  The only workload that
  writes, and the only one resampling and reading rollups; reduction,
  patterns and cluster stay idle.

Each workload runs in blocks with a fixed mix (a view-C cycle, a group
of ticks); a phase stops only between blocks.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro import obs
from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.db import build_database
from repro.server.app import VapApp
from repro.server.client import Response, TestClient
from repro.stream.feed import ReplayFeed
from repro.stream.routing import ShardRouter

from perfbench import streams
from perfbench.streams import Op
from perfbench.tracing import Recorder

# The ROADMAP probe city.
N_CUSTOMERS = 1000
N_DAYS = 90
# s2-live loads the first 60 days and replays the last 30, one hour per
# tick (720 ticks, more than a run gets through).
S2_HEAD_HOURS = 60 * 24
# Both granularity sweeps run after every S2_GRANULARITY_EVERY ticks:
# once per replayed day, an unverified assumption (the workload asks
# only for "every few ticks").
S2_GRANULARITY_EVERY = 24


@dataclass
class Env:
    """One built app plus what its workload needs to drive it."""

    workload: str
    seed: int
    session: VapSession
    client: TestClient
    registry: obs.MetricsRegistry
    router: ShardRouter | None = None
    feed: ReplayFeed | None = None


def build(workload: str, seed: int, jobs_root: str) -> Env:
    """Everything a user waits for before the first request: the city,
    the database, the session's cleaning and imputation, the app — and,
    on ``s2-live``, the rollup build.  The app gets its own registry,
    window store and slow-op log, so nothing accumulates across builds."""
    registry = obs.MetricsRegistry()
    # Kernels record into the process default; a fresh one per build.
    obs.configure(registry=obs.MetricsRegistry())
    city = generate_city(CityConfig(n_customers=N_CUSTOMERS, n_days=N_DAYS, seed=seed))
    readings = city.raw
    if workload == "s2-live":
        readings = city.raw.slice_hours(city.raw.start_hour, S2_HEAD_HOURS)
    db = build_database(city.customers, readings, shards=1, metrics=registry)
    session = VapSession(db, metrics=registry)
    app = VapApp(
        session=session,
        layout=city.layout,
        registry=registry,
        window_store=obs.TimeWindowStore(),
        slow_log=obs.SlowOpLog(),
        jobs_root=jobs_root,
    )
    env = Env(workload, seed, session, TestClient(app), registry)
    if workload == "s2-live":
        ids = [int(cid) for cid in readings.customer_ids]
        env.router = ShardRouter(db, ids, rollups=session.rollups())
        tail = city.raw.slice_hours(S2_HEAD_HOURS, city.raw.end_hour)
        env.feed = ReplayFeed(tail, hours_per_tick=1)
    return env


@dataclass(slots=True)
class Record:
    """One operation: its route, latency, status and answer size."""

    route: str
    seconds: float
    status: int
    size: int = 0

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


@dataclass
class Phase:
    """The timed phase of one run: every operation's record, the answers
    kept for checking, and workload-specific samples."""

    client: TestClient
    recorder: Recorder | None = None
    records: list[Record] = field(default_factory=list)
    kept: list[tuple[Op, bytes]] = field(default_factory=list)
    tick_refresh: list[float] = field(default_factory=list)
    granularity: list[tuple[bytes, bytes]] = field(default_factory=list)
    coords: np.ndarray | None = None
    embed_ids: list[int] | None = None
    wall_seconds: float = 0.0
    # (operations completed, seconds) of each whole block.
    blocks: list[tuple[int, float]] = field(default_factory=list)

    def call(self, op: Op) -> Response:
        """Send ``op``; record it and keep its answer when asked."""
        start = time.perf_counter()
        if self.recorder is None:
            response = self._send(op)
        else:
            with self.recorder.span(op.route):
                response = self._send(op)
        seconds = time.perf_counter() - start
        self.records.append(Record(op.route, seconds, response.status, len(response.body)))
        if op.check and response.ok:
            self.kept.append((op, response.body))
        return response

    def _send(self, op: Op) -> Response:
        # The body is already encoded, so client-side JSON encoding
        # stays out of the server's json_encode span.
        headers = None if op.body is None else {"Content-Type": "application/json"}
        return self.client._request(op.method, op.url, op.body, headers=headers)

    def run(self, route: str, fn: Callable[[], object]) -> object:
        """Time an in-process operation that is not an HTTP request."""
        start = time.perf_counter()
        if self.recorder is None:
            value = fn()
        else:
            with self.recorder.span(route):
                value = fn()
        self.records.append(Record(route, time.perf_counter() - start, 200))
        return value


def run_phase(
    env: Env,
    seconds: float,
    recorder: Recorder | None = None,
    min_ops: int = 0,
    min_ticks: int = 0,
) -> Phase:
    """Drive ``env`` for ``seconds``, at least ``min_ops`` operations and
    (on ``s2-live``) at least ``min_ticks`` ticks, stopping only between
    whole blocks (view-C cycles, tick groups), so every run keeps the
    workload's mix."""
    phase = Phase(env.client, recorder)
    drive = {"linked-views": _linked, "s2-live": _s2}[env.workload]
    start = last = time.perf_counter()
    done = 0
    for _ in drive(env, phase):
        now = time.perf_counter()
        phase.blocks.append((sum(r.ok for r in phase.records[done:]), now - last))
        last, done = now, len(phase.records)
        if (
            now - start >= seconds
            and len(phase.records) >= min_ops
            and len(phase.tick_refresh) >= min_ticks
        ):
            break
    phase.wall_seconds = time.perf_counter() - start
    return phase


def _linked(env: Env, phase: Phase) -> Iterator[None]:
    """One view-C cycle, with its view-A requests, per step."""
    db = env.session.db
    ids = [int(cid) for cid in db.customer_ids]
    span = db.time_span
    cycles = streams.linked_cycles(
        env.seed, span.end_hour - span.start_hour, db.positions_of(ids), ids
    )
    for cycle in cycles:
        answer = phase.call(cycle.embed)
        if phase.coords is None:
            # Selections run on the default embedding: the first one.
            if not answer.ok:
                raise RuntimeError(f"default embedding failed: {answer.status}")
            payload = json.loads(answer.body)
            phase.coords = np.asarray(payload["points"], dtype=np.float64)
            phase.embed_ids = [int(cid) for cid in payload["customer_ids"]]
        for kind, i in cycle.order:
            if kind == "selection":
                phase.call(streams.selection_op(cycle.selections[i], phase.coords))
            elif kind == "kmeans":
                phase.call(cycle.kmeans[i])
            elif kind == "view_a":
                phase.call(cycle.view_a[i])
            else:
                phase.call(streams.PROPOSALS)
        yield


def _s2(env: Env, phase: Phase) -> Iterator[None]:
    """One group of ticks, then both granularity sweeps, per step."""
    batches = iter(env.feed)
    checked = streams.s2_checked_ticks(env.seed, env.feed.n_ticks)
    tick = 0
    while True:
        for _ in range(S2_GRANULARITY_EVERY):
            batch = next(batches, None)
            if batch is None:
                return
            start = time.perf_counter()
            end = phase.run("tick", lambda: env.router.apply(batch))
            for op in streams.s2_refresh(int(end), check=tick in checked):
                phase.call(op)
            phase.tick_refresh.append(time.perf_counter() - start)
            tick += 1
        rolled = phase.call(Op("sweep_granularity", "/api/sweep/granularity"))
        raw = phase.call(Op("sweep_granularity_raw", "/api/sweep/granularity?source=raw"))
        if rolled.ok and raw.ok:
            phase.granularity.append((rolled.body, raw.body))
        yield
