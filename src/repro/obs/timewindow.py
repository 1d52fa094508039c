"""Rolling time-window aggregation and a top-K slow-operation log.

The registry (:mod:`repro.obs.registry`) answers "how many since the
process started"; this module answers "what happened over the last five
minutes" — the temporal-drilldown stance the VAP paper takes toward
energy data, turned on the system itself.

:class:`TimeWindowStore` keeps a ring of N fixed-width windows.  Each
event lands in the window covering its arrival time; asking for a series
returns per-window counts, rates and latency quantiles, oldest first.
Like the PR-1 instruments the clock is injectable, so window-roll tests
advance logical time instead of sleeping.

:class:`SlowOpLog` retains the K slowest operations ever offered (a
min-heap, O(log K) per offer) together with the request ID that caused
each one — the "which request caused it" half of the question.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Callable, Sequence

from repro.obs.logging import current_request_id, current_tenant
from repro.obs.registry import Labels, _label_key


class _WindowStat:
    """Aggregate for one (name, labels) identity inside one window."""

    __slots__ = ("count", "total", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.samples: list[float] = []


def _percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted sample list."""
    rank = max(int(q * len(samples) + 0.5), 1)
    return samples[min(rank, len(samples)) - 1]


class TimeWindowStore:
    """Ring of fixed-width windows aggregating counts and value samples.

    Parameters
    ----------
    width_seconds:
        Width of one window.
    n_windows:
        Windows retained; older ones roll off.
    clock:
        Monotonic-seconds callable (``time.monotonic`` by default),
        injectable for deterministic tests.
    max_samples:
        Per-identity per-window cap on retained value samples; beyond it
        counts and sums stay exact but quantiles reflect the first
        ``max_samples`` observations of that window.
    """

    def __init__(
        self,
        width_seconds: float = 10.0,
        n_windows: int = 30,
        clock: Callable[[], float] = time.monotonic,
        max_samples: int = 512,
    ) -> None:
        if width_seconds <= 0:
            raise ValueError(f"width_seconds must be positive, got {width_seconds}")
        if n_windows < 1:
            raise ValueError(f"n_windows must be >= 1, got {n_windows}")
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.width_seconds = float(width_seconds)
        self.n_windows = n_windows
        self.clock = clock
        self.max_samples = max_samples
        self._lock = threading.Lock()
        # window index -> identity -> stat; indices are now // width.
        self._windows: dict[int, dict[tuple[str, Labels], _WindowStat]] = {}

    def _advance(self) -> int:
        """Drop windows older than the horizon; returns the live index."""
        index = int(self.clock() // self.width_seconds)
        horizon = index - self.n_windows + 1
        for stale in [i for i in self._windows if i < horizon]:
            del self._windows[stale]
        return index

    def record(self, name: str, value: float | None = None, **labels: object) -> None:
        """Count one event (and optionally one value sample) right now."""
        with self._lock:
            index = self._advance()
            window = self._windows.setdefault(index, {})
            key = (name, _label_key(labels))
            stat = window.get(key)
            if stat is None:
                stat = window[key] = _WindowStat()
            stat.count += 1
            if value is not None:
                value = float(value)
                stat.total += value
                if len(stat.samples) < self.max_samples:
                    stat.samples.append(value)

    def keys(self) -> list[tuple[str, dict[str, str]]]:
        """Every (name, labels) identity seen in a live window, sorted."""
        with self._lock:
            self._advance()
            seen = {key for window in self._windows.values() for key in window}
            return [(name, dict(labels)) for name, labels in sorted(seen)]

    def series(self, name: str, **labels: object) -> dict:
        """Windowed series for one identity, oldest window first.

        Every retained window appears (empty ones with zero count), so
        plots have a fixed time axis.  ``t`` is the window's start on the
        store's monotonic clock; latency fields are ``None`` for windows
        without value samples.
        """
        key = (name, _label_key(labels))
        with self._lock:
            index = self._advance()
            windows = []
            for i in range(index - self.n_windows + 1, index + 1):
                stat = self._windows.get(i, {}).get(key)
                entry: dict[str, object] = {
                    "t": i * self.width_seconds,
                    "count": 0,
                    "rate": 0.0,
                    "mean": None,
                    "max": None,
                    "p50": None,
                    "p99": None,
                }
                if stat is not None:
                    entry["count"] = stat.count
                    entry["rate"] = stat.count / self.width_seconds
                    if stat.samples:
                        ordered = sorted(stat.samples)
                        entry["mean"] = stat.total / stat.count
                        entry["max"] = ordered[-1]
                        entry["p50"] = _percentile(ordered, 0.50)
                        entry["p99"] = _percentile(ordered, 0.99)
                windows.append(entry)
        return {
            "name": name,
            "labels": {k: v for k, v in key[1]},
            "window_seconds": self.width_seconds,
            "windows": windows,
        }

    def snapshot(self) -> list[dict]:
        """Series for every live identity (JSON-ready)."""
        return [self.series(name, **labels) for name, labels in self.keys()]

    def reset(self) -> None:
        """Drop every window (test isolation)."""
        with self._lock:
            self._windows.clear()


class SlowOpLog:
    """Top-K slowest operations, each tied to the request that caused it.

    Parameters
    ----------
    capacity:
        How many records to retain; the fastest retained record is evicted
        when a slower one arrives.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._heap: list[tuple[float, int, dict]] = []
        self._seq = 0  # tie-break so dicts never get compared

    def offer(
        self,
        name: str,
        duration: float,
        request_id: str | None = None,
        tenant: str | None = None,
        **tags: object,
    ) -> None:
        """Offer one finished operation; kept only if among the K slowest.

        ``request_id`` and ``tenant`` default to the ones bound to the
        current context, so call sites inside a request need not pass
        them — including tasks on pool threads, which re-bind the
        originating request's context before running.
        """
        duration = float(duration)
        if request_id is None:
            request_id = current_request_id()
        if tenant is None:
            tenant = current_tenant()
        record = {
            "name": name,
            "duration_ms": duration * 1000.0,
            "request_id": request_id,
        }
        if tenant is not None:
            record["tenant"] = tenant
        if tags:
            record["tags"] = {k: str(v) for k, v in tags.items()}
        with self._lock:
            self._seq += 1
            item = (duration, self._seq, record)
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, item)
            elif duration > self._heap[0][0]:
                heapq.heapreplace(self._heap, item)

    def records(self) -> list[dict]:
        """Retained records, slowest first (JSON-ready)."""
        with self._lock:
            ordered = sorted(self._heap, key=lambda item: -item[0])
            return [dict(record) for _, _, record in ordered]

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def reset(self) -> None:
        with self._lock:
            self._heap.clear()
