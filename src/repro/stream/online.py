"""Incremental shift-pattern monitoring over a replay feed.

:class:`OnlineShiftMonitor` keeps two rolling demand windows of ``W`` hours
each — the trailing window is the shift model's ``t1``, the leading window
``t2`` — updated in O(n_customers) per fed hour via a ring buffer.  After
each tick an up-to-date Eq. 4 field is available, which is how the demo
shows "the changes of patterns in near real time".

The per-tick field is assembled from per-hour pieces: because the Eq. 3
density of a window mean factors as ``S / (total * 2pi h^2)`` with ``S``
and ``total`` additive over hours (see :mod:`repro.rollup.kde`), the
monitor stores one kernel-sum grid and weight total per ring hour, and
emitting a field sums the ``W`` stored grids of each window — O(W * cells)
instead of two full ``O(n * cells)`` KDE passes per tick.  There is no
running sum, so nothing drifts across ticks.  The exact two-pass
computation stays available as :meth:`~OnlineShiftMonitor
.current_field_exact` — the replay-equivalence oracle.  Windows containing
negative readings fall back to the exact path for that emission (the batch
path clips negatives before normalising, which breaks additivity).

The KDE bandwidth is resolved **once at construction** — explicitly, or by
Silverman's rule over the fixed customer positions.  Recomputing Silverman
per emission (the old behaviour) burned an O(n) pass per tick to derive a
value that cannot change while positions are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.shift.flow import FlowArrow, ShiftField, major_flows
from repro.core.shift.grids import GridSpec
from repro.core.shift.kde import kde_density
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy
from repro.rollup.kde import KdeAccumulator
from repro.stream.clock import SimulatedClock
from repro.stream.feed import Batch, ReplayFeed


@dataclass(slots=True)
class ShiftUpdate:
    """The monitor's per-tick output."""

    tick: int
    clock_seconds: float
    hours_seen: int
    energy: float
    n_flows: int
    main_flow: FlowArrow | None


class OnlineShiftMonitor:
    """Rolling two-window shift estimator.

    Parameters
    ----------
    positions:
        ``(n, 2)`` customer (lon, lat), fixed for the stream's lifetime.
    spec:
        Evaluation grid shared by every emitted field.
    window_hours:
        Width ``W`` of each of the two rolling windows.
    bandwidth_m:
        KDE bandwidth; Silverman's rule over ``positions`` when omitted.
        Either way the value is pinned at construction —
        ``self.bandwidth_m`` is always a concrete float afterwards.
    """

    def __init__(
        self,
        positions: np.ndarray,
        spec: GridSpec,
        window_hours: int = 4,
        bandwidth_m: float | None = None,
    ) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"positions must be (n, 2), got {positions.shape}")
        if window_hours < 1:
            raise ValueError(f"window_hours must be >= 1, got {window_hours}")
        self.positions = positions
        self.spec = spec
        self.window_hours = window_hours
        # Pin the bandwidth once; Silverman depends only on positions, so
        # resolving it here is identical to recomputing it per emission —
        # minus the per-tick O(n) recompute.
        self._acc = KdeAccumulator(positions, spec, bandwidth_m=bandwidth_m)
        self.bandwidth_m: float = self._acc.bandwidth_m
        n = positions.shape[0]
        # Ring buffer of the last 2W hourly columns (NaN → 0 contribution),
        # with one kernel-sum grid + weight total per ring hour.
        self._ring = np.zeros((2 * window_hours, n))
        self._hour_grids = np.zeros((2 * window_hours, spec.ny, spec.nx))
        self._hour_totals = np.zeros(2 * window_hours)
        # A ring hour is "clean" when it holds no negative readings;
        # negatives break the additive normalisation (the exact path
        # clips them), so any unclean window hour forces the exact
        # fallback for that emission.
        self._hour_clean = np.ones(2 * window_hours, dtype=bool)
        self._filled = 0
        self._cursor = 0
        self.hours_seen = 0

    def feed_hour(self, values: np.ndarray) -> None:
        """Push one hourly column of readings.

        Non-finite readings contribute zero demand; how many were dropped
        is visible as the ``stream_nonfinite_dropped_total`` counter
        rather than being swallowed silently.

        Raises
        ------
        ValueError
            If the column length disagrees with the position count.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.positions.shape[0],):
            raise ValueError(
                f"expected {self.positions.shape[0]} readings, got {values.shape}"
            )
        finite = np.isfinite(values)
        dropped = int(values.shape[0] - int(finite.sum()))
        if dropped:
            obs.get_registry().counter(
                "stream_nonfinite_dropped_total"
            ).inc(dropped)
        filled = np.where(finite, values, 0.0)
        c = self._cursor
        self._ring[c] = filled
        self._hour_grids[c] = self._acc.grid(filled)
        self._hour_totals[c] = float(filled.sum())
        self._hour_clean[c] = not bool((filled < 0.0).any())
        self._cursor = (c + 1) % self._ring.shape[0]
        self._filled = min(self._filled + 1, self._ring.shape[0])
        self.hours_seen += 1

    def feed_batch(self, batch: Batch) -> None:
        """Push every hourly column of a feed batch, oldest first."""
        for col in range(batch.values.shape[1]):
            self.feed_hour(batch.values[:, col])

    @property
    def ready(self) -> bool:
        """Whether both windows are fully populated."""
        return self._filled >= 2 * self.window_hours

    def _window_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-customer mean demand of (t1, t2) = (older, newer) windows."""
        w = self.window_hours
        # Reconstruct chronological order from the ring.
        if self._filled < self._ring.shape[0]:
            chronological = self._ring[: self._filled]
        else:
            chronological = np.vstack(
                [self._ring[self._cursor :], self._ring[: self._cursor]]
            )
        older = chronological[-2 * w : -w]
        newer = chronological[-w:]
        return older.mean(axis=0), newer.mean(axis=0)

    def _check_ready(self) -> None:
        if not self.ready:
            raise RuntimeError(
                f"monitor needs {2 * self.window_hours} hours before the "
                f"first field; has {self._filled}"
            )

    def current_field_exact(self) -> ShiftField:
        """The Eq. 4 field via two full KDE passes over the ring — the
        oracle :meth:`current_field` is equivalence-tested against.

        Raises
        ------
        RuntimeError
            If called before both windows are populated (check ``ready``).
        """
        self._check_ready()
        demand_t1, demand_t2 = self._window_means()
        before = kde_density(
            self.positions, demand_t1, self.spec, bandwidth_m=self.bandwidth_m
        )
        after = kde_density(
            self.positions, demand_t2, self.spec, bandwidth_m=self.bandwidth_m
        )
        return ShiftField.between(before, after)

    def current_field(self) -> ShiftField:
        """The Eq. 4 field between the two rolling windows.

        Summed from the stored per-hour grids in O(W * cells) when every
        window hour is clean (non-negative); otherwise falls back to the
        exact two-pass computation.  Either way the ``kernel.kde`` fault
        site fires once, so chaos plans exercise this path too.

        Raises
        ------
        RuntimeError
            If called before both windows are populated (check ``ready``).
        """
        self._check_ready()
        if not self._hour_clean.all():
            obs.get_registry().counter(
                "stream_field_total", mode="exact"
            ).inc()
            return self.current_field_exact()
        fault_point("kernel.kde")
        w = self.window_hours
        # Ring slots oldest first: the first W form t1, the last W t2.
        order = [(self._cursor + k) % (2 * w) for k in range(2 * w)]
        older, newer = order[:w], order[w:]
        before = self._acc.field(
            self._hour_grids[older].sum(axis=0) / w,
            float(self._hour_totals[older].sum()) / w,
        )
        after = self._acc.field(
            self._hour_grids[newer].sum(axis=0) / w,
            float(self._hour_totals[newer].sum()) / w,
        )
        obs.get_registry().counter(
            "stream_field_total", mode="incremental"
        ).inc()
        return ShiftField.between(before, after)


def run_replay(
    feed: ReplayFeed,
    positions: np.ndarray,
    spec: GridSpec,
    window_hours: int = 4,
    clock: SimulatedClock | None = None,
    max_ticks: int | None = None,
    bandwidth_m: float | None = None,
    retry: RetryPolicy | None = None,
) -> list[ShiftUpdate]:
    """Run a replay end to end; one :class:`ShiftUpdate` per ready tick.

    ``max_ticks`` caps the replay for benchmarking; the simulated clock
    advances one tick per batch, so ``clock_seconds`` reports the wall time
    the paper's 10-second feed would have taken.

    ``retry`` additionally guards the per-tick KDE field computation
    (the ``kernel.kde`` fault site) so a chaos run completes end to end;
    the feed's own tick production retries under the feed's policy.
    """
    clock = clock or SimulatedClock()
    monitor = OnlineShiftMonitor(
        positions,
        spec,
        window_hours=window_hours,
        bandwidth_m=bandwidth_m,
    )
    updates: list[ShiftUpdate] = []
    for batch in feed:
        if max_ticks is not None and batch.tick >= max_ticks:
            break
        monitor.feed_batch(batch)
        clock.tick()
        if not monitor.ready:
            continue
        if retry is None:
            field = monitor.current_field()
        else:
            field = retry.call(monitor.current_field, site="stream.field")
        flows = major_flows(field)
        updates.append(
            ShiftUpdate(
                tick=batch.tick,
                clock_seconds=clock.now,
                hours_seen=monitor.hours_seen,
                energy=field.energy(),
                n_flows=len(flows),
                main_flow=flows[0] if flows else None,
            )
        )
    return updates
