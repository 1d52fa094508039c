"""The S2 sensitivity sweeps.

Demo scenario S2 has attendees learn two sensitivities of the shift maps:

- **temporal granularity** — recompute the shift field for consecutive
  window pairs at hourly, 4-hourly, daily, weekly, monthly, quarterly and
  yearly resolution and watch how the shift signal changes;
- **consumption intensity** — restrict the map to customers above a demand
  quantile (30%..90%) and watch the flows sharpen and sparsify.

Both sweeps are implemented against :class:`~repro.db.engine.EnergyDatabase`
so they exercise the same data-layer path the interactive tool would.

Each sweep can also be answered from a
:class:`~repro.rollup.store.RollupStore` instead of the raw readings
(``*_from_rollups``): per-bucket demand comes from the materialized tables
and warm fields cost O(cells), so sweep latency is independent of
``n_readings``.  Both sources run one shared body per sweep and differ
only in where demand and fields come from; they match to float tolerance
— the differential suite pins that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.shift.flow import FlowArrow, ShiftField, major_flows
from repro.core.shift.grids import GridSpec
from repro.core.shift.kde import kde_density
from repro.data.timeseries import HourWindow, Resolution, SeriesSet
from repro.db.engine import EnergyDatabase
from repro.preprocess.resample import resample
from repro.rollup.store import RollupStore


@dataclass(slots=True)
class GranularityResult:
    """Shift statistics for one temporal granularity.

    ``mean_energy`` averages the Eq. 4 field's mean |shift| over the window
    pairs examined; ``mean_flows`` the number of major flows; the peaks are
    the strongest single-pair values seen.
    """

    resolution: Resolution
    n_window_pairs: int
    mean_energy: float
    mean_flows: float
    peak_gain: float
    peak_loss: float


@dataclass(slots=True)
class QuantileResult:
    """Shift statistics for one intensity quantile."""

    quantile: float
    n_customers: int
    energy: float
    n_flows: int
    main_flow: FlowArrow | None


def _shift_between(
    db: EnergyDatabase,
    spec: GridSpec,
    t1: HourWindow,
    t2: HourWindow,
    customer_ids: list[int] | None = None,
    bandwidth_m: float | None = None,
) -> ShiftField:
    """Eq. 3 at both windows on a shared grid, then Eq. 4."""
    pos1, val1 = db.demand(t1, customer_ids)
    pos2, val2 = db.demand(t2, customer_ids)
    before = kde_density(pos1, val1, spec, bandwidth_m=bandwidth_m)
    after = kde_density(pos2, val2, spec, bandwidth_m=bandwidth_m)
    return ShiftField.between(before, after)


def _granularity_results(
    resolutions: tuple[Resolution, ...],
    max_pairs_per_resolution: int,
    pairs_of: Callable[[Resolution], list[tuple[Any, Any]]],
    shift_of: Callable[[Resolution, Any, Any], ShiftField],
) -> list[GranularityResult]:
    """The granularity sweep's body, shared by both data sources.

    ``pairs_of(resolution)`` lists the consecutive bucket pairs of one
    resolution; up to ``max_pairs_per_resolution`` of them, evenly spread
    across the horizon, go through ``shift_of(resolution, a, b)`` and
    their field statistics are averaged.
    """
    if max_pairs_per_resolution < 1:
        raise ValueError(
            f"max_pairs_per_resolution must be >= 1, got "
            f"{max_pairs_per_resolution}"
        )
    results: list[GranularityResult] = []
    for resolution in resolutions:
        pairs = pairs_of(resolution)
        if not pairs:
            results.append(
                GranularityResult(
                    resolution=resolution,
                    n_window_pairs=0,
                    mean_energy=float("nan"),
                    mean_flows=float("nan"),
                    peak_gain=float("nan"),
                    peak_loss=float("nan"),
                )
            )
            continue
        if len(pairs) > max_pairs_per_resolution:
            picks = np.linspace(0, len(pairs) - 1, max_pairs_per_resolution)
            pairs = [pairs[int(i)] for i in picks]
        energies: list[float] = []
        flow_counts: list[int] = []
        peak_gain = -np.inf
        peak_loss = np.inf
        for a, b in pairs:
            field = shift_of(resolution, a, b)
            energies.append(field.energy())
            flow_counts.append(len(major_flows(field)))
            peak_gain = max(peak_gain, field.peak_gain()[2])
            peak_loss = min(peak_loss, field.peak_loss()[2])
        results.append(
            GranularityResult(
                resolution=resolution,
                n_window_pairs=len(pairs),
                mean_energy=float(np.mean(energies)),
                mean_flows=float(np.mean(flow_counts)),
                peak_gain=float(peak_gain),
                peak_loss=float(peak_loss),
            )
        )
    return results


def _window_pairs(
    readings: SeriesSet, resolution: Resolution
) -> list[tuple[HourWindow, HourWindow]]:
    """Consecutive bucket windows over the readings' time axis.

    Bucket edges depend on the hours alone, so one all-zero row on the
    same axis yields them without aggregating every customer's readings
    (a transient of several readings-sized matrices).
    """
    axis = SeriesSet([0], readings.start_hour, np.zeros((1, readings.n_steps)))
    return resample(axis, resolution, aggregate="sum").window_pairs()


def granularity_sweep(
    db: EnergyDatabase,
    resolutions: tuple[Resolution, ...] = tuple(Resolution),
    spec: GridSpec | None = None,
    max_pairs_per_resolution: int = 8,
    bandwidth_m: float | None = None,
) -> list[GranularityResult]:
    """Shift statistics per temporal granularity (S2 step 1).

    For each resolution, consecutive bucket pairs (up to
    ``max_pairs_per_resolution``, evenly spread across the horizon) produce
    shift fields whose statistics are averaged.

    Raises
    ------
    ValueError
        If ``max_pairs_per_resolution`` is not positive.
    """
    if spec is None:
        spec = GridSpec.covering(db.positions_of(db.customer_ids))
    return _granularity_results(
        resolutions,
        max_pairs_per_resolution,
        lambda resolution: _window_pairs(db.readings, resolution),
        lambda _, t1, t2: _shift_between(
            db, spec, t1, t2, bandwidth_m=bandwidth_m
        ),
    )


def granularity_sweep_from_rollups(
    store: RollupStore,
    resolutions: tuple[Resolution, ...] | None = None,
    max_pairs_per_resolution: int = 8,
    bandwidth_m: float | None = None,
) -> list[GranularityResult]:
    """The granularity sweep answered from materialized rollups.

    Mirrors :func:`granularity_sweep` pair for pair — same bucket set
    (both derive from the shared bucketing primitive), same even spread
    over the horizon, same statistics — but every field comes from
    :meth:`~repro.rollup.store.RollupStore.bucket_field`: O(cells) when
    warm, never touching raw readings.

    Raises
    ------
    ValueError
        If ``max_pairs_per_resolution`` is not positive.
    RollupMiss
        If a requested resolution is not tracked by the store.
    """

    def pairs_of(resolution: Resolution) -> list[tuple[int, int]]:
        buckets = store.buckets(resolution)
        return list(zip(buckets, buckets[1:]))

    def shift_of(resolution: Resolution, b1: int, b2: int) -> ShiftField:
        return ShiftField.between(
            store.bucket_field(resolution, b1, bandwidth_m=bandwidth_m),
            store.bucket_field(resolution, b2, bandwidth_m=bandwidth_m),
        )

    return _granularity_results(
        store.resolutions if resolutions is None else resolutions,
        max_pairs_per_resolution,
        pairs_of,
        shift_of,
    )


def _check_quantiles(quantiles: tuple[float, ...]) -> None:
    for q in quantiles:
        if not 0.0 <= q < 1.0:
            raise ValueError(f"quantiles must be in [0, 1), got {q}")


def _quantile_results(
    quantiles: tuple[float, ...],
    totals: np.ndarray,
    shift_of: Callable[[np.ndarray], ShiftField],
) -> list[QuantileResult]:
    """The intensity sweep's body, shared by both data sources.

    For each quantile ``q`` the group is the rows whose ``totals`` are at
    or above the ``q``-quantile; ``shift_of(rows)`` gives its field.
    """
    results: list[QuantileResult] = []
    for q in quantiles:
        threshold = float(np.quantile(totals, q))
        rows = np.flatnonzero(totals >= threshold)
        if rows.size < 2:
            results.append(
                QuantileResult(
                    quantile=q,
                    n_customers=int(rows.size),
                    energy=float("nan"),
                    n_flows=0,
                    main_flow=None,
                )
            )
            continue
        field = shift_of(rows)
        flows = major_flows(field)
        results.append(
            QuantileResult(
                quantile=q,
                n_customers=int(rows.size),
                energy=field.energy(),
                n_flows=len(flows),
                main_flow=flows[0] if flows else None,
            )
        )
    return results


def _union(t1: HourWindow, t2: HourWindow) -> HourWindow:
    return HourWindow(
        min(t1.start_hour, t2.start_hour), max(t1.end_hour, t2.end_hour)
    )


def quantile_sweep(
    db: EnergyDatabase,
    t1: HourWindow,
    t2: HourWindow,
    quantiles: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    spec: GridSpec | None = None,
    bandwidth_m: float | None = None,
) -> list[QuantileResult]:
    """Shift statistics per consumption-intensity group (S2 step 2).

    For each quantile ``q``, the map is restricted to customers whose total
    demand over ``t1 ∪ t2`` is at or above the population's ``q``-quantile
    — "select different customer groups according to the consumption
    intensity".

    Raises
    ------
    ValueError
        For quantiles outside [0, 1).
    """
    _check_quantiles(quantiles)
    if spec is None:
        spec = GridSpec.covering(db.positions_of(db.customer_ids))
    all_ids = [int(cid) for cid in db.readings.customer_ids]
    _, totals = db.demand(_union(t1, t2), all_ids, statistic="sum")
    return _quantile_results(
        quantiles,
        totals,
        lambda rows: _shift_between(
            db, spec, t1, t2, [all_ids[i] for i in rows],
            bandwidth_m=bandwidth_m,
        ),
    )


def quantile_sweep_from_rollups(
    store: RollupStore,
    t1: HourWindow,
    t2: HourWindow,
    quantiles: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    bandwidth_m: float | None = None,
) -> list[QuantileResult]:
    """The intensity sweep answered from materialized rollups.

    Mirrors :func:`quantile_sweep`: per-customer totals over ``t1 ∪ t2``
    come from the hourly rollup instead of the raw matrix, each group's
    fields from cached kernel factors.  ``bandwidth_m=None`` applies
    Silverman's rule *per selected subset*, exactly as the raw path does.

    Raises
    ------
    ValueError
        For quantiles outside [0, 1).
    RollupMiss
        If the hourly rollup does not cover ``t1 ∪ t2``.
    """
    _check_quantiles(quantiles)
    return _quantile_results(
        quantiles,
        store.window_demand(_union(t1, t2), statistic="sum"),
        lambda rows: ShiftField.between(
            store.window_field(t1, rows=rows, bandwidth_m=bandwidth_m),
            store.window_field(t2, rows=rows, bandwidth_m=bandwidth_m),
        ),
    )
