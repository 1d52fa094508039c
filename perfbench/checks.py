"""Output checks, run on the answers a phase kept once it has ended.

- ``/api/density`` and ``/api/shift`` answers are recomputed directly:
  ``db.demand`` → ``kde_density(method="exact")`` → ``ShiftField.between``,
  and must agree within the binned-vs-exact KDE parity bound the test
  suite holds the kernels to (max error / max value < 1e-3).
- Rollup-backed sweeps must match the raw sweep on the same database
  state, as ``np.allclose(rtol=1e-6, equal_nan=True)`` on the energies —
  the relation BENCH_PERF.json's rollup block reports — with ``atol=0``,
  since the energies (~1e-9) sit below numpy's default absolute
  tolerance and would otherwise always agree.  Granularity
  answers are compared with the raw sweep run right after them; quantile
  answers with a raw sweep recomputed now (their windows were fully
  ingested when they were answered and are never written again).
- Each selection's ``customer_ids`` must equal the selector applied to
  the served embedding coordinates.

Each check returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import json
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.core.patterns.selection import (
    KnnSelection,
    LassoSelection,
    RadiusSelection,
    RectSelection,
)
from repro.core.pipeline import VapSession
from repro.core.shift.flow import ShiftField
from repro.core.shift.kde import kde_density
from repro.core.shift.sensitivity import quantile_sweep
from repro.data.timeseries import HourWindow

KDE_PARITY = 1e-3
SWEEP_RTOL = 1e-6


def _query(url: str) -> dict[str, int]:
    return {k: int(v[-1]) for k, v in parse_qs(urlsplit(url).query).items()}


def _window(query: dict[str, int], prefix: str) -> HourWindow:
    return HourWindow(query[f"{prefix}_start"], query[f"{prefix}_end"])


def _exact(session: VapSession, window: HourWindow):
    positions, values = session.db.demand(window)
    return kde_density(positions, values, session.grid(), method="exact")


def _energies(values) -> np.ndarray:
    return np.array([np.nan if v is None else v for v in values], dtype=np.float64)


def check_density(session: VapSession, url: str, payload: dict) -> list[str]:
    want = _exact(session, _window(_query(url), "t")).values
    got = np.asarray(payload["values"], dtype=np.float64)
    if got.shape != want.shape:
        return [f"{url}: grid shape {got.shape} != {want.shape}"]
    err = float(np.abs(got - want).max() / np.abs(want).max())
    return [] if err < KDE_PARITY else [f"{url}: density error {err:.3g}"]


def check_shift(session: VapSession, url: str, payload: dict) -> list[str]:
    query = _query(url)
    field = ShiftField.between(
        _exact(session, _window(query, "t1")), _exact(session, _window(query, "t2"))
    )
    scale = float(np.abs(field.values).max())
    failures = []
    energy = field.energy()
    if abs(payload["energy"] - energy) > KDE_PARITY * energy:
        failures.append(f"{url}: energy {payload['energy']!r} != {energy!r}")
    for key, (_, _, want) in (
        ("peak_gain", field.peak_gain()), ("peak_loss", field.peak_loss())
    ):
        if abs(payload[key][2] - want) > KDE_PARITY * scale:
            failures.append(f"{url}: {key} {payload[key][2]!r} != {want!r}")
    return failures


def check_quantile(session: VapSession, url: str, payload: dict) -> list[str]:
    query = _query(url)
    raw = quantile_sweep(
        session.db, _window(query, "t1"), _window(query, "t2"), spec=session.grid()
    )
    rows = payload["results"]
    if [r["n_customers"] for r in rows] != [r.n_customers for r in raw]:
        return [f"{url}: quantile group sizes differ from the raw sweep"]
    if not np.allclose(
        _energies(r["energy"] for r in rows),
        [r.energy for r in raw],
        rtol=SWEEP_RTOL, atol=0.0, equal_nan=True,
    ):
        return [f"{url}: rollup quantile energies differ from the raw sweep"]
    return []


def check_granularity(rolled: dict, raw: dict) -> list[str]:
    a, b = rolled["results"], raw["results"]
    if [r["n_window_pairs"] for r in a] != [r["n_window_pairs"] for r in b]:
        return ["granularity sweep: window pairs differ between rollup and raw"]
    if not np.allclose(
        _energies(r["mean_energy"] for r in a),
        _energies(r["mean_energy"] for r in b),
        rtol=SWEEP_RTOL, atol=0.0, equal_nan=True,
    ):
        return ["granularity sweep: rollup energies differ from raw"]
    return []


def selector(body: dict):
    """The selector a ``POST /api/selection`` body describes."""
    kind = body["type"]
    if kind == "rect":
        return RectSelection(body["x_min"], body["y_min"], body["x_max"], body["y_max"])
    if kind == "radius":
        return RadiusSelection(body["x"], body["y"], body["radius"])
    if kind == "knn":
        return KnnSelection(body["x"], body["y"], body["k"])
    return LassoSelection([tuple(v) for v in body["vertices"]])


def check_selection(
    body: dict, payload: dict, coords: np.ndarray, customer_ids: list[int]
) -> list[str]:
    want = [customer_ids[int(i)] for i in selector(body).apply(coords)]
    if payload["customer_ids"] != want:
        return [f"selection {body['type']}: served ids differ from the selector's"]
    return []


def check_phase(session: VapSession, phase) -> list[str]:
    """Every check over one phase's kept answers."""
    failures: list[str] = []
    for op, body in phase.kept:
        payload = json.loads(body)
        if op.route == "density":
            failures += check_density(session, op.url, payload)
        elif op.route == "shift":
            failures += check_shift(session, op.url, payload)
        elif op.route == "sweep_quantile":
            failures += check_quantile(session, op.url, payload)
        elif op.route == "selection":
            failures += check_selection(
                json.loads(op.body), payload, phase.coords, phase.embed_ids
            )
    for rolled, raw in phase.granularity:
        failures += check_granularity(json.loads(rolled), json.loads(raw))
    return failures
