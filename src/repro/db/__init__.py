"""Embedded spatio-temporal store — the PostgreSQL/PostGIS stand-in.

The paper's data layer is PostgreSQL with PostGIS for spatial processing.
This package reproduces the pieces VAP actually exercises, pure-Python:

- geometry types and predicates (:mod:`repro.db.spatial`),
- geodesy (haversine, Web-Mercator; :mod:`repro.db.geo`),
- a typed column-table engine with a small query API
  (:mod:`repro.db.table`, :mod:`repro.db.query`),
- an :class:`~repro.db.engine.EnergyDatabase` facade that stores customers
  + readings and answers the spatial/temporal queries of the logic layer
  and the REST API.  It is the one data plane: spatial queries are
  vectorised scans over the customers' ``lon``/``lat`` columns, with no
  index structure and no partitioning.
"""

from __future__ import annotations

import os
import warnings
from typing import Sequence

from repro.data.meter import Customer
from repro.data.timeseries import SeriesSet
from repro.db.engine import EnergyDatabase
from repro.db.spatial import BBox, Circle, Point, Polygon

__all__ = [
    "BBox",
    "Circle",
    "EnergyDatabase",
    "Point",
    "Polygon",
    "build_database",
]


def build_database(
    customers: Sequence[Customer],
    readings: SeriesSet,
    shards: int | None = None,
    **kwargs: object,
) -> EnergyDatabase:
    """Build the data plane: one :class:`EnergyDatabase`.

    ``shards`` (or the ``REPRO_SHARDS`` environment variable when it is
    ``None``) is accepted for compatibility with callers of the former
    hash-sharded data plane; a value above 1 emits a
    ``DeprecationWarning`` and still builds the single engine.  Remaining
    kwargs pass through to the constructor.
    """
    if shards is None:
        raw = os.environ.get("REPRO_SHARDS", "").strip()
        shards = int(raw) if raw.isdigit() else 1
    if shards > 1:
        warnings.warn(
            f"shards={shards} is deprecated and ignored: the sharded data "
            "plane was removed, building a single EnergyDatabase",
            DeprecationWarning,
            stacklevel=2,
        )
    return EnergyDatabase(customers, readings, **kwargs)
