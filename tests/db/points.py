"""Build an :class:`~repro.db.engine.EnergyDatabase` over bare points.

Spatial-query tests care only about ids and positions; this wraps them in
the customers + readings a database needs (one zero-reading hour each).
"""

from __future__ import annotations

import numpy as np

from repro.data.meter import Customer, CustomerType, ZoneKind
from repro.data.timeseries import SeriesSet
from repro.db.engine import EnergyDatabase


def point_database(ids, lons, lats) -> EnergyDatabase:
    """A database whose customers sit at ``(lons[i], lats[i])`` with id
    ``ids[i]``, in that table order."""
    ids = [int(i) for i in ids]
    customers = [
        Customer(
            customer_id=cid,
            lon=float(lon),
            lat=float(lat),
            zone=ZoneKind.COMMERCIAL,
            archetype=CustomerType.IDLE,
        )
        for cid, lon, lat in zip(ids, lons, lats, strict=True)
    ]
    readings = SeriesSet(ids, 0, np.zeros((len(ids), 1)))
    return EnergyDatabase(customers, readings)
