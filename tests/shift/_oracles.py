"""Reference implementations the vectorised shift path is checked against."""

from __future__ import annotations

import numpy as np

from repro.core.shift.grids import GridSpec


def flood_fill_blobs(
    mask: np.ndarray, weights: np.ndarray, spec: GridSpec, max_blobs: int
) -> list[tuple[float, float, float]]:
    """Connected components of ``mask`` as ``(lon, lat, mass)`` centroids,
    heaviest first (4-connectivity, iterative flood fill).

    The cell-by-cell definition of
    :func:`repro.core.shift.flow._connected_blobs`: components are found
    in raster order of their first cell, zero-mass ones are dropped and
    a stable sort by mass orders the rest.
    """
    ny, nx = mask.shape
    labels = np.full(mask.shape, -1, dtype=np.int64)
    blobs: list[tuple[float, float, float]] = []
    lons = spec.lon_centers()
    lats = spec.lat_centers()
    next_label = 0
    for start_row in range(ny):
        for start_col in range(nx):
            if not mask[start_row, start_col] or labels[start_row, start_col] >= 0:
                continue
            stack = [(start_row, start_col)]
            labels[start_row, start_col] = next_label
            cells: list[tuple[int, int]] = []
            while stack:
                r, c = stack.pop()
                cells.append((r, c))
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if (
                        0 <= rr < ny
                        and 0 <= cc < nx
                        and mask[rr, cc]
                        and labels[rr, cc] < 0
                    ):
                        labels[rr, cc] = next_label
                        stack.append((rr, cc))
            w = np.array([weights[r, c] for r, c in cells])
            mass = float(w.sum())
            if mass <= 0:
                continue
            lon = float(sum(lons[c] * wi for (_, c), wi in zip(cells, w)) / mass)
            lat = float(sum(lats[r] * wi for (r, _), wi in zip(cells, w)) / mass)
            blobs.append((lon, lat, mass))
            next_label += 1
    blobs.sort(key=lambda b: b[2], reverse=True)
    return blobs[:max_blobs]
