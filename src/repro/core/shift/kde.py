"""Weighted 2-D Gaussian kernel density estimation — the paper's Eq. 3.

    f(x) = (1/n) * sum_i c_i * K_h(x - x_i)

with ``x_i`` customer positions, ``c_i`` normalised average consumption
(re-weighting demand strength over geography) and a Gaussian kernel, the
paper's choice "since [it] can cover a larger spatial area ... with lower
computation complexity".

Distances are computed in a local planar frame (metres via the latitude-
dependent degree scale) so the bandwidth has physical meaning and the
north-south vs east-west distortion of raw degrees is corrected — what
PostGIS geography types would give the paper's implementation.

Two evaluation engines share the planar frame:

- ``method="exact"`` — every point against every grid centre,
  O(n * grid), the ground truth;
- ``method="binned"`` — cubic B-spline binning of the weighted points
  onto the grid lattice followed by a truncated separable Gaussian
  convolution, O(n + grid * kernel).  Binning smears each point with
  the ``B_3`` kernel (variance ``step^2/3`` per axis); the convolution
  kernel compensates for that smear exactly through fourth order, so
  the binned surface matches the exact one to ~1e-4 relative even at
  bandwidths of only a couple of cells.

``method="auto"`` picks the binned engine for large point sets when the
bandwidth is comfortably wider than a grid cell.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import obs
from repro.core.shift.grids import DensityGrid, GridSpec
from repro.db.geo import meters_per_degree
from repro.resilience.faults import fault_point

KDE_METHODS = ("auto", "exact", "binned")

# ``method="auto"`` switches to the binned engine at this many points —
# below it the dense (grid, n) factor matrices are cheap enough that the
# binning machinery is pure overhead.
BINNED_THRESHOLD = 5000


def bandwidth_silverman(positions_m: np.ndarray) -> float:
    """Silverman's rule of thumb for 2-D data, in metres.

    ``h = n^(-1/6) * sqrt((var_x + var_y) / 2)`` — the standard default when
    the user has not chosen a bandwidth interactively.
    """
    n = positions_m.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 points for a bandwidth rule, got {n}")
    var = positions_m.var(axis=0).mean()
    if var == 0:
        return 1.0  # all points coincide; any positive bandwidth works
    return float(np.sqrt(var) * n ** (-1.0 / 6.0))


def planar_frame(
    positions: np.ndarray, spec: GridSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The local planar frame shared by every KDE engine.

    Returns ``(px, py, gx, gy)`` — point and grid-centre coordinates in
    metres relative to the grid centre.  The rollup layer's accumulators
    must agree bit-for-bit with :func:`kde_density` on this frame, which
    is why it is one function rather than two copies of the same
    arithmetic.
    """
    positions = np.asarray(positions, dtype=np.float64)
    center_lat = spec.bbox.center.lat
    m_per_lon, m_per_lat = meters_per_degree(center_lat)
    px = (positions[:, 0] - spec.bbox.center.lon) * m_per_lon
    py = (positions[:, 1] - center_lat) * m_per_lat
    gx = (spec.lon_centers() - spec.bbox.center.lon) * m_per_lon
    gy = (spec.lat_centers() - center_lat) * m_per_lat
    return px, py, gx, gy


def normalize_weights(values: np.ndarray) -> np.ndarray:
    """The paper's ``c_i``: average consumption scaled to sum to n.

    Scaling to *sum n* (not 1) keeps Eq. 3's ``1/n`` prefactor meaningful:
    uniform consumption reproduces the unweighted KDE exactly.  Negative
    inputs are clipped to zero (consumption cannot be negative); an all-zero
    vector falls back to uniform weights.
    """
    values = np.clip(np.asarray(values, dtype=np.float64), 0.0, None)
    total = values.sum()
    if total <= 0:
        return np.ones_like(values)
    with np.errstate(over="ignore", invalid="ignore"):
        out = values * (values.size / total)
    # A subnormal total can overflow the rescale; weights that small carry
    # no usable demand signal, so fall back to uniform.
    if not np.isfinite(out).all():
        return np.ones_like(values)
    return out


def _exact_values(
    px: np.ndarray,
    py: np.ndarray,
    c: np.ndarray,
    gx: np.ndarray,
    gy: np.ndarray,
    bandwidth_m: float,
) -> np.ndarray:
    """Dense Eq. 3: every point against every grid centre (ground truth).

    Separable Gaussian: exp(-(dx^2+dy^2)/2h^2) = exp(-dx^2/2h^2)*exp(-dy^2/2h^2)
    lets the (ny, nx) surface come from two (grid, n) factor matrices.
    """
    n = px.shape[0]
    inv = 1.0 / (2.0 * bandwidth_m**2)
    fx = np.exp(-inv * (gx[:, None] - px[None, :]) ** 2)  # (nx, n)
    fy = np.exp(-inv * (gy[:, None] - py[None, :]) ** 2)  # (ny, n)
    norm = 1.0 / (n * 2.0 * np.pi * bandwidth_m**2)
    return norm * (fy * c[None, :]) @ fx.T  # (ny, nx)


def _deconvolved_kernel(r: int, step: float, var: float) -> np.ndarray:
    """1-D convolution kernel that undoes the B-spline binning smear.

    Cubic B-spline binning convolves the data with the ``B_3`` kernel
    (variance ``step^2/3``, 4th cumulant ``-step^4/30``); the Gaussian
    evaluated at the reduced variance cancels the smear to second order,
    and the Hermite-4 term cancels the kurtosis mismatch at fourth order.
    """
    x = np.arange(-r, r + 1) * step
    gauss = np.exp(-(x**2) / (2.0 * var))
    u2 = x**2 / var
    hermite4 = u2 * u2 - 6.0 * u2 + 3.0
    return gauss * (1.0 + step**4 / (720.0 * var * var) * hermite4)


def _bspline3_weights(f: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cubic B-spline weights for the 4 lattice nodes around offset ``f``.

    ``f`` in [0, 1) is the fractional position past node ``i0``; returns
    weights for nodes ``i0-1, i0, i0+1, i0+2`` (partition of unity).  The
    cubic spline is preferred over linear cloud-in-cell because its
    spectrum decays as ``omega^-4``: the phase-dependent per-point
    aliasing error that dominates linear binning at small bandwidths drops
    from O((cell/h)^2) to O((cell/h)^4).
    """
    one_f = 1.0 - f
    return (
        one_f**3 / 6.0,
        2.0 / 3.0 - f**2 + f**3 / 2.0,
        2.0 / 3.0 - one_f**2 + one_f**3 / 2.0,
        f**3 / 6.0,
    )


def _binned_values(
    px: np.ndarray,
    py: np.ndarray,
    c: np.ndarray,
    gx: np.ndarray,
    gy: np.ndarray,
    bandwidth_m: float,
) -> np.ndarray:
    """B-spline binning + truncated separable convolution, O(n + grid*kernel).

    The lattice is padded by the kernel truncation radius on every side so
    mass from points just outside the reported grid still flows in; points
    beyond even the padded lattice are farther than ~5h from every reported
    cell and are dropped (their contribution is below the truncation error
    already accepted).  The convolution kernel's per-axis variance is
    ``h^2 - step^2/3``, undoing the B-spline smear (see
    :func:`_deconvolved_kernel` and :func:`_bspline3_weights`).
    """
    n = px.shape[0]
    step_x = float(gx[1] - gx[0])
    step_y = float(gy[1] - gy[0])
    var_x = bandwidth_m**2 - step_x**2 / 3.0
    var_y = bandwidth_m**2 - step_y**2 / 3.0
    if var_x <= 0 or var_y <= 0:
        raise ValueError(
            f"binned KDE needs bandwidth_m > cell/sqrt(3) "
            f"(bandwidth {bandwidth_m:.3g} m vs cells {step_x:.3g} x {step_y:.3g} m); "
            "use method='exact' or a coarser bandwidth/finer grid"
        )
    # 5-sigma truncation: exp(-12.5) ~ 4e-6 per tail, safely below the
    # 1e-3 parity budget even when many points sit near the cut.
    rx = int(np.ceil(5.0 * bandwidth_m / step_x)) + 2
    ry = int(np.ceil(5.0 * bandwidth_m / step_y)) + 2
    nxp = gx.size + 2 * rx
    nyp = gy.size + 2 * ry

    # Each point spreads its weight over the 4x4 surrounding lattice nodes
    # with cubic B-spline weights, scattered via bincount on flat indices.
    u = (px - gx[0]) / step_x + rx
    v = (py - gy[0]) / step_y + ry
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    ok = (i0 >= 1) & (i0 < nxp - 2) & (j0 >= 1) & (j0 < nyp - 2)
    if not ok.all():
        u, v, i0, j0, cw = u[ok], v[ok], i0[ok], j0[ok], c[ok]
    else:
        cw = c
    wx = _bspline3_weights(u - i0)
    wy = _bspline3_weights(v - j0)
    flat = j0 * nxp + i0
    size = nxp * nyp
    grid = np.zeros(size)
    for dy, wyd in enumerate(wy, start=-1):
        row_weight = cw * wyd
        base = flat + dy * nxp
        for dx, wxd in enumerate(wx, start=-1):
            grid += np.bincount(
                base + dx, weights=row_weight * wxd, minlength=size
            )
    grid = grid.reshape(nyp, nxp)

    kx = _deconvolved_kernel(rx, step_x, var_x)
    ky = _deconvolved_kernel(ry, step_y, var_y)
    rows = sliding_window_view(grid, 2 * rx + 1, axis=1) @ kx  # (nyp, nx)
    values = sliding_window_view(rows, 2 * ry + 1, axis=0) @ ky  # (ny, nx)
    # n counts every input point, dropped ones included — Eq. 3's 1/n.
    norm = 1.0 / (n * 2.0 * np.pi * np.sqrt(var_x * var_y))
    return norm * values


def kde_density(
    positions: np.ndarray,
    weights: np.ndarray | None,
    spec: GridSpec,
    bandwidth_m: float | None = None,
    method: str = "auto",
) -> DensityGrid:
    """Evaluate Eq. 3 on the grid.

    Parameters
    ----------
    positions:
        ``(n, 2)`` customer (lon, lat).
    weights:
        Per-customer average consumption (``c_i`` before normalisation), or
        ``None`` for the unweighted KDE.
    spec:
        Evaluation grid — share one spec between the ``t1`` and ``t2`` maps.
    bandwidth_m:
        Gaussian bandwidth in metres; Silverman's rule when omitted.
    method:
        ``"exact"``, ``"binned"``, or ``"auto"`` (binned for large n when
        the bandwidth spans at least ~2 grid cells, exact otherwise).

    Returns a density in points-mass per square metre; with weights summing
    to n the surface integrates (over the infinite plane) to 1.

    Raises
    ------
    ValueError
        On malformed inputs, an unknown ``method``, a non-positive or
        non-finite bandwidth (NaN/inf would silently poison every grid
        cell), or ``method="binned"`` with a bandwidth too narrow for the
        grid to represent.
    """
    fault_point("kernel.kde")
    if method not in KDE_METHODS:
        raise ValueError(f"method must be one of {KDE_METHODS}, got {method!r}")
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must be (n, 2), got {positions.shape}")
    n = positions.shape[0]
    if n == 0:
        raise ValueError("cannot estimate a density from zero points")
    if weights is None:
        c = np.ones(n)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError(
                f"weights shape {weights.shape} does not match {n} positions"
            )
        if not np.isfinite(weights).all():
            raise ValueError("weights contain NaN/inf")
        c = normalize_weights(weights)

    # Local planar frame centred on the grid.
    px, py, gx, gy = planar_frame(positions, spec)
    if bandwidth_m is None:
        bandwidth_m = bandwidth_silverman(np.column_stack([px, py]))
    else:
        bandwidth_m = float(bandwidth_m)
    if not np.isfinite(bandwidth_m) or bandwidth_m <= 0:
        raise ValueError(
            f"bandwidth_m must be a positive finite number, got {bandwidth_m}"
        )

    engine = method
    if engine == "auto":
        wide_enough = bandwidth_m >= 2.0 * max(
            float(gx[1] - gx[0]), float(gy[1] - gy[0])
        )
        engine = "binned" if (n >= BINNED_THRESHOLD and wide_enough) else "exact"

    registry = obs.get_registry()
    with obs.span("kernel.kde", n_points=n, nx=spec.nx, ny=spec.ny, method=engine):
        with registry.timer("kernel_runtime_seconds", kernel="kde"):
            if engine == "binned":
                values = _binned_values(px, py, c, gx, gy, bandwidth_m)
            else:
                values = _exact_values(px, py, c, gx, gy, bandwidth_m)
    registry.counter("kernel_runs_total", kernel="kde").inc()
    registry.counter("kernel_method_total", kernel="kde", method=engine).inc()
    registry.gauge("kernel_last_bandwidth_m", kernel="kde").set(bandwidth_m)
    return DensityGrid(spec=spec, values=values)
