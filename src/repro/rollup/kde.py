"""Additive KDE evaluation for the rollup layer.

The paper's Eq. 3 density is a *sum of per-point kernels*:

    f(x) = (1/n) * sum_i c_i * K_h(x - x_i)
         = S(x) / (total * 2 * pi * h^2)

where ``S(x) = sum_i v_i * exp(-|x - x_i|^2 / 2h^2)`` is the raw
(unnormalised) kernel sum and ``total = sum_i v_i`` — because the
:func:`~repro.core.shift.kde.normalize_weights` rescale ``c_i = v_i * n /
total`` cancels ``n`` against the ``1/n`` prefactor.  ``S`` and ``total``
are **additive over points and over hours**: a stream tick can add one
hour's kernel contributions to an accumulated grid instead of recomputing
the whole KDE.

:class:`KdeAccumulator` pins positions, grid and bandwidth once and
precomputes the separable Gaussian factor matrices (the same ``fx``/``fy``
factorisation as :func:`~repro.core.shift.kde._exact_values`), so

- one hour's kernel-sum grid costs a single ``(ny, n) @ (n, nx)`` matmul,
- normalising an accumulated grid into a density costs O(cells),
- and :meth:`field_from_weights` reproduces
  :func:`~repro.core.shift.kde.kde_density`'s exact engine operation for
  operation — the oracle the replay-equivalence suite pins against.
"""

from __future__ import annotations

import numpy as np

from repro.core.shift.grids import DensityGrid, GridSpec
from repro.core.shift.kde import (
    bandwidth_silverman,
    normalize_weights,
    planar_frame,
)

__all__ = ["KdeAccumulator"]


class KdeAccumulator:
    """Pinned-kernel evaluator over a fixed point set and grid.

    Parameters
    ----------
    positions:
        ``(n, 2)`` customer (lon, lat), fixed for the accumulator's
        lifetime.
    spec:
        Evaluation grid shared by every produced field.
    bandwidth_m:
        Gaussian bandwidth in metres; Silverman's rule over the *full*
        point set when omitted — resolved once here, never per call
        (Silverman depends only on positions, so pinning it is exact for
        a fixed point set).
    """

    def __init__(
        self,
        positions: np.ndarray,
        spec: GridSpec,
        bandwidth_m: float | None = None,
    ) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"positions must be (n, 2), got {positions.shape}")
        n = positions.shape[0]
        if n == 0:
            raise ValueError("cannot build a KDE accumulator over zero points")
        self.spec = spec
        self.n = n
        self._px, self._py, self._gx, self._gy = planar_frame(positions, spec)
        if bandwidth_m is None:
            bandwidth_m = bandwidth_silverman(
                np.column_stack([self._px, self._py])
            )
        else:
            bandwidth_m = float(bandwidth_m)
        if not np.isfinite(bandwidth_m) or bandwidth_m <= 0:
            raise ValueError(
                f"bandwidth_m must be a positive finite number, got {bandwidth_m}"
            )
        self.bandwidth_m = bandwidth_m
        inv = 1.0 / (2.0 * bandwidth_m**2)
        self._fx = np.exp(-inv * (self._gx[:, None] - self._px[None, :]) ** 2)
        self._fy = np.exp(-inv * (self._gy[:, None] - self._py[None, :]) ** 2)

    # ------------------------------------------------------------------
    # additive pieces
    # ------------------------------------------------------------------
    def grid(self, values: np.ndarray) -> np.ndarray:
        """Raw kernel sum ``S = sum_i values_i * K_i`` as a ``(ny, nx)``
        array.

        Additive: ``grid(a) + grid(b)`` equals ``grid(a + b)`` up to float
        rounding — the invariant incremental maintenance relies on.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n,):
            raise ValueError(
                f"expected {self.n} values, got shape {values.shape}"
            )
        return (self._fy * values[None, :]) @ self._fx.T

    def field(self, grid: np.ndarray, total: float) -> DensityGrid:
        """Normalise an accumulated kernel sum into an Eq. 3 density.

        ``total`` must be the sum of the (non-negative) weights folded into
        ``grid``.  A non-positive or non-finite total falls back to the
        uniform-weights surface, mirroring
        :func:`~repro.core.shift.kde.normalize_weights`.  The fallback is
        :meth:`field_from_weights` over all-zero weights, so an all-zero
        bucket yields the same bits whichever path evaluates it.
        """
        total = float(total)
        h2 = self.bandwidth_m**2
        if np.isfinite(total) and total > 0.0:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                values = grid / (total * 2.0 * np.pi * h2)
            if np.isfinite(values).all():
                return DensityGrid(spec=self.spec, values=values)
        return self.field_from_weights(
            np.zeros(self.n), bandwidth_m=self.bandwidth_m
        )

    # ------------------------------------------------------------------
    # exact per-weight evaluation (the batch oracle, cached factors)
    # ------------------------------------------------------------------
    def field_from_weights(
        self,
        weights: np.ndarray,
        rows: np.ndarray | None = None,
        bandwidth_m: float | None = None,
    ) -> DensityGrid:
        """Eq. 3 for explicit per-customer weights, optionally a subset.

        Replicates :func:`~repro.core.shift.kde.kde_density`'s exact
        engine step by step (normalisation, factor matrices, matmul,
        prefactor) so the result matches the batch path to float
        reassociation error.  ``rows`` restricts the evaluation to a
        customer subset (quantile sweeps); ``bandwidth_m=None`` applies
        Silverman's rule *over that subset*, exactly as the batch sweep
        would.

        Raises
        ------
        ValueError
            For NaN/inf weights (mirroring ``kde_density``), a weight
            count mismatching the subset, or a subset of fewer than one
            point.
        """
        if rows is None:
            px, py = self._px, self._py
        else:
            rows = np.asarray(rows, dtype=np.int64)
            px, py = self._px[rows], self._py[rows]
        m = px.shape[0]
        if m == 0:
            raise ValueError("cannot estimate a density from zero points")
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (m,):
            raise ValueError(
                f"weights shape {weights.shape} does not match {m} positions"
            )
        if not np.isfinite(weights).all():
            raise ValueError("weights contain NaN/inf")
        c = normalize_weights(weights)
        if bandwidth_m is None:
            bandwidth_m = bandwidth_silverman(np.column_stack([px, py]))
        else:
            bandwidth_m = float(bandwidth_m)
        if not np.isfinite(bandwidth_m) or bandwidth_m <= 0:
            raise ValueError(
                f"bandwidth_m must be a positive finite number, got {bandwidth_m}"
            )
        if bandwidth_m == self.bandwidth_m:
            fx = self._fx if rows is None else np.ascontiguousarray(
                self._fx[:, rows]
            )
            fy = self._fy if rows is None else np.ascontiguousarray(
                self._fy[:, rows]
            )
        else:
            inv = 1.0 / (2.0 * bandwidth_m**2)
            fx = np.exp(-inv * (self._gx[:, None] - px[None, :]) ** 2)
            fy = np.exp(-inv * (self._gy[:, None] - py[None, :]) ** 2)
        norm = 1.0 / (m * 2.0 * np.pi * bandwidth_m**2)
        values = norm * (fy * c[None, :]) @ fx.T
        return DensityGrid(spec=self.spec, values=values)
