"""Out-of-sample projection into an existing embedding.

When the live feed introduces a new customer (or a customer's recent data
changes), recomputing t-SNE for the whole fleet would break the analyst's
mental map.  The standard remedy is interpolation: place the new point at
the distance-weighted barycentre of its ``k`` nearest *training* points'
embedding coordinates.  Distances use the same metric as the original
embedding (Pearson by default), so new points land inside their pattern's
cluster.

This is also the placement stage of landmark t-SNE
(:func:`repro.core.reduction.tsne.tsne` with ``method="landmark"``): the
training set is the embedded landmarks and *every other point* is
out-of-sample, so the kernel must scale — distances come from the
blockwise cross-distance kernels (never a stacked ``(n + m)^2`` matrix),
the top-k selection is a vectorised ``argpartition`` per block, and
each fixed row block is placed independently of the others.
"""

from __future__ import annotations

import numpy as np

from repro.core.reduction.distances import (
    METRICS,
    cross_distances,
    pearson_cross_distance_matrix,
    pearson_normalize,
)
from repro.parallel import map_blocks, row_blocks

# Placement block size: big enough to amortise the cross-distance
# matmul, small enough that a block's (rows, n_train) scratch stays a
# few MB at the 4096-landmark cap.
PROJECT_BLOCK_ROWS = 4096


def barycentric_from_cross(
    cross: np.ndarray, embedding: np.ndarray, k: int
) -> np.ndarray:
    """kNN barycentric placement from a ``(m, n_train)`` cross matrix.

    For each query row: pick its ``k`` nearest training points, order
    them deterministically by ``(distance, index)`` (argpartition's tie
    order is implementation-defined), and return the inverse-distance
    weighted barycentre of their embedding coordinates.  An exact
    duplicate of a training row lands on that row's coordinates.
    """
    cross = np.asarray(cross, dtype=np.float64)
    m, n_train = cross.shape
    if k < n_train:
        nearest = np.argpartition(cross, k - 1, axis=1)[:, :k]
    else:
        nearest = np.broadcast_to(np.arange(n_train), (m, n_train))
    d = np.take_along_axis(cross, nearest, axis=1)
    order = np.lexsort((nearest, d), axis=1)
    nearest = np.take_along_axis(nearest, order, axis=1)
    d = np.take_along_axis(d, order, axis=1)
    weights = 1.0 / (d + 1e-12)
    weights /= weights.sum(axis=1, keepdims=True)
    out = np.einsum("ij,ijc->ic", weights, embedding[nearest])
    dup = d[:, 0] == 0.0
    if dup.any():
        out[dup] = embedding[nearest[dup, 0]]
    return out


class EmbeddingProjector:
    """kNN barycentric out-of-sample projector.

    Parameters
    ----------
    train_features:
        Feature rows the embedding was computed from.
    train_embedding:
        The fitted 2-D coordinates, row-aligned with the features.
    k:
        Neighbours used for interpolation.
    metric:
        Distance metric, matching the embedding's.
    """

    def __init__(
        self,
        train_features: np.ndarray,
        train_embedding: np.ndarray,
        k: int = 8,
        metric: str = "pearson",
    ) -> None:
        self.features = np.asarray(train_features, dtype=np.float64)
        self.embedding = np.asarray(train_embedding, dtype=np.float64)
        if metric not in METRICS:
            raise ValueError(
                f"unknown metric {metric!r}; pick one of {METRICS}"
            )
        if self.features.ndim != 2:
            raise ValueError(
                f"train_features must be 2-D, got {self.features.shape}"
            )
        if not np.isfinite(self.features).all():
            raise ValueError(
                "train_features contain NaN/inf; run preprocessing first"
            )
        if (
            self.embedding.ndim != 2
            or self.embedding.shape[0] != self.features.shape[0]
        ):
            raise ValueError(
                f"embedding {self.embedding.shape} is not row-aligned with "
                f"features {self.features.shape}"
            )
        if not 1 <= k <= self.features.shape[0]:
            raise ValueError(
                f"k must be in [1, {self.features.shape[0]}], got {k}"
            )
        self.k = k
        self.metric = metric
        # Pearson: normalise the training side once; every projected
        # block then needs only its own normalisation plus one matmul.
        self._train_unit = (
            pearson_normalize(self.features) if metric == "pearson" else None
        )

    def project(
        self,
        new_features: np.ndarray,
        *,
        dtw_max_rows: int | None = None,
    ) -> np.ndarray:
        """Project new rows; returns ``(m, dim)`` coordinates.

        Computed over fixed row blocks, each placed independently.

        Raises
        ------
        ValueError
            If the new rows' width differs from the training features,
            or contain NaN/inf.
        """
        new_features = np.asarray(new_features, dtype=np.float64)
        if new_features.ndim == 1:
            new_features = new_features[None, :]
        if new_features.ndim != 2:
            raise ValueError(
                f"new features must be 1-D or 2-D, got {new_features.shape}"
            )
        if new_features.shape[1] != self.features.shape[1]:
            raise ValueError(
                f"new features have width {new_features.shape[1]}, "
                f"training features have {self.features.shape[1]}"
            )
        if not np.isfinite(new_features).all():
            raise ValueError(
                "new features contain NaN/inf; run preprocessing (impute) "
                "first"
            )
        if new_features.shape[0] == 0:
            return np.empty((0, self.embedding.shape[1]))
        blocks = row_blocks(new_features.shape[0], PROJECT_BLOCK_ROWS)
        parts = map_blocks(
            lambda block: self._place(
                new_features[block[0]:block[1]], dtw_max_rows
            ),
            blocks, name="project",
        )
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)

    def _place(
        self, new_rows: np.ndarray, dtw_max_rows: int | None
    ) -> np.ndarray:
        """Place one block of new rows: cross distances -> kNN barycentre."""
        if self._train_unit is not None:
            cross = pearson_cross_distance_matrix(
                new_rows, reference_unit=self._train_unit
            )
        else:
            cross = cross_distances(
                new_rows, self.features, metric=self.metric,
                dtw_max_rows=dtw_max_rows,
            )
        return barycentric_from_cross(cross, self.embedding, self.k)
