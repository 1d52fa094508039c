"""The dtype policy: float32 in, float64 accumulation.

The distance kernels run elementwise work in the input dtype; every
reduction — means, squared-norm sums — accumulates in float64.  Two
regressions are pinned: ``_validated`` must not silently upcast float32
(the historical double-memory bug), and float32 input must stay within
1e-5 relative error of the float64 reference.  k-means accepts float32
input and computes in float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.kmeans import kmeans, minibatch_kmeans
from repro.core.reduction.distances import (
    _validated,
    cross_distances,
    euclidean_distance_matrix,
    pairwise_distances,
    pearson_distance_matrix,
    pearson_normalize,
)


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.abs(want).max()
    return float(np.abs(got.astype(np.float64) - want).max() / max(scale, 1e-300))


class TestValidatedDtype:
    """Satellite regression: float32 survives validation untouched."""

    def test_float32_not_upcast(self):
        feats = np.random.default_rng(0).normal(size=(8, 5)).astype(np.float32)
        out = _validated(feats)
        assert out.dtype == np.float32
        assert out is feats  # no copy either

    def test_float64_untouched(self):
        feats = np.random.default_rng(0).normal(size=(8, 5))
        assert _validated(feats).dtype == np.float64

    def test_int_input_promoted_to_float64(self):
        out = _validated(np.arange(12).reshape(3, 4))
        assert out.dtype == np.float64


class TestDistanceDtypeParity:
    @pytest.fixture(scope="class")
    def feats(self):
        return np.random.default_rng(3).normal(size=(120, 24))

    def test_pearson_float32_within_1e5(self, feats):
        want = pearson_distance_matrix(feats)
        got = pearson_distance_matrix(feats.astype(np.float32))
        assert got.dtype == np.float32
        assert _rel_err(got, want) <= 1e-5

    def test_euclidean_float32_within_1e5(self, feats):
        want = euclidean_distance_matrix(feats)
        got = euclidean_distance_matrix(feats.astype(np.float32))
        assert got.dtype == np.float32
        assert _rel_err(got, want) <= 1e-5

    def test_cross_distances_float32_within_1e5(self, feats):
        for metric in ("pearson", "euclidean"):
            want = cross_distances(feats[:30], feats[30:], metric=metric)
            f32 = feats.astype(np.float32)
            got = cross_distances(f32[:30], f32[30:], metric=metric)
            assert _rel_err(got, want) <= 1e-5

    def test_float32_input_stays_float32_end_to_end(self, feats):
        out = pairwise_distances(feats.astype(np.float32), metric="euclidean")
        assert out.dtype == np.float32

    def test_pearson_normalize_zero_rows_both_dtypes(self):
        feats = np.vstack([np.ones(10), np.random.default_rng(1).normal(size=10)])
        for dtype in (np.float32, np.float64):
            unit = pearson_normalize(feats.astype(dtype))
            assert unit.dtype == dtype
            np.testing.assert_array_equal(unit[0], 0.0)


class TestKMeansDtypeParity:
    def test_float32_labels_match_and_centroids_close(self):
        feats = np.random.default_rng(5).normal(size=(200, 8))
        feats[:100] += 6.0  # two clear clusters: assignment is stable
        want = kmeans(feats, k=2, seed=0)
        got = kmeans(feats.astype(np.float32), k=2, seed=0)
        np.testing.assert_array_equal(got.labels, want.labels)
        assert _rel_err(got.centroids, want.centroids) <= 1e-5
        assert abs(got.inertia - want.inertia) / want.inertia <= 1e-5

    def test_minibatch_float32_runs_and_clusters(self):
        feats = np.random.default_rng(6).normal(size=(300, 6))
        feats[:150] += 8.0
        result = minibatch_kmeans(feats.astype(np.float32), k=2, seed=0)
        assert result.centroids.dtype == np.float64
        # Both clusters found: one centroid near each blob centre.
        first = result.labels[:150]
        assert (first == first[0]).all()
        assert (result.labels[150:] != first[0]).all()
