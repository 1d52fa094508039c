"""Tests for the distance functions."""

import numpy as np
import pytest

from repro.core.reduction.distances import (
    cross_distances,
    euclidean_cross_distance_matrix,
    euclidean_distance_matrix,
    pairwise_distances,
    pearson_cross_distance_matrix,
    pearson_distance_matrix,
    validate_distance_matrix,
)


class TestPearson:
    def test_perfect_correlation_is_zero(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        feats = np.vstack([a, 2 * a + 5])  # affine transforms correlate 1.0
        dist = pearson_distance_matrix(feats)
        assert dist[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelation_is_two(self):
        a = np.array([1.0, 2.0, 3.0])
        dist = pearson_distance_matrix(np.vstack([a, -a]))
        assert dist[0, 1] == pytest.approx(2.0)

    def test_bounds_and_symmetry(self, rng):
        feats = rng.normal(size=(20, 15))
        dist = pearson_distance_matrix(feats)
        assert (dist >= 0).all() and (dist <= 2 + 1e-12).all()
        np.testing.assert_array_equal(dist, dist.T)
        np.testing.assert_allclose(np.diag(dist), 0.0)

    def test_constant_row_distance_one(self, rng):
        feats = np.vstack([np.full(10, 3.0), rng.normal(size=10)])
        dist = pearson_distance_matrix(feats)
        assert dist[0, 1] == pytest.approx(1.0)
        assert dist[0, 0] == 0.0

    def test_trend_over_magnitude(self):
        """The paper's rationale: same trend at different magnitude is close;
        different trend at same magnitude is far."""
        trend = np.sin(np.linspace(0, 4 * np.pi, 50))
        same_trend_big = 100.0 * trend + 40.0
        other_trend = np.cos(np.linspace(0, 4 * np.pi, 50))
        feats = np.vstack([trend, same_trend_big, other_trend])
        dist = pearson_distance_matrix(feats)
        assert dist[0, 1] < 0.01
        assert dist[0, 2] > 0.5

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            pearson_distance_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            pearson_distance_matrix(np.ones((1, 5)))


class TestEuclidean:
    def test_known_values(self):
        feats = np.array([[0.0, 0.0], [3.0, 4.0]])
        dist = euclidean_distance_matrix(feats)
        assert dist[0, 1] == pytest.approx(5.0)

    def test_triangle_inequality(self, rng):
        feats = rng.normal(size=(12, 6))
        dist = euclidean_distance_matrix(feats)
        n = dist.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert dist[i, j] <= dist[i, k] + dist[k, j] + 1e-9


class TestDispatch:
    def test_metric_names(self, rng):
        feats = rng.normal(size=(5, 8))
        np.testing.assert_array_equal(
            pairwise_distances(feats, "pearson"), pearson_distance_matrix(feats)
        )
        np.testing.assert_array_equal(
            pairwise_distances(feats, "euclidean"),
            euclidean_distance_matrix(feats),
        )

    def test_unknown_metric(self, rng):
        with pytest.raises(ValueError, match="metric"):
            pairwise_distances(rng.normal(size=(5, 5)), "cosine")


class TestValidate:
    def test_accepts_valid(self, rng):
        dist = euclidean_distance_matrix(rng.normal(size=(6, 4)))
        out = validate_distance_matrix(dist)
        np.testing.assert_allclose(out, dist)

    def test_rejects_asymmetric(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            validate_distance_matrix(bad)

    def test_rejects_negative(self):
        bad = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="negative"):
            validate_distance_matrix(bad)

    def test_rejects_nonzero_diagonal(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="diagonal"):
            validate_distance_matrix(bad)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            validate_distance_matrix(np.zeros((2, 3)))


class TestCrossEmptyQueries:
    """Zero query rows give an empty ``(0, n)`` matrix, not an error."""

    @pytest.mark.parametrize(
        "kernel", [pearson_cross_distance_matrix, euclidean_cross_distance_matrix]
    )
    def test_kernel_returns_empty_matrix(self, kernel, rng):
        dist = kernel(np.empty((0, 4)), rng.normal(size=(3, 4)))
        assert dist.shape == (0, 3)
        assert dist.dtype == np.float64

    @pytest.mark.parametrize("metric", ["pearson", "euclidean"])
    def test_cross_distances_returns_empty_matrix(self, metric, rng):
        dist = cross_distances(np.empty((0, 4)), rng.normal(size=(3, 4)), metric)
        assert dist.shape == (0, 3)
        assert dist.dtype == np.float64
