"""Out-of-sample placement: the seeds landmark t-SNE stands on.

``barycentric_from_cross`` is the placement primitive (also the landmark
engine's interpolation stage); ``EmbeddingProjector`` wraps it with
metric handling and the blockwise loop.  Pinned here: the
barycentre is a convex combination (equivariant under orthogonal maps of
the embedding — rotating the layout rotates the placements), training
rows round-trip exactly, NaN input is rejected up front, and the
block size never changes a single bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.reduction import project as project_module
from repro.core.reduction.distances import euclidean_cross_distance_matrix
from repro.core.reduction.procrustes import procrustes_align
from repro.core.reduction.project import (
    EmbeddingProjector,
    barycentric_from_cross,
)


@pytest.fixture()
def train(rng):
    feats = rng.normal(size=(40, 12))
    emb = rng.normal(size=(40, 2)) * 5.0
    return feats, emb


class TestBarycentricFromCross:
    def test_convex_combination_stays_in_neighbour_box(self, rng):
        emb = rng.normal(size=(30, 2))
        cross = np.abs(rng.normal(size=(10, 30))) + 0.1
        out = barycentric_from_cross(cross, emb, k=5)
        for i in range(10):
            nearest = np.argsort(cross[i])[:5]
            lo = emb[nearest].min(axis=0) - 1e-9
            hi = emb[nearest].max(axis=0) + 1e-9
            assert (out[i] >= lo).all() and (out[i] <= hi).all()

    def test_zero_distance_snaps_to_training_row(self, rng):
        emb = rng.normal(size=(20, 2))
        cross = np.abs(rng.normal(size=(3, 20))) + 0.5
        cross[1, 7] = 0.0
        out = barycentric_from_cross(cross, emb, k=4)
        np.testing.assert_array_equal(out[1], emb[7])

    def test_orthogonal_equivariance(self, rng):
        # Placement commutes with rotation + reflection + translation of
        # the training layout: weights depend only on the cross
        # distances, and convex weights sum to one.
        emb = rng.normal(size=(25, 2))
        cross = np.abs(rng.normal(size=(8, 25))) + 0.1
        theta = 0.73
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        ) @ np.diag([1.0, -1.0])
        shift = np.array([3.0, -1.5])
        base = barycentric_from_cross(cross, emb, k=6)
        moved = barycentric_from_cross(cross, emb @ rot + shift, k=6)
        np.testing.assert_allclose(moved, base @ rot + shift, atol=1e-9)

    def test_tied_distances_are_deterministic(self):
        # argpartition's tie order is implementation-defined; the
        # (distance, index) lexsort must make placement reproducible.
        emb = np.arange(12.0).reshape(6, 2)
        cross = np.ones((4, 6))
        a = barycentric_from_cross(cross, emb, k=3)
        b = barycentric_from_cross(cross.copy(order="F"), emb, k=3)
        np.testing.assert_array_equal(a, b)
        # All-tied rows average the lowest-index neighbours.
        np.testing.assert_allclose(a[0], emb[:3].mean(axis=0))

    def test_k_at_least_n_train_uses_everyone(self, rng):
        emb = rng.normal(size=(5, 2))
        cross = np.full((2, 5), 2.0)
        out = barycentric_from_cross(cross, emb, k=9)
        np.testing.assert_allclose(out, np.tile(emb.mean(axis=0), (2, 1)))


class TestRoundTrip:
    def test_training_rows_project_onto_themselves(self, train):
        feats, emb = train
        projector = EmbeddingProjector(feats, emb, k=4, metric="euclidean")
        out = projector.project(feats)
        # Self-distance through the blocked sq-norm+matmul kernel is
        # ~sqrt(eps), not exactly 0, so the snap is near- rather than
        # bit-exact: the inverse-distance weight still pins each row.
        np.testing.assert_allclose(out, emb, atol=1e-4)

    def test_round_trip_survives_procrustes(self, train, rng):
        # Perturbed training rows land near their originals: aligning
        # the projection back onto the training layout is ~lossless.
        feats, emb = train
        projector = EmbeddingProjector(feats, emb, k=4, metric="euclidean")
        out = projector.project(feats + rng.normal(scale=1e-4, size=feats.shape))
        aligned, disparity = procrustes_align(out, emb)
        assert disparity < 1e-4
        np.testing.assert_allclose(aligned, emb, atol=0.05)


class TestValidation:
    def test_nan_training_features_rejected(self, train):
        feats, emb = train
        feats = feats.copy()
        feats[3, 5] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            EmbeddingProjector(feats, emb)

    def test_nan_new_features_rejected(self, train):
        feats, emb = train
        projector = EmbeddingProjector(feats, emb, metric="euclidean")
        bad = feats[:2].copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="NaN/inf"):
            projector.project(bad)

    def test_width_mismatch_rejected(self, train):
        feats, emb = train
        projector = EmbeddingProjector(feats, emb, metric="euclidean")
        with pytest.raises(ValueError, match="width"):
            projector.project(np.zeros((2, feats.shape[1] + 1)))

    def test_unknown_metric_rejected(self, train):
        feats, emb = train
        with pytest.raises(ValueError, match="metric"):
            EmbeddingProjector(feats, emb, metric="cosine")

    def test_k_bounds(self, train):
        feats, emb = train
        with pytest.raises(ValueError, match="k must be"):
            EmbeddingProjector(feats, emb, k=0)
        with pytest.raises(ValueError, match="k must be"):
            EmbeddingProjector(feats, emb, k=feats.shape[0] + 1)

    def test_empty_projection(self, train):
        feats, emb = train
        projector = EmbeddingProjector(feats, emb, metric="euclidean")
        assert projector.project(np.empty((0, feats.shape[1]))).shape == (0, 2)


class TestBlockwiseDeterminism:
    def test_bit_identical_across_blocks(self, train, rng, monkeypatch):
        feats, emb = train
        new = rng.normal(size=(53, feats.shape[1]))
        projector = EmbeddingProjector(feats, emb, k=5, metric="pearson")
        whole = projector.project(new)
        # Shrink blocks so 53 rows run over many ragged blocks.
        monkeypatch.setattr(project_module, "PROJECT_BLOCK_ROWS", 7)
        assert np.array_equal(projector.project(new), whole)

    def test_block_matches_direct_cross_computation(self, train, rng):
        feats, emb = train
        new = rng.normal(size=(6, feats.shape[1]))
        projector = EmbeddingProjector(feats, emb, k=3, metric="euclidean")
        cross = euclidean_cross_distance_matrix(new, feats)
        np.testing.assert_array_equal(
            projector.project(new),
            barycentric_from_cross(cross, emb.astype(np.float64), k=3),
        )
