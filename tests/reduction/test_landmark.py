"""Landmark t-SNE: the out-of-core engine's quality and determinism gates.

``method="landmark"`` embeds k-means++-selected landmarks with the
Barnes–Hut kernel and places everyone else at the kNN barycentre of the
landmark layout.  The gates: cluster structure must survive (kNN label
recall within a few percent of the full BH run), results must be
bit-identical across worker counts, and both input paths (features and
precomputed distances) must work.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.perf import _blob_data, _knn_label_recall
from repro.core.reduction import project as project_module
from repro.core.reduction.distances import euclidean_distance_matrix
from repro.core.reduction.tsne import (
    DEFAULT_LANDMARKS,
    MAX_LANDMARKS,
    _select_landmarks,
    tsne,
)


@pytest.fixture(scope="module")
def labeled_city():
    """n=2000 clustered features — the acceptance-gate regime."""
    return _blob_data(2000, seed=5)


@pytest.fixture(scope="module")
def landmark_2k(labeled_city):
    feats, _ = labeled_city
    return tsne(
        feats, metric="euclidean", n_iter=300, seed=0,
        method="landmark", n_landmarks=256,
    )


class TestLandmarkSelection:
    def test_sorted_unique_within_range(self):
        feats, _ = _blob_data(300, seed=1)
        idx = _select_landmarks(64, seed=0, features=feats)
        assert idx.size <= 64
        assert np.array_equal(idx, np.unique(idx))
        assert idx.min() >= 0 and idx.max() < 300

    def test_deterministic_per_seed(self):
        feats, _ = _blob_data(300, seed=1)
        a = _select_landmarks(64, seed=7, features=feats)
        b = _select_landmarks(64, seed=7, features=feats)
        assert np.array_equal(a, b)
        c = _select_landmarks(64, seed=8, features=feats)
        assert not np.array_equal(a, c)

    def test_feature_and_distance_paths_agree(self):
        # D² sampling from raw features must see the same distances as
        # the precomputed-matrix path, so the same seed picks the same
        # landmarks.
        feats, _ = _blob_data(200, seed=2)
        dist = euclidean_distance_matrix(feats)
        from_feats = _select_landmarks(32, seed=3, features=feats)
        from_dist = _select_landmarks(32, seed=3, dist=dist)
        assert np.array_equal(from_feats, from_dist)

    def test_covers_all_clusters(self, labeled_city):
        feats, labels = labeled_city
        idx = _select_landmarks(64, seed=0, features=feats)
        # D² sampling spreads picks across the cluster structure: with
        # 64 picks over 8 clusters, missing a whole cluster means the
        # greedy-coverage rule is broken.
        assert set(np.unique(labels[idx])) == set(np.unique(labels))

    def test_degenerate_all_identical_points(self):
        feats = np.ones((50, 4))
        idx = _select_landmarks(8, seed=0, features=feats)
        assert idx.size >= 1  # duplicates collapse, but selection returns


class TestLandmarkQuality:
    def test_knn_label_recall_against_exact_bh(
        self, labeled_city, landmark_2k
    ):
        feats, labels = labeled_city
        bh = tsne(feats, metric="euclidean", n_iter=300, seed=0, method="bh")
        recall_landmark = _knn_label_recall(landmark_2k.embedding, labels)
        recall_bh = _knn_label_recall(bh.embedding, labels)
        # The acceptance gate: landmark preserves the cluster structure
        # nearly as well as the full run it replaces.
        assert recall_landmark >= 0.9
        assert recall_landmark >= 0.95 * recall_bh

    def test_result_metadata(self, landmark_2k):
        assert landmark_2k.method == "landmark"
        assert landmark_2k.embedding.shape == (2000, 2)
        assert np.isfinite(landmark_2k.embedding).all()
        assert landmark_2k.kl_divergence > 0.0

    def test_stage_breakdown_recorded(self, landmark_2k):
        stages = landmark_2k.stages
        assert stages is not None
        assert set(stages) == {
            "select_seconds", "embed_seconds", "place_seconds"
        }
        assert all(v >= 0.0 for v in stages.values())


class TestLandmarkDeterminism:
    def test_bit_identical_across_placement_blocks(self, monkeypatch):
        feats, _ = _blob_data(600, seed=9)
        kwargs = dict(
            metric="euclidean", n_iter=60, seed=0,
            method="landmark", n_landmarks=64,
        )
        whole = tsne(feats, **kwargs)
        # 536 non-landmark rows placed over eleven ragged blocks.
        monkeypatch.setattr(project_module, "PROJECT_BLOCK_ROWS", 50)
        blocked = tsne(feats, **kwargs)
        # The blockwise contract, end to end through a real kernel: not
        # allclose — equal.
        assert np.array_equal(blocked.embedding, whole.embedding)

    def test_same_seed_same_layout(self):
        feats, _ = _blob_data(400, seed=4)
        a = tsne(feats, n_iter=50, seed=1, method="landmark", n_landmarks=32)
        b = tsne(feats, n_iter=50, seed=1, method="landmark", n_landmarks=32)
        assert np.array_equal(a.embedding, b.embedding)


class TestLandmarkInputs:
    def test_precomputed_distance_path(self):
        feats, _ = _blob_data(300, seed=6)
        dist = euclidean_distance_matrix(feats)
        result = tsne(
            distances=dist, n_iter=50, seed=0,
            method="landmark", n_landmarks=32,
        )
        assert result.method == "landmark"
        assert result.embedding.shape == (300, 2)
        assert np.isfinite(result.embedding).all()

    def test_more_landmarks_than_points_embeds_everyone(self):
        feats, _ = _blob_data(40, seed=6)
        result = tsne(
            feats, n_iter=30, seed=0, method="landmark", n_landmarks=128
        )
        assert result.embedding.shape == (40, 2)

    def test_n_landmarks_validation(self):
        feats, _ = _blob_data(100, seed=0)
        with pytest.raises(ValueError, match="n_landmarks"):
            tsne(feats, n_iter=10, method="landmark", n_landmarks=3)
        with pytest.raises(ValueError, match="n_landmarks"):
            tsne(
                feats, n_iter=10, method="landmark",
                n_landmarks=MAX_LANDMARKS + 1,
            )

    def test_default_landmark_budget(self):
        assert 4 <= DEFAULT_LANDMARKS <= MAX_LANDMARKS

    def test_auto_never_selects_landmark(self):
        feats, _ = _blob_data(80, seed=0)
        assert tsne(feats, n_iter=10, method="auto").method == "exact"
