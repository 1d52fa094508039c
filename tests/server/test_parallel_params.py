"""Scale knobs on the REST API: landmark t-SNE and mini-batch k-means."""

from __future__ import annotations

import pytest

from repro.server import TestClient, VapApp


@pytest.fixture(scope="module")
def client(small_session, small_city):
    return TestClient(VapApp(small_session, layout=small_city.layout))


class TestLandmarkParams:
    def test_landmark_method_with_budget(self, client):
        data = client.get(
            "/api/embedding?n_iter=40&tsne_method=landmark&n_landmarks=16"
        ).json
        assert len(data["points"]) == len(data["customer_ids"])

    def test_invalid_landmark_budget_is_400(self, client):
        response = client.get(
            "/api/embedding?n_iter=40&tsne_method=landmark&n_landmarks=2"
        )
        assert response.status == 400
        assert "n_landmarks" in response.json["error"]

    def test_junk_landmark_budget_is_400(self, client):
        assert client.get("/api/embedding?n_landmarks=afew").status == 400


class TestKmeansAlgorithm:
    def test_minibatch_algorithm(self, client):
        data = client.get("/api/kmeans?k=3&algorithm=minibatch").json
        assert data["algorithm"] == "minibatch"
        assert len(data["labels"]) == len(data["customer_ids"])
        assert data["inertia"] > 0.0

    def test_default_is_lloyd(self, client):
        assert client.get("/api/kmeans?k=3").json["algorithm"] == "lloyd"

    def test_unknown_algorithm_is_400(self, client):
        response = client.get("/api/kmeans?k=3&algorithm=spectral")
        assert response.status == 400
        assert "algorithm" in response.json["error"]
