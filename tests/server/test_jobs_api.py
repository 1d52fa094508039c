"""The async job API: submit → poll → artifact over HTTP.

Covers the acceptance scenario end to end: a submitted embedding job
answers 202 with an id, polling shows monotonically non-decreasing
progress, and the finished artifact decodes to coordinates bit-identical
with the synchronous ``/api/embedding`` computation for the same
parameters and seed.
"""

from __future__ import annotations

import gc
import json
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.data.generator.simulate import CityConfig, generate_city
from repro.jobs import ArtifactStore, JobService, load_npz
from repro.jobs.handlers import HANDLERS
from repro.obs import MetricsRegistry
from repro.server import TestClient, VapApp
from repro.tenancy import TenantRegistry

TERMINAL = ("succeeded", "failed", "cancelled")
EMBED_PARAMS = {"method": "tsne", "n_iter": 60, "seed": 5}


@pytest.fixture(scope="module")
def cities():
    return {
        "acme": generate_city(CityConfig(n_customers=36, n_days=7, seed=11)),
        "globex": generate_city(CityConfig(n_customers=24, n_days=7, seed=12)),
    }


@pytest.fixture()
def registry(cities):
    registry = TenantRegistry(default_tenant="acme")
    registry.create_from_city("acme", cities["acme"])
    registry.create_from_city("globex", cities["globex"])
    return registry


@pytest.fixture()
def app(registry, tmp_path):
    app = VapApp(tenants=registry, jobs_root=str(tmp_path / "jobs"))
    yield app
    app.jobs.shutdown()


@pytest.fixture()
def client(app):
    return TestClient(app)


def _body(response) -> dict:
    return json.loads(response.body.decode("utf-8"))


def _wait_terminal(client, job_id, timeout=120.0) -> dict:
    deadline = time.monotonic() + timeout
    last_progress = -1.0
    while True:
        response = client.get(f"/api/jobs/{job_id}")
        assert response.status == 200
        record = _body(response)
        # The contract polling clients rely on: progress never regresses.
        assert record["progress"] >= last_progress
        last_progress = record["progress"]
        if record["state"] in TERMINAL:
            return record
        assert time.monotonic() < deadline, f"job stuck: {record}"
        time.sleep(0.02)


class TestSubmitPollArtifact:
    def test_submit_answers_202_with_id_and_location(self, client):
        response = client.post(
            "/api/jobs", json={"kind": "embed", "params": dict(EMBED_PARAMS)}
        )
        assert response.status == 202
        record = _body(response)
        assert record["state"] in ("queued", "running")
        assert record["kind"] == "embed"
        assert response.headers["Location"] == f"/api/jobs/{record['job_id']}"
        assert record["poll"] == f"/api/jobs/{record['job_id']}"

    def test_artifact_bit_identical_with_synchronous_embed(
        self, client, registry
    ):
        submitted = _body(
            client.post(
                "/api/jobs",
                json={"kind": "embed", "params": dict(EMBED_PARAMS)},
            )
        )
        done = _wait_terminal(client, submitted["job_id"])
        assert done["state"] == "succeeded", done["error"]
        assert done["progress"] == 1.0

        artifact = client.get(f"/api/jobs/{submitted['job_id']}/artifact")
        assert artifact.status == 200
        assert artifact.headers["ETag"] == f'"{done["artifact"]["digest"]}"'
        assert artifact.headers["X-Job-Id"] == submitted["job_id"]
        arrays = load_npz(artifact.body)
        sync = registry.session("acme").embed(method="tsne", n_iter=60, seed=5)
        np.testing.assert_array_equal(arrays["coords"], sync.coords)

    def test_artifact_404_until_finished(self, client):
        release = threading.Event()

        def run_block(job, session, ctx):
            release.wait(10.0)
            return b"x", "text/plain"

        HANDLERS["block"] = run_block
        try:
            submitted = _body(client.post("/api/jobs", json={"kind": "block"}))
            response = client.get(f"/api/jobs/{submitted['job_id']}/artifact")
            assert response.status == 404
            assert "no artifact" in _body(response)["error"]
        finally:
            release.set()
            HANDLERS.pop("block", None)
        _wait_terminal(client, submitted["job_id"], timeout=30)

    def test_cancel_via_delete(self, client):
        release = threading.Event()
        started = threading.Event()

        def run_block(job, session, ctx):
            started.set()
            while not release.wait(0.01):
                ctx.token.check("blocked")
            return b"x", "text/plain"

        HANDLERS["block"] = run_block
        try:
            submitted = _body(client.post("/api/jobs", json={"kind": "block"}))
            started.wait(5.0)
            response = client.delete(f"/api/jobs/{submitted['job_id']}")
            assert response.status == 200
            done = _wait_terminal(client, submitted["job_id"], timeout=30)
            assert done["state"] == "cancelled"
        finally:
            release.set()
            HANDLERS.pop("block", None)

    def test_failed_job_resumes_over_http(self, client):
        attempts = []

        def run_flaky(job, session, ctx):
            attempts.append(job.attempts)
            if len(attempts) == 1:
                raise OSError("synthetic first-attempt failure")
            return b"recovered", "text/plain"

        HANDLERS["flaky"] = run_flaky
        try:
            submitted = _body(client.post("/api/jobs", json={"kind": "flaky"}))
            done = _wait_terminal(client, submitted["job_id"], timeout=30)
            assert done["state"] == "failed"
            resumed = client.post(f"/api/jobs/{submitted['job_id']}/resume")
            assert resumed.status == 200
            done = _wait_terminal(client, submitted["job_id"], timeout=30)
            assert done["state"] == "succeeded"
            assert done["attempts"] == 2
        finally:
            HANDLERS.pop("flaky", None)


class TestValidation:
    def test_unknown_kind_is_400(self, client):
        response = client.post("/api/jobs", json={"kind": "mine-bitcoin"})
        assert response.status == 400
        assert "unknown job kind" in _body(response)["error"]

    def test_missing_kind_is_400(self, client):
        assert client.post("/api/jobs", json={}).status == 400

    def test_non_object_params_is_400(self, client):
        response = client.post(
            "/api/jobs", json={"kind": "export", "params": [1, 2]}
        )
        assert response.status == 400

    def test_unknown_job_is_404(self, client):
        assert client.get("/api/jobs/nope").status == 404
        assert client.delete("/api/jobs/nope").status == 404
        assert client.get("/api/jobs/nope/artifact").status == 404

    def test_resume_of_succeeded_job_is_400(self, client):
        submitted = _body(client.post("/api/jobs", json={"kind": "export"}))
        done = _wait_terminal(client, submitted["job_id"])
        assert done["state"] == "succeeded"
        response = client.post(f"/api/jobs/{submitted['job_id']}/resume")
        assert response.status == 400


class TestTenancyAndBounds:
    def test_jobs_invisible_across_tenants(self, client):
        submitted = _body(client.post("/api/jobs", json={"kind": "export"}))
        job_id = submitted["job_id"]
        for url in (
            f"/api/jobs/{job_id}",
            f"/api/jobs/{job_id}/artifact",
        ):
            response = client.get(url, headers={"X-Tenant": "globex"})
            assert response.status == 404
        listing = _body(
            client.get("/api/jobs", headers={"X-Tenant": "globex"})
        )
        assert listing["count"] == 0
        _wait_terminal(client, job_id)

    def test_queue_full_is_503_with_retry_after(self, registry, tmp_path):
        service = JobService(
            registry,
            ArtifactStore(tmp_path / "bounded"),
            workers=1,
            max_queue=1,
            metrics=MetricsRegistry(),
        )
        client = TestClient(VapApp(tenants=registry, jobs=service))
        release = threading.Event()
        started = threading.Event()

        def run_block(job, session, ctx):
            started.set()
            release.wait(10.0)
            return b"x", "text/plain"

        HANDLERS["block"] = run_block
        try:
            first = client.post("/api/jobs", json={"kind": "block"})
            assert first.status == 202
            started.wait(5.0)
            second = client.post("/api/jobs", json={"kind": "block"})
            assert second.status == 503
            assert "Retry-After" in second.headers
            assert "queue is full" in _body(second)["error"]
        finally:
            release.set()
            HANDLERS.pop("block", None)
            service.shutdown()

    def test_job_quota_is_429(self, cities, tmp_path):
        from repro.tenancy import TenantQuota

        registry = TenantRegistry(default_tenant="acme")
        registry.create_from_city(
            "acme",
            cities["acme"],
            quota=TenantQuota(max_active_jobs=1),
        )
        service = JobService(
            registry,
            ArtifactStore(tmp_path / "quota"),
            workers=1,
            metrics=MetricsRegistry(),
        )
        client = TestClient(VapApp(tenants=registry, jobs=service))
        release = threading.Event()
        started = threading.Event()

        def run_block(job, session, ctx):
            started.set()
            release.wait(10.0)
            return b"x", "text/plain"

        HANDLERS["block"] = run_block
        try:
            assert client.post("/api/jobs", json={"kind": "block"}).status == 202
            started.wait(5.0)
            response = client.post("/api/jobs", json={"kind": "block"})
            assert response.status == 429
            assert "Retry-After" in response.headers
            assert "active-job quota" in _body(response)["error"]
        finally:
            release.set()
            HANDLERS.pop("block", None)
            service.shutdown()

    def test_telemetry_jobs_block(self, client):
        submitted = _body(client.post("/api/jobs", json={"kind": "export"}))
        _wait_terminal(client, submitted["job_id"])
        block = _body(client.get("/api/telemetry"))["jobs"]
        assert block["total_jobs"] == 1
        assert block["succeeded"] == 1
        assert set(block["by_kind"]) >= {"embed", "render", "export"}


class TestArtifactRootLifetime:
    def test_default_root_removed_with_the_app(
        self, registry, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        app = VapApp(tenants=registry)
        assert len(list(tmp_path.glob("repro-jobs-*"))) == 1
        del app
        gc.collect()
        assert not list(tmp_path.glob("repro-jobs-*"))

    def test_caller_root_is_never_removed(self, registry, tmp_path):
        root = tmp_path / "jobs"
        root.mkdir()
        app = VapApp(tenants=registry, jobs_root=str(root))
        del app
        gc.collect()
        assert root.is_dir()
