"""Shared fixtures for the async-job-service suite."""

from __future__ import annotations

import pytest

from repro.data.generator.simulate import CityConfig, generate_city
from repro.jobs import ArtifactStore, JobService
from repro.obs import MetricsRegistry
from repro.tenancy import TenantQuota, TenantRegistry


@pytest.fixture(scope="module")
def jobs_city():
    return generate_city(CityConfig(n_customers=36, n_days=7, seed=11))


@pytest.fixture()
def registry(jobs_city):
    registry = TenantRegistry(default_tenant="acme")
    registry.create_from_city("acme", jobs_city)
    return registry


@pytest.fixture()
def make_service(registry, tmp_path):
    """Factory for a JobService over a tmp artifact root; every service
    built through it is shut down at teardown."""
    services = []

    def build(**kwargs):
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("checkpoint_every", 20)
        kwargs.setdefault("metrics", MetricsRegistry())
        tenants = kwargs.pop("tenants", registry)
        service = JobService(
            tenants, ArtifactStore(tmp_path / "store"), **kwargs
        )
        services.append(service)
        return service

    yield build
    for service in services:
        service.shutdown()


@pytest.fixture()
def quota_registry(jobs_city):
    """A registry whose tenant allows at most one active job."""
    registry = TenantRegistry(default_tenant="acme")
    registry.create_from_city(
        "acme", jobs_city, quota=TenantQuota(max_active_jobs=1)
    )
    return registry
