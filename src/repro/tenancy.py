"""Tenant namespaces over the data plane.

A :class:`TenantRegistry` maps tenant ids to fully isolated
:class:`~repro.core.pipeline.VapSession` instances — separate databases,
separate single-flight caches, separate circuit
breakers — plus per-tenant request accounting and optional quotas.  The
server resolves the tenant per request (``X-Tenant`` header or
``tenant=`` query parameter) and routes to that tenant's session, so two
tenants with identical query parameters can never collide on a cache key:
the caches themselves are per-tenant objects, not a shared cache with a
tenant-prefixed key.

Quotas are deliberately simple: a monotonically increasing served-request
counter checked against an optional ceiling.  Crossing the ceiling raises
:class:`QuotaExceeded`, which the API layer maps to ``429``; operators
reset counters out of band (:meth:`TenantRegistry.reset_usage`).
Observability endpoints are not charged — a tenant over quota can still
be diagnosed.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass

from repro import obs
from repro.core.pipeline import VapSession

#: Tenant ids travel in headers, query strings and directory names, so
#: the alphabet is restricted to something safe in all three.
TENANT_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

DEFAULT_TENANT = "default"


class QuotaExceeded(Exception):
    """A tenant crossed its request quota (API layer answers 429)."""

    def __init__(self, tenant: str, limit: int) -> None:
        super().__init__(
            f"tenant {tenant!r} exceeded its request quota of {limit}"
        )
        self.tenant = tenant
        self.limit = limit


@dataclass(frozen=True, slots=True)
class TenantQuota:
    """Resource ceilings for one tenant; ``None`` means unlimited.

    ``max_requests`` caps served synchronous requests;
    ``max_active_jobs`` caps how many queued-or-running async jobs the
    tenant may hold at once (the job service answers 429 past it).
    """

    max_requests: int | None = None
    max_active_jobs: int | None = None

    def __post_init__(self) -> None:
        if self.max_requests is not None and self.max_requests < 0:
            raise ValueError(
                f"max_requests must be >= 0, got {self.max_requests}"
            )
        if self.max_active_jobs is not None and self.max_active_jobs < 0:
            raise ValueError(
                f"max_active_jobs must be >= 0, got {self.max_active_jobs}"
            )


def validate_tenant_id(tenant_id: str) -> str:
    """Check a tenant id against :data:`TENANT_ID_PATTERN`.

    Raises ``ValueError`` for anything unsafe to embed in a header,
    query string or directory name.
    """
    if not isinstance(tenant_id, str) or not TENANT_ID_PATTERN.match(tenant_id):
        raise ValueError(
            f"invalid tenant id {tenant_id!r}: must match "
            f"{TENANT_ID_PATTERN.pattern}"
        )
    return tenant_id


class _Tenant:
    __slots__ = ("name", "session", "quota", "requests")

    def __init__(self, name: str, session: VapSession, quota: TenantQuota):
        self.name = name
        self.session = session
        self.quota = quota
        self.requests = 0


class TenantRegistry:
    """Thread-safe mapping of tenant id → isolated session + quota state.

    Parameters
    ----------
    default_tenant:
        The tenant served when a request names none.
    metrics:
        Registry receiving ``tenant_requests_total{tenant=...}`` counters;
        the process default when omitted.
    """

    def __init__(
        self,
        default_tenant: str = DEFAULT_TENANT,
        metrics: obs.MetricsRegistry | None = None,
    ) -> None:
        self.default_tenant = validate_tenant_id(default_tenant)
        self._metrics = metrics
        self._lock = threading.Lock()
        self._tenants: dict[str, _Tenant] = {}

    @property
    def metrics(self) -> obs.MetricsRegistry:
        return self._metrics if self._metrics is not None else obs.get_registry()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add(
        self,
        tenant_id: str,
        session: VapSession,
        quota: TenantQuota | None = None,
    ) -> None:
        """Register a tenant; raises ``ValueError`` on duplicates or bad ids."""
        validate_tenant_id(tenant_id)
        with self._lock:
            if tenant_id in self._tenants:
                raise ValueError(f"tenant {tenant_id!r} already registered")
            self._tenants[tenant_id] = _Tenant(
                tenant_id, session, quota or TenantQuota()
            )

    def create_from_city(
        self,
        tenant_id: str,
        dataset,
        quota: TenantQuota | None = None,
        **session_kwargs,
    ) -> VapSession:
        """Build an isolated session for a city and register it."""
        session = VapSession.from_city(dataset, **session_kwargs)
        self.add(tenant_id, session, quota=quota)
        return session

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def __contains__(self, tenant_id: str) -> bool:
        with self._lock:
            return tenant_id in self._tenants

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def session(self, tenant_id: str) -> VapSession:
        """The tenant's session; raises ``KeyError`` for unknown tenants."""
        with self._lock:
            if tenant_id not in self._tenants:
                raise KeyError(f"unknown tenant {tenant_id!r}")
            return self._tenants[tenant_id].session

    def quota(self, tenant_id: str) -> TenantQuota:
        """The tenant's quota; raises ``KeyError`` for unknown tenants."""
        with self._lock:
            if tenant_id not in self._tenants:
                raise KeyError(f"unknown tenant {tenant_id!r}")
            return self._tenants[tenant_id].quota

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def charge(self, tenant_id: str) -> int:
        """Count one served request against the tenant.

        Returns the tenant's new request total.

        Raises
        ------
        KeyError
            For an unknown tenant.
        QuotaExceeded
            When the request would cross ``quota.max_requests``.
        """
        with self._lock:
            if tenant_id not in self._tenants:
                raise KeyError(f"unknown tenant {tenant_id!r}")
            tenant = self._tenants[tenant_id]
            limit = tenant.quota.max_requests
            if limit is not None and tenant.requests >= limit:
                raise QuotaExceeded(tenant_id, limit)
            tenant.requests += 1
            total = tenant.requests
        self.metrics.counter("tenant_requests_total", tenant=tenant_id).inc()
        return total

    def usage(self, tenant_id: str) -> dict[str, object]:
        """Request total and quota for one tenant."""
        with self._lock:
            if tenant_id not in self._tenants:
                raise KeyError(f"unknown tenant {tenant_id!r}")
            tenant = self._tenants[tenant_id]
            return {
                "requests": tenant.requests,
                "max_requests": tenant.quota.max_requests,
            }

    def reset_usage(self, tenant_id: str) -> None:
        """Zero a tenant's request counter (operator action)."""
        with self._lock:
            if tenant_id not in self._tenants:
                raise KeyError(f"unknown tenant {tenant_id!r}")
            self._tenants[tenant_id].requests = 0

    def to_record(self) -> dict[str, dict[str, object]]:
        """Telemetry view: per-tenant size and usage."""
        with self._lock:
            tenants = list(self._tenants.values())
        out: dict[str, dict[str, object]] = {}
        for tenant in tenants:
            out[tenant.name] = {
                "n_customers": len(tenant.session.db),
                "requests": tenant.requests,
                "max_requests": tenant.quota.max_requests,
            }
        return out
