"""k-means with k-means++ seeding, from scratch.

Lloyd's algorithm with the standard guarantees: inertia is monotonically
non-increasing across iterations, empty clusters are re-seeded from the
point farthest from its centroid, and ``n_init`` restarts keep the best
run.  Deterministic for a given seed.

:func:`minibatch_kmeans` is the out-of-core variant (Sculley 2010):
each step assigns one seeded random batch and moves the touched
centroids toward the batch mean with a per-centroid decaying learning
rate, so fleet-scale inputs cluster in O(batch) memory per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs


@dataclass(slots=True)
class KMeansResult:
    """Assignment plus diagnostics of the best restart."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    n_iter: int
    inertia_trace: list[float]


def _plus_plus_init(
    features: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = features.shape[0]
    centroids = np.empty((k, features.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = features[first]
    d2 = ((features - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining points coincide with a centroid; pick uniformly.
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centroids[i] = features[pick]
        d2 = np.minimum(d2, ((features - centroids[i]) ** 2).sum(axis=1))
    return centroids


def _assign(features: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels and per-point squared distances."""
    sq_f = (features**2).sum(axis=1)[:, None]
    sq_c = (centroids**2).sum(axis=1)[None, :]
    d2 = sq_f + sq_c - 2.0 * (features @ centroids.T)
    np.clip(d2, 0.0, None, out=d2)
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(features.shape[0]), labels]


def kmeans(
    features: np.ndarray,
    k: int,
    n_init: int = 4,
    max_iter: int = 100,
    tol: float = 1e-7,
    seed: int = 0,
) -> KMeansResult:
    """Cluster rows into ``k`` groups; best of ``n_init`` restarts.

    Raises
    ------
    ValueError
        For invalid shapes, non-finite input or k outside [1, n].
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if not np.isfinite(features).all():
        raise ValueError("features contain NaN/inf; impute first")
    n = features.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n_points={n}], got {k}")
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    total_iterations = 0
    with obs.span("kernel.kmeans", n_points=n, k=k, n_init=n_init), \
            obs.get_registry().timer("kernel_runtime_seconds", kernel="kmeans"):
        for _ in range(n_init):
            centroids = _plus_plus_init(features, k, rng)
            trace: list[float] = []
            labels, d2 = _assign(features, centroids)
            iterations = 0
            for iterations in range(1, max_iter + 1):
                # Update step.
                for c in range(k):
                    members = features[labels == c]
                    if members.shape[0] == 0:
                        # Re-seed an empty cluster at the worst-fitted point.
                        centroids[c] = features[int(d2.argmax())]
                    else:
                        centroids[c] = members.mean(axis=0)
                new_labels, d2 = _assign(features, centroids)
                inertia = float(d2.sum())
                trace.append(inertia)
                if (new_labels == labels).all():
                    labels = new_labels
                    break
                if len(trace) >= 2 and trace[-2] - trace[-1] < tol * max(trace[-2], 1e-30):
                    labels = new_labels
                    break
                labels = new_labels
            total_iterations += iterations
            inertia = float(d2.sum())
            if best is None or inertia < best.inertia:
                best = KMeansResult(
                    labels=labels.copy(),
                    centroids=centroids.copy(),
                    inertia=inertia,
                    n_iter=iterations,
                    inertia_trace=trace,
                )
    assert best is not None
    registry = obs.get_registry()
    registry.counter("kernel_runs_total", kernel="kmeans").inc()
    registry.counter("kmeans_restarts_total").inc(n_init)
    registry.histogram(
        "kernel_iterations", buckets=obs.COUNT_BUCKETS, kernel="kmeans"
    ).observe(total_iterations)
    registry.gauge("kernel_last_objective", kernel="kmeans").set(best.inertia)
    return best


def minibatch_kmeans(
    features: np.ndarray,
    k: int,
    batch_size: int = 1024,
    max_iter: int = 100,
    tol: float = 1e-4,
    seed: int = 0,
) -> KMeansResult:
    """Mini-batch k-means (Sculley 2010) for fleet-scale inputs.

    Each step draws one seeded random batch, assigns it to the current
    centroids and moves every touched centroid toward its batch mean
    with learning rate ``m_c / count_c`` (the per-centroid decaying rate
    that makes the sequence converge).  Stops when the largest centroid
    shift drops below ``tol`` or after ``max_iter`` batches, then runs
    one full assignment pass for the final labels and exact inertia.

    ~1-3% worse inertia than Lloyd's on clusterable data in exchange for
    O(batch_size · k) work per step; deterministic per seed.
    ``inertia_trace`` holds the *estimated* (batch-scaled) inertia per
    step; the returned ``inertia`` is exact.

    Raises
    ------
    ValueError
        For invalid shapes, non-finite input, k outside [1, n] or a
        non-positive batch size.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if not np.isfinite(features).all():
        raise ValueError("features contain NaN/inf; impute first")
    n = features.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n_points={n}], got {k}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    batch = min(batch_size, n)
    rng = np.random.default_rng(seed)
    registry = obs.get_registry()
    with obs.span(
        "kernel.kmeans_minibatch", n_points=n, k=k, batch=batch
    ), registry.timer("kernel_runtime_seconds", kernel="kmeans"):
        # Seed from a D^2 sample over a bounded subset: k-means++ quality
        # without an O(n·k) init pass on huge fleets.
        init_rows = rng.choice(n, size=min(n, max(batch, 10 * k)), replace=False)
        centroids = _plus_plus_init(features[init_rows], k, rng)
        counts = np.zeros(k)
        trace: list[float] = []
        iterations = 0
        for iterations in range(1, max_iter + 1):
            rows = rng.choice(n, size=batch, replace=False)
            x = features[rows]
            labels, d2 = _assign(x, centroids)
            trace.append(float(d2.sum()) * (n / batch))
            shift = 0.0
            for c in np.unique(labels):
                members = x[labels == c]
                counts[c] += members.shape[0]
                step = (members.shape[0] / counts[c]) * (
                    members.mean(axis=0) - centroids[c]
                )
                centroids[c] += step
                shift = max(shift, float((step**2).sum()))
            if shift < tol * tol:
                break
        final_labels, d2 = _assign(features, centroids)
        inertia = float(d2.sum())
    registry.counter("kernel_runs_total", kernel="kmeans").inc()
    registry.counter(
        "kernel_method_total", kernel="kmeans", method="minibatch"
    ).inc()
    registry.histogram(
        "kernel_iterations", buckets=obs.COUNT_BUCKETS, kernel="kmeans"
    ).observe(iterations)
    registry.gauge("kernel_last_objective", kernel="kmeans").set(inertia)
    return KMeansResult(
        labels=final_labels,
        centroids=centroids,
        inertia=inertia,
        n_iter=iterations,
        inertia_trace=trace,
    )
