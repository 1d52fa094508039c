"""Kernel benchmarks: fast engines vs their exact ground-truth twins.

Every entry measures the *same work* through both engines in one process,
back-to-back, so the speedup ratio is meaningful even on noisy shared
machines (absolute wall-clock is not — treat it as indicative only).
Parity numbers ride along with every timing so a speedup can never hide
a wrong answer:

- t-SNE: exact vs Barnes–Hut gradients — final KL ratio;
- KDE: exact vs binned Eq. 3 — max relative error over the grid;
- perplexity search: per-row loop vs array-wide bisection — beta allclose;
- DTW: row-sweep vs anti-diagonal DP — bit-identical distances;
- rollup: raw granularity sweep vs the warmed rollup-backed sweep — mean
  energies allclose.  Sized across a 10x span of reading counts so the
  document shows the rollup path's latency staying flat while the raw
  path grows with ``n_readings``;
- landmark: full Barnes–Hut t-SNE vs the out-of-core landmark engine —
  kNN recall, with per-stage wall times (selection / inner embed /
  placement / cross distances) so the n=50k headline shows where the
  time goes.

The document also carries a top-level ``profiler`` block: the same KDE
workload timed with the continuous stack profiler off and sampling at
100 hz, so the profiler's "always-on is affordable" claim is re-measured
on every bench run instead of trusted.

``run_bench(quick=True)`` is the CI smoke variant: same shape, small sizes.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.reduction.distances import (
    euclidean_cross_distance_matrix,
    euclidean_distance_matrix,
)
from repro.core.reduction.dtw import dtw_distance
from repro.core.reduction.tsne import (
    _perplexity_search,
    _perplexity_search_loop,
    tsne,
)
from repro.core.shift.grids import GridSpec
from repro.core.shift.kde import kde_density

KERNELS = ("tsne", "kde", "perplexity", "dtw", "rollup", "landmark")


def _blob_data(
    n: int, dim: int = 24, clusters: int = 8, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Clustered synthetic features plus their generative cluster labels."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(clusters, dim))
    assignment = rng.integers(0, clusters, size=n)
    features = centers[assignment] + rng.normal(scale=0.8, size=(n, dim))
    return features, assignment


def _blob_features(
    n: int, dim: int = 24, clusters: int = 8, seed: int = 0
) -> np.ndarray:
    """Clustered synthetic features — the regime the paper's views live in."""
    return _blob_data(n, dim, clusters, seed)[0]


def _positions(n: int, seed: int = 0) -> np.ndarray:
    """Clustered (lon, lat) points on a ~10 km city patch."""
    rng = np.random.default_rng(seed)
    centers = np.column_stack(
        [116.0 + rng.random(8) * 0.1, 39.0 + rng.random(8) * 0.1]
    )
    assignment = rng.integers(0, 8, size=n)
    return centers[assignment] + rng.normal(scale=0.004, size=(n, 2))


def _dtw_row_sweep(a: np.ndarray, b: np.ndarray, band: int) -> float:
    """The pre-vectorisation row-sweep DP, kept as the parity oracle."""
    n, m = a.size, b.size
    inf = np.inf
    previous = np.full(m + 1, inf)
    previous[0] = 0.0
    current = np.empty(m + 1)
    for i in range(1, n + 1):
        current.fill(inf)
        lo = max(1, i - band)
        hi = min(m, i + band)
        cost = np.abs(a[i - 1] - b[lo - 1 : hi])
        segment_prev = previous[lo - 1 : hi]
        segment_up = previous[lo : hi + 1]
        running = inf
        for k in range(hi - lo + 1):
            best = min(segment_prev[k], segment_up[k], running)
            running = cost[k] + best
            current[lo + k] = running
        previous, current = current, previous
    return float(previous[m] / (n + m))


def bench_tsne(
    sizes: list[int], n_iter: int, theta: float = 0.5, seed: int = 0
) -> dict:
    runs = []
    for n in sizes:
        feats = _blob_features(n, seed=seed)
        t0 = time.perf_counter()
        exact = tsne(
            feats, metric="euclidean", n_iter=n_iter, seed=seed, method="exact"
        )
        t1 = time.perf_counter()
        fast = tsne(
            feats, metric="euclidean", n_iter=n_iter, seed=seed,
            method="bh", theta=theta,
        )
        t2 = time.perf_counter()
        runs.append(
            {
                "n": n,
                "n_iter": n_iter,
                "exact_seconds": round(t1 - t0, 4),
                "fast_seconds": round(t2 - t1, 4),
                "speedup": round((t1 - t0) / max(t2 - t1, 1e-12), 2),
                "kl_exact": round(exact.kl_divergence, 6),
                "kl_fast": round(fast.kl_divergence, 6),
                "kl_ratio": round(
                    fast.kl_divergence / max(exact.kl_divergence, 1e-12), 4
                ),
            }
        )
    return {"theta": theta, "runs": runs}


def _knn_label_recall(
    embedding: np.ndarray, labels: np.ndarray, k: int = 10
) -> float:
    """Mean fraction of each point's ``k`` embedding-neighbours sharing
    its generative cluster label.

    This is the structure score that is meaningful for an
    interpolation-based method: raw neighbour-*set* overlap between two
    embeddings is near zero for anything that does not reproduce the
    reference layout point-for-point (within a cluster the fine order is
    arbitrary), while label recall asks the question the analyst cares
    about — do a point's neighbours on screen belong to its pattern?
    """
    n = embedding.shape[0]
    k = min(k, n - 1)
    sq = (embedding**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (embedding @ embedding.T)
    np.fill_diagonal(d2, np.inf)
    nn = np.argpartition(d2, k - 1, axis=1)[:, :k]
    return float((labels[nn] == labels[:, None]).mean())


def bench_landmark(
    sizes: list[int],
    n_iter: int,
    seed: int = 0,
    bh_max: int = 5000,
    n_landmarks: int = 1024,
) -> dict:
    """Landmark t-SNE end-to-end vs the full Barnes–Hut run.

    For every size: one ``method="landmark"`` run (its per-stage wall
    times — landmark selection, inner embed, out-of-sample placement —
    come straight from ``TSNEResult.stages``) plus a standalone timing of
    the blockwise cross-distance kernel, the distance-stage cost at that
    scale.  Sizes up to ``bh_max`` also run the full Barnes–Hut twin for
    a speedup ratio and a kNN label-recall parity score (see
    :func:`_knn_label_recall`); beyond that the exact twin would take
    minutes and the landmark time stands alone as the headline (the
    50k < 60 s acceptance number).
    """
    runs = []
    for n in sizes:
        feats, labels = _blob_data(n, seed=seed)
        k = min(n_landmarks, n)
        t0 = time.perf_counter()
        landmark = tsne(
            feats, metric="euclidean", n_iter=n_iter, seed=seed,
            method="landmark", n_landmarks=k,
        )
        t1 = time.perf_counter()
        # The distance-stage breakdown: one (n, k) blockwise cross pass,
        # the matrix the placement stage is built on.
        t2 = time.perf_counter()
        euclidean_cross_distance_matrix(feats, feats[:k])
        cross_seconds = time.perf_counter() - t2
        stages = dict(landmark.stages or {})
        stages["cross_distances_seconds"] = round(cross_seconds, 4)
        run = {
            "n": n,
            "n_iter": n_iter,
            "n_landmarks": k,
            "fast_seconds": round(t1 - t0, 4),
            "stages": {key: round(val, 4) for key, val in stages.items()},
            "kl_landmark": round(landmark.kl_divergence, 6),
        }
        if n <= bh_max:
            t3 = time.perf_counter()
            bh = tsne(
                feats, metric="euclidean", n_iter=n_iter, seed=seed,
                method="bh",
            )
            t4 = time.perf_counter()
            run["exact_seconds"] = round(t4 - t3, 4)
            run["speedup"] = round((t4 - t3) / max(t1 - t0, 1e-12), 2)
            run["knn_recall"] = round(
                _knn_label_recall(landmark.embedding, labels), 4
            )
            run["knn_recall_exact"] = round(
                _knn_label_recall(bh.embedding, labels), 4
            )
        runs.append(run)
    return {"n_landmarks": n_landmarks, "runs": runs}


def bench_kde(
    sizes: list[int], nx: int = 128, ny: int = 128, seed: int = 0
) -> dict:
    runs = []
    for n in sizes:
        pos = _positions(n, seed=seed)
        weights = np.random.default_rng(seed + 1).gamma(2.0, 1.0, n)
        spec = GridSpec.covering(pos, nx=nx, ny=ny)
        t0 = time.perf_counter()
        exact = kde_density(pos, weights, spec, method="exact")
        t1 = time.perf_counter()
        binned = kde_density(pos, weights, spec, method="binned")
        t2 = time.perf_counter()
        rel = np.abs(binned.values - exact.values) / exact.values.max()
        runs.append(
            {
                "n": n,
                "exact_seconds": round(t1 - t0, 4),
                "fast_seconds": round(t2 - t1, 4),
                "speedup": round((t1 - t0) / max(t2 - t1, 1e-12), 2),
                "max_rel_error": float(f"{rel.max():.3e}"),
            }
        )
    return {"grid": [nx, ny], "runs": runs}


def bench_perplexity(sizes: list[int], seed: int = 0) -> dict:
    runs = []
    for n in sizes:
        feats = _blob_features(n, seed=seed)
        dist = euclidean_distance_matrix(feats)
        t0 = time.perf_counter()
        _, betas_loop = _perplexity_search_loop(dist, perplexity=30.0)
        t1 = time.perf_counter()
        _, betas_vec = _perplexity_search(dist, perplexity=30.0)
        t2 = time.perf_counter()
        runs.append(
            {
                "n": n,
                "exact_seconds": round(t1 - t0, 4),
                "fast_seconds": round(t2 - t1, 4),
                "speedup": round((t1 - t0) / max(t2 - t1, 1e-12), 2),
                "betas_allclose": bool(
                    np.allclose(betas_loop, betas_vec, rtol=1e-9)
                ),
            }
        )
    return {"runs": runs}


def bench_dtw(lengths: list[int], repeats: int = 5, seed: int = 0) -> dict:
    runs = []
    rng = np.random.default_rng(seed)
    for length in lengths:
        band = max(1, length // 10)
        a = rng.normal(size=length)
        b = rng.normal(size=length)
        t0 = time.perf_counter()
        for _ in range(repeats):
            want = _dtw_row_sweep(a, b, band)
        t1 = time.perf_counter()
        for _ in range(repeats):
            got = dtw_distance(a, b, band=band, normalize=False)
        t2 = time.perf_counter()
        runs.append(
            {
                "length": length,
                "band": band,
                "exact_seconds": round((t1 - t0) / repeats, 5),
                "fast_seconds": round((t2 - t1) / repeats, 5),
                "speedup": round((t1 - t0) / max(t2 - t1, 1e-12), 2),
                "identical": bool(got == want),
            }
        )
    return {"runs": runs}


def energies_allclose(raw, rolled) -> bool:
    """Whether rollup mean energies match the raw sweep's to ``rtol=1e-6``.

    ``atol=0``: the energies are ~1e-9, under numpy's default ``atol`` of
    1e-8, which would make any pair of them compare equal.
    """
    return bool(np.allclose(raw, rolled, rtol=1e-6, atol=0.0, equal_nan=True))


def bench_rollup(
    n_hours_list: list[int], n_customers: int = 80, seed: int = 0
) -> dict:
    """Granularity sweep from raw readings vs materialized rollups.

    The raw path re-resamples the full reading matrix and re-runs Eq. 3
    from scratch per window pair, so its cost grows with ``n_readings``;
    the rollup path answers from per-bucket accumulators and cached
    kernel grids, so its cost is O(cells) per field regardless of how
    many hours fed the store.  Both sweeps use the store's pinned
    bandwidth so the results are directly comparable; mean energies
    ride along as the parity check.
    """
    from repro.core.shift.sensitivity import (
        granularity_sweep,
        granularity_sweep_from_rollups,
    )
    from repro.data.generator.simulate import CityConfig, generate_city
    from repro.data.timeseries import Resolution
    from repro.db import build_database
    from repro.rollup.store import RollupStore

    runs = []
    for n_hours in n_hours_list:
        city = generate_city(
            CityConfig(
                n_customers=n_customers,
                n_days=max(1, n_hours // 24),
                seed=seed,
            )
        )
        db = build_database(city.customers, city.raw)
        ids = [int(cid) for cid in db.readings.customer_ids]
        spec = GridSpec.covering(db.positions_of(ids))
        store = RollupStore(db.positions_of(ids), ids, spec)
        t0 = time.perf_counter()
        store.rebuild_from(db)
        t1 = time.perf_counter()
        bandwidth = store.bandwidth_m
        # Warm once so the timed pass measures the steady-state cost —
        # cached kernel grids, no lazy materialization.
        granularity_sweep_from_rollups(store, bandwidth_m=bandwidth)
        t2 = time.perf_counter()
        raw = granularity_sweep(db, spec=spec, bandwidth_m=bandwidth)
        t3 = time.perf_counter()
        rolled = granularity_sweep_from_rollups(store, bandwidth_m=bandwidth)
        t4 = time.perf_counter()
        energies_raw = [r.mean_energy for r in raw]
        energies_rollup = [r.mean_energy for r in rolled]
        # Direct probe of the O(cells) claim: a single warm field, free of
        # the per-pair flow statistics both sweeps share.  This number must
        # stay flat as n grows 10x — it never touches raw readings.
        probe = store.buckets(Resolution.DAILY)[0]
        repeats = 50
        t5 = time.perf_counter()
        for _ in range(repeats):
            store.bucket_field(Resolution.DAILY, probe, bandwidth_m=bandwidth)
        warm_field_ms = (time.perf_counter() - t5) * 1000.0 / repeats
        runs.append(
            {
                "n": n_hours * n_customers,
                "n_hours": n_hours,
                "n_customers": n_customers,
                "build_seconds": round(t1 - t0, 4),
                "exact_seconds": round(t3 - t2, 4),
                "fast_seconds": round(t4 - t3, 4),
                "speedup": round((t3 - t2) / max(t4 - t3, 1e-12), 2),
                "warm_field_ms": round(warm_field_ms, 4),
                "energies_allclose": energies_allclose(
                    energies_raw, energies_rollup
                ),
            }
        )
    return {"runs": runs}


def bench_profiler_overhead(
    repeats: int, hz: float = 100.0, seed: int = 0
) -> dict:
    """Throughput cost of the continuous stack profiler.

    Runs the same binned-KDE workload back-to-back with the profiler
    stopped and then sampling at ``hz``; the relative throughput loss is
    the number the profiler's <5% overhead budget is graded against.
    """
    from repro.obs.profiler import StackProfiler

    pos = _positions(5000, seed=seed)
    weights = np.random.default_rng(seed + 1).gamma(2.0, 1.0, 5000)
    spec = GridSpec.covering(pos, nx=96, ny=96)

    def throughput() -> float:
        t0 = time.perf_counter()
        for _ in range(repeats):
            kde_density(pos, weights, spec, method="binned")
        return repeats / (time.perf_counter() - t0)

    throughput()  # warm caches so both passes see the same regime
    baseline = throughput()
    profiler = StackProfiler(hz=hz)
    profiler.start()
    try:
        profiled = throughput()
        samples = profiler.samples
    finally:
        profiler.stop()
    overhead = max(0.0, 1.0 - profiled / baseline)
    return {
        "hz": hz,
        "repeats": repeats,
        "baseline_ops_per_s": round(baseline, 2),
        "profiled_ops_per_s": round(profiled, 2),
        "overhead_pct": round(overhead * 100.0, 2),
        "samples": samples,
    }


def run_bench(
    quick: bool = False, kernels: list[str] | None = None, seed: int = 0,
    profiler: bool = True,
) -> dict:
    """Run the kernel benchmarks and return the BENCH_PERF document.

    Raises
    ------
    ValueError
        For an unknown kernel name.
    """
    wanted = list(KERNELS) if kernels is None else kernels
    unknown = [k for k in wanted if k not in KERNELS]
    if unknown:
        raise ValueError(f"unknown kernels {unknown}; pick from {KERNELS}")
    out: dict = {
        "schema": 1,
        "quick": quick,
        "generated_unix": round(time.time(), 1),
        "kernels": {},
    }
    # Quick sizes overlap the full ones so the CI comparator
    # (repro.bench.compare) can match a quick run against the committed
    # full-mode document by (kernel, n) — speedup ratios are comparable
    # across modes even when iteration counts differ.
    if "tsne" in wanted:
        sizes, n_iter = ([500], 150) if quick else ([500, 1000, 2000], 500)
        out["kernels"]["tsne"] = bench_tsne(sizes, n_iter=n_iter, seed=seed)
    if "kde" in wanted:
        sizes = [10000] if quick else [10000, 50000]
        out["kernels"]["kde"] = bench_kde(sizes, seed=seed)
    if "perplexity" in wanted:
        sizes = [500] if quick else [500, 1500]
        out["kernels"]["perplexity"] = bench_perplexity(sizes, seed=seed)
    if "dtw" in wanted:
        lengths = [168] if quick else [168, 336, 720]
        out["kernels"]["dtw"] = bench_dtw(lengths, seed=seed)
    if "rollup" in wanted:
        n_hours = [720] if quick else [720, 7200]
        out["kernels"]["rollup"] = bench_rollup(n_hours, seed=seed)
    if "landmark" in wanted:
        sizes, n_iter = ([5000], 150) if quick else ([5000, 50000], 500)
        out["kernels"]["landmark"] = bench_landmark(
            sizes, n_iter=n_iter, seed=seed
        )
    if profiler:
        out["profiler"] = bench_profiler_overhead(
            repeats=10 if quick else 50, seed=seed
        )
    return out


def write_bench(path: Path, document: dict) -> None:
    path.write_text(json.dumps(document, indent=2) + "\n")
