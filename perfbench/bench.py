"""One benchmark run: set up, drive, check, report.

Untraced (``--trace 0``) the run sets the workload up :data:`SETUPS`
times (``setup_s`` is their median), drives the last build for
``--seconds`` and reports the end-to-end metrics.

Traced (``--trace 1``) the run drives an untraced build (after one
discarded build) for half the time, then a build whose layers are wrapped by :mod:`perfbench.tracing`
for the other half, with the same request stream.  The per-layer
metrics come from the traced half; ``trace.overhead_pct`` compares the
two halves over the operations both completed.

Both modes check every kept answer (:mod:`perfbench.checks`) and print
one JSON object as the last line of standard output.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from repro import obs
from repro.parallel.pool import resolve_workers
from repro.resilience.faults import active_injector

from perfbench import checks, stats, tracing
from perfbench.workloads import N_CUSTOMERS, N_DAYS, Env, Phase, build, run_phase

SETUPS = 3
# A p95 needs 10 samples beyond it: an untraced run goes on past
# --seconds until it has this many operations and, on s2-live, this
# many ticks (for tick_refresh_p95_ms).
MIN_OPS = 20 * stats.MIN_BEYOND
MIN_TICKS = 20 * stats.MIN_BEYOND

# End-to-end metrics every workload reports (BENCHMARK.json gates these).
COMMON = ("setup_s", "throughput_rps", "latency_p50_ms", "latency_p95_ms", "peak_rss_mb")

# Routes that appear as roots of traced operations, for the per-route
# unattributed column.
ROUTES = (
    "shift", "density", "bbox", "readings", "embedding", "selection",
    "proposals", "kmeans", "tick", "sweep_quantile", "sweep_granularity",
    "sweep_granularity_raw",
)

# Per-layer metrics from spans: (metric, span, statistic, scope).
# ``ms``/``s`` is self time per call, ``calls`` calls per operation,
# ``setup_s`` self time per traced set-up.  Set-up-only layers are read
# from the set-up span, the rest from the timed operations.
SPAN_METRICS = (
    ("server.json_encode_ms", "server.json_encode", "ms", "ops"),
    ("server.overhead_ms", "server.request", "ms", "ops"),
    ("db.demand_calls", "db.demand", "calls", "ops"),
    ("db.demand_ms", "db.demand", "ms", "ops"),
    ("db.ids_in_bbox_ms", "db.ids_in_bbox", "ms", "ops"),
    ("db.readings_for_ms", "db.readings_for", "ms", "ops"),
    ("db.ingest_hours_ms", "db.ingest_hours", "ms", "ops"),
    ("db.rollup_partials_ms", "db.rollup_partials", "ms", "setup"),
    ("preprocess.clean_impute_s", "preprocess.clean_impute", "setup_s", "setup"),
    ("preprocess.resample_ms", "preprocess.resample", "ms", "ops"),
    ("preprocess.bucket_partials_ms", "preprocess.bucket_partials", "ms", "ops"),
    ("shift.kde_calls", "shift.kde", "calls", "ops"),
    ("shift.kde_ms", "shift.kde", "ms", "ops"),
    ("shift.major_flows_ms", "shift.major_flows", "ms", "ops"),
    ("rollup.rebuild_s", "rollup.rebuild", "s", "setup"),
    ("rollup.apply_batch_ms", "rollup.apply_batch", "ms", "ops"),
    ("rollup.field_ms", "rollup.field", "ms", "ops"),
    ("stream.apply_ms", "stream.apply", "ms", "ops"),
    ("reduction.tsne_s", "reduction.tsne", "s", "ops"),
    ("reduction.distances_ms", "reduction.distances", "ms", "ops"),
    ("patterns.select_ms", "patterns.select", "ms", "ops"),
    ("patterns.label_ms", "patterns.label", "ms", "ops"),
    ("patterns.propose_ms", "patterns.propose", "ms", "ops"),
    ("cluster.kmeans_ms", "cluster.kmeans", "ms", "ops"),
)
UNITS = {"ms": "ms", "s": "s", "setup_s": "s", "calls": "calls/op"}


def environment() -> dict:
    """What was measured on: versions, cores and the resolved settings."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "shards": 1,
        "workers": resolve_workers(None),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "fault_plan_armed": active_injector() is not None,
        "city": {"n_customers": N_CUSTOMERS, "n_days": N_DAYS},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms(records, routes) -> list[float]:
    return [r.seconds * 1e3 for r in records if r.route in routes]


def end_to_end(workload: str, setups: list[float], phase: Phase, peak_rss_mb: float) -> dict:
    """``{metric: (value, unit, samples)}``: the common metrics first,
    then the ones only this workload reports.  ``peak_rss_mb`` is read
    before the output checks, so their allocations do not count."""
    records = phase.records
    latency = [r.seconds * 1e3 for r in records]
    out = {
        "setup_s": (stats.median(setups), "s", len(setups)),
        # The median over whole blocks (view-C cycles, tick groups) of
        # the operations each completed per second.
        "throughput_rps": (
            stats.median([ok / seconds for ok, seconds in phase.blocks]),
            "1/s",
            len(phase.blocks),
        ),
        "latency_p50_ms": (stats.median(latency), "ms", len(latency)),
        "latency_p95_ms": (stats.percentile(latency, 95), "ms", len(latency)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }

    def p50(name: str, routes: set[str], scale: float = 1.0, unit: str = "ms") -> None:
        samples = [v * scale for v in _ms(records, routes)]
        out[name] = (stats.median(samples), unit, len(samples))

    if workload == "linked-views":
        p50("shift_p50_ms", {"shift"})
        p50("density_p50_ms", {"density"})
        p50("lookup_p50_ms", {"bbox", "readings"})
        p50("embed_cold_s", {"embedding"}, 1e-3, "s")
        p50("selection_p50_ms", {"selection"})
        p50("kmeans_p50_ms", {"kmeans"})
    else:
        p50("shift_p50_ms", {"shift"})
        refresh = [s * 1e3 for s in phase.tick_refresh]
        out["tick_refresh_p50_ms"] = (stats.median(refresh), "ms", len(refresh))
        out["tick_refresh_p95_ms"] = (stats.percentile(refresh, 95), "ms", len(refresh))
        p50("sweep_quantile_p50_ms", {"sweep_quantile"})
        p50("sweep_granularity_s", {"sweep_granularity"}, 1e-3, "s")
        p50("sweep_granularity_raw_s", {"sweep_granularity_raw"}, 1e-3, "s")
    return out


def _counter(registry: obs.MetricsRegistry, name: str, **labels) -> float:
    return registry.counter(name, **labels).value


def per_layer(env: Env, phase: Phase, spans, overhead_pct: float) -> tuple[dict, dict]:
    """``{metric: (value, unit)}`` for every per-layer metric, and the
    sample bases of the ratios as context (printed, not reported)."""
    routes = tracing.breakdown(spans)
    setup = routes.get("setup", tracing.RouteBreakdown())
    n_setups = max(setup.n, 1)
    ops = tracing.RouteBreakdown()
    for name, route in routes.items():
        if name == "setup":
            continue
        ops.n += route.n
        for layer, (calls, seconds) in route.layers.items():
            ops.layers[layer][0] += calls
            ops.layers[layer][1] += seconds
    out: dict[str, tuple[float, str]] = {}
    for metric, span, statistic, scope in SPAN_METRICS:
        source = setup if scope == "setup" else ops
        calls, seconds = source.layers.get(span, (0, 0.0))
        if statistic == "calls":
            value = calls / max(ops.n, 1)
        elif statistic == "setup_s":
            value = seconds / n_setups
        else:
            value = seconds / calls if calls else 0.0
            value *= 1e3 if statistic == "ms" else 1.0
        out[metric] = (value, UNITS[statistic])

    http = [r for r in phase.records if r.route != "tick"]
    out["server.response_kb"] = (
        sum(r.size for r in http) / max(len(http), 1) / 1024.0, "KB"
    )
    registry = env.registry
    bases: dict[str, tuple[float, str]] = {}
    for op in ("density", "embed"):
        hits = _counter(registry, "pipeline_cache_total", op=op, result="hit")
        misses = _counter(registry, "pipeline_cache_total", op=op, result="miss")
        bases[f"pipeline.{op}_lookups"] = (hits + misses, "count")
        out[f"pipeline.{op}_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"
        )
    sweeps = sum(r.route in ("sweep_quantile", "sweep_granularity") for r in phase.records)
    fallbacks = sum(
        _counter(registry, "pipeline_rollup_fallback_total", op=op)
        for op in ("granularity_sweep", "quantile_sweep")
    )
    bases["rollup.sweeps"] = (sweeps, "count")
    out["rollup.fallback_ratio"] = (fallbacks / sweeps if sweeps else 0.0, "ratio")
    for route in ROUTES:
        r = routes.get(route)
        value = r.unattributed_s * 1e3 / r.n if r is not None and r.n else 0.0
        out[f"trace.unattributed_ms.{route}"] = (value, "ms")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out, bases


def overhead_pct(base: Phase, traced: Phase) -> float:
    """Traced minus untraced time over the operations both halves
    completed (the same requests, in the same order), in percent."""
    k = min(len(base.records), len(traced.records))
    untraced = sum(r.seconds for r in base.records[:k])
    return 100.0 * (sum(r.seconds for r in traced.records[:k]) - untraced) / untraced


def route_table(spans) -> list[str]:
    """Human-readable per-route breakdown of a traced phase."""
    lines = []
    for name, route in sorted(tracing.breakdown(spans).items()):
        lines.append(
            f"route {name}: n={route.n} mean={route.total_s * 1e3 / route.n:.3f} ms "
            f"unattributed={route.unattributed_s * 1e3 / route.n:.3f} ms"
        )
        for layer, (calls, seconds) in sorted(
            route.layers.items(), key=lambda kv: -kv[1][1]
        ):
            lines.append(
                f"  {layer:28s} {seconds * 1e3 / route.n:10.3f} ms/op "
                f"{calls / route.n:8.2f} calls/op"
            )
    return lines


def _summary(failures: list[str], phases: list[Phase], metrics: dict) -> dict:
    records = [r for p in phases for r in p.records]
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()
        },
    }


def run_untraced(workload: str, seed: int, seconds: float, tmp: Path) -> tuple[list[str], dict]:
    setups: list[float] = []
    env = None
    for i in range(SETUPS):
        env = None
        gc.collect()
        start = time.perf_counter()
        env = build(workload, seed, str(tmp / f"jobs-{i}"))
        setups.append(time.perf_counter() - start)
    min_ticks = MIN_TICKS if workload == "s2-live" else 0
    phase = run_phase(env, seconds, min_ops=MIN_OPS, min_ticks=min_ticks)
    peak_rss_mb = _peak_rss_mb()
    failures = checks.check_phase(env.session, phase)
    metrics = end_to_end(workload, setups, phase, peak_rss_mb)
    lines = [
        f"metric {name} {value!r} {unit} (n={n})" for name, (value, unit, n) in metrics.items()
    ]
    summary = _summary(failures, [phase], {k: metrics[k] for k in COMMON})
    return lines + [f"check failed: {f}" for f in failures], summary


def run_traced(
    workload: str, seed: int, seconds: float, tmp: Path, out_dir: Path
) -> tuple[list[str], dict]:
    # A first, discarded build puts the untraced half in the same state
    # as an untraced run's phase, which follows earlier builds.
    build(workload, seed, str(tmp / "jobs-warm"))
    gc.collect()
    env = build(workload, seed, str(tmp / "jobs-base"))
    base = run_phase(env, seconds / 2)
    failures = checks.check_phase(env.session, base)
    env = None
    gc.collect()
    recorder = tracing.Recorder()
    with tracing.patched(recorder):
        with recorder.span("setup"):
            env = build(workload, seed, str(tmp / "jobs-traced"))
        phase = run_phase(env, seconds / 2, recorder)
    failures += checks.check_phase(env.session, phase)
    metrics, bases = per_layer(env, phase, recorder.spans, overhead_pct(base, phase))
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder.dump(
        out_dir / f"trace-{workload}-seed{seed}.json",
        {"workload": workload, "seed": seed, "environment": environment()},
    )
    lines = route_table(recorder.spans)
    lines += [f"layer {name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"base {name} {value!r} {unit}" for name, (value, unit) in bases.items()]
    summary = _summary(failures, [base, phase], metrics)
    return lines + [f"check failed: {f}" for f in failures], summary


def main(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    """Run one workload and print its result; exit status 1 when an
    output check failed."""
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    previous = obs.get_logger()
    # Request logs stay on (they are on the real path) but go to a file,
    # away from the metric output.
    log = open(tmp / "requests.log", "w", encoding="utf-8")
    try:
        obs.configure(logger=obs.JsonLogger(stream=log))
        if trace:
            lines, summary = run_traced(workload, seed, seconds, tmp, scratch / "out")
        else:
            lines, summary = run_untraced(workload, seed, seconds, tmp)
    finally:
        obs.configure(logger=previous)
        log.close()
        shutil.rmtree(tmp, ignore_errors=True)
    print("environment " + json.dumps(environment(), sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1
