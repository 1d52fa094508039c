"""The shared-memory pool's determinism contract and fallback ladder.

``map_blocks`` must return bit-identical results for any worker count:
block boundaries depend only on problem size, every block is computed by
the same code on the same inputs, and assembly is in item order.  These
tests pin that contract plus the graceful-degradation paths (single
task, nested call, no fork) and the shared-memory round trip itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.parallel import (
    DEFAULT_BLOCK_ROWS,
    map_blocks,
    pool_budget,
    resolve_workers,
    row_blocks,
)
from repro.parallel import pool as pool_module


def _sum_block(block, arrays):
    """Row-local reduction over a shared array — the kernel shape."""
    start, stop = block
    return arrays["data"][start:stop].sum(axis=1)


def _scaled_block(block, arrays, *, factor):
    start, stop = block
    return arrays["data"][start:stop] * factor


def _item_squared(item, arrays):
    return item * item


def _nested_call(block, arrays):
    """A block function that itself fans out — must not fork again."""
    inner = map_blocks(
        _item_squared, [1, 2, 3], workers=4, name="inner"
    )
    return sum(inner)


class TestRowBlocks:
    def test_covers_every_row_exactly_once(self):
        blocks = row_blocks(10_000, 1024)
        assert blocks[0] == (0, 1024)
        assert blocks[-1] == (9216, 10_000)
        covered = np.concatenate(
            [np.arange(start, stop) for start, stop in blocks]
        )
        np.testing.assert_array_equal(covered, np.arange(10_000))

    def test_exact_multiple_has_no_stub_block(self):
        assert row_blocks(4096, 1024) == [
            (0, 1024), (1024, 2048), (2048, 3072), (3072, 4096)
        ]

    def test_zero_rows(self):
        assert row_blocks(0) == []

    def test_boundaries_ignore_worker_count(self):
        # The contract: boundaries are a function of (n, block_rows) only.
        assert row_blocks(5000) == row_blocks(5000, DEFAULT_BLOCK_ROWS)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="n_rows"):
            row_blocks(-1)
        with pytest.raises(ValueError, match="block_rows"):
            row_blocks(10, 0)


class TestBudgets:
    def test_explicit_workers_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(2) == 2
        assert resolve_workers(None) == 8

    def test_unset_env_defaults_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert pool_budget() == 1

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert resolve_workers(None) == 1


class TestMapBlocks:
    def test_serial_results_in_item_order(self):
        data = np.arange(20.0).reshape(4, 5)
        parts = map_blocks(
            _sum_block, row_blocks(4, 2), arrays={"data": data}, workers=1
        )
        np.testing.assert_array_equal(
            np.concatenate(parts), data.sum(axis=1)
        )

    def test_bit_identical_across_worker_counts(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(997, 24))  # prime rows: ragged last block
        blocks = row_blocks(997, 128)
        baseline = np.concatenate(
            map_blocks(_sum_block, blocks, arrays={"data": data}, workers=1)
        )
        for workers in (2, 4):
            got = np.concatenate(
                map_blocks(
                    _sum_block, blocks, arrays={"data": data},
                    workers=workers,
                )
            )
            assert np.array_equal(got, baseline)  # bit-identical, not close

    def test_kwargs_reach_workers(self):
        data = np.ones((6, 3))
        parts = map_blocks(
            _scaled_block, row_blocks(6, 4), arrays={"data": data},
            workers=2, kwargs={"factor": 2.5},
        )
        np.testing.assert_array_equal(np.concatenate(parts), data * 2.5)

    def test_shared_memory_round_trips_dtype_and_shape(self):
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        parts = map_blocks(
            _sum_block, row_blocks(3, 1), arrays={"data": data}, workers=2
        )
        got = np.concatenate(parts)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, data.sum(axis=1))

    def test_env_budget_used_when_workers_omitted(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        data = np.arange(8.0).reshape(4, 2)
        parts = map_blocks(
            _sum_block, row_blocks(4, 1), arrays={"data": data}
        )
        np.testing.assert_array_equal(
            np.concatenate(parts), data.sum(axis=1)
        )


class TestFallbacks:
    def _fallbacks(self, reason):
        return obs.get_registry().counter(
            "parallel_fallback_total", reason=reason
        ).value

    def test_single_task_never_forks(self):
        before = self._fallbacks("single_task")
        data = np.ones((2, 2))
        parts = map_blocks(
            _sum_block, [(0, 2)], arrays={"data": data}, workers=4
        )
        assert self._fallbacks("single_task") == before + 1
        np.testing.assert_array_equal(parts[0], [2.0, 2.0])

    def test_nested_call_stays_serial(self, monkeypatch):
        # Simulate being inside a worker: the initializer's global is set.
        monkeypatch.setattr(pool_module, "_WORKER_ARRAYS", {})
        before = self._fallbacks("nested")
        got = map_blocks(_item_squared, [1, 2, 3], workers=4)
        assert got == [1, 4, 9]
        assert self._fallbacks("nested") == before + 1

    def test_no_fork_platform_stays_serial(self, monkeypatch):
        import multiprocessing as mp

        monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
        before = self._fallbacks("no_fork")
        got = map_blocks(_item_squared, [2, 3], workers=4)
        assert got == [4, 9]
        assert self._fallbacks("no_fork") == before + 1

    def test_forked_workers_never_fork_grandchildren(self):
        # _nested_call runs inside pool workers and fans out again; the
        # worker-side latch must route the inner call to the serial loop
        # (a grandchild fork would deadlock or duplicate state).
        got = map_blocks(_nested_call, [(0, 1), (1, 2)], workers=2)
        assert got == [14, 14]


class TestObservability:
    def test_run_and_task_counters(self):
        registry = obs.get_registry()
        runs_before = registry.counter(
            "parallel_pool_runs_total", pool="countme", mode="serial"
        ).value
        tasks_before = registry.counter(
            "parallel_tasks_total", pool="countme", mode="serial"
        ).value
        map_blocks(_item_squared, [1, 2, 3], workers=1, name="countme")
        assert registry.counter(
            "parallel_pool_runs_total", pool="countme", mode="serial"
        ).value == runs_before + 1
        assert registry.counter(
            "parallel_tasks_total", pool="countme", mode="serial"
        ).value == tasks_before + 3

    def test_forked_task_spans_grafted_onto_parent(self):
        from repro.obs import RingBufferSink

        previous = obs.get_tracer()
        sink = RingBufferSink()
        obs.configure(sink=sink)
        try:
            data = np.ones((4, 2))
            map_blocks(
                _sum_block, row_blocks(4, 1), arrays={"data": data},
                workers=2, name="graftme",
            )
        finally:
            obs.configure(tracer=previous)
        roots = [r for r in sink.records() if r.name == "parallel.map"]
        assert roots, "parallel.map span missing"
        rec = roots[-1]
        assert rec.tags["mode"] == "fork"
        children = [c for c in rec.children if c.name == "parallel.task"]
        assert len(children) == 4
        assert sorted(c.tags["index"] for c in children) == [0, 1, 2, 3]
        assert all(c.duration >= 0.0 for c in children)
