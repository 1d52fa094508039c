"""The blockwise loop's determinism contract.

Block boundaries depend only on problem size, every block computes
row-local math, and assembly is in block order — so every blockwise
kernel returns the same bits for any ``block_rows``.  These tests pin
that contract for the loop itself and for each kernel built on it, with
blocks smaller than the input so the multi-block path runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.reduction.distances import (
    euclidean_cross_distance_matrix,
    euclidean_distance_matrix,
    pearson_cross_distance_matrix,
    pearson_distance_matrix,
)
from repro.core.reduction.tsne import _perplexity_search
from repro.parallel import DEFAULT_BLOCK_ROWS, map_blocks, row_blocks
from repro.parallel.pool import resolve_workers


def _row_sums(data):
    return lambda block: data[block[0]:block[1]].sum(axis=1)


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
    def test_unset_env_defaults_serial(self):
        # The benchmark harness reports this as its worker count.
        assert resolve_workers(None) == 1


class TestMapBlocks:
    def test_serial_results_in_item_order(self):
        data = np.arange(20.0).reshape(4, 5)
        parts = map_blocks(_row_sums(data), row_blocks(4, 2), name="unit")
        np.testing.assert_array_equal(
            np.concatenate(parts), data.sum(axis=1)
        )

    def test_bit_identical_across_block_sizes(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(997, 24))  # prime rows: ragged last block
        baseline = np.concatenate(
            map_blocks(_row_sums(data), row_blocks(997, 997), name="unit")
        )
        for block_rows in (128, 13):
            got = np.concatenate(
                map_blocks(
                    _row_sums(data), row_blocks(997, block_rows), name="unit"
                )
            )
            assert np.array_equal(got, baseline)  # bit-identical, not close


class TestKernelBlockIdentity:
    """Every blockwise kernel, run over many ragged blocks.

    Each block must carry exactly the bits of the same rows computed on
    their own — row-local math, assembled in order.  Equality across
    *different* block sizes is pinned only where no BLAS matmul is
    involved: BLAS picks its kernel by matrix shape, so one 97x97 Pearson
    product and four 32-row ones differ in the last bit on some builds.
    """

    N = 97

    @pytest.fixture(scope="class")
    def feats(self):
        return np.random.default_rng(11).normal(size=(self.N, 16))

    @pytest.mark.parametrize(
        "kernel, cross",
        [
            (pearson_distance_matrix, pearson_cross_distance_matrix),
            (euclidean_distance_matrix, euclidean_cross_distance_matrix),
        ],
    )
    def test_pairwise(self, feats, kernel, cross):
        for block_rows in (32, 7):
            rows = np.concatenate([
                cross(feats[start:stop], feats)
                for start, stop in row_blocks(self.N, block_rows)
            ])
            np.fill_diagonal(rows, 0.0)
            want = (rows + rows.T) / 2.0
            assert np.array_equal(kernel(feats, block_rows=block_rows), want)

    @pytest.mark.parametrize(
        "kernel",
        [pearson_cross_distance_matrix, euclidean_cross_distance_matrix],
    )
    def test_cross(self, feats, kernel):
        queries, references = feats[:61], feats[61:]
        for block_rows in (16, 7):
            want = np.concatenate([
                kernel(queries[start:stop], references)
                for start, stop in row_blocks(61, block_rows)
            ])
            got = kernel(queries, references, block_rows=block_rows)
            assert np.array_equal(got, want)

    def test_perplexity_search(self, feats):
        dist = pearson_distance_matrix(feats)
        probs, beta = _perplexity_search(dist, 10.0, block_rows=self.N)
        for block_rows in (32, 7):
            got_probs, got_beta = _perplexity_search(
                dist, 10.0, block_rows=block_rows
            )
            assert np.array_equal(got_probs, probs)
            assert np.array_equal(got_beta, beta)
