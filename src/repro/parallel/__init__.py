"""Blockwise kernel execution.

The hot kernels (pairwise distances, perplexity search, out-of-sample
placement) decompose into independent row blocks.  They run those
blocks in one in-process loop over fixed :func:`row_blocks` boundaries,
checking the bound deadline at every block boundary (see DESIGN.md
§14).  The package name predates the removal of the process pool.
"""

from repro.parallel.pool import DEFAULT_BLOCK_ROWS, map_blocks, row_blocks

__all__ = ["DEFAULT_BLOCK_ROWS", "map_blocks", "row_blocks"]
