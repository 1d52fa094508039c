"""End-to-end benchmark of the VAP request path.

Run from the repository root::

    python3 perfbench/run.py --workload linked-views --seed 1 --seconds 45 --trace 0

``--workload`` is ``linked-views`` or ``s2-live`` (see
:mod:`perfbench.workloads`); ``--seed`` makes the city and the request
stream; ``--trace 1`` reports per-layer metrics instead
of end-to-end ones.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is pinned before it is imported: one shard, one worker, one
BLAS thread and no fault plan, whatever the environment says.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("linked-views", "s2-live")
CLEARED = ("REPRO_SHARDS", "REPRO_FAULT_PLAN", "REPRO_FAULT_SEED")
# One worker and one BLAS thread.  On the 2-core target, BLAS threads
# spinning beside the interpreter made runs noisier and no faster.
PINNED = {
    "REPRO_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in CLEARED:
        os.environ.pop(name, None)
    os.environ.update(PINNED)
    # Import the program from this checkout and this package by its
    # name, not from the script's own directory.
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        p for p in sys.path[1:] if Path(p or ".").resolve() != ROOT / "perfbench"
    ]
    from perfbench import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
