"""Seeded request streams of the analyst workloads.

Every function here is pure: the same seed and inputs give the same
requests, so two commits are driven identically.  The program under test
only ever sees the requests (and the generated city), never the seed.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

# The request mix.  The workload definitions fix only the kinds of
# request, the three window widths and the quarter of repeats, and the
# paper gives no usage figures.  Every count below is an unverified
# assumption, and the blended end-to-end metrics (throughput, p50 and
# p95 over all operations) are weighted by it: change a count and they
# move.

# View A window widths in hours: 4 h, a day, a week.
WIDTHS = (4, 24, 168)
WEEK = 168

# One view-A block: the op mix is exact per block, only its order and
# parameters are drawn, so every seed runs the same proportions.  A
# quarter of the shift and density ops repeat a recent window.  Assumed:
# shift and density asked equally often, a pan for every ~3 of them and
# a readings request for every second pan.
VIEW_A_BLOCK = ("shift",) * 8 + ("density",) * 8 + ("bbox",) * 6 + ("readings",) * 3
VIEW_A_REPEATS = 2  # per 8 shift (and per 8 density) ops in a block
RECENT = 6          # repeats pick among the last RECENT cold windows
CHECK_RATE = 0.04   # share of shift/density answers kept for checking

# One view-C burst after each embedding.  Assumed: 15 gestures of each
# selection type, one k-means run per k (each with its own seed) and
# one proposals request.
SELECTION_TYPES = ("rect", "lasso", "radius", "knn")
SELECTIONS_PER_TYPE = 15
KMEANS_KS = (3, 4, 6, 8)

# View-A blocks mixed into each view-C burst on linked-views.  Assumed:
# two drill-down blocks (50 requests) per embedding.
VIEW_A_PER_CYCLE = 2


@dataclass(frozen=True, slots=True)
class Op:
    """One request: ``route`` names it in the metrics; ``check`` keeps
    its answer for the output checks."""

    route: str
    url: str
    body: bytes | None = None
    check: bool = False

    @property
    def method(self) -> str:
        return "GET" if self.body is None else "POST"


PROPOSALS = Op("proposals", "/api/proposals")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _shift_url(a: int, w: int) -> str:
    return f"/api/shift?t1_start={a}&t1_end={a + w}&t2_start={a + w}&t2_end={a + 2 * w}"


def view_a_blocks(
    seed: int, n_hours: int, positions: np.ndarray, customer_ids: list[int]
) -> Iterator[list[Op]]:
    """Blocks of view A/B drill-down requests, without end.

    Shift pairs are two adjacent windows of one width; density is one
    window.  Starts are drawn over the whole span.  A repeat re-asks one
    of the last :data:`RECENT` cold windows.  Viewport pans centre a
    bbox on a real customer; readings ask one customer's week.  The
    first shift and density answers are always checked.
    """
    rng = _rng(seed, 1)
    lo, hi = positions.min(axis=0), positions.max(axis=0)
    extent = hi - lo
    recent = {"shift": deque(maxlen=RECENT), "density": deque(maxlen=RECENT)}
    first = {"shift": True, "density": True}
    while True:
        kinds = list(VIEW_A_BLOCK)
        rng.shuffle(kinds)
        repeats = {
            kind: set(rng.choice(8, VIEW_A_REPEATS, replace=False).tolist())
            for kind in ("shift", "density")
        }
        seen = {"shift": 0, "density": 0}
        block: list[Op] = []
        for kind in kinds:
            if kind in ("shift", "density"):
                history = recent[kind]
                if seen[kind] in repeats[kind] and history:
                    a, w = history[int(rng.integers(len(history)))]
                else:
                    w = int(rng.choice(WIDTHS))
                    span = 2 * w if kind == "shift" else w
                    a = int(rng.integers(0, n_hours - span + 1))
                    history.append((a, w))
                seen[kind] += 1
                url = (
                    _shift_url(a, w)
                    if kind == "shift"
                    else f"/api/density?t_start={a}&t_end={a + w}"
                )
                check = first[kind] or bool(rng.random() < CHECK_RATE)
                first[kind] = False
                block.append(Op(kind, url, check=check))
            elif kind == "bbox":
                centre = positions[int(rng.integers(len(positions)))]
                half = extent * rng.uniform(0.02, 0.08, size=2)
                box = (*(centre - half), *(centre + half))
                block.append(
                    Op("bbox", "/api/customers?bbox=" + ",".join(f"{v:.6f}" for v in box))
                )
            else:
                cid = customer_ids[int(rng.integers(len(customer_ids)))]
                start = int(rng.integers(0, n_hours - WEEK + 1))
                block.append(
                    Op(
                        "readings",
                        f"/api/customers/{cid}/readings?start={start}&end={start + WEEK}",
                    )
                )
        yield block


@dataclass(frozen=True, slots=True)
class ViewCCycle:
    """One view-C cycle: a cold embedding, then a burst of gestures,
    proposals, k-means runs and (on linked-views) view-A requests in
    ``order``."""

    embed: Op
    selections: tuple[dict, ...]   # abstract gestures, see selection_body
    kmeans: tuple[Op, ...]
    order: tuple[tuple[str, int], ...]  # ("selection"|"kmeans"|"proposals"|"view_a", i)
    view_a: tuple[Op, ...] = ()


def view_c_cycles(seed: int) -> Iterator[ViewCCycle]:
    """View-C cycles without end.  The first embeds with the defaults
    (what every selection uses); later ones with fresh seeds, so each
    is cold."""
    rng = _rng(seed, 2)
    cycle = 0
    while True:
        embed = Op(
            "embedding",
            "/api/embedding" if cycle == 0 else f"/api/embedding?seed={seed * 1000 + cycle}",
        )
        gestures = []
        for kind in SELECTION_TYPES:
            for _ in range(SELECTIONS_PER_TYPE):
                gestures.append(
                    {
                        "type": kind,
                        "anchor": float(rng.random()),
                        "aspect": float(rng.uniform(0.5, 2.0)),
                        "k": int(rng.integers(5, 60)),
                        "radii": rng.uniform(0.5, 1.0, size=8).tolist(),
                    }
                )
        order_idx = rng.permutation(len(gestures))
        gestures = [gestures[int(i)] for i in order_idx]
        ks = list(KMEANS_KS)
        rng.shuffle(ks)
        kmeans = tuple(
            Op("kmeans", f"/api/kmeans?k={k}&seed={int(rng.integers(1000))}")
            for k in ks
        )
        order = [("selection", i) for i in range(len(gestures))]
        order += [("kmeans", i) for i in range(len(kmeans))]
        order.append(("proposals", 0))
        mixed = [order[int(i)] for i in rng.permutation(len(order))]
        yield ViewCCycle(
            embed=embed,
            selections=tuple(gestures),
            kmeans=kmeans,
            order=tuple(mixed),
        )
        cycle += 1


def linked_cycles(
    seed: int, n_hours: int, positions: np.ndarray, customer_ids: list[int]
) -> Iterator[ViewCCycle]:
    """View-C cycles whose bursts also carry :data:`VIEW_A_PER_CYCLE`
    view-A blocks, without end.  The view-A requests keep their order
    (a repeat still follows the window it repeats); where they fall
    among the view-C ones is drawn."""
    rng = _rng(seed, 4)
    blocks = view_a_blocks(seed, n_hours, positions, customer_ids)
    for cycle in view_c_cycles(seed):
        view_a = tuple(op for _ in range(VIEW_A_PER_CYCLE) for op in next(blocks))
        order = list(cycle.order) + [("view_a", i) for i in range(len(view_a))]
        in_order = iter(range(len(view_a)))
        mixed = [
            ("view_a", next(in_order)) if kind == "view_a" else (kind, i)
            for kind, i in (order[int(j)] for j in rng.permutation(len(order)))
        ]
        yield replace(cycle, order=tuple(mixed), view_a=view_a)


def selection_body(gesture: dict, coords: np.ndarray) -> dict:
    """The ``POST /api/selection`` body of an abstract gesture, placed on
    the embedding points ``coords``.

    The brush is centred on one point and reaches its ``k``-th nearest
    neighbour, so a gesture selects about ``k`` points whatever the
    embedding's scale and density: the work per selection does not
    depend on the city."""
    coords = np.asarray(coords, dtype=np.float64)
    anchor = coords[min(int(gesture["anchor"] * len(coords)), len(coords) - 1)]
    d2 = ((coords - anchor) ** 2).sum(axis=1)
    k = min(gesture["k"], len(coords) - 1)
    size = float(np.sqrt(np.partition(d2, k)[k]))
    x, y = float(anchor[0]), float(anchor[1])
    kind = gesture["type"]
    if kind == "rect":
        hw, hh = size * gesture["aspect"], size / gesture["aspect"]
        return {"type": "rect", "x_min": x - hw, "y_min": y - hh,
                "x_max": x + hw, "y_max": y + hh}
    if kind == "radius":
        return {"type": "radius", "x": x, "y": y, "radius": size}
    if kind == "knn":
        return {"type": "knn", "x": x, "y": y, "k": gesture["k"]}
    angles = np.linspace(0.0, 2.0 * np.pi, len(gesture["radii"]), endpoint=False)
    radii = size * np.asarray(gesture["radii"])
    vertices = np.column_stack([x + radii * np.cos(angles), y + radii * np.sin(angles)])
    return {"type": "lasso", "vertices": vertices.tolist()}


def selection_op(gesture: dict, coords: np.ndarray) -> Op:
    """The selection request for ``gesture`` on ``coords``; every
    selection answer is checked."""
    body = json.dumps(selection_body(gesture, coords)).encode("utf-8")
    return Op("selection", "/api/selection", body=body, check=True)


def s2_refresh(end_hour: int, check: bool) -> tuple[Op, Op]:
    """The refresh after a tick that ended at ``end_hour``: the latest
    24 h against the previous 24 h, as a shift and a rollup-backed
    quantile sweep."""
    q = f"t1_start={end_hour - 48}&t1_end={end_hour - 24}&t2_start={end_hour - 24}&t2_end={end_hour}"
    return (
        Op("shift", f"/api/shift?{q}", check=check),
        Op("sweep_quantile", f"/api/sweep/quantile?{q}", check=check),
    )


def s2_checked_ticks(seed: int, n_ticks: int) -> set[int]:
    """Ticks whose refresh answers are checked: tick 0 and a seeded
    tenth of the rest."""
    rng = _rng(seed, 3)
    return {0} | {t for t in range(1, n_ticks) if rng.random() < 0.1}
