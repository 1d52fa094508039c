"""The request streams: fixed by the seed, different across seeds."""

from collections import Counter
from itertools import islice

import numpy as np
import pytest

from perfbench import streams


def _city(n=50, seed=0):
    rng = np.random.default_rng(seed)
    positions = np.column_stack([116.3 + rng.random(n) * 0.2, 39.9 + rng.random(n) * 0.2])
    return positions, list(range(100, 100 + n))


def _view_a(seed, blocks=8):
    positions, ids = _city()
    return [op for block in islice(streams.view_a_blocks(seed, 2160, positions, ids), blocks)
            for op in block]


def _view_c(seed, cycles=3):
    coords = np.random.default_rng(0).normal(size=(200, 2)) * 10.0
    out = []
    for cycle in islice(streams.view_c_cycles(seed), cycles):
        out.append(cycle.embed)
        out.extend(cycle.kmeans)
        out.extend(streams.selection_op(g, coords) for g in cycle.selections)
        out.append(cycle.order)
    return out


def test_view_a_same_seed_same_stream():
    assert _view_a(3) == _view_a(3)
    assert _view_a(3) != _view_a(4)


def test_view_a_mix_is_exact_per_block():
    ops = _view_a(5, blocks=4)
    counts = Counter(op.route for op in ops)
    assert counts == {
        route: 4 * n for route, n in Counter(streams.VIEW_A_BLOCK).items()
    }
    assert any(op.check for op in ops if op.route == "shift")
    assert any(op.check for op in ops if op.route == "density")


def test_view_a_repeats_a_quarter_of_windows():
    ops = [op for op in _view_a(7, blocks=20) if op.route in ("shift", "density")]
    urls = [op.url for op in ops]
    repeated = len(urls) - len(set(urls))
    assert 0.15 * len(urls) <= repeated <= 0.3 * len(urls)


def test_view_a_windows_stay_inside_the_span():
    for op in _view_a(11, blocks=20):
        if op.route in ("shift", "density", "readings"):
            hours = [int(part.split("=")[1]) for part in op.url.split("?")[1].split("&")]
            assert min(hours) >= 0 and max(hours) <= 2160


def test_view_c_same_seed_same_stream():
    assert _view_c(3) == _view_c(3)
    assert _view_c(3) != _view_c(4)


def test_view_c_embeddings_are_cold_and_first_is_default():
    embeds = [c.embed.url for c in islice(streams.view_c_cycles(2), 6)]
    assert embeds[0] == "/api/embedding"
    assert len(set(embeds)) == len(embeds)


def test_selection_bodies_anchor_on_points():
    coords = np.random.default_rng(1).normal(size=(100, 2))
    cycle = next(streams.view_c_cycles(0))
    kinds = Counter(streams.selection_body(g, coords)["type"] for g in cycle.selections)
    assert kinds == {kind: streams.SELECTIONS_PER_TYPE for kind in streams.SELECTION_TYPES}


def test_selection_brush_reaches_the_kth_neighbour_at_any_scale():
    coords = np.random.default_rng(2).normal(size=(300, 2))
    gesture = {"type": "radius", "anchor": 0.3, "aspect": 1.0, "k": 20, "radii": [1.0] * 8}
    small = streams.selection_body(gesture, coords)
    large = streams.selection_body(gesture, coords * 50.0)
    assert large["radius"] == pytest.approx(small["radius"] * 50.0)
    anchor = coords[90]
    inside = (((coords - anchor) ** 2).sum(axis=1) <= small["radius"] ** 2).sum()
    # The anchor and its 20 nearest neighbours; the 20th sits on the rim,
    # where rounding may leave it out.
    assert inside in (20, 21)


def _linked(seed, cycles=3):
    positions, ids = _city()
    return list(islice(streams.linked_cycles(seed, 2160, positions, ids), cycles))


def test_linked_same_seed_same_stream():
    assert _linked(3) == _linked(3)
    assert _linked(3) != _linked(4)


def test_linked_cycle_carries_whole_view_a_blocks_in_order():
    cycles = _linked(6)
    view_a = [op for cycle in cycles for op in cycle.view_a]
    counts = Counter(op.route for op in view_a)
    n_blocks = len(cycles) * streams.VIEW_A_PER_CYCLE
    assert counts == {
        route: n_blocks * n for route, n in Counter(streams.VIEW_A_BLOCK).items()
    }
    for cycle in cycles:
        kinds = Counter(kind for kind, _ in cycle.order)
        assert kinds == {
            "selection": len(cycle.selections),
            "kmeans": len(cycle.kmeans),
            "proposals": 1,
            "view_a": len(cycle.view_a),
        }
        # View-A requests go out in the order they were drawn.
        served = [i for kind, i in cycle.order if kind == "view_a"]
        assert served == sorted(served)
        # ... but spread through the burst, not bunched at one end.
        positions = [j for j, (kind, _) in enumerate(cycle.order) if kind == "view_a"]
        assert positions[0] < len(cycle.order) // 4
        assert positions[-1] > 3 * len(cycle.order) // 4


def test_s2_checked_ticks_follow_the_seed():
    assert streams.s2_checked_ticks(1, 500) == streams.s2_checked_ticks(1, 500)
    assert streams.s2_checked_ticks(1, 500) != streams.s2_checked_ticks(2, 500)
    assert 0 in streams.s2_checked_ticks(9, 500)
    shift, quantile = streams.s2_refresh(1000, check=True)
    assert shift.url == "/api/shift?t1_start=952&t1_end=976&t2_start=976&t2_end=1000"
    assert quantile.url.startswith("/api/sweep/quantile?") and quantile.check
