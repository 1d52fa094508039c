"""Barnes–Hut approximation of the t-SNE repulsive gradient.

The exact t-SNE gradient is O(n^2) per iteration because every point
repels every other point through the Student-t kernel of the paper's
Eq. 2.  Barnes & Hut (1986) cut the equivalent n-body problem down to
O(n log n): far-away groups of points are summarised by their centre of
mass, and "far away" is judged against the group's cell size — a cell of
side ``s`` at distance ``d`` is summarised whenever ``s / d < theta``.

This module adapts the classic point quadtree to the embedding space,
with two differences driven by the hot loop it serves:

- the tree is rebuilt every gradient step (the embedding moves), so it is
  a flat bundle of index arrays rather than a persistent node-object
  graph, and leaves are stored CSR-style for vectorised gathers;
- the traversal is *level-synchronous*: the frontier of live
  ``(point, node)`` pairs lives in two flat integer arrays, and one
  numpy expression per tree level decides, for every pair at once,
  whether the node is absorbed as a pseudo-point or its children join
  the next frontier.  The Python-level work is O(tree depth), not
  O(n log n) or O(#nodes).

With ``theta < 1/sqrt(2)`` a point can never accept a cell that contains
it (the centre of mass is at most ``s * sqrt(2) / 2 < s / theta`` away),
so self-interaction is excluded structurally for the default
``theta = 0.5``; leaves always mask self-pairs explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_DEPTH = 32


@dataclass(slots=True)
class _Tree:
    """Flat quadtree: parallel arrays indexed by node id (root is 0).

    ``leaf_start``/``leaf_count`` slice ``members`` (point indices) for
    leaf nodes; internal nodes carry ``leaf_start = -1``.
    """

    children: np.ndarray  # (n_nodes, 4) int32, -1 for an absent child
    com_x: np.ndarray  # (n_nodes,) centre-of-mass coordinates
    com_y: np.ndarray
    count: np.ndarray  # (n_nodes,) points in the subtree
    size2: np.ndarray  # (n_nodes,) squared cell side
    depth: np.ndarray  # (n_nodes,) int32 depth of the node (root is 0)
    leaf_start: np.ndarray  # (n_nodes,) int64 offset into members, -1 if internal
    leaf_count: np.ndarray  # (n_nodes,) int64 member count, 0 if internal
    members: np.ndarray  # concatenated leaf point indices


def build_tree(points: np.ndarray, leaf_capacity: int = 32) -> _Tree:
    """Quadtree over a 2-D point set with per-node centres of mass.

    Raises
    ------
    ValueError
        For a malformed point array.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be (n, 2), got {points.shape}")
    if points.shape[0] == 0:
        raise ValueError("cannot build a tree over zero points")
    xs, ys = points[:, 0], points[:, 1]
    mins = points.min(axis=0)
    maxs = points.max(axis=0)
    cx0, cy0 = (mins + maxs) / 2.0
    # Square root cell; a hair of padding keeps boundary points strictly
    # inside so the > comparisons below place every point in one quadrant.
    half0 = float(max(maxs[0] - mins[0], maxs[1] - mins[1])) / 2.0
    half0 = (half0 or 1e-12) * (1.0 + 1e-9)

    children: list[list[int]] = []
    com_x: list[float] = []
    com_y: list[float] = []
    count: list[int] = []
    size2: list[float] = []
    depths: list[int] = []
    leaf_start: list[int] = []
    leaf_count: list[int] = []
    member_chunks: list[np.ndarray] = []
    n_members = 0

    def rec(idx: np.ndarray, cx: float, cy: float, half: float, depth: int) -> int:
        nonlocal n_members
        node = len(children)
        children.append([-1, -1, -1, -1])
        px, py = xs[idx], ys[idx]
        com_x.append(float(px.mean()))
        com_y.append(float(py.mean()))
        count.append(idx.size)
        size2.append((2.0 * half) ** 2)
        depths.append(depth)
        if idx.size <= leaf_capacity or depth >= _MAX_DEPTH:
            leaf_start.append(n_members)
            leaf_count.append(idx.size)
            member_chunks.append(idx)
            n_members += idx.size
            return node
        leaf_start.append(-1)
        leaf_count.append(0)
        east = px > cx
        north = py > cy
        q = half / 2.0
        quads = (
            (~east & ~north, cx - q, cy - q),
            (east & ~north, cx + q, cy - q),
            (~east & north, cx - q, cy + q),
            (east & north, cx + q, cy + q),
        )
        kids = children[node]
        for qi, (sel, ncx, ncy) in enumerate(quads):
            sub = idx[sel]
            if sub.size:
                kids[qi] = rec(sub, ncx, ncy, q, depth + 1)
        return node

    rec(np.arange(points.shape[0]), float(cx0), float(cy0), half0, 0)
    return _Tree(
        children=np.asarray(children, dtype=np.int32),
        com_x=np.asarray(com_x),
        com_y=np.asarray(com_y),
        count=np.asarray(count, dtype=np.float64),
        size2=np.asarray(size2),
        depth=np.asarray(depths, dtype=np.int32),
        leaf_start=np.asarray(leaf_start, dtype=np.int64),
        leaf_count=np.asarray(leaf_count, dtype=np.int64),
        members=(
            np.concatenate(member_chunks)
            if member_chunks
            else np.empty(0, dtype=np.int64)
        ),
    )


@dataclass(slots=True)
class RepulsionPlan:
    """Frozen Barnes–Hut traversal topology for a point set.

    The plan pins which (point, cell) pairs are summarised and which
    leaf members interact directly.  Like a Verlet neighbour list in
    molecular dynamics, it stays valid while points move a little, so
    the t-SNE descent re-plans only every few iterations and re-runs
    the cheap force evaluation (:func:`run_plan`) — which always uses
    *current* coordinates and freshly recomputed centres of mass — in
    between.
    """

    n: int  # number of points
    count: np.ndarray  # (n_nodes,) float64 subtree populations
    point_leaf: np.ndarray  # (n,) int32 owning leaf of every point
    sweep: list  # [(node_ids, children)] internal levels, deepest first
    members: np.ndarray  # (n,) int32 CSR-ordered member point ids
    far_pid: np.ndarray  # summarised pairs: point ids (int32)
    far_nid: np.ndarray  # summarised pairs: cell ids (int32)
    far_mass: np.ndarray  # (|far|,) float32 cell populations
    leaf_pid: np.ndarray  # direct pairs: point ids (int32)
    leaf_slot: np.ndarray  # direct pairs: CSR member slots (int32)
    leaf_mask: np.ndarray  # (|leaf|,) float32, 0.0 on self-pairs


def plan_repulsion(
    points: np.ndarray, theta: float = 0.5, leaf_capacity: int = 16
) -> RepulsionPlan:
    """Build the quadtree and classify every (point, cell) interaction.

    Cells passing the opening criterion ``size^2 < theta^2 * dist^2``
    are recorded as summarised pseudo-points; near leaves are expanded
    to their members.  ``theta = 0`` degenerates to the exact all-pairs
    classification.

    Raises
    ------
    ValueError
        For malformed points or ``theta`` outside ``[0, 1]``.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    points = np.ascontiguousarray(points, dtype=np.float64)
    tree = build_tree(points, leaf_capacity=leaf_capacity)
    n = points.shape[0]
    # The traversal runs in float32/int32: the gradient is already a
    # theta-approximation (relative error ~1e-2 at theta = 0.5), so the
    # ~1e-7 rounding is immaterial, while halving the memory traffic of
    # a gather-bound loop buys a near-2x speedup.
    x = np.ascontiguousarray(points[:, 0], dtype=np.float32)
    y = np.ascontiguousarray(points[:, 1], dtype=np.float32)
    com_x = tree.com_x.astype(np.float32)
    com_y = tree.com_y.astype(np.float32)
    size2 = tree.size2.astype(np.float32)
    members = tree.members.astype(np.int32)
    leaf_count = tree.leaf_count.astype(np.int32)
    theta2 = np.float32(theta * theta)
    is_leaf = tree.leaf_start >= 0
    leaf_start32 = tree.leaf_start.astype(np.int32)

    far_pid_parts: list[np.ndarray] = []
    far_nid_parts: list[np.ndarray] = []
    leaf_pid_parts: list[np.ndarray] = []
    leaf_slot_parts: list[np.ndarray] = []

    pid = np.arange(n, dtype=np.int32)  # frontier: live (point, node) pairs
    nid = np.zeros(n, dtype=np.int32)
    while pid.size:
        # Opening criterion for every live pair at once — leaf cells are
        # absorbable pseudo-points too when they are far enough.  The
        # hot loop leans on `take`/in-place ufuncs: each avoided
        # temporary is a full pass over the frontier.
        dx = np.take(x, pid)
        dx -= np.take(com_x, nid)
        dy = np.take(y, pid)
        dy -= np.take(com_y, nid)
        d2 = dx * dx
        d2 += dy * dy
        far = np.take(size2, nid) < theta2 * d2
        far_ix = np.flatnonzero(far)
        if far_ix.size:
            far_pid_parts.append(np.take(pid, far_ix))
            far_nid_parts.append(np.take(nid, far_ix))
        if far_ix.size == far.size:
            break
        near_ix = np.flatnonzero(~far)
        pid = np.take(pid, near_ix)
        nid = np.take(nid, near_ix)
        at_leaf = np.take(is_leaf, nid)
        leaf_ix = np.flatnonzero(at_leaf)

        # Near leaf pairs: expand to (point, member) interactions via the
        # CSR arrays, one gather for the whole level.
        if leaf_ix.size:
            lp = np.take(pid, leaf_ix)
            ln = np.take(nid, leaf_ix)
            cnt = np.take(leaf_count, ln)
            ex_p = np.repeat(lp, cnt)
            # Expanded position j of pair k maps to CSR slot
            # leaf_start[k] + j - (ends[k] - cnt[k]): one fused repeat.
            ends = np.cumsum(cnt, dtype=np.int32)
            slot = np.arange(ends[-1], dtype=np.int32)
            slot += np.repeat(np.take(leaf_start32, ln) - ends + cnt, cnt)
            leaf_pid_parts.append(ex_p)
            leaf_slot_parts.append(slot)

        # Near internal pairs: push the children onto the next frontier.
        if leaf_ix.size == at_leaf.size:
            break
        int_ix = np.flatnonzero(~at_leaf)
        kids = tree.children[np.take(nid, int_ix)]  # (r, 4)
        flat_kids = kids.ravel()
        live = np.flatnonzero(flat_kids >= 0)
        if live.size == 0:
            break
        pid = np.take(np.repeat(np.take(pid, int_ix), 4), live)
        nid = np.take(flat_kids, live)

    empty32 = np.empty(0, dtype=np.int32)
    far_pid = np.concatenate(far_pid_parts) if far_pid_parts else empty32
    far_nid = np.concatenate(far_nid_parts) if far_nid_parts else empty32
    leaf_pid = np.concatenate(leaf_pid_parts) if leaf_pid_parts else empty32
    leaf_slot = (
        np.concatenate(leaf_slot_parts) if leaf_slot_parts else empty32
    )
    leaf_mask = (leaf_pid != np.take(members, leaf_slot)).astype(np.float32)

    leaf_ids = np.flatnonzero(is_leaf)
    point_leaf = np.empty(n, dtype=np.int32)
    point_leaf[tree.members] = np.repeat(
        leaf_ids.astype(np.int32), tree.leaf_count[leaf_ids]
    )
    sweep = []
    for depth in range(int(tree.depth.max()), -1, -1):
        ids = np.flatnonzero(~is_leaf & (tree.depth == depth))
        if ids.size:
            sweep.append((ids, tree.children[ids]))

    return RepulsionPlan(
        n=n,
        count=tree.count,
        point_leaf=point_leaf,
        sweep=sweep,
        members=members,
        far_pid=far_pid,
        far_nid=far_nid,
        far_mass=tree.count[far_nid].astype(np.float32),
        leaf_pid=leaf_pid,
        leaf_slot=leaf_slot,
        leaf_mask=leaf_mask,
    )


def run_plan(plan: RepulsionPlan, points: np.ndarray) -> tuple[np.ndarray, float]:
    """Evaluate repulsive forces for ``points`` under a frozen plan.

    Centres of mass are recomputed from the current coordinates with a
    deepest-first sweep over the tree levels; only the far/near pair
    classification is reused from plan time.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.shape != (plan.n, 2):
        raise ValueError(
            f"plan was built for {(plan.n, 2)} points, got {points.shape}"
        )
    n = plan.n
    x = np.ascontiguousarray(points[:, 0], dtype=np.float32)
    y = np.ascontiguousarray(points[:, 1], dtype=np.float32)
    one = np.float32(1.0)

    # Refresh per-cell centres of mass bottom-up: leaves via bincount,
    # internal nodes by summing their children, deepest level first.
    n_nodes = plan.count.shape[0]
    sx = np.bincount(plan.point_leaf, weights=points[:, 0], minlength=n_nodes)
    sy = np.bincount(plan.point_leaf, weights=points[:, 1], minlength=n_nodes)
    for ids, kids in plan.sweep:
        gx = sx[kids]
        gy = sy[kids]
        absent = kids < 0
        gx[absent] = 0.0
        gy[absent] = 0.0
        sx[ids] = gx.sum(axis=1)
        sy[ids] = gy.sum(axis=1)
    com_x = (sx / plan.count).astype(np.float32)
    com_y = (sy / plan.count).astype(np.float32)

    rep_x = np.zeros(n)
    rep_y = np.zeros(n)
    z_total = 0.0

    if plan.far_pid.size:
        dx = np.take(x, plan.far_pid)
        dx -= np.take(com_x, plan.far_nid)
        dy = np.take(y, plan.far_pid)
        dy -= np.take(com_y, plan.far_nid)
        qn = dx * dx
        qn += dy * dy
        qn += one
        np.reciprocal(qn, out=qn)
        mass = plan.far_mass * qn  # mass * q_num
        z_total += float(mass.sum(dtype=np.float64))
        mass *= qn  # mass * q_num^2
        dx *= mass
        dy *= mass
        rep_x += np.bincount(plan.far_pid, weights=dx, minlength=n)
        rep_y += np.bincount(plan.far_pid, weights=dy, minlength=n)

    if plan.leaf_pid.size:
        # Member coordinates laid out in CSR order so the expansion
        # gathers with a single level of indirection.
        mx, my = x[plan.members], y[plan.members]
        ldx = np.take(x, plan.leaf_pid)
        ldx -= np.take(mx, plan.leaf_slot)
        ldy = np.take(y, plan.leaf_pid)
        ldy -= np.take(my, plan.leaf_slot)
        qn = ldx * ldx
        qn += ldy * ldy
        qn += one
        np.reciprocal(qn, out=qn)
        qn *= plan.leaf_mask  # no self-repulsion
        z_total += float(qn.sum(dtype=np.float64))
        qn *= qn
        ldx *= qn
        ldy *= qn
        rep_x += np.bincount(plan.leaf_pid, weights=ldx, minlength=n)
        rep_y += np.bincount(plan.leaf_pid, weights=ldy, minlength=n)

    return np.stack([rep_x, rep_y], axis=1), z_total


def repulsion(
    points: np.ndarray, theta: float = 0.5, leaf_capacity: int = 16
) -> tuple[np.ndarray, float]:
    """Approximate repulsive sums of the t-SNE gradient for every point.

    Returns ``(rep, z)`` where ``rep[i] = sum_j q_num_ij^2 * (y_i - y_j)``
    (the unnormalised repulsive force, ``q_num = 1 / (1 + |y_i - y_j|^2)``)
    and ``z = sum_{i != j} q_num_ij`` is the normalisation term of Eq. 2.
    Cells passing the opening criterion ``size^2 < theta^2 * dist^2``
    contribute as a single pseudo-point at their centre of mass.

    ``theta = 0`` degenerates to the exact O(n^2) sums (every cell is
    opened down to its leaves); larger values trade accuracy for speed.

    Raises
    ------
    ValueError
        For malformed points or ``theta`` outside ``[0, 1]``.
    """
    return run_plan(plan_repulsion(points, theta, leaf_capacity), points)
