"""Connected components of ball configurations: one array kernel for every
from-scratch count, union-find labeling with cheap local repair after
deletions for chain moves, the stabilized local component count, single-ball
increments, and the explicit upper/lower bounds on it."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .geometry import Box, MarkedBall, dilate, unit_ball_volume
from .model_core import Configuration


class LambdaNotInWindow(ValueError):
    pass


class NestingViolation(ValueError):
    pass


# ---------------------------------------------------------------------------
# Array kernel: intersecting pairs and component labels
# ---------------------------------------------------------------------------

_DENSE_MAX = 96  # balls: one n x n pass up to here, a k-d tree beyond
_UNION_FIND_MAX = 256  # nodes + pairs: Python union-find up to here, csgraph beyond
_OVERSIZE = 4.0  # balls wider than this many median radii skip the k-d tree


def intersecting_pairs(
    centers: np.ndarray, radii: np.ndarray, groups: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i < j, sorted by i then j) of closed balls that meet:
    |c_i - c_j|^2 <= (r_i + r_j)^2, so tangency counts.  With `groups` (a
    nondecreasing group id per ball) only pairs inside one group count.

    Small inputs take one dense pass.  Large ones get candidates from a k-d
    tree at twice the largest ordinary radius, with balls above `_OVERSIZE`
    median radii checked against their whole group; the exact test above
    decides every candidate."""
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    n = radii.size
    if groups is not None:
        groups = np.asarray(groups)
        if np.any(groups[1:] < groups[:-1]):
            raise ValueError("group ids must be nondecreasing")
    if n < 2:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    if n <= _DENSE_MAX:
        diff = centers[:, None, :] - centers[None, :, :]
        d2 = np.einsum("ijx,ijx->ij", diff, diff)
        rsum = radii[:, None] + radii[None, :]
        hit = d2 <= rsum * rsum
        if groups is not None:
            hit &= groups[:, None] == groups[None, :]
        i, j = np.nonzero(hit)
        upper = i < j
        return i[upper], j[upper]
    big = radii > _OVERSIZE * float(np.median(radii))
    small = np.flatnonzero(~big)
    pts = centers[small]
    reach = 2.0 * float(radii[small].max())
    reach += 1e-9 * (reach + float(np.abs(pts).max()))  # rounding slack only
    if groups is not None:  # groups sit farther apart than the reach
        pts = np.column_stack([pts, groups[small] * (2.0 * reach + 1.0)])
    found = cKDTree(pts).query_pairs(reach, output_type="ndarray")
    ii, jj = [small[found[:, 0]]], [small[found[:, 1]]]
    wide = np.flatnonzero(big)
    if wide.size:
        if groups is None:
            lo, hi = np.zeros_like(wide), np.full_like(wide, n)
        else:
            lo = np.searchsorted(groups, groups[wide], "left")
            hi = np.searchsorted(groups, groups[wide], "right")
        rows = np.repeat(wide, hi - lo)
        cols = np.arange(rows.size) + np.repeat(lo - np.cumsum(hi - lo) + (hi - lo), hi - lo)
        keep = (cols != rows) & ~(big[cols] & (cols < rows))  # each pair once
        ii.append(np.minimum(rows, cols)[keep])
        jj.append(np.maximum(rows, cols)[keep])
    i, j = np.concatenate(ii), np.concatenate(jj)
    diff = centers[i] - centers[j]
    rsum = radii[i] + radii[j]
    hit = np.einsum("ij,ij->i", diff, diff) <= rsum * rsum
    i, j = i[hit], j[hit]
    order = np.lexsort((j, i))
    return i[order], j[order]


def label_components(n: int, i: np.ndarray, j: np.ndarray) -> tuple[int, np.ndarray]:
    """Components of the graph on n nodes with edges (i, j): their number and
    a label per node, numbered 0, 1, ... in order of first appearance."""
    if not i.size:
        return n, np.arange(n)
    if n + i.size > _UNION_FIND_MAX:
        graph = csr_matrix((np.ones(i.size, dtype=np.int8), (i, j)), shape=(n, n))
        count, labels = connected_components(graph, directed=False)
        return int(count), labels
    parent = list(range(n))
    for a, b in zip(i.tolist(), j.tolist()):
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[b] = a
    labels = np.empty(n, dtype=np.int64)
    seen: dict[int, int] = {}
    for v in range(n):
        root = v
        while parent[root] != root:
            root = parent[root]
        parent[v] = root
        labels[v] = seen.setdefault(root, len(seen))
    return len(seen), labels


def components(
    centers: np.ndarray, radii: np.ndarray, groups: Optional[np.ndarray] = None
) -> tuple[int, np.ndarray]:
    """Connected components of the closed balls B(centers[k], radii[k]):
    their number and a label per ball (see `label_components`).  With
    `groups`, balls of different groups never connect."""
    radii = np.asarray(radii, dtype=float)
    return label_components(radii.size, *intersecting_pairs(centers, radii, groups))


def _arrays(cfg: Configuration) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(cfg.active_ids(), dtype=np.intp)
    return cfg.centers[ids], cfg.radii[ids]


def component_members(cfg: Configuration, slots: Optional[list[int]] = None) -> list[list[int]]:
    """Slots of each component of the balls in `slots` (default: all), in
    order of first appearance; members keep the order of `slots`."""
    slots = cfg.active_ids() if slots is None else slots
    arr = np.asarray(slots, dtype=np.intp)
    count, labels = components(cfg.centers[arr], cfg.radii[arr])
    groups: list[list[int]] = [[] for _ in range(count)]
    for s, c in zip(slots, labels.tolist()):
        groups[c].append(s)
    return groups


# ---------------------------------------------------------------------------
# Union-find labeling
# ---------------------------------------------------------------------------


class ClusterLabeling:
    """Union-find over configuration slots plus the intersection graph.

    Union-find answers "which component" in near-constant time; the stored
    adjacency lists make deletions cheap: removal re-clusters only the
    deleted ball's component, by graph search, with no geometry queries.
    """

    def __init__(self, cfg: Optional[Configuration] = None, capacity: int = 64):
        self.parent = list(range(capacity))
        self.adj: dict[int, list[int]] = {}
        self.n_components = 0
        if cfg is not None:
            self.rebuild(cfg)

    def _ensure(self, slot: int) -> None:
        while len(self.parent) <= slot:
            self.parent.extend(range(len(self.parent), 2 * len(self.parent)))

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return root

    def union(self, i: int, j: int) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        self.parent[rj] = ri
        self.n_components -= 1
        return True

    def rebuild(self, cfg: Configuration) -> None:
        """Recompute labeling and adjacency from scratch."""
        ids = cfg.active_ids()
        if ids:
            self._ensure(max(ids))
        for i in ids:
            self.parent[i] = i
        self.n_components = len(ids)
        self.adj = {i: [] for i in ids}
        arr = np.asarray(ids, dtype=np.intp)
        a, b = intersecting_pairs(cfg.centers[arr], cfg.radii[arr])
        for i, j in zip(arr[a].tolist(), arr[b].tolist()):
            self.adj[i].append(j)
            self.adj[j].append(i)
            self.union(i, j)

    def roots(self, cfg: Configuration) -> set[int]:
        return {self.find(i) for i in cfg.active_ids()}

    def component_sizes(self, cfg: Configuration) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for i in cfg.active_ids():
            r = self.find(i)
            sizes[r] = sizes.get(r, 0) + 1
        return sizes

    # -- incremental updates -------------------------------------------------

    def insertion_increment(self, cfg: Configuration, center, radius) -> tuple[int, list[int]]:
        """Component-count change if B(center, radius) were added, plus the
        slots it would intersect.  Does not mutate."""
        hits = cfg.intersectors(center, radius)
        if not hits:
            return 1, hits
        n_roots = len({self.find(i) for i in hits})
        return 1 - n_roots, hits

    def apply_insertion(self, slot: int, hits: list[int]) -> None:
        """Register `slot` (already added to the configuration) and union it
        with the balls it intersects."""
        self._ensure(slot)
        self.parent[slot] = slot
        self.n_components += 1
        nbrs = [j for j in hits if j != slot]
        self.adj[slot] = nbrs
        for j in nbrs:
            self.adj[j].append(slot)
            self.union(slot, j)

    def removal_split(self, cfg: Configuration, slot: int) -> list[list[int]]:
        """Sub-components of (component of slot) minus the ball itself,
        computed without mutating.  Every sub-component is adjacent to the
        removed ball, so graph search from its neighbors (avoiding it) finds
        them all; their count m gives the re-insertion increment 1 - m."""
        adj = self.adj
        seen = {slot}
        groups: list[list[int]] = []
        for start in adj[slot]:
            if start in seen:
                continue
            group = [start]
            seen.add(start)
            stack = [start]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        group.append(w)
                        stack.append(w)
            groups.append(group)
        return groups

    def apply_removal(self, slot: int, groups: list[list[int]]) -> None:
        """Commit a removal previously analyzed by removal_split.  Call after
        deleting the slot from the configuration."""
        for j in self.adj.pop(slot):
            self.adj[j].remove(slot)
        self.parent[slot] = slot
        for grp in groups:
            head = grp[0]
            for i in grp:
                self.parent[i] = head
        self.n_components += len(groups) - 1


# ---------------------------------------------------------------------------
# Component counting and local counts
# ---------------------------------------------------------------------------


def count_components(cfg: Configuration) -> int:
    """Number of connected components of the ball intersection graph."""
    return components(*_arrays(cfg))[0]


def _ncc_outside(centers: np.ndarray, radii: np.ndarray, box: Box) -> int:
    """Component count of the balls whose centers lie outside `box`."""
    keep = ~box.contains_points(centers)
    return components(centers[keep], radii[keep])[0]


def local_count(centers: np.ndarray, radii: np.ndarray, box: Box) -> int:
    """Limit of the local component count of `box`: ncc(all balls) minus
    ncc(balls centered outside the box)."""
    return components(centers, radii)[0] - _ncc_outside(centers, radii, box)


@dataclass
class LocalCCResult:
    """Stabilized local component count and the box witnessing stabilization."""

    value: int
    stabilization_box: Box


def _probe_levels(centers: np.ndarray, box: Box, step: float) -> np.ndarray:
    """Smallest k with each center in dilate(box, k * step), decided by the
    same floating-point comparisons as Box.contains_points on that probe."""

    def inside(k):
        r = (k * step)[:, None]
        return np.all(centers >= box.lo - r, axis=1) & np.all(centers <= box.hi + r, axis=1)

    gap = np.maximum(np.maximum(box.lo - centers, centers - box.hi), 0.0)
    # start one below the estimate (rounding may push it one too high) and
    # step up to the first level that passes the exact test
    k = np.maximum(np.ceil(np.max(gap, axis=1) / step) - 1, 0).astype(np.int64)
    while True:
        short = ~inside(k)
        if not short.any():
            return k
        k += short


def _counts_by_level(levels: np.ndarray, i: np.ndarray, j: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Component count of the balls with level <= k, for each k of the sorted
    array ks, from one union-find pass adding pairs as both ends appear.
    Balls with a level above ks[-1] never appear."""
    nk = ks.size
    ball_at = np.searchsorted(ks, levels)
    edge_at = np.maximum(ball_at[i], ball_at[j])
    merged = np.zeros(nk + 1, dtype=np.int64)
    parent = list(range(levels.size))
    order = np.argsort(edge_at, kind="stable")
    for a, b, at in zip(i[order].tolist(), j[order].tolist(), edge_at[order].tolist()):
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[b] = a
            merged[at] += 1
    added = np.bincount(ball_at, minlength=nk + 1)
    return np.cumsum(added[:nk]) - np.cumsum(merged[:nk])


def local_cc(cfg: Configuration, box: Box, step: Optional[float] = None) -> LocalCCResult:
    """Local number of connected components attached to `box`.

    c(D) = ncc(balls in D) - ncc(balls in D minus box) along the probe boxes
    D_k = dilate(box, k * step), k = 0, 1, ...; returns the limiting value
    and the first probe box from which c stays constant.  Every ball enters
    the probes at one level, so one union-find pass per sequence (all balls,
    balls centered outside the box) in order of entry gives every c(D_k).
    """
    if not cfg.window.contains_box(box):
        raise LambdaNotInWindow("probe box must sit inside the window")
    if not cfg.n:
        return LocalCCResult(0, box)
    centers, radii = _arrays(cfg)
    if step is None:
        step = max(1.0, float(np.max(radii)))
    elif not step > 0:
        raise ValueError("probe step must be positive")
    levels = _probe_levels(centers, box, step)
    i, j = intersecting_pairs(centers, radii)
    ks = np.unique(np.append(levels, 0))
    outside = np.where(levels > 0, levels, ks[-1] + 1)
    values = _counts_by_level(levels, i, j, ks) - _counts_by_level(outside, i, j, ks)
    moved = np.flatnonzero(values != values[-1])
    first = int(ks[moved[-1] + 1]) if moved.size else 0
    return LocalCCResult(int(values[-1]), dilate(box, first * step))


def cc_increment(
    cfg: Configuration,
    ball: MarkedBall,
    labeling: Optional[ClusterLabeling] = None,
) -> int:
    """Change in component count if `ball` were inserted: one minus the
    number of distinct components it touches.  At most +1 always."""
    if not cfg.window.contains_point(ball.center):
        raise ValueError("ball center outside window")
    if labeling is None:
        labeling = ClusterLabeling(cfg)
    delta, _ = labeling.insertion_increment(cfg, ball.center, ball.radius)
    return delta


def compatibility_offset(cfg: Configuration, inner: Box, outer: Box) -> int:
    """Difference of local component counts for nested boxes,
    local(outer) - local(inner) = ncc(balls centered outside inner) -
    ncc(balls centered outside outer); depends only on the balls outside the
    inner box."""
    if not outer.contains_box(inner):
        raise NestingViolation("inner box must sit inside outer box")
    if not cfg.window.contains_box(outer):
        raise NestingViolation("outer box must sit inside the window")
    centers, radii = _arrays(cfg)
    return _ncc_outside(centers, radii, inner) - _ncc_outside(centers, radii, outer)


@dataclass
class BoundsReport:
    upper_ok: bool
    lower_ok: bool
    k_const: float
    lower_vacuous: bool
    value: int


def check_bounds(cfg: Configuration, box: Box, r0: float) -> BoundsReport:
    """Audit the two explicit bounds on the local component count.

    Upper: at most the number of centers in the box.  Lower: at least
    K - (centers in the dilated annulus), K = 1 - |box + B(0, r0+2)| / v_d,
    valid when every ball centered in the box has radius <= r0 (else the
    lower check is vacuous and flagged).
    """
    value = local_cc(cfg, box).value
    centers, radii = _arrays(cfg)
    inside = box.contains_points(centers)
    n_in = int(np.count_nonzero(inside))
    big = dilate(box, r0 + 2.0)
    k_const = 1.0 - big.volume / unit_ball_volume(cfg.window.dimension)
    vacuous = bool(np.any(radii[inside] > r0))
    annulus = int(np.count_nonzero(big.contains_points(centers))) - n_in
    lower_ok = vacuous or value >= k_const - annulus
    return BoundsReport(value <= n_in, lower_ok, k_const, vacuous, value)


# ---------------------------------------------------------------------------
# Component statistics
# ---------------------------------------------------------------------------


def far_left_slot(cfg: Configuration, members: list[int]) -> int:
    """Ball of a component with minimal first coordinate; ties broken by the
    remaining coordinates, then radius, then slot id."""
    def key(slot):
        return (*[float(v) for v in cfg.centers[slot]], float(cfg.radii[slot]), slot)

    return min(members, key=key)


@dataclass
class ComponentStats:
    sizes: list[int]
    largest_size: int
    largest_volume_fraction: float
    spanning: bool
    leftmost_slots: list[int]


def component_stats(cfg: Configuration, grid_per_axis: int = 48) -> ComponentStats:
    """Sizes, largest-component volume fraction (grid probe), spanning
    indicator, and the far-left ball of each component."""
    if cfg.n == 0:
        return ComponentStats([], 0, 0.0, False, [])
    comps = sorted(component_members(cfg), key=len, reverse=True)
    sizes = [len(c) for c in comps]
    leftmost = [far_left_slot(cfg, c) for c in comps]

    largest = comps[0]
    w = cfg.window
    d = w.dimension
    axes = [np.linspace(w.lo[k], w.hi[k], grid_per_axis) for k in range(d)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    covered = np.zeros(len(pts), dtype=bool)
    for slot in largest:
        diff = pts - cfg.centers[slot]
        r = cfg.radii[slot]
        covered |= np.einsum("ij,ij->i", diff, diff) <= r * r
    frac = float(np.mean(covered))

    spanning = False
    for comp in comps:
        ids = np.asarray(comp, dtype=np.intp)
        lo_touch = cfg.centers[ids] - cfg.radii[ids][:, None] <= w.lo
        hi_touch = cfg.centers[ids] + cfg.radii[ids][:, None] >= w.hi
        if np.any(np.any(lo_touch, axis=0) & np.any(hi_touch, axis=0)):
            spanning = True
            break
    return ComponentStats(sizes, sizes[0], frac, spanning, leftmost)
