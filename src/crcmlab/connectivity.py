"""Connected components of ball configurations: one array kernel for every
from-scratch count, per-ball component ids with cheap local repair after
deletions for chain moves, the stabilized local component count, single-ball
increments, and the explicit upper/lower bounds on it."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .geometry import Box, dilate, unit_ball_volume

if TYPE_CHECKING:
    from .model_core import Configuration


class LambdaNotInWindow(ValueError):
    pass


class NestingViolation(ValueError):
    pass


# ---------------------------------------------------------------------------
# Array kernel: intersecting pairs and component labels
# ---------------------------------------------------------------------------

_DENSE_MAX = 72  # balls: one n x n pass up to here, the strip sweep beyond (sparse crossover)
_UNION_FIND_MAX = 256  # nodes + pairs: Python union-find up to here, csgraph beyond
_OVERSIZE = 4.0  # balls wider than this many median radii skip the sweep: whole-group scan
_STRIPS_MAX = 2**40  # strips of one sweep, so strip ids and sort keys stay exact in a float


def _walk(key: np.ndarray, start: np.ndarray, top: np.ndarray, rows: list, cols: list) -> None:
    """Append every (p, q) with q = start[p], start[p] + 1, ... while
    key[q] <= top[p]; `key` is sorted and ends in +inf.  Each round keeps
    its survivors, in order, by their indices (`nonzero`) and integer
    gathers: on large rounds a fraction of the cost of a boolean-mask
    selection."""
    p = np.arange(start.size)
    q = start
    while p.size:
        hit = (key[q] <= top[p]).nonzero()[0]
        p, q = p.take(hit), q.take(hit)
        rows.append(p)
        cols.append(q)
        q = q + 1


def _sweep_candidates(
    pts: np.ndarray, reach: float, groups: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs, each once, that include every pair of one group at most
    `reach` apart.  Coordinates 2..d are cut into cells of side >= reach,
    padded by one empty cell per axis, and each group gets its own block of
    these strips.  One sort by strip * width + x lines the balls up so that a
    ball's partners lie ahead of it in its own strip within reach of its x,
    or within reach of its x in a lexicographically later neighbour strip,
    whose start is found by `searchsorted`."""
    n, d = pts.shape
    lo = np.array([col.min() for col in pts.T])  # per column: much faster than axis=0
    span = np.array([col.max() for col in pts.T]) - lo
    rank = np.zeros(n, dtype=np.int64)  # group ids as 0, 1, 2, ...
    if groups is not None:
        rank[1:] = np.cumsum(groups[1:] != groups[:-1])
    n_groups = int(rank[-1]) + 1
    # at most `cap` cells per axis keep n_groups * (cap + 3)^(d-1) strips in range
    cap = max(1, int((_STRIPS_MAX / n_groups) ** (1.0 / max(d - 1, 1))) - 3)
    strip = np.zeros(n, dtype=np.int64)
    blocks, ahead, around = 1, [], [0]  # strip offsets: later neighbours, all neighbours
    for k in range(d - 1, 0, -1):  # the last axis varies fastest
        side = max(reach, span[k] / cap) or 1.0
        cell = np.floor((pts[:, k] - lo[k]) / side).astype(np.int64) + 1
        strip += cell * blocks
        ahead += [blocks + o for o in around]
        around = [o + m * blocks for m in (-1, 0, 1) for o in around]
        blocks *= int(cell.max()) + 2
    strip += rank * blocks
    width = 2.0 * (span[0] + 2.0 * reach) + np.finfo(float).tiny  # x +- reach never leaves a strip
    key = strip * width + (pts[:, 0] - lo[0])
    order = np.argsort(key)
    key = np.append(key[order], np.inf)
    slack = reach + 8.0 * np.spacing(float(key[-2]) + width)  # rounding of the keys and shifts
    rows: list = []
    cols: list = []
    _walk(key, np.arange(1, n + 1), key[:n] + slack, rows, cols)
    for off in ahead:
        start = np.searchsorted(key, key[:n] + (off * width - slack), "left")
        _walk(key, start, key[:n] + (off * width + slack), rows, cols)
    return order[np.concatenate(rows)], order[np.concatenate(cols)]


def _oversize_candidates(
    big: np.ndarray, groups: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs, each once, of every ball flagged `big` with every other
    ball of its group (of all balls without `groups`)."""
    n = big.size
    wide = np.flatnonzero(big)
    if groups is None:
        lo, hi = np.zeros_like(wide), np.full_like(wide, n)
    else:
        lo = np.searchsorted(groups, groups[wide], "left")
        hi = np.searchsorted(groups, groups[wide], "right")
    rows = np.repeat(wide, hi - lo)
    cols = np.arange(rows.size) + np.repeat(lo - np.cumsum(hi - lo) + (hi - lo), hi - lo)
    keep = ((cols != rows) & ~(big[cols] & (cols < rows))).nonzero()[0]  # each pair once
    return rows.take(keep), cols.take(keep)


def intersecting_pairs(
    centers: np.ndarray, radii: np.ndarray, groups: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i < j, sorted by i then j) of closed balls that meet:
    |c_i - c_j|^2 <= (r_i + r_j)^2, so tangency counts.  With `groups` (a
    nondecreasing group id per ball) only pairs inside one group count.

    Small inputs take one dense pass.  Large ones get candidates from a
    sorted strip sweep (`_sweep_candidates`) at twice the largest ordinary
    radius, with balls above `_OVERSIZE` median radii checked against their
    whole group.  The median is at least the smallest radius, so when
    r_max <= `_OVERSIZE` r_min every ball is ordinary and the sweep runs on
    `centers` as given, with no median taken.  The exact test above decides
    every candidate; one sort of the keys i * n + j orders the pairs."""
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
    r_max = float(radii.max())
    if r_max <= _OVERSIZE * float(radii.min()):  # no radius tops _OVERSIZE medians
        big = None
        pts, sub = centers, groups
    else:
        big = radii > _OVERSIZE * float(np.median(radii))
        small = np.flatnonzero(~big)
        pts = np.take(centers, small, axis=0)
        r_max = float(radii.take(small).max())
        sub = None if groups is None else groups.take(small)
    reach = 2.0 * r_max
    # rounding slack only; the 1e-150 floor covers pairs whose squares underflow
    reach += 1e-9 * (reach + float(np.abs(pts).max())) + 1e-150
    i, j = _sweep_candidates(pts, reach, sub)
    if big is not None:
        i, j = small.take(i), small.take(j)
        if small.size < n:
            a, b = _oversize_candidates(big, groups)
            i, j = np.concatenate([i, a]), np.concatenate([j, b])
    # np.take and integer indices: several times faster than centers[i] and boolean masks
    diff = np.take(centers, i, axis=0) - np.take(centers, j, axis=0)
    rsum = radii.take(i) + radii.take(j)
    hit = (np.einsum("ij,ij->i", diff, diff) <= rsum * rsum).nonzero()[0]
    i, j = i.take(hit), j.take(hit)
    key = np.sort(np.minimum(i, j) * n + np.maximum(i, j))  # one value per pair, i < j
    i = key // n
    return i, key - i * n


def label_components(n: int, i: np.ndarray, j: np.ndarray) -> tuple[int, np.ndarray]:
    """Components of the graph on n nodes with edges (i, j): their number and
    a label per node, numbered 0, 1, ... in order of first appearance.  The
    edges come with `i` nondecreasing, as `intersecting_pairs` returns them
    (ValueError otherwise), so large graphs go to csgraph as a CSR matrix
    whose row pointer is the running count of each row's edges."""
    if not i.size:
        return n, np.arange(n)
    if (i[1:] < i[:-1]).any():
        raise ValueError("edges must be sorted by their first node")
    if n + i.size > _UNION_FIND_MAX:
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(i, minlength=n), out=indptr[1:])
        graph = csr_matrix((np.ones(i.size), j, indptr), shape=(n, n))
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


def label_any(labels: np.ndarray, flags: np.ndarray, count: int) -> np.ndarray:
    """Per component label 0..count-1: whether any of its balls is flagged."""
    return np.bincount(labels, weights=flags, minlength=count) > 0


# ---------------------------------------------------------------------------
# Component labeling
# ---------------------------------------------------------------------------


class ClusterLabeling:
    """Component id per configuration slot plus the intersection graph:
    `label` maps each active slot to its component's id, `members` each id
    to its slots, and ids come from a counter, never reused.  Removal
    re-searches only the deleted ball's component along the adjacency lists,
    with no geometry queries, and relabels only the parts split off."""

    def __init__(self, cfg: Configuration):
        self.rebuild(cfg)

    def rebuild(self, cfg: Configuration) -> None:
        """Recompute labeling and adjacency from scratch."""
        ids = cfg.active_ids()
        self.adj: dict[int, list[int]] = {i: [] for i in ids}
        a = b = np.zeros(0, dtype=np.intp)  # fewer than two balls have no pairs to search for
        if len(ids) > 1:
            a, b = intersecting_pairs(*cfg.arrays()[:2])
        for i, j in zip(a.tolist(), b.tolist()):
            i, j = ids[i], ids[j]
            self.adj[i].append(j)
            self.adj[j].append(i)
        count, labels = label_components(len(ids), a, b)
        self.label: dict[int, int] = dict(zip(ids, labels.tolist()))
        self.members: dict[int, set[int]] = {c: set() for c in range(count)}
        for i, c in self.label.items():
            self.members[c].add(i)
        self._ids = itertools.count(count)

    @property
    def n_components(self) -> int:
        return len(self.members)

    def component_sizes(self) -> dict[int, int]:
        return {c: len(m) for c, m in self.members.items()}

    def labels_exactly(self, cfg: Configuration) -> bool:
        """Whether the labeled slots are the active slots of `cfg`, `members`
        inverts `label`, and the ids split the balls as `components` does."""
        ids = cfg.active_ids()
        by_id: dict[int, set[int]] = {}
        for i, c in self.label.items():
            by_id.setdefault(c, set()).add(i)
        count, labels = components(*cfg.arrays()[:2])
        pairs = set(zip(map(self.label.get, ids), labels.tolist()))
        return (self.label.keys() == set(ids) and by_id == self.members
                and len(pairs) == len(by_id) == count)

    # -- incremental updates -------------------------------------------------

    def insertion_increment(self, cfg: Configuration, center, radius) -> tuple[int, list[int]]:
        """Component-count change if B(center, radius) were added, plus the
        slots it would intersect.  Does not mutate."""
        hits = cfg.intersectors(center, radius)
        return 1 - len({self.label[i] for i in hits}), hits

    def apply_insertion(self, slot: int, hits: list[int]) -> None:
        """Register `slot`, just added to the configuration and meeting `hits`
        (from insertion_increment), merging its components into the largest."""
        self.adj[slot] = list(hits)
        for j in hits:
            self.adj[j].append(slot)
        joined = {self.label[j] for j in hits}
        if len(joined) > 1:
            joined = sorted(joined, key=lambda c: len(self.members[c]))
        big = joined.pop() if joined else next(self._ids)  # the largest absorbs the rest
        into = self.members.setdefault(big, set())
        for c in joined:
            part = self.members.pop(c)
            into |= part
            for i in part:
                self.label[i] = big
        into.add(slot)
        self.label[slot] = big

    def removal_split(self, slot: int) -> list[list[int]]:
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
        """Commit a removal analyzed by removal_split, after deleting the slot
        from the configuration: the largest group keeps the component's id."""
        for j in self.adj.pop(slot):
            self.adj[j].remove(slot)
        cid = self.label.pop(slot)
        rest = self.members[cid]
        rest.discard(slot)
        if len(groups) > 1:  # a split: all but a largest group get new ids
            for grp in sorted(groups, key=len)[:-1]:
                rest.difference_update(grp)
                new = next(self._ids)
                self.members[new] = set(grp)
                for i in grp:
                    self.label[i] = new
        if not rest:
            del self.members[cid]


# ---------------------------------------------------------------------------
# Component counting and local counts
# ---------------------------------------------------------------------------


def count_components(cfg: Configuration) -> int:
    """Number of connected components of the ball intersection graph."""
    return components(*cfg.arrays()[:2])[0]


@dataclass(frozen=True)
class BallGraph:
    """Balls and their intersecting pairs, found once: the component count of
    any subset of the balls reads the pairs with both ends in it."""

    centers: np.ndarray
    radii: np.ndarray
    i: np.ndarray
    j: np.ndarray

    @classmethod
    def of(cls, centers: np.ndarray, radii: np.ndarray) -> BallGraph:
        centers, radii = np.asarray(centers, dtype=float), np.asarray(radii, dtype=float)
        return cls(centers, radii, *intersecting_pairs(centers, radii))

    def count(self, keep: Optional[np.ndarray] = None) -> int:
        """Component count of the balls flagged `keep` (of all without it).
        Labels all balls through the pairs whose ends are both kept, a
        subsequence, so `i` stays nondecreasing; each dropped ball is then a
        component of its own, and their number comes off the count."""
        n = self.radii.size
        if keep is None:
            return label_components(n, self.i, self.j)[0]
        kept = (keep[self.i] & keep[self.j]).nonzero()[0]
        dropped = n - int(np.count_nonzero(keep))
        return label_components(n, self.i.take(kept), self.j.take(kept))[0] - dropped

    def outside(self, box: Box) -> int:
        """Component count of the balls whose centers lie outside `box`."""
        return self.count(~box.contains_points(self.centers))

    def local(self, box: Box) -> int:
        """Limit of the local component count of `box`: ncc(all balls) minus
        ncc(balls centered outside the box)."""
        return self.count() - self.outside(box)


@dataclass
class LocalCCResult:
    """Stabilized local component count and the box witnessing stabilization."""

    value: int
    stabilization_box: Box


def _probe_levels(centers: np.ndarray, box: Box, step: float) -> np.ndarray:
    """Smallest k with each center in dilate(box, k * step), decided by the
    same floating-point comparisons as Box.contains_points on that probe."""

    gap = np.maximum(np.maximum(box.lo - centers, centers - box.hi), 0.0)
    # start one below the estimate (rounding may push it one too high) and
    # step up to the first level that passes the exact test
    k = np.maximum(np.ceil(gap.max(axis=1) / step) - 1, 0).astype(np.int64)
    while True:
        r = (k * step)[:, None]
        short = ~((centers >= box.lo - r).all(axis=1) & (centers <= box.hi + r).all(axis=1))
        if not short.any():
            return k
        k += short


def local_cc(cfg: Configuration, box: Box, step: Optional[float] = None) -> LocalCCResult:
    """Local number of connected components attached to `box`, by probes.

    c(D) = ncc(balls in D) - ncc(balls in D minus box) along the probe boxes
    D_k = dilate(box, k * step), k = 0, 1, ..., with step max(1, largest
    radius) by default; a given step must be positive and finite.  Every
    ball enters the probes at one level, and c only changes at levels where
    a ball enters, so the component counts are read at those levels alone.
    Returns the limiting value and the first probe from which c stays
    constant, the witness of stabilization.
    """
    if not cfg.window.contains_box(box):
        raise LambdaNotInWindow("probe box must sit inside the window")
    if step is not None and not 0 < step < np.inf:
        raise ValueError("probe step must be positive and finite")
    graph = BallGraph.of(*cfg.arrays()[:2])
    if not graph.radii.size:
        return LocalCCResult(0, box)
    if step is None:
        step = max(1.0, float(np.max(graph.radii)))
    levels = _probe_levels(graph.centers, box, step)
    ks = np.unique(np.append(levels, 0))
    outside = levels > 0  # centered outside the box
    values = np.array([graph.count(levels <= k) - graph.count((levels <= k) & outside) for k in ks])
    moved = np.flatnonzero(values != values[-1])
    first = int(ks[moved[-1] + 1]) if moved.size else 0
    return LocalCCResult(int(values[-1]), dilate(box, first * step))


def compatibility_offset(graph: BallGraph, inner: Box, outer: Box, window: Box) -> int:
    """Difference of local component counts for nested boxes in `window`,
    local(outer) - local(inner) = ncc(balls centered outside inner) -
    ncc(balls centered outside outer); depends only on the balls outside the
    inner box."""
    if not outer.contains_box(inner):
        raise NestingViolation("inner box must sit inside outer box")
    if not window.contains_box(outer):
        raise NestingViolation("outer box must sit inside the window")
    return graph.outside(inner) - graph.outside(outer)


def local_floor(centers: np.ndarray, box: Box, r0: float) -> tuple[float, float]:
    """K and the lower bound K - (centers outside `box` within r0 + 2 of it)
    on the local component count of `box`, K = 1 - |box + B(0, r0 + 2)| / v_d,
    valid when every ball centered in the box has radius <= r0."""
    big = dilate(box, r0 + 2.0)
    k_const = 1.0 - big.volume / unit_ball_volume(box.dimension)
    near = big.contains_points(centers) & ~box.contains_points(centers)
    return k_const, k_const - int(np.count_nonzero(near))


def increment_c0(r_min: float, d: int) -> float:
    """c0 = (3 / r_min)^d: when every radius is at least r_min > 0, adding a
    ball of radius r changes the local component count by at least -c0 r^d."""
    if not r_min > 0:
        raise ValueError("law radii must be bounded below by r0 > 0")
    return (3.0 / r_min) ** d


@dataclass
class BoundsReport:
    upper_ok: bool
    lower_ok: bool
    k_const: float
    lower_vacuous: bool


def check_bounds(graph: BallGraph, window: Box, box: Box, r0: float) -> BoundsReport:
    """Audit the two explicit bounds on the local component count of the
    balls of `graph` in `window`.

    Upper: at most the number of centers in the box.  Lower: at least
    `local_floor`, valid when every ball centered in the box has radius
    <= r0 (else the lower check is vacuous and flagged).  Raises
    LambdaNotInWindow unless the box sits inside the window.
    """
    if not window.contains_box(box):
        raise LambdaNotInWindow("audited box must sit inside the window")
    inside = box.contains_points(graph.centers)
    value = graph.local(box)
    k_const, floor = local_floor(graph.centers, box, r0)
    vacuous = bool(np.any(graph.radii[inside] > r0))
    upper_ok = value <= int(np.count_nonzero(inside))
    return BoundsReport(upper_ok, vacuous or value >= floor, k_const, vacuous)
