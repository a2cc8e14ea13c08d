"""Euclidean primitives: axis-aligned boxes and a grid index for "which
balls can intersect this ball" queries under wildly mixed radii."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in dimension d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box [lo_1,hi_1] x ... x [lo_d,hi_d]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lo and hi must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("need lo <= hi in every coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self) -> int:
        return self.lo.size

    # cached on first use, so constructing a Box stays cheap
    @cached_property
    def sides(self) -> np.ndarray:
        sides = self.hi - self.lo
        sides.flags.writeable = False
        return sides

    @cached_property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    @cached_property
    def _axes(self) -> list[tuple[float, float, float]]:
        """(lo, hi, side) of each axis as Python floats, for one-point work."""
        return list(zip(self.lo.tolist(), self.hi.tolist(), self.sides.tolist()))

    def contains_point(self, x) -> bool:
        """Whether the point x lies in the box; ValueError unless x has the
        box's dimension."""
        axes = self._axes
        if len(x) != len(axes):
            raise ValueError(f"point needs {len(axes)} coordinates")
        for (lo, hi, _), v in zip(axes, x):
            if not lo <= v <= hi:
                return False
        return True

    def contains_points(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (n, d) array of points."""
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return np.zeros(0, dtype=bool)
        return (xs >= self.lo).all(axis=1) & (xs <= self.hi).all(axis=1)

    def contains_ball(self, center: np.ndarray, radius):
        """Whether B(center, radius) lies in the box; an (n, d) array of
        centers with n radii gives a boolean array."""
        center = np.asarray(center, dtype=float)
        r = np.asarray(radius, dtype=float)[..., None]
        inside = np.all((center - r >= self.lo) & (center + r <= self.hi), axis=-1)
        return bool(inside) if inside.ndim == 0 else inside

    def contains_box(self, other: "Box") -> bool:
        return bool((other.lo >= self.lo).all() and (other.hi <= self.hi).all())

    def distance_to_point(self, x: np.ndarray):
        """Euclidean distance from x to the box (0 inside); an (n, d) array of
        points gives an array of n distances."""
        x = np.asarray(x, dtype=float)
        gaps = np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0)
        dist = np.sqrt(np.sum(gaps * gaps, axis=-1))
        return float(dist) if x.ndim == 1 else dist

    def sample_point(self, rng: np.random.Generator) -> tuple[float, ...]:
        """Uniform point as a tuple of floats: the draws and values of
        sample_points(rng, 1)[0]."""
        return tuple([lo + rng.random() * side for lo, _, side in self._axes])

    def sample_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.lo + rng.random((n, self.dimension)) * self.sides

    def __repr__(self):
        lo = ",".join(repr(float(v)) for v in self.lo)
        hi = ",".join(repr(float(v)) for v in self.hi)
        return f"Box([{lo}], [{hi}])"


def centered_box(half_side: float, d: int) -> Box:
    """The cube [-a, a]^d."""
    a = float(half_side)
    return Box(np.full(d, -a), np.full(d, a))


def dilate(box: Box, r: float) -> Box:
    """Box grown by r on every face; contains the Minkowski sum with B(0,r)."""
    if r < 0:
        raise ValueError("dilation radius must be nonnegative")
    return Box(box.lo - r, box.hi + r)


class SpatialIndex:
    """Uniform grid over ball centers with an overflow list for oversized balls.

    Every ball is stored either in the grid cell containing its center
    (radius <= cell size) or in a flat overflow list scanned on every query.
    `balls` holds each stored ball's center and radius as Python floats, so
    one-ball queries need no array arithmetic; it is a Configuration's only
    store of its balls.  `keys` holds each grid ball's cell key, so removal
    finds its bucket without recomputing the key.  Queries read a superset
    of the true intersectors of the query ball, with no duplicates.
    """

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size = float(cell_size)
        self.cells: dict[tuple, list[int]] = {}
        self.oversized: list[int] = []
        self.balls: dict[int, tuple[tuple[float, ...], float]] = {}
        self.keys: dict[int, tuple] = {}
        # largest radius ever stored in a cell; never lowered, so it bounds
        # every grid radius after removals too
        self.grid_radius = 0.0

    def _key(self, center) -> tuple:
        cs = self.cell_size
        return tuple([math.floor(c / cs) for c in center])

    def _store(self, ball_id: int, center: tuple, radius: float) -> None:
        """File a ball given as floats: in the overflow list, or in the cell
        that its center selects."""
        if ball_id in self.balls:
            raise ValueError(f"id {ball_id} already stored")
        self.balls[ball_id] = (center, radius)
        if radius > self.cell_size:
            self.oversized.append(ball_id)
        else:
            key = self.keys[ball_id] = self._key(center)
            self.cells.setdefault(key, []).append(ball_id)
            if radius > self.grid_radius:
                self.grid_radius = radius

    def remove(self, ball_id: int) -> None:
        if self.balls.pop(ball_id)[1] > self.cell_size:
            self.oversized.remove(ball_id)
        else:
            key = self.keys.pop(ball_id)
            bucket = self.cells[key]
            bucket.remove(ball_id)
            if not bucket:
                del self.cells[key]

    def files_exactly(self, ids) -> bool:
        """Whether the stored balls are exactly `ids`, each filed once, in the
        grid bucket (radius within `grid_radius`) or the overflow list that
        its center and radius select, and each grid ball's kept key is the
        key of that bucket."""
        cs = self.cell_size
        filed = [(s, k) for k, bucket in self.cells.items() for s in bucket]
        filed += [(s, None) for s in self.oversized]
        select = {s: None if r > cs else self._key(c) for s, (c, r) in self.balls.items()}
        return (self.balls.keys() == set(ids) and len(filed) == len(select)
                and set(filed) == set(select.items())
                and self.keys == {s: k for s, k in select.items() if k is not None}
                and all(r <= self.grid_radius or r > cs for _, r in self.balls.values()))

    def buckets(self, center, radius: float) -> list:
        """The stored buckets a query for B(center, radius) reads, which
        together hold each ball that may intersect it exactly once: the
        overflow list, then the grid cells within reach in
        `itertools.product` order, or `balls` alone when there are fewer
        balls than those cells.  The buckets are the index's own, so read
        them before the next insert or removal.

        Sound because grid-stored balls have radius <= grid_radius: their
        centers lie within radius + grid_radius of the query center.  The
        reach is widened by 1e-12 of the query's scale, since a float
        distance test can count a ball a few ulps farther away.
        """
        if not self.balls:
            return []
        reach = radius + self.grid_radius
        reach += 1e-12 * (reach + max(map(abs, center)))
        cs = self.cell_size
        ranges = []
        n_cells = 1
        for c in center:
            a = math.floor((c - reach) / cs)
            b = math.floor((c + reach) / cs)
            n_cells *= b - a + 1
            if n_cells >= len(self.balls):  # fewer balls than cells: take them all
                return [self.balls]
            ranges.append(range(a, b + 1))
        out = [self.oversized]
        out += filter(None, map(self.cells.get, itertools.product(*ranges)))
        return out

    def candidates(self, center, radius: float) -> list[int]:
        """Ids of stored balls that may intersect B(center, radius): the
        contents of `buckets`, in order."""
        return list(itertools.chain.from_iterable(self.buckets(center, radius)))


def default_cell_size(window: Box, median_radius: float) -> float:
    """2 x median radius, clamped below by (shortest window side)/64."""
    floor = float(np.min(window.sides)) / 64.0
    if floor <= 0:
        floor = 1e-9
    return max(2.0 * float(median_radius), floor)
