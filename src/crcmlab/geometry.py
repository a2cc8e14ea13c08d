"""Euclidean primitives: axis-aligned boxes, marked balls, and a grid index
for "which balls can intersect this ball" queries under wildly mixed radii."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

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

    @property
    def sides(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    def contains_point(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool((x >= self.lo).all() and (x <= self.hi).all())

    def contains_points(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (n, d) array of points."""
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return np.zeros(0, dtype=bool)
        return (xs >= self.lo).all(axis=1) & (xs <= self.hi).all(axis=1)

    def contains_ball(self, center: np.ndarray, radius: float) -> bool:
        center = np.asarray(center, dtype=float)
        return bool(
            np.all(center - radius >= self.lo) and np.all(center + radius <= self.hi)
        )

    def contains_box(self, other: "Box") -> bool:
        return bool((other.lo >= self.lo).all() and (other.hi <= self.hi).all())

    def distance_to_point(self, x: np.ndarray) -> float:
        """Euclidean distance from x to the box (0 inside)."""
        x = np.asarray(x, dtype=float)
        gaps = np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0)
        return float(np.sqrt(np.sum(gaps * gaps)))

    def sample_point(self, rng: np.random.Generator) -> np.ndarray:
        return self.lo + rng.random(self.dimension) * self.sides

    def sample_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.lo + rng.random((n, self.dimension)) * self.sides

    def translate(self, v: np.ndarray) -> "Box":
        v = np.asarray(v, dtype=float)
        return Box(self.lo + v, self.hi + v)

    def __repr__(self):
        lo = ",".join(repr(float(v)) for v in self.lo)
        hi = ",".join(repr(float(v)) for v in self.hi)
        return f"Box([{lo}], [{hi}])"


def centered_box(half_side: float, d: int) -> Box:
    """The cube [-a, a]^d."""
    a = float(half_side)
    return Box(np.full(d, -a), np.full(d, a))


@dataclass(frozen=True, eq=False)
class MarkedBall:
    """A germ (center) with a grain radius, optionally a color in {1..q}."""

    center: np.ndarray
    radius: float
    color: Optional[int] = None

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if not np.all(np.isfinite(c)):
            raise ValueError("center must be finite")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dimension(self) -> int:
        return self.center.size


def balls_intersect(a: MarkedBall, b: MarkedBall) -> bool:
    """Closed-ball intersection: tangency counts."""
    diff = a.center - b.center
    rsum = a.radius + b.radius
    return bool(diff @ diff <= rsum * rsum)


def dilate(box: Box, r: float) -> Box:
    """Box grown by r on every face; contains the Minkowski sum with B(0,r)."""
    if r < 0:
        raise ValueError("dilation radius must be nonnegative")
    return Box(box.lo - r, box.hi + r)


class SpatialIndex:
    """Uniform grid over ball centers with an overflow list for oversized balls.

    Every ball is stored either in the grid cell containing its center
    (radius <= oversize threshold) or in a flat overflow list scanned on every
    query.  Queries return a superset of the true intersectors of the query
    ball, with no duplicates.
    """

    def __init__(self, cell_size: float, oversize_threshold: Optional[float] = None):
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size = float(cell_size)
        self.oversize_threshold = (
            self.cell_size if oversize_threshold is None else float(oversize_threshold)
        )
        self.cells: dict[tuple, list[int]] = {}
        self.oversized: list[int] = []
        self._where: dict[int, Optional[tuple]] = {}  # id -> cell key, None if oversized

    def __len__(self) -> int:
        return len(self._where)

    def _key(self, center: np.ndarray) -> tuple:
        cs = self.cell_size
        return tuple(math.floor(c / cs) for c in center)

    def insert(self, ball_id: int, center: np.ndarray, radius: float) -> None:
        if ball_id in self._where:
            raise ValueError(f"id {ball_id} already stored")
        if radius > self.oversize_threshold:
            self.oversized.append(ball_id)
            self._where[ball_id] = None
        else:
            key = self._key(center)
            self.cells.setdefault(key, []).append(ball_id)
            self._where[ball_id] = key

    def insert_many(self, ids, centers: np.ndarray, radii: np.ndarray) -> None:
        """Insert several balls; the same buckets, in the same order, as
        calling `insert` for each in turn."""
        where, cells = self._where, self.cells
        keys = np.floor(centers / self.cell_size).astype(np.int64).tolist()
        wide = (radii > self.oversize_threshold).tolist()
        for ball_id, key, is_wide in zip(ids, keys, wide):
            if ball_id in where:
                raise ValueError(f"id {ball_id} already stored")
            if is_wide:
                self.oversized.append(ball_id)
                where[ball_id] = None
            else:
                key = tuple(key)
                cells.setdefault(key, []).append(ball_id)
                where[ball_id] = key

    def remove(self, ball_id: int) -> None:
        key = self._where.pop(ball_id)
        if key is None:
            self.oversized.remove(ball_id)
        else:
            bucket = self.cells[key]
            bucket.remove(ball_id)
            if not bucket:
                del self.cells[key]

    def all_ids(self) -> list[int]:
        return list(self._where)

    def candidates(self, center: np.ndarray, radius: float) -> list[int]:
        """Ids of stored balls that may intersect B(center, radius).

        Sound because grid-stored balls have radius <= oversize threshold:
        their centers lie within radius + threshold of the query center.
        """
        if not self._where:
            return []
        reach = radius + self.oversize_threshold
        cs = self.cell_size
        ranges = []
        n_cells = 1
        for c in center:
            a = math.floor((c - reach) / cs)
            b = math.floor((c + reach) / cs)
            n_cells *= b - a + 1
            if n_cells >= len(self._where):
                return self.all_ids()
            ranges.append(range(a, b + 1))
        out = list(self.oversized)
        cells = self.cells
        for key in itertools.product(*ranges):
            bucket = cells.get(key)
            if bucket:
                out.extend(bucket)
        return out


def neighbor_candidates(index: SpatialIndex, ball: MarkedBall) -> list[int]:
    """Superset of the ids of stored balls intersecting `ball`."""
    return index.candidates(ball.center, ball.radius)


def default_cell_size(window: Box, median_radius: float) -> float:
    """2 x median radius, clamped below by (shortest window side)/64."""
    floor = float(np.min(window.sides)) / 64.0
    if floor <= 0:
        floor = 1e-9
    return max(2.0 * float(median_radius), floor)
