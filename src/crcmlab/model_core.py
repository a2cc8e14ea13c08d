"""Radius laws, ball configurations, and exact sampling of the Poisson
Boolean reference process on a bounded window."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np
from scipy import integrate

from .geometry import (
    Box,
    MarkedBall,
    SpatialIndex,
    default_cell_size,
    dilate,
    unit_ball_volume,
)

INFINITE = math.inf


class NonIntegrableWithoutTruncation(ValueError):
    """Raised when an operation needs a finite radius tail but none exists."""


# ---------------------------------------------------------------------------
# Radius laws
# ---------------------------------------------------------------------------


class RadiusLaw:
    """Distribution of grain radii with the analytic metadata the lab needs:
    support bounds, moments, tail integrals, and inverse-CDF sampling."""

    bounded_support: bool
    min_radius: float
    max_radius: float  # math.inf when unbounded

    def finite_d_moment(self, d: int) -> bool:
        return math.isfinite(self.moment(d))

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        raise NotImplementedError

    def sample_scalar(self, rng: np.random.Generator) -> float:
        return float(self.sample(rng, size=()))

    def moment(self, k: float) -> float:
        """Integral of R^k against the law (may be INFINITE)."""
        raise NotImplementedError

    def integrate(self, f: Callable[[float], float]) -> float:
        """Integral of f(R) against the law, by quadrature unless atomic."""
        return self.integrate_tail(f, 0.0)

    def integrate_tail(self, f: Callable[[float], float], lower: float) -> float:
        """Integral of f(R) over radii strictly above `lower`."""
        raise NotImplementedError

    def tail_mass(self, r: float) -> float:
        """Probability of a radius strictly above r."""
        return self.integrate_tail(lambda _: 1.0, r)

    def median(self) -> float:
        return self.quantile(0.5)

    def quantile(self, p: float) -> float:
        raise NotImplementedError

    def descriptor(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.descriptor()


@dataclass(frozen=True, eq=False)
class DiracRadius(RadiusLaw):
    """All grains share one radius."""

    r0: float

    def __post_init__(self):
        if self.r0 < 0:
            raise ValueError("radius must be nonnegative")
        object.__setattr__(self, "bounded_support", True)
        object.__setattr__(self, "min_radius", float(self.r0))
        object.__setattr__(self, "max_radius", float(self.r0))

    def sample(self, rng, size=None):
        if size is None:
            size = ()
        return np.full(size, self.r0, dtype=float)

    def moment(self, k):
        return float(self.r0**k)

    def integrate_tail(self, f, lower):
        return float(f(self.r0)) if self.r0 > lower else 0.0

    def quantile(self, p):
        return float(self.r0)

    def descriptor(self):
        return f"dirac:{self.r0!r}"


@dataclass(frozen=True, eq=False)
class UniformRadius(RadiusLaw):
    """Radius uniform on [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 <= self.a < self.b):
            raise ValueError("need 0 <= a < b")
        object.__setattr__(self, "bounded_support", True)
        object.__setattr__(self, "min_radius", float(self.a))
        object.__setattr__(self, "max_radius", float(self.b))

    def sample(self, rng, size=None):
        if size is None:
            size = ()
        return self.a + (self.b - self.a) * rng.random(size)

    def moment(self, k):
        return (self.b ** (k + 1) - self.a ** (k + 1)) / ((k + 1) * (self.b - self.a))

    def integrate_tail(self, f, lower):
        lo = max(self.a, lower)
        if lo >= self.b:
            return 0.0
        val, _ = integrate.quad(f, lo, self.b, limit=200)
        return val / (self.b - self.a)

    def quantile(self, p):
        return self.a + p * (self.b - self.a)

    def descriptor(self):
        return f"uniform:{self.a!r},{self.b!r}"


@dataclass(frozen=True, eq=False)
class ParetoRadius(RadiusLaw):
    """Density (d-1) R^{-d} on [1, inf): the non-integrable tail, whose
    d-moment diverges in dimension d."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be >= 2")
        object.__setattr__(self, "bounded_support", False)
        object.__setattr__(self, "min_radius", 1.0)
        object.__setattr__(self, "max_radius", INFINITE)

    def sample(self, rng, size=None):
        if size is None:
            size = ()
        u = rng.random(size)
        return (1.0 - u) ** (-1.0 / (self.dim - 1))

    def cdf(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r < 1.0, 0.0, 1.0 - r ** (1.0 - self.dim))

    def moment(self, k):
        # (dim-1) * int_1^inf R^{k-dim} dR
        if k >= self.dim - 1:
            return INFINITE
        return (self.dim - 1.0) / (self.dim - 1.0 - k)

    def integrate_tail(self, f, lower):
        lo = max(1.0, lower)
        dm = self.dim

        def integrand(r):
            return f(r) * (dm - 1.0) * r ** (-dm)

        val, _ = integrate.quad(integrand, lo, np.inf, limit=300)
        return val

    def quantile(self, p):
        return float((1.0 - p) ** (-1.0 / (self.dim - 1)))

    def descriptor(self):
        return f"pareto:{self.dim}"


@dataclass(frozen=True, eq=False)
class TruncatedParetoRadius(RadiusLaw):
    """The Pareto law conditioned on R <= r_max (renormalized)."""

    dim: int
    r_max: float

    def __post_init__(self):
        if self.dim < 2 or self.r_max <= 1.0:
            raise ValueError("need dimension >= 2 and r_max > 1")
        object.__setattr__(self, "bounded_support", True)
        object.__setattr__(self, "min_radius", 1.0)
        object.__setattr__(self, "max_radius", float(self.r_max))

    @property
    def _norm(self) -> float:
        return 1.0 - self.r_max ** (1.0 - self.dim)

    def sample(self, rng, size=None):
        if size is None:
            size = ()
        u = rng.random(size) * self._norm
        return (1.0 - u) ** (-1.0 / (self.dim - 1))

    def moment(self, k):
        dm, rm = self.dim, self.r_max
        if abs(k - (dm - 1.0)) < 1e-12:
            raw = (dm - 1.0) * math.log(rm)
        else:
            p = k - dm + 1.0
            raw = (dm - 1.0) * (rm**p - 1.0) / p
        return raw / self._norm

    def integrate_tail(self, f, lower):
        lo = max(1.0, lower)
        if lo >= self.r_max:
            return 0.0
        dm = self.dim

        def integrand(r):
            return f(r) * (dm - 1.0) * r ** (-dm)

        val, _ = integrate.quad(integrand, lo, self.r_max, limit=300)
        return val / self._norm

    def quantile(self, p):
        u = p * self._norm
        return float((1.0 - u) ** (-1.0 / (self.dim - 1)))

    def descriptor(self):
        return f"tpareto:{self.dim},{self.r_max!r}"


def parse_law(text: str) -> RadiusLaw:
    """Inverse of RadiusLaw.descriptor()."""
    name, _, args = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "dirac":
            return DiracRadius(float(args))
        if name == "uniform":
            a, b = (float(v) for v in args.split(","))
            return UniformRadius(a, b)
        if name == "pareto":
            return ParetoRadius(int(args))
        if name == "tpareto":
            dim, rmax = args.split(",")
            return TruncatedParetoRadius(int(dim), float(rmax))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad radius law {text!r}") from exc
    raise ValueError(f"unknown radius law {text!r}")


def sample_radius(law: RadiusLaw, rng: np.random.Generator) -> float:
    """One draw from the radius law."""
    return law.sample_scalar(rng)


def d_moment(law: RadiusLaw, d: int) -> float:
    """Integral of R^d against the law; INFINITE for the Pareto tail."""
    return law.moment(d)


# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------


@dataclass
class ModelParams:
    """Intensity z, cluster weight q, radius law, and window."""

    z: float
    q: float
    law: RadiusLaw
    window: Box

    def __post_init__(self):
        if self.z <= 0:
            raise ValueError("intensity z must be positive")
        if self.q <= 0:
            raise ValueError("cluster weight q must be positive")

    @property
    def dimension(self) -> int:
        return self.window.dimension

    @property
    def total_intensity(self) -> float:
        """Expected number of reference points in the window: z * |window|."""
        return self.z * self.window.volume

    @property
    def assumption_a(self) -> bool:
        """Partition function is finite: q >= 1 or the law has bounded support."""
        return self.q >= 1.0 or self.law.bounded_support


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


class Configuration:
    """Finite multiset of (colored) marked balls in a window, with a grid index.

    Slots are stable integer ids: removal frees a slot for reuse without
    renumbering survivors, so union-find labelings stay aligned.
    """

    def __init__(
        self,
        window: Box,
        cell_size: Optional[float] = None,
        colored: bool = False,
        capacity: int = 64,
    ):
        self.window = window
        self.colored = colored
        d = window.dimension
        if cell_size is None:
            cell_size = default_cell_size(window, float(np.min(window.sides)) / 32.0)
        self.centers = np.zeros((capacity, d), dtype=float)
        self.radii = np.zeros(capacity, dtype=float)
        self.colors = np.zeros(capacity, dtype=np.int64) if colored else None
        self.index = SpatialIndex(cell_size)
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        self._active: list[int] = []          # active slots, arbitrary order
        self._slot_pos = np.full(capacity, -1, dtype=np.int64)
        self.tags: dict = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_balls(
        cls,
        window: Box,
        balls: Iterable[MarkedBall],
        cell_size: Optional[float] = None,
        colored: Optional[bool] = None,
    ) -> "Configuration":
        balls = list(balls)
        if colored is None:
            colored = bool(balls) and balls[0].color is not None
        radii = np.array([b.radius for b in balls], dtype=float)
        if cell_size is None and balls:
            cell_size = default_cell_size(window, float(np.median(radii)))
        cfg = cls(window, cell_size=cell_size, colored=colored, capacity=max(8, len(balls)))
        centers = np.array([b.center for b in balls], dtype=float)
        cfg._fill(centers.reshape(-1, window.dimension), radii, [b.color for b in balls])
        return cfg

    @classmethod
    def from_arrays(
        cls,
        window: Box,
        centers: np.ndarray,
        radii: np.ndarray,
        colors: Optional[np.ndarray] = None,
        cell_size: Optional[float] = None,
    ) -> "Configuration":
        centers = np.asarray(centers, dtype=float).reshape(-1, window.dimension)
        radii = np.asarray(radii, dtype=float).reshape(-1)
        if cell_size is None:
            med = float(np.median(radii)) if radii.size else 0.0
            cell_size = default_cell_size(window, med)
        cfg = cls(
            window,
            cell_size=cell_size,
            colored=colors is not None,
            capacity=max(8, len(radii)),
        )
        cfg._fill(centers, radii, colors)
        return cfg

    def _fill(self, centers: np.ndarray, radii: np.ndarray, colors=None) -> None:
        """Bulk `add` into a new, empty configuration: slots 0..n-1 in input
        order, with the free list, slot positions and grid buckets the
        ball-by-ball build would leave."""
        n = radii.size
        if n == 0:
            return
        if not np.all(self.window.contains_points(centers)):
            raise ValueError("ball center outside window")
        if self.colored:
            if colors is None or any(c is None for c in colors):
                raise ValueError("colored configuration needs a color")
            self.colors[:n] = colors
        self.centers[:n] = centers
        self.radii[:n] = radii
        del self._free[-n:]
        self._active = list(range(n))
        self._slot_pos[:n] = np.arange(n)
        self.index.insert_many(range(n), self.centers[:n], self.radii[:n])

    # -- bookkeeping -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._active)

    def active_ids(self) -> list[int]:
        return self._active

    def _grow(self):
        old = self.radii.size
        new = old * 2
        self.centers = np.vstack([self.centers, np.zeros_like(self.centers)])
        self.radii = np.concatenate([self.radii, np.zeros(old)])
        if self.colors is not None:
            self.colors = np.concatenate([self.colors, np.zeros(old, dtype=np.int64)])
        self._slot_pos = np.concatenate([self._slot_pos, np.full(old, -1, dtype=np.int64)])
        self._free.extend(range(new - 1, old - 1, -1))

    def add(self, center: np.ndarray, radius: float, color: Optional[int] = None) -> int:
        if not self.window.contains_point(center):
            raise ValueError("ball center outside window")
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self.centers[slot] = center
        self.radii[slot] = radius
        if self.colored:
            if color is None:
                raise ValueError("colored configuration needs a color")
            self.colors[slot] = color
        self._slot_pos[slot] = len(self._active)
        self._active.append(slot)
        self.index.insert(slot, self.centers[slot], radius)
        return slot

    def remove(self, slot: int) -> None:
        pos = int(self._slot_pos[slot])
        if pos < 0:
            raise KeyError(f"slot {slot} not active")
        last = self._active[-1]
        self._active[pos] = last
        self._slot_pos[last] = pos
        self._active.pop()
        self._slot_pos[slot] = -1
        self.index.remove(slot)
        self._free.append(slot)

    def random_active(self, rng: np.random.Generator) -> int:
        return self._active[int(rng.integers(len(self._active)))]

    def ball(self, slot: int) -> MarkedBall:
        color = int(self.colors[slot]) if self.colored else None
        return MarkedBall(self.centers[slot].copy(), float(self.radii[slot]), color)

    def iter_balls(self) -> Iterable[MarkedBall]:
        for slot in self._active:
            yield self.ball(slot)

    def intersectors(self, center: np.ndarray, radius: float) -> list[int]:
        """Slots of stored balls whose closed ball meets B(center, radius)."""
        cand = self.index.candidates(center, radius)
        if not cand:
            return []
        if len(cand) <= 16:  # scalar loop beats array setup on tiny lists
            cs, rs = self.centers, self.radii
            out = []
            for j in cand:
                diff = cs[j] - center
                rsum = rs[j] + radius
                if diff @ diff <= rsum * rsum:
                    out.append(j)
            return out
        ids = np.asarray(cand, dtype=np.intp)
        diff = self.centers[ids] - center
        rsum = self.radii[ids] + radius
        mask = np.einsum("ij,ij->i", diff, diff) <= rsum * rsum
        return [int(i) for i in ids[mask]]

    def count_in(self, box: Box) -> int:
        """Number of ball centers in `box`."""
        if not self._active:
            return 0
        ids = np.asarray(self._active, dtype=np.intp)
        return int(np.count_nonzero(box.contains_points(self.centers[ids])))

    def _subset(self, slots, window: Box, shift=None, colored: bool = True) -> "Configuration":
        """New configuration of the given slots, in order, on `window`, with
        centers moved by `shift` if given."""
        ids = np.asarray(slots, dtype=np.intp)
        return Configuration.from_arrays(
            window,
            self.centers[ids] if shift is None else self.centers[ids] + shift,
            self.radii[ids],
            self.colors[ids] if self.colored and colored else None,
            cell_size=self.index.cell_size,
        )

    def restrict(self, box: Box) -> "Configuration":
        """New configuration keeping only balls with centers in `box`."""
        ids = np.asarray(self._active, dtype=np.intp)
        return self._subset(ids[box.contains_points(self.centers[ids])], self.window)

    def copy(self, drop_colors: bool = False) -> "Configuration":
        out = self._subset(self._active, self.window, colored=not drop_colors)
        out.tags = dict(self.tags)
        return out

    def bounding_box(self) -> Box:
        """Smallest box containing every ball (centers +- radii); the window
        is returned for an empty configuration."""
        if not self._active:
            return self.window
        ids = np.asarray(self._active, dtype=np.intp)
        r = self.radii[ids][:, None]
        return Box(
            np.min(self.centers[ids] - r, axis=0),
            np.max(self.centers[ids] + r, axis=0),
        )

    def translate(self, v: np.ndarray) -> "Configuration":
        v = np.asarray(v, dtype=float)
        return self._subset(self._active, self.window.translate(v), shift=v)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_poisson_boolean(params: ModelParams, rng: np.random.Generator) -> Configuration:
    """Exact draw of the Poisson ball process on the window: Poisson(z|W|)
    many i.i.d. uniform centers with i.i.d. radii."""
    n = int(rng.poisson(params.total_intensity))
    centers = params.window.sample_points(rng, n)
    radii = params.law.sample(rng, n)
    cell = default_cell_size(params.window, params.law.median())
    return Configuration.from_arrays(params.window, centers, radii, cell_size=cell)


def steiner_volume(box: Box, r: float) -> float:
    """Exact volume of box + B(0,r): sum over faces of elementary symmetric
    side products times unit-ball sections."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    sides = box.sides
    d = box.dimension
    # e[m] = elementary symmetric polynomial of degree m in the side lengths
    e = np.zeros(d + 1)
    e[0] = 1.0
    for s in sides:
        e[1:] = e[1:] + s * e[:-1]
    total = 0.0
    for m in range(d + 1):
        total += e[m] * unit_ball_volume(d - m) * r ** (d - m)
    return total


def expected_hits(target: Box, z: float, law: RadiusLaw) -> float:
    """Poisson parameter of the number of balls (centered anywhere in space)
    intersecting `target`; INFINITE exactly when the d-moment diverges."""
    d = target.dimension
    if not law.finite_d_moment(d):
        return INFINITE
    if isinstance(law, DiracRadius):
        return z * steiner_volume(target, law.r0)
    return z * law.integrate(lambda r: steiner_volume(target, r))


def halo_omitted_bound(observe: Box, z: float, law: RadiusLaw, h: float) -> float:
    """Upper bound on the expected number of balls centered outside the
    h-dilated box that still reach `observe`."""
    if law.max_radius <= h:
        return 0.0
    base = steiner_volume(observe, h)
    return z * law.integrate_tail(lambda r: steiner_volume(observe, r) - base, h)


def sample_boolean_with_halo(
    observe: Box,
    params: ModelParams,
    rng: np.random.Generator,
    tolerance: float = 1e-6,
    truncation_radius: Optional[float] = None,
) -> Configuration:
    """Simulate the trace on `observe` of the whole-space Boolean model by
    sampling on a dilated box whose omitted-ball mass is below `tolerance`.

    Laws without a finite d-moment have no valid halo; they require an
    explicit truncation radius and the output is tagged biased.
    """
    z, law = params.z, params.law
    d = observe.dimension
    biased = False
    if not law.finite_d_moment(d):
        if truncation_radius is None:
            raise NonIntegrableWithoutTruncation(
                "law has infinite d-moment: pass an explicit truncation_radius"
            )
        # Keep only radii <= truncation: a Poisson process with thinned
        # intensity and the conditioned radius law.
        keep = 1.0 - law.tail_mass(truncation_radius)
        z = z * keep
        law = TruncatedParetoRadius(law.dim, truncation_radius)  # type: ignore[attr-defined]
        biased = True

    if law.bounded_support:
        h = law.max_radius
        bound = 0.0
    else:
        h = max(law.quantile(0.99), 1e-6)
        bound = halo_omitted_bound(observe, z, law, h)
        while bound >= tolerance:
            h *= 2.0
            bound = halo_omitted_bound(observe, z, law, h)

    sim_box = dilate(observe, h)
    n = int(rng.poisson(z * sim_box.volume))
    centers = sim_box.sample_points(rng, n)
    radii = law.sample(rng, n)
    cell = default_cell_size(sim_box, law.median())
    cfg = Configuration.from_arrays(sim_box, centers, radii, cell_size=cell)
    cfg.tags.update(
        {"halo": h, "omitted_bound": bound, "observe": observe, "biased": biased}
    )
    return cfg


# ---------------------------------------------------------------------------
# Coverage probe
# ---------------------------------------------------------------------------


def box_covered(cfg: Configuration, box: Box, grid_per_axis: int = 512) -> bool:
    """Conservative coverage certificate: every grid point x is covered with
    slack, i.e. some ball contains B(x, g*sqrt(d)/2) for grid pitch g."""
    d = box.dimension
    axes = [
        np.linspace(box.lo[k], box.hi[k], grid_per_axis, endpoint=True)
        for k in range(d)
    ]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    pitch = float(np.max(box.sides)) / (grid_per_axis - 1)
    slack = pitch * math.sqrt(d) / 2.0
    covered = np.zeros(len(pts), dtype=bool)
    for slot in cfg.active_ids():
        if covered.all():
            return True
        c = cfg.centers[slot]
        reach = cfg.radii[slot] - slack
        if reach <= 0:
            continue
        todo = ~covered
        diff = pts[todo] - c
        covered[np.flatnonzero(todo)[np.einsum("ij,ij->i", diff, diff) <= reach * reach]] = True
    return bool(covered.all())


def coverage_escalation(
    box: Box,
    z: float,
    law: RadiusLaw,
    halos: list[float],
    trials: int,
    rng: np.random.Generator,
    grid_per_axis: int = 64,
) -> list[float]:
    """Empirical probability that balls centered within each dilated box fully
    cover `box`.  One configuration per trial is sampled on the largest halo
    and nested prefixes are reused, so the curve is nondecreasing by coupling.
    """
    halos = sorted(halos)
    big = dilate(box, halos[-1])
    hits = np.zeros(len(halos), dtype=int)
    for _ in range(trials):
        n = int(rng.poisson(z * big.volume))
        centers = big.sample_points(rng, n)
        radii = np.asarray(law.sample(rng, n))
        done = False
        for hi, h in enumerate(halos):
            if not done:
                sub = dilate(box, h)
                keep = sub.contains_points(centers) if n else np.zeros(0, dtype=bool)
                cfg = Configuration.from_arrays(
                    big, centers[keep], radii[keep], cell_size=max(h, 1e-3)
                )
                done = box_covered(cfg, box, grid_per_axis)
            if done:
                hits[hi] += 1
    return [h / trials for h in hits]


# ---------------------------------------------------------------------------
# Serialization: one ball per record, delimited text
# ---------------------------------------------------------------------------


def save_configuration(
    cfg: Configuration,
    path,
    law_descriptor: str = "",
    seed: Optional[int] = None,
    extra_meta: Optional[dict] = None,
) -> None:
    d = cfg.window.dimension
    meta = {
        "d": d,
        "lo": ",".join(repr(float(v)) for v in cfg.window.lo),
        "hi": ",".join(repr(float(v)) for v in cfg.window.hi),
        "law": law_descriptor,
        "seed": "" if seed is None else seed,
        "colored": int(cfg.colored),
    }
    if extra_meta:
        meta.update(extra_meta)
    cols = [f"x{k + 1}" for k in range(d)] + ["radius"]
    if cfg.colored:
        cols.append("color")
    with open(path, "w") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        fh.write(",".join(cols) + "\n")
        for slot in cfg.active_ids():
            row = [repr(float(v)) for v in cfg.centers[slot]]
            row.append(repr(float(cfg.radii[slot])))
            if cfg.colored:
                row.append(str(int(cfg.colors[slot])))
            fh.write(",".join(row) + "\n")


def load_configuration(path) -> Configuration:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    meta = {}
    for tok in lines[0].lstrip("# ").split():
        k, _, v = tok.partition("=")
        meta[k] = v
    d = int(meta["d"])
    lo = np.array([float(v) for v in meta["lo"].split(",")])
    hi = np.array([float(v) for v in meta["hi"].split(",")])
    colored = bool(int(meta.get("colored", "0")))
    window = Box(lo, hi)
    header = lines[1].split(",")
    if header[:d] != [f"x{k + 1}" for k in range(d)]:
        raise ValueError(f"{path}: column header {lines[1]!r} does not start with x1..x{d}")
    balls = []
    for ln in lines[2:]:
        if not ln:
            continue
        parts = ln.split(",")
        center = np.array([float(v) for v in parts[:d]])
        radius = float(parts[d])
        color = int(parts[d + 1]) if colored else None
        balls.append(MarkedBall(center, radius, color))
    cfg = Configuration.from_balls(window, balls, colored=colored)
    cfg.tags["law"] = meta.get("law", "")
    return cfg
