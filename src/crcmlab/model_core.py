"""Radius laws, ball configurations, and exact sampling of the Poisson
Boolean reference process on a bounded window."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count, repeat
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

from ._stats import quad
from .connectivity import components
from .geometry import Box, SpatialIndex, default_cell_size, dilate

INFINITE = math.inf


# ---------------------------------------------------------------------------
# Radius laws
# ---------------------------------------------------------------------------


class RadiusLaw:
    """Distribution of grain radii with the analytic metadata the lab needs:
    support bounds, moments, integrals, and inverse-CDF sampling."""

    min_radius: float
    max_radius: float  # math.inf when unbounded

    @property
    def bounded_support(self) -> bool:
        return math.isfinite(self.max_radius)

    def finite_d_moment(self, d: int) -> bool:
        """Whether the radii are integrable in dimension d: a finite
        integral of R^d against the law."""
        return math.isfinite(self.moment(d))

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        return self.quantile(rng.random(() if size is None else size))

    def sample_scalar(self, rng) -> float:
        """One radius from one `rng.random()`: the value and draws of
        `float(sample(rng, size=()))`."""
        return self.quantile(rng.random())

    def moment(self, k: float) -> float:
        """Integral of R^k against the law (may be INFINITE)."""
        raise NotImplementedError

    def integrate(self, f: Callable[[float], float]) -> float:
        """Integral of f(R) against the whole law (an atom at radius 0
        included), by quadrature unless atomic."""
        raise NotImplementedError

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
        if not 0 <= self.r0 < math.inf:
            raise ValueError("radius must be finite and nonnegative")
        object.__setattr__(self, "min_radius", float(self.r0))
        object.__setattr__(self, "max_radius", float(self.r0))

    def sample(self, rng, size=None):
        return np.full(() if size is None else size, self.r0, dtype=float)

    def sample_scalar(self, rng):
        return float(self.r0)

    def moment(self, k):
        return float(self.r0**k)

    def integrate(self, f):
        return float(f(self.r0))

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
        if not 0 <= self.a < self.b < math.inf:
            raise ValueError("need 0 <= a < b < inf")
        object.__setattr__(self, "min_radius", float(self.a))
        object.__setattr__(self, "max_radius", float(self.b))

    def moment(self, k):
        return (self.b ** (k + 1) - self.a ** (k + 1)) / ((k + 1) * (self.b - self.a))

    def integrate(self, f):
        return quad(f, self.a, self.b, limit=200) / (self.b - self.a)

    def quantile(self, p):
        return self.a + p * (self.b - self.a)

    def descriptor(self):
        return f"uniform:{self.a!r},{self.b!r}"


@dataclass(frozen=True, eq=False)
class ParetoRadius(RadiusLaw):
    """Density (d-1) R^{-d} on [1, inf), conditioned on R <= r_max
    (renormalized) when r_max is finite.  Untruncated, its d-moment diverges
    in dimension d; its normalizer 1 - r_max^(1-d) is then exactly 1."""

    dim: int
    r_max: float = INFINITE

    def __post_init__(self):
        if self.dim < 2 or not self.r_max > 1.0:  # inf is the untruncated law
            raise ValueError("need dimension >= 2 and r_max > 1")
        object.__setattr__(self, "min_radius", 1.0)
        object.__setattr__(self, "max_radius", float(self.r_max))

    @property
    def _norm(self) -> float:
        return 1.0 - self.r_max ** (1.0 - self.dim)

    def moment(self, k):
        # (dim-1) * int_1^r_max R^{k-dim} dR / norm, INFINITE untruncated
        # once k >= dim - 1
        dm, rm = self.dim, self.r_max
        if abs(k - (dm - 1.0)) < 1e-12:
            raw = (dm - 1.0) * math.log(rm)
        else:
            raw = (dm - 1.0) * (1.0 - rm ** (k - dm + 1.0)) / (dm - 1.0 - k)
        return raw / self._norm

    def integrate(self, f):
        dm = self.dim

        def integrand(r):
            return f(r) * (dm - 1.0) * r ** (-dm)

        return quad(integrand, 1.0, self.r_max, limit=300) / self._norm

    def quantile(self, p):
        return (1.0 - p * self._norm) ** (-1.0 / (self.dim - 1))

    def descriptor(self):
        if self.bounded_support:
            return f"tpareto:{self.dim},{self.r_max!r}"
        return f"pareto:{self.dim}"


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
            return ParetoRadius(int(dim), float(rmax))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad radius law {text!r}") from exc
    raise ValueError(f"unknown radius law {text!r}")


# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------


@dataclass
class ModelParams:
    """Intensity z, cluster weight q, radius law, and window.  Raises
    ValueError unless the partition function is finite (assumption A): q >= 1
    or the law has bounded support."""

    z: float
    q: float
    law: RadiusLaw
    window: Box
    move_share = 1.0  # share of chain moves that are births or deaths; not a field

    def __post_init__(self):
        if not 0 < self.z < math.inf:
            raise ValueError("intensity z must be positive and finite")
        if not 0 < self.q < math.inf:
            raise ValueError("cluster weight q must be positive and finite")
        if self.q < 1.0 and not self.law.bounded_support:
            raise ValueError(
                "assumption A: q < 1 requires a radius law with bounded support: the partition "
                "function diverges for unbounded radii below q=1"
            )

    @property
    def total_intensity(self) -> float:
        """Expected number of reference points in the window: z * |window|."""
        return self.z * self.window.volume

    @property
    def dominating_intensity(self) -> float:
        """Mean count of the Poisson process that stochastically dominates
        the model: the q-thickened reference process when q > 1."""
        return max(self.q, 1.0) * self.total_intensity

    @property
    def cell_size(self) -> float:
        """Grid cell of a chain's configuration, from the law's median radius."""
        return default_cell_size(self.window, self.law.median())

    def start(self, rng) -> Configuration:
        """A chain's first configuration: an exact Poisson reference draw."""
        return sample_poisson_boolean(self, rng)

    def insertion(self, cfg, labeling, center, radius: float, rng) -> tuple:
        """(q^(component increment), the slots it meets, no color) of a ball."""
        delta, hits = labeling.insertion_increment(cfg, center, radius)
        return self.q**delta, hits, None

    def insertion_weights(self, sample: tuple, hits: np.ndarray, rng) -> np.ndarray:
        """`insertion`'s factor for m candidate balls against one recorded
        `(centers, radii, colors)` sample, hits[m, k] saying whether
        candidate m meets ball k: q^(1 - components met)."""
        count, labels = components(sample[0], sample[1])
        met = np.zeros((hits.shape[0], count), dtype=bool)
        m, k = np.nonzero(hits)
        met[m, labels[k]] = True
        return float(self.q) ** (1 - met.sum(axis=1))

    def deletion(self, labeling, slot: int) -> tuple:
        """(q^(m - 1), the m groups of `removal_split`) of deleting `slot`."""
        groups = labeling.removal_split(slot)
        return self.q ** (len(groups) - 1), groups


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


class Configuration:
    """Finite multiset of (colored) marked balls in a window.  The grid
    index's `balls` is the only store of centers and radii; `colors` maps
    each active slot to its color (None when uncolored).

    Slots are stable integer ids from a counter, never reused: removal
    renumbers no survivor, so component labelings stay aligned.
    """

    def __init__(self, window: Box, cell_size: float, colored: bool = False):
        self.window = window
        self.colored = colored
        self.colors: Optional[dict[int, int]] = {} if colored else None
        self.index = SpatialIndex(cell_size)
        self._ids = count()          # the slots `add` hands out
        self._active: list[int] = []           # active slots in move order
        self._slot_pos: dict[int, int] = {}    # active slot -> its position

    # -- construction ------------------------------------------------------

    @classmethod
    def from_balls(
        cls, window: Box, rows: Iterable[tuple], cell_size: Optional[float] = None
    ) -> "Configuration":
        """`from_arrays` of (center, radius) rows, or of (center, radius,
        color) rows for a colored configuration; a mix raises ValueError."""
        rows = list(rows)
        widths = {len(row) for row in rows}
        if not widths <= {2} and widths != {3}:
            raise ValueError("rows must all be (center, radius) or all (center, radius, color)")
        centers, radii, *colors = zip(*rows) if rows else ((), ())
        return cls.from_arrays(window, centers, radii, *colors, cell_size=cell_size)

    @classmethod
    def from_arrays(
        cls,
        window: Box,
        centers: np.ndarray,
        radii: np.ndarray,
        colors: Optional[np.ndarray] = None,
        cell_size: Optional[float] = None,
    ) -> "Configuration":
        """A configuration of the given balls, each filed through `add` in
        input order (so in slots 0..n-1); colored when `colors` is given.
        The grid cell defaults to twice the median radius.  Raises
        ValueError unless there is one center (and one color, if given) per
        radius, every radius is finite and nonnegative, and every center
        lies in the window."""
        centers = np.asarray(centers, dtype=float).reshape(-1, window.dimension)
        radii = np.asarray(radii, dtype=float).reshape(-1)
        n = radii.size
        lengths = [len(centers), n]
        if colors is not None:
            colors = np.asarray(colors, dtype=np.int64).reshape(-1)
            lengths.append(colors.size)
        if min(lengths) != max(lengths):
            raise ValueError(f"ball arrays differ in length (centers, radii[, colors]): {lengths}")
        if not np.all((radii >= 0) & (radii < math.inf)):
            raise ValueError("radii must be finite and nonnegative")
        if cell_size is None:
            cell_size = default_cell_size(window, float(np.median(radii)) if n else 0.0)
        cfg = cls(window, cell_size, colored=colors is not None)
        colors = repeat(None) if colors is None else colors.tolist()
        for center, radius, color in zip(centers.tolist(), radii.tolist(), colors):
            cfg.add(center, radius, color)
        return cfg

    # -- bookkeeping -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._active)

    def active_ids(self) -> list[int]:
        return self._active

    def arrays(self) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Centers, radii and colors (None when uncolored) of the active
        balls in move order (`active_ids`), as new arrays."""
        ids, balls, colors = self._active, self.index.balls, self.colors
        n, d = len(ids), self.window.dimension
        centers = np.fromiter(chain.from_iterable([balls[s][0] for s in ids]), float, n * d)
        radii = np.fromiter([balls[s][1] for s in ids], float, n)
        if colors is not None:
            colors = np.fromiter([colors[s] for s in ids], np.int64, n)
        return centers.reshape(n, d), radii, colors

    def add(self, center, radius: float, color: Optional[int] = None) -> int:
        """Store a ball in a new slot and return the slot.  Raises
        ValueError unless the center has the window's dimension and lies in
        the window, the radius is finite and nonnegative, and a colored
        configuration gets a color."""
        center, radius = tuple(map(float, center)), float(radius)
        if len(center) != self.window.dimension:
            raise ValueError(f"center needs {self.window.dimension} coordinates")
        if not self.window.contains_point(center):
            raise ValueError("ball center outside window")
        if not 0.0 <= radius < math.inf:
            raise ValueError("radius must be finite and nonnegative")
        if self.colored and color is None:
            raise ValueError("colored configuration needs a color")
        slot = next(self._ids)
        self.index._store(slot, center, radius)
        if self.colored:
            self.colors[slot] = int(color)
        self._slot_pos[slot] = len(self._active)
        self._active.append(slot)
        return slot

    def remove(self, slot: int) -> Optional[int]:
        """Free `slot`.  The last ball in move order takes its position;
        returns that ball's slot, None when `slot` was the last."""
        pos = self._slot_pos.pop(slot, None)
        if pos is None:
            raise KeyError(f"slot {slot} not active")
        moved = self._active.pop()
        if moved == slot:
            moved = None
        else:
            self._active[pos] = moved
            self._slot_pos[moved] = pos
        self.index.remove(slot)
        if self.colored:
            del self.colors[slot]
        return moved

    def random_active(self, rng: np.random.Generator) -> int:
        n = len(self._active)
        if not n:
            raise ValueError("random_active: the configuration is empty")
        return self._active[int(rng.random() * n)]

    def intersectors(self, center, radius: float) -> list[int]:
        """Slots of stored balls whose closed ball meets B(center, radius):
        |c - center|^2 <= (r + radius)^2, coordinates summed in order.  A
        candidate farther than 1e-9 (r + radius) from tangency is decided
        by math.dist instead, which agrees there; the 1e-150 floor keeps
        zero radii off the screen, where squares underflow."""
        x = center if isinstance(center, tuple) else tuple(map(float, center))
        balls = self.index.balls
        dist = math.dist
        out = []
        for bucket in self.index.buckets(x, radius):
            for j in bucket:
                c, r = balls[j]
                r += radius
                gap = dist(c, x) - r
                tol = 1e-9 * r + 1e-150
                if gap > tol:
                    continue
                if gap < -tol:
                    out.append(j)
                else:
                    d2 = 0.0
                    for a, b in zip(c, x):
                        a -= b
                        d2 += a * a
                    if d2 <= r * r:
                        out.append(j)
        return out

    def copy(self) -> "Configuration":
        return Configuration.from_arrays(self.window, *self.arrays(), self.index.cell_size)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def poisson_balls(
    box: Box, law: RadiusLaw, mean: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Centers and radii of Poisson(mean) many balls with i.i.d. uniform
    centers in `box` and i.i.d. radii from `law`, drawn in blocks: the count,
    then every center, then every radius."""
    n = int(rng.poisson(mean))
    centers = box.sample_points(rng, n)
    return centers, np.asarray(law.sample(rng, n), dtype=float)


def sample_poisson_boolean(params: ModelParams, rng: np.random.Generator) -> Configuration:
    """Exact draw of the Poisson ball process on the window: Poisson(z|W|)
    many i.i.d. uniform centers with i.i.d. radii."""
    centers, radii = poisson_balls(params.window, params.law, params.total_intensity, rng)
    return Configuration.from_arrays(params.window, centers, radii, cell_size=params.cell_size)


def sample_boolean_with_halo(
    observe: Box, params: ModelParams, rng: np.random.Generator
) -> Configuration:
    """Trace on `observe` of the whole-space Boolean model, sampled on the
    box dilated by the largest radius: no ball centered outside reaches it.
    Raises ValueError for unbounded radii, which have no such halo."""
    law = params.law
    if not law.bounded_support:
        raise ValueError(f"law {law.descriptor()} has unbounded radii, so no halo")
    sim_box = dilate(observe, law.max_radius)
    centers, radii = poisson_balls(sim_box, law, params.z * sim_box.volume, rng)
    cell = default_cell_size(sim_box, law.median())
    return Configuration.from_arrays(sim_box, centers, radii, cell_size=cell)


# ---------------------------------------------------------------------------
# Coverage probe
# ---------------------------------------------------------------------------


COVERAGE_GRID = 48  # grid points per axis of a coverage certificate


def box_covered(centers: np.ndarray, radii: np.ndarray, box: Box) -> bool:
    """Conservative coverage certificate for the balls B(centers[k], radii[k]):
    every point x of a `COVERAGE_GRID`-per-axis grid is covered with slack,
    i.e. some ball contains B(x, g*sqrt(d)/2) for grid pitch g."""
    d = box.dimension
    axes = [np.linspace(box.lo[k], box.hi[k], COVERAGE_GRID) for k in range(d)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    pitch = float(np.max(box.sides)) / (COVERAGE_GRID - 1)
    slack = pitch * math.sqrt(d) / 2.0
    covered = np.zeros(len(pts), dtype=bool)
    for c, r in zip(centers, radii.tolist()):
        if covered.all():
            return True
        reach = r - slack
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
) -> list[float]:
    """Empirical probability, halo by halo in increasing order, that balls
    centered within each dilated box fully cover `box`.  One configuration per
    trial is sampled on the largest halo and nested prefixes are reused, so
    the curve is nondecreasing by coupling."""
    halos = sorted(halos)
    big = dilate(box, halos[-1])
    hits = np.zeros(len(halos), dtype=int)
    for _ in range(trials):
        centers, radii = poisson_balls(big, law, z * big.volume, rng)
        done = False
        for hi, h in enumerate(halos):
            if not done:
                keep = dilate(box, h).contains_points(centers)
                done = box_covered(centers[keep], radii[keep], box)
            if done:
                hits[hi] += 1
    return [h / trials for h in hits]


# ---------------------------------------------------------------------------
# Serialization: one ball per record
# ---------------------------------------------------------------------------


def open_fresh(path):
    """Open `path` for writing as a new file: an existing file is unlinked
    first, because truncating it in place forces writeback on ext4 (about
    0.1 ms per small file, against 0.03 ms to unlink it and write anew)."""
    path = Path(path)
    path.unlink(missing_ok=True)
    return open(path, "w")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer, np.bool_)):  # so a numpy verdict prints 1 or 0
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_table(path, head: dict, columns: list[str], rows) -> None:
    """The lab's one CSV format, written to `path` as a new file: a line
    `# k=v ...` of `head`, a line of `columns`, then one line per row."""
    with open_fresh(path) as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in head.items()) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def save_configuration(
    window: Box,
    balls: tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
    path,
    law_descriptor: str = "",
    seed: Optional[int] = None,
) -> None:
    """Write the `(centers, radii, colors or None)` arrays of balls in
    `window` as CSV, one ball per row; `load_configuration` reads it back."""
    centers, radii, colors = balls
    d = window.dimension
    head = {
        "d": d,
        "lo": ",".join(repr(float(v)) for v in window.lo),
        "hi": ",".join(repr(float(v)) for v in window.hi),
        "law": law_descriptor,
        "seed": "" if seed is None else seed,
        "colored": int(colors is not None),
    }
    columns = [f"x{k + 1}" for k in range(d)] + ["radius"]
    rows = [center + [radius] for center, radius in zip(centers.tolist(), radii.tolist())]
    if colors is not None:
        columns.append("color")
        rows = [row + [color] for row, color in zip(rows, colors.tolist())]
    write_table(path, head, columns, rows)


def load_configuration(path) -> Configuration:
    """Read back what `save_configuration` wrote.  Raises ValueError naming
    the path on a truncated file or a line that does not parse."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    try:
        meta = dict(tok.partition("=")[::2] for tok in lines[0].lstrip("# ").split())
        d = int(meta["d"])
        lo = np.array([float(v) for v in meta["lo"].split(",")])
        hi = np.array([float(v) for v in meta["hi"].split(",")])
        colored = bool(int(meta.get("colored", "0")))
        header = lines[1].split(",")
        rows = [ln.split(",") for ln in lines[2:] if ln]
        centers = [[float(v) for v in parts[:d]] for parts in rows]
        radii = [float(parts[d]) for parts in rows]
        colors = [int(parts[d + 1]) for parts in rows] if colored else None
    except (IndexError, KeyError, ValueError) as exc:
        raise ValueError(f"{path}: truncated file or malformed line") from exc
    if header[:d] != [f"x{k + 1}" for k in range(d)]:
        raise ValueError(f"{path}: column header {lines[1]!r} does not start with x1..x{d}")
    return Configuration.from_arrays(Box(lo, hi), centers, radii, colors)
