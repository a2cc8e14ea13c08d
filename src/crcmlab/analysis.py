"""Explicit events, geometric constructions, and bound calculators: isolation
and screening events for localizing the component count, the colored corner
shield, entropy-rate bound calculators with their critical intensity, the
tilted radius measure, and the cluster-density estimator with its exponential
decay bound.  Every check takes a finished sample as its (centers, radii[,
colors]) arrays and reads the component labels of `connectivity.components`."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import Box, centered_box, unit_ball_volume
from .model_core import RadiusLaw
from .connectivity import components, label_any, local_count
# local_cc stays importable from this module: the tracer self-test in benchmarks/ relies on it
from .connectivity import local_cc  # noqa: F401
from ._stats import batch_means_se


class PreconditionEventFailed(ValueError):
    pass


class RootUndefined(ValueError):
    pass


class ErodedWindowEmpty(ValueError):
    pass


class InvalidParameters(ValueError):
    pass


# ---------------------------------------------------------------------------
# Localization events
# ---------------------------------------------------------------------------


def event_Aij(centers: np.ndarray, radii: np.ndarray, i: float, j: float) -> bool:
    """True when no ball centered outside [-j,j]^d reaches [-i,i]^d."""
    if not i < j:
        raise ValueError("need i < j")
    d = centers.shape[1]
    far = ~centered_box(j, d).contains_points(centers)
    return not np.any(centered_box(i, d).distance_to_point(centers[far]) <= radii[far])


def event_Wij(
    centers: np.ndarray, radii: np.ndarray, box: Box, r0: float, i: float, j: float
) -> bool:
    """True when the balls centered in [-j,j]^d minus `box` form at most one
    component that both comes within r0 of `box` and leaves [-i,i]^d."""
    if not i < j:
        raise ValueError("need i < j")
    d = centers.shape[1]
    keep = centered_box(j, d).contains_points(centers) & ~box.contains_points(centers)
    centers, radii = centers[keep], radii[keep]
    count, labels = components(centers, radii)
    touches = label_any(labels, box.distance_to_point(centers) <= r0 + radii, count)
    exits = label_any(labels, ~centered_box(i, d).contains_ball(centers, radii), count)
    return np.count_nonzero(touches & exits) <= 1


def localization_check(
    centers: np.ndarray, radii: np.ndarray, box: Box, r0: float, i: float, j: float
) -> bool:
    """On the isolation-and-screening event, the local component count of
    the balls must agree with its evaluation on the balls centered in
    [-j,j]^d.  Raises PreconditionEventFailed off the event: when a ball
    centered in `box` is larger than r0, or A_ij or W_ij fails."""
    if np.any(radii[box.contains_points(centers)] > r0):
        raise PreconditionEventFailed("a ball centered in the box exceeds r0")
    if not (event_Aij(centers, radii, i, j) and event_Wij(centers, radii, box, r0, i, j)):
        raise PreconditionEventFailed("configuration outside the required events")
    kept = centered_box(j, centers.shape[1]).contains_points(centers)
    return local_count(centers, radii, box) == local_count(centers[kept], radii[kept], box)


def exterior_hit_mass(i: float, j: float, z: float, law: RadiusLaw) -> float:
    """Expected number of balls centered outside [-j,j]^2 hitting [-i,i]^2
    under the Poisson ball process (planar case, exact geometry)."""
    if not i < j:
        raise ValueError("need i < j")
    c = j - i

    def quarter_disk_in_square(r: float) -> float:
        # area of {u^2+v^2 <= r^2} within [0,c]^2
        if r <= 0:
            return 0.0
        if r * r >= 2 * c * c:
            return c * c
        if r <= c:
            return math.pi * r * r / 4.0
        t = math.sqrt(r * r - c * c)
        return c * t + (r * r / 2.0) * (math.asin(c / r) - math.asin(t / r))

    def outside_area(r: float) -> float:
        # area of the r-neighbourhood of the inner square beyond the outer
        # one: 4 edge slabs plus 4 clipped corner sectors
        if r <= c:
            return 0.0
        side = 2.0 * i
        slab = 4.0 * side * (r - c)
        corner = 4.0 * (math.pi * r * r / 4.0 - quarter_disk_in_square(r))
        return slab + corner

    return z * law.integrate(outside_area)


# ---------------------------------------------------------------------------
# Corner-cube shield
# ---------------------------------------------------------------------------


@dataclass
class ShieldGeometry:
    """Corner-cube construction screening a central box from far balls.

    Any two-colored ball pair in every inner cube forces balls centered in the
    central box to stay within the guard box; pairs in the outer cubes keep
    balls centered beyond the outer box away from the guard box.
    """

    alpha: int
    k: int
    dim: int
    d1: int
    d2: int
    inner_cubes: list[Box]
    outer_cubes: list[Box]
    guard_box: Box
    outer_box: Box

    @property
    def central_box(self) -> Box:
        return centered_box(self.alpha, self.dim)


def _corner_cubes(lo_edge: float, k: float, d: int) -> list[Box]:
    cubes = []
    for signs in np.ndindex(*([2] * d)):
        lo = np.empty(d)
        hi = np.empty(d)
        for axis, s in enumerate(signs):
            if s == 0:
                lo[axis], hi[axis] = lo_edge, lo_edge + k
            else:
                lo[axis], hi[axis] = -lo_edge - k, -lo_edge
        cubes.append(Box(lo, hi))
    return cubes


def build_shield(alpha: int, k: int, d: int) -> ShieldGeometry:
    """Shield constants from sufficient closed-form covering bounds.

    d1: a ball centered in the central box reaching past the guard box has
    radius at least k + d1 >= sqrt(d) (2 alpha + k), the farthest distance to
    the corner cube in its orthant, so it covers that cube.  d2 plays the same
    role for balls centered beyond the outer box reaching the guard box.
    """
    if not (isinstance(alpha, (int, np.integer)) and isinstance(k, (int, np.integer))):
        raise InvalidParameters("alpha and k must be integers")
    if not (k >= alpha >= 1) or d < 2:
        raise InvalidParameters("need k >= alpha >= 1 and dimension >= 2")
    d1 = math.ceil(math.sqrt(d) * (2 * alpha + k) - k)
    p = alpha + k + d1 + 1  # near edge of the outer cubes
    d2 = max(1, math.ceil(((d - 1) * (p + k) ** 2 - 1) / 2.0 - k))
    guard = centered_box(alpha + k + d1, d)
    outer = centered_box(alpha + 2 * k + d1 + 1 + d2, d)
    return ShieldGeometry(
        alpha=int(alpha),
        k=int(k),
        dim=d,
        d1=d1,
        d2=d2,
        inner_cubes=_corner_cubes(alpha, k, d),
        outer_cubes=_corner_cubes(p, k, d),
        guard_box=guard,
        outer_box=outer,
    )


def _covers_a_cube(centers: np.ndarray, radii: np.ndarray, cubes: list[Box]) -> np.ndarray:
    """Per ball: whether it contains one of the cubes, i.e. reaches the
    farthest corner of that cube."""
    lo = np.array([cube.lo for cube in cubes])
    hi = np.array([cube.hi for cube in cubes])
    far = np.maximum(np.abs(lo - centers[:, None]), np.abs(hi - centers[:, None]))
    return np.any(np.sqrt(np.einsum("nkd,nkd->nk", far, far)) <= radii[:, None], axis=1)


_TRIAL_BLOCK = 1 << 15  # trials drawn per array pass, bounding memory


def shield_covering_trials(
    geom: ShieldGeometry, n_trials: int, rng: np.random.Generator
) -> tuple[int, int]:
    """Randomized audit of both covering contracts; returns violation counts.

    Inner: balls centered in the central box whose reach exits the guard box
    must cover a corner cube.  Outer: balls centered beyond the outer box
    whose reach touches the guard box must cover an outer cube.  Radii run
    from the threshold distance up to three times it.
    """
    d = geom.dim
    t_out = geom.outer_box.hi[0]

    def stretch(n):
        return 1.0 + rng.random(n) * rng.choice([0.0, 0.5, 2.0], size=n)

    bad_in = bad_out = 0
    for start in range(0, n_trials, _TRIAL_BLOCK):
        n = min(_TRIAL_BLOCK, n_trials - start)
        # inner contract
        c = geom.central_box.sample_points(rng, n)
        r = np.min(geom.guard_box.hi - np.abs(c), axis=1) * stretch(n)
        bad_in += int(np.count_nonzero(~_covers_a_cube(c, r, geom.inner_cubes)))
        # outer contract: one coordinate pushed beyond the outer box
        c = rng.uniform(-3.0 * t_out, 3.0 * t_out, size=(n, d))
        axis = rng.integers(d, size=n)
        c[np.arange(n), axis] = (t_out + rng.exponential(t_out, n)) * rng.choice([-1.0, 1.0], size=n)
        r = geom.guard_box.distance_to_point(c) * stretch(n)
        bad_out += int(np.count_nonzero(~_covers_a_cube(c, r, geom.outer_cubes)))
    return bad_in, bad_out


def shield_event_Wk(
    centers: np.ndarray, colors: Optional[np.ndarray], geom: ShieldGeometry
) -> bool:
    """True when every inner and outer corner cube holds centers of at least
    two balls with distinct colors."""
    if colors is None:
        raise ValueError("shield events are defined for colored configurations")
    if colors.size == 0:
        return False
    for cube in geom.inner_cubes + geom.outer_cubes:
        inside = cube.contains_points(centers)
        if np.unique(colors[inside]).size < 2:
            return False
    return True


# ---------------------------------------------------------------------------
# Entropy-rate bound calculators
# ---------------------------------------------------------------------------


def phi_y(law: RadiusLaw, y: float, d: int) -> float:
    """Probability that a ball centered uniformly in a side-y cube lies
    entirely inside it: integral of max(0, (y-2R)/y)^d against the law."""
    if not 0 < y < math.inf:
        raise ValueError("y must be positive and finite")
    return law.integrate(lambda r: max(0.0, (y - 2.0 * r) / y) ** d)


def mono_lower_bound(z: float, q: int) -> float:
    """Uniform entropy-rate lower bound for single-color laws: (q-1) z / q."""
    if z <= 0:
        raise ValueError("z must be positive")
    if int(q) != q or q < 2:
        raise ValueError("q must be an integer >= 2")
    return (q - 1.0) * z / q


def psi(z: float, q: int, y: float, phi: float, d: int) -> float:
    """Gap function whose negativity certifies entropy separation:
    z/q - 7/(8 y^d) ln(1 - q + q exp(z y^d phi / q))."""
    yd = y**d
    return z / q - 7.0 / (8.0 * yd) * math.log(1.0 - q + q * math.exp(z * yd * phi / q))


def psi_prime(z: float, q: int, y: float, phi: float, d: int) -> float:
    yd = y**d
    e = math.exp(z * yd * phi / q)
    return 1.0 / q - (7.0 / 8.0) * phi * e / (1.0 - q + q * e)


def psi_root(q: int, y: float, phi: float, d: int) -> float:
    """Unique stationary point of the gap function; defined when
    phi > 8/(7q)."""
    if phi <= 8.0 / (7.0 * q):
        raise RootUndefined("needs phi > 8/(7q); increase y")
    yd = y**d
    return (q / (phi * yd)) * math.log((q - 1.0) / q / (1.0 - 7.0 * phi / 8.0))


def wr_entropy_upper(z: float, q: int, y: float, law: RadiusLaw, n: int, d: int) -> float:
    """Entropy-rate upper bound for the hard-core-color model from the packing
    construction: side-y cubes of single-color balls, with the boundary
    fraction of the side-2n window subtracted."""
    phi = phi_y(law, y, d)
    yd = y**d
    k_n = math.floor(2 * n / y) ** d
    vol = (2.0 * n) ** d
    c_n = vol - k_n * yd
    ln_term = math.log(1.0 - q + q * math.exp(z * yd * phi / q))
    return z + (1.0 / yd) * (c_n / vol - 1.0) * ln_term


# ---------------------------------------------------------------------------
# Tilted radius measure
# ---------------------------------------------------------------------------


@dataclass
class TiltedLaw:
    """Radius measure reweighted by q^(-c0 R^d): sub-probability mass and a
    finite d-moment even when the base law has none."""

    base: RadiusLaw
    q: float
    r0: float
    c0: float
    mass: float
    d_moment: float


def tilted_law(law: RadiusLaw, q: float, r0: float, d: int) -> TiltedLaw:
    if q <= 1.0:
        raise ValueError("tilting needs q > 1")
    if r0 <= 0 or law.min_radius < r0:
        raise ValueError("law radii must be bounded below by r0 > 0")
    c0 = (3.0 / r0) ** d
    lnq = math.log(q)

    def weight(r: float) -> float:
        return math.exp(-c0 * r**d * lnq)

    mass = law.integrate(weight)
    dmom = law.integrate(lambda r: r**d * weight(r))
    return TiltedLaw(base=law, q=q, r0=r0, c0=c0, mass=mass, d_moment=dmom)


# ---------------------------------------------------------------------------
# Cluster density estimator and its decay bound
# ---------------------------------------------------------------------------


@dataclass
class ClusterDensityEstimate:
    value: float
    se: float
    per_sample: np.ndarray
    eroded: Box


def eroded_window(window: Box, border: float) -> Box:
    """`window` shrunk by `border` on every face; raises ErodedWindowEmpty
    when nothing of positive volume is left."""
    lo, hi = window.lo + border, window.hi - border
    if np.any(hi <= lo) or np.prod(hi - lo) <= 0:
        raise ErodedWindowEmpty("border leaves no observation window")
    return Box(lo, hi)


def estimate_NP(
    samples: Sequence[tuple], window: Box, border: float
) -> ClusterDensityEstimate:
    """Mean number of components per unit volume of the border-eroded window,
    counting the components that lie wholly inside it (minus sampling): a
    component with any ball reaching outside the eroded window is dropped.
    Each sample is (centers, radii, colors), as `run_chain` records it."""
    eroded = eroded_window(window, border)
    per = np.zeros(len(samples))
    for s, (centers, radii, _) in enumerate(samples):
        count, labels = components(centers, radii)
        cut = label_any(labels, ~eroded.contains_ball(centers, radii), count)
        per[s] = np.count_nonzero(~cut) / eroded.volume
    se = batch_means_se(per)
    return ClusterDensityEstimate(float(per.mean()), se, per, eroded)


def np_bound(z: float, q: float, law: RadiusLaw, r0: float, d: int) -> float:
    """Exponential decay bound on the cluster density:
    z q exp(-z v_d/2 * tilted d-moment)."""
    tl = tilted_law(law, q, r0, d)
    return z * q * math.exp(-z * 0.5 * unit_ball_volume(d) * tl.d_moment)
