import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crcmlab import connectivity
from crcmlab.connectivity import intersecting_pairs
from crcmlab.geometry import (
    Box,
    SpatialIndex,
    default_cell_size,
    dilate,
    unit_ball_volume,
)
from crcmlab.model_core import Configuration


def meets(a, b):
    """Whether the closed balls a = (center, radius) and b meet, as the pair
    kernel's dense pass, its strip sweep and a configuration's grid query
    decide it; the three must agree."""
    centers = np.array([a[0], b[0]], dtype=float)
    radii = np.array([a[1], b[1]], dtype=float)
    dense = intersecting_pairs(centers, radii)[0].size == 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(connectivity, "_DENSE_MAX", 1)
        swept = intersecting_pairs(centers, radii)[0].size == 1
    window = Box(centers.min(axis=0) - 1.0, centers.max(axis=0) + 1.0)
    cfg = Configuration.from_arrays(window, centers[:1], radii[:1])
    grid = cfg.intersectors(centers[1], radii[1]) == [0]
    assert dense == swept == grid
    return dense


def test_tangent_closed_balls_meet():
    assert meets(((0, 0), 1.0), ((2, 0), 1.0))


def test_separated_balls_do_not_intersect():
    assert not meets(((0, 0), 1.0), ((2.0001, 0), 1.0))


def test_concentric_balls_meet():
    assert meets(((0, 0), 0.1), ((0, 0), 3.0))
    assert meets(((0, 0), 0.0), ((0, 0), 0.0))
    # 1e-244 apart the squared distance underflows to 0: the exact test counts
    # the zero radii as meeting, and the strip sweep must find the pair too
    assert meets(((0, 0), 0.0), ((0, 1e-244), 0.0))


coords = st.floats(-50, 50)
radii = st.floats(0, 20)


@given(
    st.tuples(coords, coords, radii), st.tuples(coords, coords, radii)
)
def test_intersection_symmetry(a, b):
    ba = (a[:2], a[2])
    bb = (b[:2], b[2])
    assert meets(ba, bb) == meets(bb, ba)


def test_dilate_identity_and_shift():
    b = Box([0, 0], [1, 1])
    assert np.allclose(dilate(b, 0).lo, b.lo) and np.allclose(dilate(b, 0).hi, b.hi)
    d3 = dilate(b, 3)
    assert np.allclose(d3.lo, [-3, -3]) and np.allclose(d3.hi, [4, 4])


def test_dilated_box_volume():
    # [-1,1]^2 grown by 1 has side 4 -> area 16 (box form of the dilation)
    assert dilate(Box([-1, -1], [1, 1]), 1).volume == 16.0


@given(st.floats(0, 5), st.floats(0, 5))
def test_dilate_monotone(r1, r2):
    lo, hi = sorted([r1, r2])
    b = Box([0, 0], [2, 3])
    assert dilate(b, hi).contains_box(dilate(b, lo))


def test_dilate_contains_minkowski_sum():
    b = Box([0, 0], [1, 1])
    big = dilate(b, 2)
    # points of the true Minkowski sum: distance to box <= 2
    rng = np.random.default_rng(5)
    pts = rng.uniform(-4, 5, size=(2000, 2))
    inside_sum = np.array([b.distance_to_point(p) <= 2 for p in pts])
    inside_box = big.contains_points(pts)
    assert not np.any(inside_sum & ~inside_box)


def test_box_distance_and_ball_containment_on_arrays():
    b = Box([0, -1], [2, 3])
    rng = np.random.default_rng(6)
    pts = np.round(rng.uniform(-3, 5, size=(500, 2)), 1)  # rounding puts balls on faces
    rs = np.round(rng.uniform(0, 2, size=500), 1)
    dist = b.distance_to_point(pts)
    inside = b.contains_ball(pts, rs)
    assert dist.shape == inside.shape == (500,)
    assert dist.tolist() == [b.distance_to_point(p) for p in pts]
    assert inside.tolist() == [b.contains_ball(p, r) for p, r in zip(pts, rs)]
    gaps = np.clip(pts, b.lo, b.hi) - pts
    assert np.allclose(dist, np.hypot(gaps[:, 0], gaps[:, 1]), rtol=0, atol=1e-12)
    assert inside.tolist() == [
        p[0] - r >= 0 and p[0] + r <= 2 and p[1] - r >= -1 and p[1] + r <= 3 for p, r in zip(pts, rs)
    ]
    assert type(b.distance_to_point(pts[0])) is float and type(b.contains_ball(pts[0], 0.1)) is bool


def test_box_validation():
    with pytest.raises(ValueError):
        Box([1, 0], [0, 1])
    with pytest.raises(ValueError):
        Box([0, np.inf], [1, 1])
    with pytest.raises(ValueError):
        dilate(Box([0], [1]), -1)


def test_unit_ball_volume_known_values():
    assert unit_ball_volume(2) == pytest.approx(np.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * np.pi / 3)
    assert unit_ball_volume(0) == pytest.approx(1.0)


def test_contains_point_needs_the_box_dimension():
    b = Box([0, 0], [1, 1])
    assert b.contains_point((0.5, 0.5)) and b.contains_point(np.array([1.0, 0.0]))
    assert not b.contains_point((0.5, 1.5))
    for x in ((0.5,), (0.5, 0.5, 7.0), ()):
        with pytest.raises(ValueError, match="2 coordinates"):
            b.contains_point(x)


def test_index_empty_query():
    idx = SpatialIndex(cell_size=0.5)
    assert idx.candidates(np.zeros(2), 10.0) == []


def test_index_finds_single_intersector():
    idx = SpatialIndex(cell_size=0.5)
    idx._store(7, (0.3, 0.3), 0.2)
    got = idx.candidates(np.zeros(2), 0.3)
    assert 7 in got


def test_index_no_duplicates_and_removal():
    idx = SpatialIndex(cell_size=0.5)
    # ball 2 is oversized
    idx._store(1, (0.1, 0.1), 0.1)
    idx._store(2, (0.1, 0.2), 3.0)
    got = idx.candidates(np.array([0.0, 0.0]), 1.0)
    assert sorted(got) == [1, 2]
    assert len(got) == len(set(got))
    idx.remove(2)
    assert idx.candidates(np.array([0.0, 0.0]), 1.0) == [1]
    with pytest.raises(KeyError):
        idx.remove(2)


@pytest.mark.parametrize("seed", [0, 1])
def test_index_superset_of_bruteforce_oracle(seed):
    # soundness against the O(n^2) pairwise scan, heavy-tailed radii included
    rng = np.random.default_rng(seed)
    n = 1000
    centers = rng.uniform(0, 10, size=(n, 2))
    radii = rng.pareto(1.5, size=n) * 0.05
    idx = SpatialIndex(cell_size=0.2)
    for k, (c, r) in enumerate(zip(centers.tolist(), radii.tolist())):
        idx._store(k, tuple(c), r)
    for _ in range(50):
        q = rng.uniform(0, 10, size=2)
        qr = float(rng.pareto(1.5) * 0.2)
        cand = set(idx.candidates(q, qr))
        diff = centers - q
        true = np.flatnonzero(
            np.einsum("ij,ij->i", diff, diff) <= (radii + qr) ** 2
        )
        assert set(true.tolist()) <= cand
        got = idx.candidates(q, qr)
        assert len(got) == len(set(got))


def test_default_cell_size_clamps():
    w = Box([0, 0], [1, 1])
    assert default_cell_size(w, 0.2) == pytest.approx(0.4)
    assert default_cell_size(w, 0.0) == pytest.approx(1 / 64)
