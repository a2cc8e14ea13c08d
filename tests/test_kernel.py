"""The array connectivity kernel against brute force, and the closed-form
local component count against the probe-box loop it replaces."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crcmlab import connectivity
from crcmlab.connectivity import (
    BallGraph,
    compatibility_offset,
    components,
    count_components,
    intersecting_pairs,
    label_components,
    local_cc,
)
from crcmlab.geometry import Box, dilate
from crcmlab.model_core import (
    Configuration,
    DiracRadius,
    ModelParams,
    TruncatedParetoRadius,
    UniformRadius,
    sample_poisson_boolean,
)


def make_rng(k):
    return np.random.default_rng(np.random.SeedSequence(k))


def brute_partition(centers, radii, groups=None):
    """Components by an O(n^2) scalar union-find, as a set of frozensets."""
    n = len(radii)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in itertools.combinations(range(n), 2):
        if groups is not None and groups[a] != groups[b]:
            continue
        diff = centers[a] - centers[b]
        rsum = radii[a] + radii[b]
        if float(diff @ diff) <= rsum * rsum:
            parent[find(b)] = find(a)
    out: dict = {}
    for v in range(n):
        out.setdefault(find(v), set()).add(v)
    return {frozenset(s) for s in out.values()}


def kernel_partition(centers, radii, groups=None):
    count, labels = components(centers, radii, groups)
    assert sorted(set(labels.tolist())) == list(range(count))
    # labels are numbered in order of first appearance
    _, first = np.unique(labels, return_index=True)
    assert np.all(np.diff(first) > 0)
    out: dict = {}
    for v, lab in enumerate(labels.tolist()):
        out.setdefault(lab, set()).add(v)
    return count, {frozenset(s) for s in out.values()}


def random_balls(rng, n, d, kind):
    if kind == "tangent":  # integer lattice, spacing 1, radius 1/2: every neighbour touches
        side = int(np.ceil(n ** (1.0 / d))) + 1
        pts = np.array(list(itertools.product(range(side), repeat=d)), dtype=float)
        keep = rng.choice(len(pts), size=min(n, len(pts)), replace=False)
        return pts[keep], np.full(keep.size, 0.5)
    centers = rng.uniform(0.0, 10.0, size=(n, d))
    if kind == "uniform":
        return centers, rng.uniform(0.05, 1.0 if d == 2 else 1.5, size=n)
    return centers, TruncatedParetoRadius(d, 12.0).sample(rng, n) * 0.2


# the sweep case keeps the test id of the k-d tree it replaced, so recorded test names stay put
@pytest.fixture(params=["dense", "sweep"], ids=["dense", "tree"])
def path(request, monkeypatch):
    """Run the kernel through its dense pass and union-find, or through the
    strip sweep and csgraph, whatever the input size."""
    if request.param == "sweep":
        monkeypatch.setattr(connectivity, "_DENSE_MAX", 1)
        monkeypatch.setattr(connectivity, "_UNION_FIND_MAX", 0)
    return request.param


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["uniform", "tpareto", "tangent"])
def test_kernel_matches_brute_force(path, d, kind):
    rng = make_rng(1000 * d + len(kind))
    for n in (0, 1, 2, 7, 40, 130):
        centers, radii = random_balls(rng, n, d, kind)
        count, part = kernel_partition(centers, radii)
        assert part == brute_partition(centers, radii)
        assert count == len(part)


def test_kernel_pairs_sorted_and_exact(path):
    rng = make_rng(7)
    centers, radii = random_balls(rng, 60, 2, "tpareto")
    i, j = intersecting_pairs(centers, radii)
    assert np.all(i < j)
    assert np.all(np.diff(i * len(radii) + j) > 0)
    want = {
        (a, b)
        for a, b in itertools.combinations(range(len(radii)), 2)
        if float((centers[a] - centers[b]) @ (centers[a] - centers[b])) <= (radii[a] + radii[b]) ** 2
    }
    assert set(zip(i.tolist(), j.tolist())) == want


@pytest.mark.parametrize("kind", ["uniform", "tpareto", "tangent"])
def test_kernel_batched_groups_never_connect(path, kind):
    rng = make_rng(21)
    parts, centers, radii = [], [], []
    for g in range(9):
        c, r = random_balls(rng, int(rng.integers(0, 25)), 2, kind)
        centers.append(c)
        radii.append(r)
        parts.append(len(r))
    groups = np.repeat(np.arange(9), parts)
    centers, radii = np.concatenate(centers), np.concatenate(radii)
    count, part = kernel_partition(centers, radii, groups)
    assert part == brute_partition(centers, radii, groups)
    per_group = [
        components(centers[groups == g], radii[groups == g])[0] for g in range(9)
    ]
    assert count == sum(per_group)


def brute_pairs(centers, radii, groups=None):
    """Every meeting pair (a < b) of one group, in order, by scalar tests."""
    return [
        (a, b)
        for a, b in itertools.combinations(range(len(radii)), 2)
        if (groups is None or groups[a] == groups[b])
        and float((centers[a] - centers[b]) @ (centers[a] - centers[b])) <= (radii[a] + radii[b]) ** 2
    ]


def sweep_case(case, rng):
    """Inputs that stress the strip sweep's cells, keys and oversize scan."""
    n = 160
    if case in ("line", "space"):  # d = 1 and d = 3
        d = 1 if case == "line" else 3
        return rng.uniform(0.0, 6.0, size=(n, d)), rng.uniform(0.05, 0.6, size=n)
    if case == "coincident":  # zero reach: cell sides and strip ids must stay finite
        centers = np.repeat(rng.uniform(-1.0, 1.0, size=(4, 3)), n // 4, axis=0)
        return centers, np.zeros(n)
    if case == "far":  # coordinates near 1e6, radii near 1e-3: keys far above the reach
        centers = rng.uniform(0.0, 1e6, size=(n // 2, 2))
        centers = np.vstack([centers, centers + rng.uniform(-1e-3, 1e-3, size=centers.shape)])
        return centers, rng.uniform(0.5e-3, 1.5e-3, size=n)
    if case == "copies":  # the same balls four times over: any pair across groups shows
        centers, radii = rng.uniform(0.0, 1.0, size=(n // 4, 2)), rng.uniform(0.05, 0.3, size=n // 4)
        return np.tile(centers, (4, 1)), np.tile(radii, 4)
    centers = rng.uniform(0.0, 10.0, size=(n, 2))  # "heavy": some balls take the oversize scan
    radii = 0.1 * (1.0 - rng.uniform(size=n)) ** -0.8
    assert np.any(radii > connectivity._OVERSIZE * np.median(radii))
    return centers, radii


@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("case", ["line", "space", "coincident", "far", "copies", "heavy"])
def test_sweep_edge_cases_match_brute_force(path, case, grouped):
    rng = make_rng(31 + len(case))
    centers, radii = sweep_case(case, rng)
    groups = np.sort(rng.integers(0, 6, size=radii.size)) if grouped else None
    i, j = intersecting_pairs(centers, radii, groups)
    assert list(zip(i.tolist(), j.tolist())) == brute_pairs(centers, radii, groups)
    count, part = kernel_partition(centers, radii, groups)
    assert part == brute_partition(centers, radii, groups)
    assert count == len(part)


def oversize_case(rng, n, above):
    """Radii with r_max == _OVERSIZE * r_min, or one ulp above it (`above`)
    with more than half of the radii at r_min, so that the largest ball is
    the only one above _OVERSIZE median radii."""
    r_min = 0.05
    radii = np.full(n, r_min)
    few = rng.choice(n, size=n // 3, replace=False)
    radii[few] = rng.uniform(r_min, 1.5 * r_min, size=few.size)
    r_max = connectivity._OVERSIZE * r_min
    radii[few[0]] = np.nextafter(r_max, np.inf) if above else r_max
    return rng.uniform(0.0, 2.0, size=(n, 2)), radii


@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("above", [False, True], ids=["at_bound", "above_bound"])
def test_oversize_shortcut_matches_brute_force(monkeypatch, above, grouped):
    # at r_max == _OVERSIZE * r_min no ball can top _OVERSIZE medians, so the
    # sweep runs on the balls as given and takes no median; one ulp above,
    # the median path sends the largest ball to the whole-group scan
    rng = make_rng(61 + above + 2 * grouped)
    centers, radii = oversize_case(rng, 200, above)
    assert radii.size > connectivity._DENSE_MAX
    median = np.median(radii)
    assert np.count_nonzero(radii > connectivity._OVERSIZE * median) == above
    medians = []

    def spy(a, *args, **kwargs):
        medians.append(len(a))
        return median

    monkeypatch.setattr(np, "median", spy)
    groups = np.sort(rng.integers(0, 5, size=radii.size)) if grouped else None
    i, j = intersecting_pairs(centers, radii, groups)
    assert medians == ([radii.size] if above else [])
    assert list(zip(i.tolist(), j.tolist())) == brute_pairs(centers, radii, groups)
    count, part = kernel_partition(centers, radii, groups)
    assert part == brute_partition(centers, radii, groups)
    assert count == len(part)


def test_kernel_rejects_unsorted_groups():
    with pytest.raises(ValueError):
        components(np.zeros((3, 2)), np.ones(3), np.array([0, 1, 0]))


def test_label_components_rejects_unsorted_rows(path):
    # the csgraph path builds its row pointer from the order of `i`
    i, j = np.array([0, 2, 1]), np.array([1, 3, 2])
    with pytest.raises(ValueError):
        label_components(4, i, j)
    order = np.argsort(i)
    assert label_components(4, i[order], j[order])[0] == 1


@pytest.mark.parametrize("seed", range(6))
def test_label_components_paths_agree(monkeypatch, seed):
    # random edge lists sorted by their first node (second nodes in any
    # order, on either side), some nodes isolated: csgraph on the CSR built
    # from the rows gives the union-find's count and labels
    rng = make_rng(90 + seed)
    n = int(rng.integers(1, 300))
    m = int(rng.integers(1, 2 * n + 2))
    i, j = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
    keep = i != j
    i, j = i[keep], j[keep]
    if seed % 2:  # the kernel's own form: i < j, each pair once, sorted by (i, j)
        key = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
        i, j = key // n, key % n
    else:
        order = np.argsort(i, kind="stable")
        i, j = i[order], j[order]
    got = {}
    for name, cut in (("union_find", 10**9), ("csgraph", 0)):
        monkeypatch.setattr(connectivity, "_UNION_FIND_MAX", cut)
        got[name] = label_components(n, i, j)
    assert got["union_find"][0] == got["csgraph"][0]
    assert np.array_equal(got["union_find"][1], got["csgraph"][1])


def test_count_components_of_configuration_matches_brute_force():
    rng = make_rng(5)
    w = Box([-10, -10], [10, 10])
    for law in (UniformRadius(0.2, 1.0), TruncatedParetoRadius(2, 8.0)):
        cfg = sample_poisson_boolean(ModelParams(0.3, 1.0, law, w), rng)
        assert count_components(cfg) == len(brute_partition(*cfg.arrays()[:2]))


# -- local component count: closed form against the probe loop ---------------------


def probe_loop_local_cc(cfg, box, step=None):
    """The probe-box evaluation of the local count: c(D) = ncc(balls in D) -
    ncc(balls in D minus box) on D = dilate(box, k step), k = 0, 1, ...,
    until D holds every ball; the final value and the first probe from which
    c stays constant."""
    if not cfg.n:
        return 0, box
    centers, radii, _ = cfg.arrays()
    if step is None:
        step = max(1.0, float(np.max(radii)))
    target = Box(
        np.minimum(np.min(centers - radii[:, None], axis=0), box.lo),
        np.maximum(np.max(centers + radii[:, None], axis=0), box.hi),
    )
    in_box = box.contains_points(centers)
    diff = centers[:, None, :] - centers[None, :, :]
    rsum = radii[:, None] + radii[None, :]
    adj = np.einsum("ijx,ijx->ij", diff, diff) <= rsum * rsum
    nbrs = [np.flatnonzero(row).tolist() for row in adj]

    def ncc(mask):  # graph search on the induced subgraph
        todo = set(np.flatnonzero(mask).tolist())
        comps = 0
        while todo:
            comps += 1
            stack = [todo.pop()]
            while stack:
                for w in nbrs[stack.pop()]:
                    if w in todo:
                        todo.remove(w)
                        stack.append(w)
        return comps

    values, probes = [], []
    k = 0
    while True:
        probe = dilate(box, k * step)
        in_probe = probe.contains_points(centers)
        values.append(ncc(in_probe) - ncc(in_probe & ~in_box))
        probes.append(probe)
        if probe.contains_box(target):
            break
        k += 1
    first = len(values) - 1
    while first > 0 and values[first - 1] == values[-1]:
        first -= 1
    return values[-1], probes[first]


def test_local_cc_matches_probe_loop():
    rng = make_rng(2024)
    w = Box([-6, -6], [6, 6])
    laws = [UniformRadius(0.1, 1.2), TruncatedParetoRadius(2, 5.0), DiracRadius(0.5)]
    boxes = [Box([-1, -1], [1, 1]), Box([-3, -2], [0.5, 2.5])]
    checked = 0
    for t in range(500):
        law = laws[t % 3]
        z = rng.uniform(0.05, 0.5) / (3 if t % 3 == 1 else 1)
        cfg = sample_poisson_boolean(ModelParams(z, 1.0, law, w), rng)
        for box in boxes:
            for step in (None, 0.37, 2.5):
                got = local_cc(cfg, box) if step is None else local_cc(cfg, box, step=step)
                value, stab = probe_loop_local_cc(cfg, box, step)
                assert got.value == value
                assert np.array_equal(got.stabilization_box.lo, stab.lo)
                assert np.array_equal(got.stabilization_box.hi, stab.hi)
                checked += 1
        assert BallGraph.of(*cfg.arrays()[:2]).local(boxes[0]) == local_cc(cfg, boxes[0]).value
    assert checked == 3000


PROPERTY_LAWS = {
    "dirac": DiracRadius(0.5),
    "uniform": UniformRadius(0.1, 1.2),
    "tpareto": TruncatedParetoRadius(2, 5.0),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    law=st.sampled_from(sorted(PROPERTY_LAWS)),
    seed=st.integers(0, 2**32 - 1),
    z=st.floats(0.02, 0.4),
    lo=st.tuples(st.floats(-6, 6), st.floats(-6, 6)),
    sides=st.tuples(st.floats(0, 8), st.floats(0, 8)),
)
def test_local_count_is_the_local_cc_value(law, seed, z, lo, sides):
    w = Box([-6, -6], [6, 6])
    cfg = sample_poisson_boolean(ModelParams(z, 1.0, PROPERTY_LAWS[law], w), make_rng(seed))
    box = Box(lo, np.minimum(np.add(lo, sides), 6.0))
    assert local_cc(cfg, box).value == BallGraph.of(*cfg.arrays()[:2]).local(box)


def test_local_cc_rejects_nonpositive_step():
    cfg = Configuration.from_balls(Box([-5, -5], [5, 5]), [])
    cfg.add(np.array([0.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        local_cc(cfg, Box([-1, -1], [1, 1]), step=0.0)


def test_probe_step_must_be_finite():
    # 0 * inf is NaN: an infinite step would put no ball in the box's own probe
    centers, radii = np.array([[0.0, 0.0], [3.0, 0.0]]), np.array([0.5, 0.5])
    cfg = Configuration.from_arrays(Box([-5, -5], [5, 5]), centers, radii)
    box = Box([-1, -1], [1, 1])
    assert BallGraph.of(centers, radii).local(box) == local_cc(cfg, box).value == 1
    with pytest.raises(ValueError, match="positive and finite"):
        local_cc(cfg, box, np.inf)


def test_compatibility_offset_is_difference_of_local_counts():
    rng = make_rng(77)
    w = Box([-6, -6], [6, 6])
    inner, outer = Box([-1, -1], [1, 1]), Box([-3, -3], [3, 2])
    for _ in range(200):
        cfg = sample_poisson_boolean(ModelParams(0.3, 1.0, UniformRadius(0.1, 1.0), w), rng)
        want = local_cc(cfg, outer).value - local_cc(cfg, inner).value
        assert compatibility_offset(BallGraph.of(*cfg.arrays()[:2]), inner, outer, w) == want


# -- one pair list per ball set: every subset count and probe reads it -----------------

AUDIT_WINDOW = Box([-4, -4], [4, 4])
# the bounds audit's boxes in this window: the middle half, and it grown by a
# fifth of the window's side on every face
AUDIT_BOXES = (Box([-2, -2], [2, 2]), Box([-3.6, -3.6], [3.6, 3.6]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    balls=st.lists(
        # half-integer centers and radii in quarters: exact tangencies and
        # coincident points of radius zero are common
        st.tuples(st.integers(-7, 7), st.integers(-7, 7), st.integers(0, 6)), max_size=8
    ),
    forced_sweep=st.booleans(),
)
def test_shared_pairs_count_every_subset(balls, forced_sweep):
    centers = np.array([(x / 2, y / 2) for x, y, _ in balls], dtype=float).reshape(-1, 2)
    radii = np.array([r / 4 for *_, r in balls], dtype=float)
    with pytest.MonkeyPatch.context() as mp:
        if forced_sweep:  # the strip sweep and csgraph, as on large inputs
            mp.setattr(connectivity, "_DENSE_MAX", 1)
            mp.setattr(connectivity, "_UNION_FIND_MAX", 0)
        graph = BallGraph.of(centers, radii)
        for keep in itertools.product([False, True], repeat=radii.size):
            keep = np.array(keep, dtype=bool)
            assert graph.count(keep) == components(centers[keep], radii[keep])[0]
        assert graph.count() == components(centers, radii)[0]
        cfg = Configuration.from_arrays(AUDIT_WINDOW, centers, radii)
        lam, outer = AUDIT_BOXES
        probes = [local_cc(cfg, box).value for box in AUDIT_BOXES]
        assert probes == [probe_loop_local_cc(cfg, box)[0] for box in AUDIT_BOXES]
        assert compatibility_offset(graph, lam, outer, AUDIT_WINDOW) == probes[1] - probes[0]
