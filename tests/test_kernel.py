"""The array connectivity kernel against brute force, and the closed-form
local component count against the probe-box loop it replaces."""
import itertools

import numpy as np
import pytest

from crcmlab import connectivity
from crcmlab.connectivity import (
    compatibility_offset,
    components,
    count_components,
    intersecting_pairs,
    local_cc,
    local_count,
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


@pytest.fixture(params=["dense", "tree"])
def path(request, monkeypatch):
    """Run the kernel through its dense pass and union-find, or through the
    k-d tree and csgraph, whatever the input size."""
    if request.param == "tree":
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


def test_kernel_rejects_unsorted_groups():
    with pytest.raises(ValueError):
        components(np.zeros((3, 2)), np.ones(3), np.array([0, 1, 0]))


def test_count_components_of_configuration_matches_brute_force():
    rng = make_rng(5)
    w = Box([-10, -10], [10, 10])
    for law in (UniformRadius(0.2, 1.0), TruncatedParetoRadius(2, 8.0)):
        cfg = sample_poisson_boolean(ModelParams(0.3, 1.0, law, w), rng)
        ids = cfg.active_ids()
        assert count_components(cfg) == len(brute_partition(cfg.centers[ids], cfg.radii[ids]))


# -- local component count: closed form against the probe loop ---------------------


def probe_loop_local_cc(cfg, box, step=None):
    """The probe-box evaluation of the local count: c(D) = ncc(balls in D) -
    ncc(balls in D minus box) on D = dilate(box, k step), k = 0, 1, ...,
    until D holds every ball; the final value and the first probe from which
    c stays constant."""
    ids = cfg.active_ids()
    if not ids:
        return 0, box
    centers, radii = cfg.centers[ids], cfg.radii[ids]
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
        ids = cfg.active_ids()
        assert local_count(cfg.centers[ids], cfg.radii[ids], boxes[0]) == local_cc(cfg, boxes[0]).value
    assert checked == 3000


def test_local_cc_rejects_nonpositive_step():
    cfg = Configuration.from_balls(Box([-5, -5], [5, 5]), [])
    cfg.add(np.array([0.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        local_cc(cfg, Box([-1, -1], [1, 1]), step=0.0)


def test_compatibility_offset_is_difference_of_local_counts():
    rng = make_rng(77)
    w = Box([-6, -6], [6, 6])
    inner, outer = Box([-1, -1], [1, 1]), Box([-3, -3], [3, 2])
    for _ in range(200):
        cfg = sample_poisson_boolean(ModelParams(0.3, 1.0, UniformRadius(0.1, 1.0), w), rng)
        want = local_cc(cfg, outer).value - local_cc(cfg, inner).value
        assert compatibility_offset(cfg, inner, outer) == want
