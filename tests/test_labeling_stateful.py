"""Random add/remove sequences on a configuration and its incremental
labeling, checked after every step against two from-scratch counts: the
component ids against brute-force components up to renaming, and every
ball's members (what the hard-core-color chain recolors) and removal split
against its brute-force component.  A variant starts from one large
component of touching lattice balls, so removals split it and insertions
join it.  A second machine, in d = 2 and 3, checks after every add or
remove that `intersectors` answers a probe ball exactly as
`intersecting_pairs` does over all active balls, and that
`arrays()` gives back the added balls in move order, float for float.
Direct cases pin `intersectors`' distance screen to the exact in-order sum
at and near tangency."""
import itertools

import numpy as np
import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from crcmlab.connectivity import ClusterLabeling, count_components, intersecting_pairs
from crcmlab.geometry import Box
from crcmlab.model_core import Configuration, TruncatedParetoRadius

WINDOW = Box([-10, -10], [10, 10])
TPARETO = TruncatedParetoRadius(2, 20.0)

# lattice centers spaced 1.0 with radius 0.5 are exactly tangent
lattice = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(
    lambda t: (float(t[0]), float(t[1]))
)
anywhere = st.tuples(
    st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False)
)
radius = st.one_of(
    st.just(0.5),
    st.floats(0.05, 1.0),
    st.floats(0.0, 0.999).map(TPARETO.quantile),  # tpareto: fills the overflow list
)


def brute_roots(cfg: Configuration) -> dict[int, int]:
    """Union-find root of every active slot over all tested pairs."""
    ids = cfg.active_ids()
    balls = cfg.index.balls
    parent = {i: i for i in ids}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in itertools.combinations(ids, 2):
        diff = np.subtract(balls[a][0], balls[b][0])
        rsum = balls[a][1] + balls[b][1]
        if float(diff @ diff) <= rsum * rsum:
            parent[find(b)] = find(a)
    return {i: find(i) for i in ids}


class IncrementalLabeling(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # cell size 1: every tpareto radius (>= 1) lands in the overflow list
        self.cfg = Configuration(WINDOW, cell_size=1.0)
        self.lab = ClusterLabeling(self.cfg)

    @rule(center=st.one_of(lattice, anywhere), r=radius)
    def add(self, center, r):
        center = np.array(center)
        before = self.lab.n_components
        delta, hits = self.lab.insertion_increment(self.cfg, center, r)
        slot = self.cfg.add(center, r)
        self.lab.apply_insertion(slot, hits)
        assert self.lab.n_components == before + delta <= before + 1

    @precondition(lambda self: self.cfg.n > 0)
    @rule(pick=st.integers(0, 10**6))
    def remove(self, pick):
        slot = self.cfg.active_ids()[pick % self.cfg.n]
        before = self.lab.n_components
        groups = self.lab.removal_split(slot)
        self.cfg.remove(slot)
        self.lab.apply_removal(slot, groups)
        assert self.lab.n_components == before + len(groups) - 1

    @precondition(lambda self: self.cfg.n > 0)
    @rule()
    def rebuild(self):
        self.lab.rebuild(self.cfg)

    @invariant()
    def labels_and_splits_are_the_components(self):
        # one brute-force pass: the count, the ids up to renaming, each
        # slot's members (what the hard-core-color chain recolors) and its
        # removal split all match the brute-force components
        root = brute_roots(self.cfg)
        component = {r: {s for s, t in root.items() if t == r} for r in set(root.values())}
        assert self.lab.n_components == count_components(self.cfg) == len(component)
        renaming = set(zip(self.lab.label.values(), map(root.get, self.lab.label)))
        assert len(renaming) == len(self.lab.members) == len(component)
        for slot in self.cfg.active_ids():
            assert self.lab.members[self.lab.label[slot]] == component[root[slot]]
            members = [slot] + [s for g in self.lab.removal_split(slot) for s in g]
            assert len(members) == len(set(members))
            assert set(members) == component[root[slot]]
        assert self.lab.labels_exactly(self.cfg)


IncrementalLabeling.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    derandomize=True,
    # the explain phase traces every line and takes minutes on a failure
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
)
TestIncrementalLabeling = IncrementalLabeling.TestCase


class GiantComponentLabeling(IncrementalLabeling):
    """The same rules from a start with one large component: a snake of
    touching lattice balls, so removals split it and insertions (tpareto
    radii among them) join its parts and merge other components into it."""

    @initialize(length=st.integers(20, 70), row=st.integers(-6, 0))
    def lay_a_snake(self, length, row):
        for k in range(length):
            y, x = divmod(k, 13)
            self.add((float(x - 6 if y % 2 == 0 else 6 - x), float(row + y)), 0.5)
        assert self.lab.n_components == 1


GiantComponentLabeling.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
)
TestGiantComponentLabeling = GiantComponentLabeling.TestCase


def brute_hits(cfg: Configuration, center, r: float) -> list[int]:
    """Slots meeting B(center, r), from the pair kernel over every active
    ball plus the probe (the last index, so it is always j of a pair)."""
    ids = np.asarray(cfg.active_ids(), dtype=np.intp)
    centers, radii, _ = cfg.arrays()
    i, j = intersecting_pairs(np.vstack([centers, [center]]), np.append(radii, r))
    return sorted(ids[i[j == ids.size]].tolist())


def exact_hits_machine(d: int):
    """Add, bulk-add and remove balls in [-10, 10]^d with grid cell 1,
    probing after each change.  Lattice balls of radius 0.5 are exactly
    tangent; tpareto radii (>= 1) go to the overflow list; bulk adds and
    large probes reach the take-every-ball fallback and long candidate
    lists; removing the largest grid ball leaves grid_radius above every
    stored grid radius."""
    window = Box([-10.0] * d, [10.0] * d)
    point = st.one_of(
        st.tuples(*[st.integers(-6, 6)] * d).map(lambda t: tuple(map(float, t))),
        st.tuples(*[st.floats(-10, 10, allow_nan=False)] * d),
    )

    class ExactHits(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.cfg = Configuration(window, cell_size=1.0)
            self.balls = []  # (center, radius) in move order, kept by hand

        def probe(self, center, r):
            got = self.cfg.intersectors(center, r)
            assert len(got) == len(set(got))
            assert sorted(got) == brute_hits(self.cfg, center, r)

        def take_out(self, pos):
            """Remove the ball at move position pos; the last one takes its place."""
            self.cfg.remove(self.cfg.active_ids()[pos])
            self.balls[pos] = self.balls[-1]
            self.balls.pop()

        @invariant()
        def arrays_are_the_balls_in_move_order(self):
            centers, radii, colors = self.cfg.arrays()
            assert colors is None
            assert centers.shape == (len(self.balls), d) and radii.shape == (len(self.balls),)
            assert centers.tolist() == [list(c) for c, _ in self.balls]
            assert radii.tolist() == [r for _, r in self.balls]

        @rule(center=point, r=radius, probe=point, probe_r=radius)
        def add(self, center, r, probe, probe_r):
            self.cfg.add(center, r)
            self.balls.append((center, r))
            self.probe(probe, probe_r)

        @rule(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 80), probe=point, probe_r=radius)
        def add_many(self, seed, k, probe, probe_r):
            rng = np.random.default_rng(seed)
            on_lattice = rng.random(k) < 0.5
            centers = np.where(
                on_lattice[:, None],
                rng.integers(-6, 7, size=(k, d)).astype(float),
                rng.uniform(-10, 10, size=(k, d)),
            )
            radii = np.where(
                on_lattice,
                0.5,
                np.where(rng.random(k) < 0.3, TPARETO.sample(rng, k), rng.uniform(0.05, 1.0, k)),
            )
            for c, r in zip(centers.tolist(), radii.tolist()):
                self.cfg.add(c, r)
                self.balls.append((c, r))
            self.probe(probe, probe_r)

        @precondition(lambda self: self.cfg.n > 0)
        @rule(pick=st.integers(0, 10**6), probe=point, probe_r=radius)
        def remove(self, pick, probe, probe_r):
            self.take_out(pick % self.cfg.n)
            self.probe(probe, probe_r)

        @precondition(lambda self: any(r <= 1.0 for _, r in self.balls))
        @rule(probe=point, probe_r=radius)
        def remove_largest_grid_ball(self, probe, probe_r):
            grid = [pos for pos, (_, r) in enumerate(self.balls) if r <= 1.0]
            biggest = max(grid, key=lambda pos: self.balls[pos][1])
            reach = self.cfg.index.grid_radius
            self.take_out(biggest)
            assert self.cfg.index.grid_radius == reach
            self.probe(probe, probe_r)

    ExactHits.TestCase.settings = settings(
        max_examples=40,
        stateful_step_count=30,
        deadline=None,
        derandomize=True,
        phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
    )
    return ExactHits


TestExactHits2 = exact_hits_machine(2).TestCase
TestExactHits3 = exact_hits_machine(3).TestCase


def test_exact_hits_one_ulp_inside_a_cell_boundary():
    # fl(1 - 2**-53 - 5.5) = -4.5, so the float test counts the ball at
    # distance 4.5 + 2**-53 as touching the probe; it lies in cell 0, which
    # an unwidened reach of exactly 4.5 starts one cell past
    cfg = Configuration(Box([-20.0, -20.0], [20.0, 20.0]), cell_size=1.0)
    for k in range(120):  # more balls than the query's cells: no fallback
        cfg.add((-15.0 + k % 12, 10.0 + k // 12 * 0.5), 0.1)
    slot = cfg.add((1.0 - 2.0**-53, 0.0), 0.5)
    assert cfg.index.grid_radius == 0.5
    assert brute_hits(cfg, (5.5, 0.0), 4.0) == [slot]
    assert cfg.intersectors((5.5, 0.0), 4.0) == [slot]


# -- the screened closed-ball test ----------------------------------------------


def exact_in_order(cfg: Configuration, center, r: float) -> list[int]:
    """Candidates passing |c - center|^2 <= (r_c + r)^2, the squares summed
    coordinate by coordinate: what `intersectors` returns, in its order."""
    x = tuple(map(float, center))
    out = []
    for j in cfg.index.candidates(center, r):
        c, rj = cfg.index.balls[j]
        d2 = 0.0
        for a, b in zip(c, x):
            a -= b
            d2 += a * a
        rj += r
        if d2 <= rj * rj:
            out.append(j)
    return out


def near_tangent_probes(rng, d: int, scale: float, offset: float):
    """(ball center, ball radius, probe center, probe radius) at a distance
    of (1 + rel) times the radius sum: rel a few ulps, or at the 1e-9 edge
    of the screen, either side; radii zero now and then."""
    for rel in (0.0, 2**-52, -(2**-52), 3e-16, -3e-16, 1e-9, -1e-9, 1.2e-9, -1.2e-9, 0.8e-9, -0.8e-9):
        c = offset + scale * rng.uniform(-1, 1, d)
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        r, r_probe = scale * rng.uniform(0.01, 1, 2) * (rng.random(2) > 0.1)
        x = c + (r + r_probe) * (1 + rel) * u
        for k in range(-3, 4):  # ulp steps of one coordinate
            y = x.copy()
            y[0] = x[0] + k * np.spacing(x[0])
            yield c, r, y, r_probe


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (1e-3, 0.5), (0.5, 1e6), (1e-160, 0.0)])
def test_screened_intersectors_decide_as_the_exact_sum(d, scale, offset):
    rng = np.random.default_rng(d)
    span = 4 * scale + 2 * abs(offset)
    window = Box([offset - span] * d, [offset + span] * d)
    for c, r, y, r_probe in near_tangent_probes(rng, d, scale, offset):
        cfg = Configuration(window, cell_size=max(scale, 1e-9))
        slot = cfg.add(c, r)
        cfg.add(offset + np.full(d, 3 * scale), 0.0)  # a miss, so the list is not empty
        got = cfg.intersectors(y, r_probe)
        assert got == exact_in_order(cfg, y, r_probe)
        assert got in ([], [slot])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_screened_intersectors_on_zero_radii(d):
    window = Box([-1.0] * d, [1.0] * d)
    cfg = Configuration(window, cell_size=0.1)
    origin = np.zeros(d)
    slots = [cfg.add(origin, 0.0)]
    for step in (2.0**-1074, 1e-200, 1e-162, 1e-150, 2.0**-52, 1e-9):
        slots.append(cfg.add(origin + step, 0.0))
    for probe in (origin, origin + 1e-200, origin + 1e-155, origin + 2.0**-52):
        assert cfg.intersectors(probe, 0.0) == exact_in_order(cfg, probe, 0.0)
    assert slots[0] in cfg.intersectors(origin, 0.0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_screened_intersectors_match_the_pair_kernel(d, seed):
    # tpareto radii in a grid of cell 1 fill the overflow list
    rng = np.random.default_rng(seed)
    window = Box([-10.0] * d, [10.0] * d)
    cfg = Configuration(window, cell_size=1.0)
    n = 150
    centers = rng.uniform(-10, 10, (n, d))
    radii = np.where(rng.random(n) < 0.3, TPARETO.sample(rng, n), rng.uniform(0.0, 1.0, n))
    for c, r in zip(centers, radii):
        cfg.add(c, r)
    assert cfg.index.oversized
    for _ in range(200):
        x = rng.uniform(-10, 10, d)
        r = float(TPARETO.sample(rng)) if rng.random() < 0.2 else float(rng.uniform(0, 1))
        got = cfg.intersectors(x, r)
        assert got == exact_in_order(cfg, x, r)
        assert sorted(got) == brute_hits(cfg, x, r)
