"""Random add/remove sequences on a configuration and its incremental
labeling, checked after every step against two from-scratch counts, and
every ball's removal split against its brute-force component (the members
the hard-core-color chain recolors)."""
import itertools

import numpy as np
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from crcmlab.connectivity import ClusterLabeling, count_components
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
    parent = {i: i for i in ids}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in itertools.combinations(ids, 2):
        diff = cfg.centers[a] - cfg.centers[b]
        rsum = cfg.radii[a] + cfg.radii[b]
        if float(diff @ diff) <= rsum * rsum:
            parent[find(b)] = find(a)
    return {i: find(i) for i in ids}


def brute_count(cfg: Configuration) -> int:
    return len(set(brute_roots(cfg).values()))


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
        groups = self.lab.removal_split(self.cfg, slot)
        self.cfg.remove(slot)
        self.lab.apply_removal(slot, groups)
        assert self.lab.n_components == before + len(groups) - 1

    @precondition(lambda self: self.cfg.n > 0)
    @rule()
    def rebuild(self):
        self.lab.rebuild(self.cfg)

    @invariant()
    def counts_agree(self):
        assert self.lab.n_components == count_components(self.cfg) == brute_count(self.cfg)
        assert len(self.lab.roots(self.cfg)) == self.lab.n_components

    @invariant()
    def removal_split_spans_the_component(self):
        root = brute_roots(self.cfg)
        for slot in self.cfg.active_ids():
            members = [slot] + [s for g in self.lab.removal_split(self.cfg, slot) for s in g]
            assert len(members) == len(set(members))
            assert set(members) == {s for s, r in root.items() if r == root[slot]}


IncrementalLabeling.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    derandomize=True,
    # the explain phase traces every line and takes minutes on a failure
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
)
TestIncrementalLabeling = IncrementalLabeling.TestCase
