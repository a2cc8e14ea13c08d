import dataclasses
import itertools
import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy import stats

from crcmlab import crcm
from crcmlab import widom_rowlinson as wr
from crcmlab.geometry import Box, SpatialIndex
from crcmlab.model_core import (
    Configuration,
    DiracRadius,
    ModelParams,
    ParetoRadius,
    UniformRadius,
    sample_poisson_boolean,
)
from crcmlab.connectivity import ClusterLabeling, components, count_components
from crcmlab.crcm import (
    ChainState,
    DegenerateWeights,
    RejectionBudgetExceeded,
    bd_step,
    birth_ratio,
    conditional_resample,
    death_ratio,
    domination_check,
    entropy_report,
    gnz_residuals,
    importance_oracle,
    new_chain,
    run_chain,
)
from crcmlab._stats import batch_means_se, effective_sample_size, integrated_autocorr_time

UNIT = Box([0, 0], [1, 1])
TINY = ModelParams(2.0, 2.0, DiracRadius(0.3), UNIT)


def seeded(k):
    return np.random.default_rng(np.random.SeedSequence(k))


def empty_chain(params, rng):
    """A cluster chain started from the empty configuration."""
    cfg = Configuration(params.window, cell_size=params.cell_size)
    return ChainState(params=params, config=cfg, rng=rng)


# -- the move kernel -------------------------------------------------------------


def cluster_factor(state, center, radius):
    """The cluster model's insertion factor q^(component increment)."""
    delta, _ = state.labeling.insertion_increment(state.config, center, radius)
    return state.params.q**delta


def test_papangelou_isolated_merge_and_q1():
    # the birth ratio carries the conditional intensity z q^(increment)
    state = empty_chain(TINY, seeded(0))
    # two far components
    for c in ([0.1, 0.1], [0.9, 0.9]):
        slot = state.config.add(np.array(c), 0.1)
        state.labeling.apply_insertion(slot, [])
    lam = TINY.total_intensity
    far = cluster_factor(state, np.array([0.9, 0.1]), 0.05)
    assert birth_ratio(lam, 2, far) * 3 == pytest.approx(2.0 * 2.0)  # z q^{+1}
    bridge = cluster_factor(state, np.array([0.5, 0.5]), 0.6)
    assert birth_ratio(lam, 2, bridge) * 3 == pytest.approx(2.0 / 2.0)  # z q^{-1}
    state1 = new_chain(ModelParams(3.0, 1.0, DiracRadius(0.3), UNIT), seeded(1))
    n = state1.config.n
    factor = cluster_factor(state1, np.array([0.4, 0.4]), 0.3)
    assert birth_ratio(3.0, n, factor) * (n + 1) == pytest.approx(3.0)


def test_birth_acceptance_from_empty_state():
    params = ModelParams(0.3, 2.0, DiracRadius(0.1), UNIT)
    state = empty_chain(params, seeded(2))
    delta, hits = state.labeling.insertion_increment(state.config, np.array([0.5, 0.5]), 0.1)
    assert delta == 1 and hits == []
    ratio = birth_ratio(params.total_intensity, 0, params.q**delta)
    assert ratio == pytest.approx(params.total_intensity * params.q)


def test_detailed_balance_product_is_one():
    # birth ratio times the death ratio of the same ball is exactly 1, with
    # the factors the chain runs: ModelParams.insertion and .deletion
    rng = seeded(3)
    params = ModelParams(4.0, 2.0, UniformRadius(0.05, 0.4), UNIT)
    lam = params.total_intensity
    state = new_chain(params, rng)
    for _ in range(100):
        bd_step(state)
    for _ in range(50):
        center = UNIT.sample_point(rng)
        radius = params.law.sample_scalar(rng)
        n = state.config.n
        factor, hits, color = params.insertion(state.config, state.labeling, center, radius, rng)
        assert color is None
        r_birth = birth_ratio(lam, n, factor)
        slot = state.config.add(center, radius)
        state.labeling.apply_insertion(slot, hits)
        back, groups = params.deletion(state.labeling, slot)
        r_death = death_ratio(lam, n + 1, back)
        assert r_birth * r_death == pytest.approx(1.0, rel=1e-12)
        assert factor == params.q ** (1 - len(groups))
        state.config.remove(slot)
        state.labeling.apply_removal(slot, groups)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts calls of the move kernel `birth_death`, by move type, through
    `crcm`, the one crcmlab module that binds it, and of the color model's
    allowed-set factor."""
    calls = {"birth": 0, "death": 0, "allowed": 0}
    kernel, allowed = crcm.birth_death, wr.insertion_allowed

    def counting_kernel(state, p, slots, birth):
        calls["birth" if birth else "death"] += 1
        return kernel(state, p, slots, birth)

    def counting_allowed(*args):
        calls["allowed"] += 1
        return allowed(*args)

    monkeypatch.setattr(crcm, "birth_death", counting_kernel)
    monkeypatch.setattr(wr, "insertion_allowed", counting_allowed)
    return calls


def test_every_chain_move_goes_through_the_kernel(kernel_calls, monkeypatch):
    # one kernel call per birth or death proposal, in every chain flow; the
    # ratios and the Metropolis test live in crcm only
    for name in ("birth_ratio", "death_ratio", "metropolis", "birth_death"):
        assert not hasattr(wr, name)

    def check(state, moves, factor_kinds=()):
        proposed, calls = dict(state.proposed), dict(kernel_calls)
        moves()
        for kind, counted in (("birth", "birth"), ("death", "death"), *factor_kinds):
            made = state.proposed[kind] - proposed[kind]
            assert kernel_calls[counted] - calls[counted] == made > 0

    params = ModelParams(30.0, 2.0, DiracRadius(0.05), UNIT)
    state = new_chain(params, seeded(50))
    check(state, lambda: [bd_step(state) for _ in range(300)])
    # the nested fallback of conditional resampling, on the whole window
    monkeypatch.setattr(crcm, "_REJECTION_ATTEMPTS", 0)
    monkeypatch.setattr(crcm, "_FALLBACK_SWEEPS", 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RejectionBudgetExceeded)
        check(state, lambda: conditional_resample(state, UNIT))
    wr_params = wr.WrParams(30.0, 2, DiracRadius(0.05), UNIT)
    wr_state = wr.new_wr_chain(wr_params, seeded(51))
    for _ in range(2000):
        wr.wr_step(wr_state)
    # every color-model birth weighs its insertion by the tested factor
    check(wr_state, lambda: [wr.wr_step(wr_state) for _ in range(300)], [("birth", "allowed")])


@pytest.mark.parametrize(
    "params",
    [ModelParams(100.0, 2.0, DiracRadius(0.05), UNIT), wr.WrParams(100.0, 2, DiracRadius(0.05), UNIT)],
    ids=["crcm", "wr"],
)
def test_moves_query_the_grid_once_and_removals_compute_no_key(monkeypatch, params):
    # a birth proposal reads the index's buckets once and builds no flat
    # candidate list; a death finds the ball's bucket from its kept key
    calls = dict.fromkeys(("buckets", "candidates", "_key"), 0)
    for name in calls:
        def counted(self, *args, _name=name, _right=getattr(SpatialIndex, name)):
            calls[_name] += 1
            return _right(self, *args)

        monkeypatch.setattr(SpatialIndex, name, counted)
    state = new_chain(params, seeded(60))
    for _ in range(300):
        bd_step(state)
    for birth in (True, False):
        for _ in range(200):
            calls.update(dict.fromkeys(calls, 0))
            crcm.birth_death(state, params, state.config.active_ids(), birth)
            assert (calls["buckets"], calls["candidates"]) == (birth, 0)
            assert birth or calls["_key"] == 0
    assert state.accepted["birth"] > 0 and state.accepted["death"] > 0


@pytest.mark.parametrize(
    "params, digest",
    [
        (wr.WrParams(400.0, 2, DiracRadius(0.03), UNIT),
         "e1bb7d095342120cfbd1520bcc9e390a17a907b260a9f271858797ce5a8d671c"),
        (ModelParams(200.0, 2.0, DiracRadius(0.03), UNIT),
         "837026fc9a806a5a4c7ba00da3757ee58aeed65b41309ea422d9589ee7451b9c"),
    ],
    ids=["wr", "crcm"],
)
def test_coupling_chains_are_pinned(chain_fingerprint, params, digest):
    # the `coupling` benchmark's two chains, 20,000 moves each: a change to
    # the move path that keeps every draw and hit keeps these digests
    assert chain_fingerprint(params, 22, 20_000) == digest


def test_nested_chain_q1_count_is_poisson_mean():
    # q = 1, box = window, empty exterior: the nested chain targets Poisson(z |box|)
    params = ModelParams(8.0, 1.0, DiracRadius(0.05), UNIT)
    state = empty_chain(params, seeded(52))
    counts = []
    for _ in range(3100):
        crcm._nested_box_chain(state, UNIT, 1)
        counts.append(state.config.n)
    counts = np.asarray(counts[100:], dtype=float)
    assert abs(counts.mean() - params.total_intensity) < 4 * batch_means_se(counts)
    state.audit()


@pytest.mark.parametrize(
    "q, box",
    [
        (2.0, Box([0.2, 0.3], [0.7, 0.9])),
        (2.0, UNIT),  # every ball inside: the last active ball is always inner
        (0.5, Box([0.0, 0.5], [0.5, 1.0])),
    ],
)
def test_nested_chain_keeps_inner_slots_in_move_order(monkeypatch, q, box):
    # before every proposal the kept list equals the recomputation over all
    # active balls, so the trajectory is the one that recomputation gives
    params = ModelParams(60.0, q, DiracRadius(0.05), UNIT)
    state = new_chain(params, seeded(53))
    move = crcm.birth_death
    seen = []

    def recomputed(state, p, slots, birth):
        cfg = state.config
        ids = np.asarray(cfg.active_ids(), dtype=np.intp)
        assert slots == ids[box.contains_points(cfg.arrays()[0])].tolist()
        seen.append(len(slots))
        return move(state, p, slots, birth)

    monkeypatch.setattr(crcm, "birth_death", recomputed)
    monkeypatch.setattr(crcm, "_REJECTION_ATTEMPTS", 0)
    monkeypatch.setattr(crcm, "_FALLBACK_SWEEPS", 20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RejectionBudgetExceeded)
        conditional_resample(state, box)
    assert len(seen) == 20 * crcm.sweep_size(ModelParams(60.0, q, DiracRadius(0.05), box))
    assert state.accepted["birth"] > 50 and state.accepted["death"] > 50
    state.audit()


def test_cached_component_count_audited(monkeypatch):
    params = ModelParams(20.0, 2.0, DiracRadius(0.08), UNIT)
    state = new_chain(params, seeded(4))
    monkeypatch.setattr(crcm, "AUDIT_EVERY", 500)
    for _ in range(5000):
        bd_step(state)  # audit raises on any cache drift
    assert state.n_cc == count_components(state.config)


def test_audit_checks_the_grid_index_balls():
    params = ModelParams(20.0, 2.0, DiracRadius(0.08), UNIT)
    for corrupt in (
        lambda idx, slot: idx.balls.pop(slot),
        lambda idx, slot: idx.balls.__setitem__(slot, ((0.5, 0.5), 0.08)),
        lambda idx, slot: idx.balls.__setitem__(10**6, idx.balls[slot]),
        # a grid ball's kept key names a cell other than its bucket's
        lambda idx, slot: idx.keys.__setitem__(slot, tuple(k + 1 for k in idx.keys[slot])),
    ):
        state = new_chain(params, seeded(4))
        state.audit()
        corrupt(state.config.index, state.config.active_ids()[3])
        with pytest.raises(RuntimeError, match="grid index"):
            state.audit()


def test_audit_checks_the_component_partition():
    # one ball's id and members entry moved to another component: every
    # slot still has an id and the count is right, but the partition is wrong
    state = new_chain(ModelParams(20.0, 2.0, DiracRadius(0.08), UNIT), seeded(4))
    state.audit()
    lab = state.labeling
    slot = next(s for s in state.config.active_ids() if len(lab.members[lab.label[s]]) > 1)
    other = next(c for c in lab.members if c != lab.label[slot])
    lab.members[lab.label[slot]].remove(slot)
    lab.members[other].add(slot)
    lab.label[slot] = other
    assert state.n_cc == count_components(state.config)
    with pytest.raises(RuntimeError, match="component labels"):
        state.audit()


def test_audit_catches_a_dropped_component():
    # the component count is the number of `members` entries: losing one
    # drops the count by one, and the partition check must see it
    state = new_chain(ModelParams(20.0, 2.0, DiracRadius(0.08), UNIT), seeded(4))
    state.audit()
    before = state.n_cc
    del state.labeling.members[next(iter(state.labeling.members))]
    assert state.n_cc == before - 1
    with pytest.raises(RuntimeError, match="component labels"):
        state.audit()


def brute_intersectors(cfg, center, radius):
    """Every active ball tested, hits in slot order (not the grid's order)."""
    ids = np.asarray(cfg.active_ids(), dtype=np.intp)
    centers, radii, _ = cfg.arrays()
    diff = centers - np.asarray(center, dtype=float)
    rsum = radii + radius
    return sorted(ids[np.einsum("ij,ij->i", diff, diff) <= rsum * rsum].tolist())


@pytest.mark.parametrize(
    "model, law, window, z",
    [
        ("crcm", DiracRadius(0.03), UNIT, 150.0),
        ("crcm", ParetoRadius(2, 20.0), Box([0, 0], [30, 30]), 0.15),
        ("wr", DiracRadius(0.04), UNIT, 200.0),
    ],
)
def test_chains_do_not_depend_on_the_grid_query(monkeypatch, model, law, window, z):
    def run():
        rng = seeded(55)
        if model == "wr":
            params = wr.WrParams(z, 2, law, window)
            rep = wr.run_wr_chain(params, rng, sweeps=20, burn_in=5, thin=1)
        else:
            rep = run_chain(ModelParams(z, 2.0, law, window), rng, sweeps=20, burn_in=5, thin=1)
        rep.state.audit()
        centers, radii, colors = rep.state.config.arrays()
        rows = [a.tolist() for a in (rep.sweeps, rep.counts, rep.n_cc, rep.largest)]
        colors = None if colors is None else colors.tolist()
        return rows, rep.accept_rates, centers.tolist(), radii.tolist(), colors

    grid = run()
    monkeypatch.setattr(Configuration, "intersectors", brute_intersectors)
    assert run() == grid
    assert max(grid[0][1]) > 20


def test_assumption_violation_raises():
    with pytest.raises(ValueError, match="assumption A: q < 1 requires a radius law with bounded"):
        ModelParams(1.0, 0.5, ParetoRadius(2), UNIT)


# -- importance oracle ------------------------------------------------------------


def test_oracle_q1_is_plain_monte_carlo():
    params = ModelParams(2.0, 1.0, DiracRadius(0.3), UNIT)
    res = importance_oracle(params, lambda c, n: c, 50_000, seeded(7))
    assert res.ess == pytest.approx(50_000)
    assert res.z_hat == pytest.approx(1.0)
    assert abs(res.estimate - 2.0) < 4 * res.se


def test_oracle_constant_statistic_is_exact():
    res = importance_oracle(TINY, lambda c, n: np.ones_like(c, dtype=float), 2000, seeded(8))
    assert res.estimate == pytest.approx(1.0)
    assert res.se == pytest.approx(0.0, abs=1e-12)


def test_oracle_reproducible_across_seeds():
    a = importance_oracle(TINY, lambda c, n: c, 200_000, seeded(9))
    b = importance_oracle(TINY, lambda c, n: c, 200_000, seeded(10))
    assert abs(a.estimate - b.estimate) < 3 * math.hypot(a.se, b.se)


def test_oracle_degenerate_weights():
    skewed = ModelParams(8.0, 200.0, DiracRadius(0.01), UNIT)
    with pytest.raises(DegenerateWeights):
        importance_oracle(skewed, lambda c, n: c, 1500, seeded(11))
    with pytest.raises(ValueError):
        importance_oracle(TINY, lambda c, n: c, 100, seeded(12))


def test_oracle_agrees_with_exact_rejection_sampler():
    # independent exact sampler: propose from the q-thickened process and
    # accept with probability q^(ncc - n)
    rng = seeded(13)
    z, q, r = 2.0, 2.0, 0.3
    counts = []
    while len(counts) < 20_000:
        n = rng.poisson(q * z)
        cs = rng.random((n, 2))
        if n == 0:
            ncc = 0
        else:
            from crcmlab.model_core import Configuration

            ncc = count_components(
                Configuration.from_arrays(UNIT, cs, np.full(n, r))
            )
        if rng.random() < q ** (ncc - n):
            counts.append(n)
    exact = float(np.mean(counts))
    exact_se = float(np.std(counts) / math.sqrt(len(counts)))
    res = importance_oracle(TINY, lambda c, n: c, 400_000, seeded(14))
    assert abs(res.estimate - exact) < 4 * math.hypot(res.se, exact_se)


# -- the chain against the oracle ---------------------------------------------------


def test_chain_means_match_oracle():
    rep = run_chain(TINY, seeded(15), sweeps=4000, burn_in=400, thin=2)
    for f, trace in ((lambda c, n: c, rep.counts), (lambda c, n: n, rep.n_cc)):
        res = importance_oracle(TINY, f, 300_000, seeded(16))
        ess = max(4.0, len(trace) / rep.iact_count)
        chain_se = float(np.std(trace) / math.sqrt(ess))
        assert abs(float(np.mean(trace)) - res.estimate) < 4 * math.hypot(chain_se, res.se)


def test_q1_chain_count_is_poisson():
    params = ModelParams(30.0, 1.0, DiracRadius(0.06), UNIT)
    rep = run_chain(params, seeded(17), sweeps=600, burn_in=100, thin=3)
    direct = seeded(18).poisson(30.0, size=rep.counts.size)
    p = stats.ks_2samp(rep.counts, direct, method="asymp").pvalue
    assert p > 0.005


# -- conditional resampling ----------------------------------------------------------


def test_conditional_resample_q1_is_fresh_poisson():
    params = ModelParams(10.0, 1.0, DiracRadius(0.1), UNIT)
    state = new_chain(params, seeded(19))
    box = Box([0.1, 0.1], [0.9, 0.9])
    counts = []
    for _ in range(800):
        conditional_resample(state, box)
        counts.append(int(np.count_nonzero(box.contains_points(state.config.arrays()[0]))))
    lam = 10.0 * box.volume
    direct = seeded(20).poisson(lam, size=len(counts))
    p = stats.ks_2samp(counts, direct, method="asymp").pvalue
    assert p > 0.005


def test_conditional_resample_full_window():
    state = new_chain(TINY, seeded(21))
    counts = []
    for _ in range(1200):
        conditional_resample(state, UNIT)
        counts.append(state.config.n)
    res = importance_oracle(TINY, lambda c, n: c, 200_000, seeded(22))
    se = float(np.std(counts) / math.sqrt(len(counts)))
    assert abs(float(np.mean(counts)) - res.estimate) < 4 * se


def test_conditional_resample_keeps_exterior_fixed():
    state = new_chain(TINY, seeded(23))
    box = Box([0.3, 0.3], [0.7, 0.7])

    def exterior():
        return sorted(c for c, _ in state.config.index.balls.values() if not box.contains_point(c))

    before = exterior()
    conditional_resample(state, box)
    assert exterior() == before
    state.audit()


def test_conditional_resample_q_below_one():
    params = ModelParams(6.0, 0.5, DiracRadius(0.15), UNIT)
    state = new_chain(params, seeded(24))
    box = Box([0.25, 0.25], [0.75, 0.75])
    with pytest.warns(RejectionBudgetExceeded):  # the nested-chain fallback is expected here
        for _ in range(40):
            conditional_resample(state, box)
    state.audit()


@pytest.mark.parametrize("q", [2.0, 0.5])
def test_conditional_resample_refuses_a_draw_past_its_envelope(monkeypatch, q):
    # a local count past its bound would make q^exponent exceed 1: at q = 2
    # one more than the balls centered in the box, at q = 0.5 far below the
    # explicit lower bound
    params = ModelParams(6.0, q, DiracRadius(0.15), UNIT)
    state = new_chain(params, seeded(29))
    box = Box([0.25, 0.25], [0.75, 0.75])

    def broken(graph, b):
        return int(np.count_nonzero(b.contains_points(graph.centers))) + 1 if q > 1 else -1000

    monkeypatch.setattr(crcm.BallGraph, "local", broken)
    with pytest.raises(RuntimeError, match="envelope"):
        conditional_resample(state, box)


def test_conditional_resample_budget_fallback_warns(monkeypatch):
    params = ModelParams(3.0, 2.0, DiracRadius(0.3), UNIT)
    state = new_chain(params, seeded(25))
    monkeypatch.setattr(crcm, "_REJECTION_ATTEMPTS", 0)
    monkeypatch.setattr(crcm, "_FALLBACK_SWEEPS", 5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        conditional_resample(state, UNIT)
    assert any(issubclass(w.category, RejectionBudgetExceeded) for w in caught)
    state.audit()


# -- balance-equation residuals -------------------------------------------------------


@pytest.fixture(scope="module")
def crcm_samples():
    params = ModelParams(3.0, 2.0, DiracRadius(0.12), UNIT)
    rep = run_chain(params, seeded(26), sweeps=450, burn_in=100, thin=3, keep_configs=True)
    return params, rep.samples


def test_gnz_mecke_identity_q1():
    params = ModelParams(3.0, 1.0, DiracRadius(0.12), UNIT)
    samples = [sample_poisson_boolean(params, seeded(1000 + i)).arrays() for i in range(200)]
    rows = gnz_residuals(samples, params, rng=seeded(27))
    assert all(r.residual < 4.0 for r in rows)


def test_gnz_residuals_small_on_chain_samples(crcm_samples):
    params, samples = crcm_samples
    rows = gnz_residuals(samples, params, rng=seeded(28), inner_points=128)
    assert all(r.residual < 4.0 for r in rows)


def test_gnz_wrong_q_detected(crcm_samples):
    params, samples = crcm_samples
    wrong = dataclasses.replace(params, q=3.0)
    rows = gnz_residuals(samples, wrong, rng=seeded(29), inner_points=128)
    assert max(r.residual for r in rows) > 4.0


def test_gnz_needs_enough_samples(crcm_samples):
    params, samples = crcm_samples
    with pytest.raises(ValueError):
        gnz_residuals(samples[:50], params, seeded(30))


def ref_gnz(samples, params, rng, inner_points, weights_of):
    """The former balance loop: scalar test functions called once per ball
    and per insertion, `weights_of(cfg, xs, rs, rng)` one weight per insertion."""
    lam = params.total_intensity
    mid = 0.5 * (params.window.lo[0] + params.window.hi[0])
    tests = [lambda n, c, r: 1.0, lambda n, c, r: math.exp(-n / lam),
             lambda n, c, r: 1.0 if c[0] <= mid else 0.0]
    diffs = [[] for _ in tests]
    for cfg in samples:
        xs = params.window.sample_points(rng, inner_points)
        rs = params.law.sample(rng, inner_points)
        w = weights_of(cfg, xs, rs, rng)
        for t, f in enumerate(tests):
            lhs = sum(f(cfg.n - 1, *cfg.index.balls[s]) for s in cfg.active_ids())
            rhs = lam * np.mean([f(cfg.n, x, r) * wk for x, r, wk in zip(xs, rs, w)])
            diffs[t].append(lhs - rhs)
    return [(np.mean(d), np.std(d, ddof=1) / math.sqrt(len(d))) for d in map(np.array, diffs)]


def test_gnz_array_statistics_match_ball_by_ball_loop():
    params = ModelParams(30.0, 2.0, DiracRadius(0.08), UNIT)
    rng = seeded(30)
    samples = [sample_poisson_boolean(params, rng) for _ in range(100)]

    def crcm_weights(cfg, xs, rs, rng):
        lab = ClusterLabeling(cfg)
        return [2.0 ** lab.insertion_increment(cfg, x, r)[0] for x, r in zip(xs, rs)]

    wp = wr.WrParams(30.0, 2, DiracRadius(0.08), UNIT)
    colored = [
        Configuration.from_arrays(UNIT, c, r, wr.fk_colorize(c, r, 2, rng))
        for c, r, _ in (cfg.arrays() for cfg in samples)
    ]

    def wr_weights(cfg, xs, rs, rng):
        ks = [1 + int(u * 2) for u in rng.random(len(xs))]
        return [
            float(wr.insertion_allowed(cfg, cfg.intersectors(x, r), int(k)))
            for x, r, k in zip(xs, rs, ks)
        ]

    for rows, ref in (
        (gnz_residuals([c.arrays() for c in samples], params, rng=seeded(31)),
         ref_gnz(samples, params, seeded(31), 96, crcm_weights)),
        (wr.gnz_residual_wr([c.arrays() for c in colored], wp, rng=seeded(32)),
         ref_gnz(colored, wp, seeded(32), 96, wr_weights)),
    ):
        for row, (mean, se) in zip(rows, ref):
            assert row.lhs - row.rhs == pytest.approx(mean, rel=1e-9, abs=1e-9)
            assert row.se == pytest.approx(se, rel=1e-9)


class Draws:
    """Stands in for a generator in `WrParams.insertion`: `random`
    returns the given values in turn."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


def checkerboard(colored):
    """Balls of radius 1/8 on every other site of a lattice of spacing 1/4
    in the unit square, all in binary fractions: no two balls touch, and a
    ball of radius 1/8 at any empty site is exactly tangent to its (up to
    four) neighbours."""
    sites = [(0.125 + 0.25 * i, 0.125 + 0.25 * j) for i in range(4) for j in range(4)]
    kept = [c for k, c in enumerate(sites) if (k + k // 4) % 2 == 0]
    colors = [1 + k % 2 for k in range(len(kept))] if colored else None
    cfg = Configuration.from_arrays(UNIT, kept, [0.125] * len(kept), colors)
    return cfg, np.array(sites), np.full(len(sites), 0.125)


def random_sample(colored, rng):
    params = ModelParams(30.0, 1.0, UniformRadius(0.02, 0.1), UNIT)
    centers, radii, _ = sample_poisson_boolean(params, rng).arrays()
    colors = wr.fk_colorize(centers, radii, 3, rng) if colored else None
    cfg = Configuration.from_arrays(UNIT, centers, radii, colors)
    return cfg, UNIT.sample_points(rng, 60), params.law.sample(rng, 60)


@pytest.mark.parametrize("build", [checkerboard, random_sample])
@pytest.mark.parametrize("model", ["crcm", "wr"])
def test_gnz_insertion_weights_are_the_chain_factors(build, model):
    # the balance check weighs insertions by the factor the chain accepts a
    # birth with: the array method against `insertion`, candidate by candidate
    rng = seeded(33)
    colored = model == "wr"
    cfg, xs, rs = build(colored) if build is checkerboard else build(colored, rng)
    params = (wr.WrParams(30.0, 3, DiracRadius(0.125), UNIT) if colored
              else ModelParams(30.0, 2.5, DiracRadius(0.125), UNIT))
    position = {slot: k for k, slot in enumerate(cfg.active_ids())}
    hit_lists = [cfg.intersectors(x, r) for x, r in zip(xs, rs)]
    hits = np.zeros((len(xs), cfg.n), dtype=bool)
    for m, slots in enumerate(hit_lists):
        hits[m, [position[s] for s in slots]] = True
    assert hits.any()
    weights = params.insertion_weights(cfg.arrays(), hits, seeded(34))
    # the color model draws one color per candidate, in order, from its stream:
    # 1 + int(u * q) of one uniform each
    us = seeded(34).random(len(xs)) if colored else None
    lab = ClusterLabeling(cfg)
    for m, (x, r) in enumerate(zip(xs, rs)):
        factor, slots, _ = params.insertion(cfg, lab, x, r, Draws([us[m]]) if colored else None)
        assert sorted(slots) == sorted(hit_lists[m])
        assert weights[m] == factor
    assert len(set(weights.tolist())) > 1


# -- domination and entropy ------------------------------------------------------------


def test_domination_upper_and_lower():
    params = ModelParams(3.0, 2.0, DiracRadius(1.0), Box([0, 0], [2, 2]))
    rep = run_chain(params, seeded(30), sweeps=500, burn_in=100, thin=3, keep_configs=True)
    rows = domination_check(rep.samples, params)
    assert {(r.statistic, r.side) for r in rows} == {
        ("count", "upper"),
        ("probe_count", "upper"),
        ("count", "lower"),
        ("probe_count", "lower"),
    }
    assert all(r.ok for r in rows)
    lower = {r.statistic: r for r in rows if r.side == "lower"}
    # the tilted-mass floor for unit radii in the plane: z |box| / 2^9
    assert lower["count"].bound == pytest.approx(3.0 * 4.0 * 2**-9)


def test_domination_check_needs_two_samples():
    # one sample has no standard error: refused, not passed with se=inf
    params = ModelParams(5.0, 2.0, DiracRadius(0.1), UNIT)
    samples = [sample_poisson_boolean(params, seeded(2000 + i)).arrays() for i in range(2)]
    with pytest.raises(ValueError, match="at least 2 samples"):
        domination_check(samples[:1], params)
    assert all(np.isfinite(r.se) for r in domination_check(samples, params))


def test_domination_q1_collapses_to_poisson():
    params = ModelParams(5.0, 1.0, DiracRadius(0.1), UNIT)
    samples = [sample_poisson_boolean(params, seeded(2000 + i)).arrays() for i in range(400)]
    rows = domination_check(samples, params)
    assert all(r.side == "upper" for r in rows)
    for r in rows:
        assert r.empirical <= r.bound + 3 * r.se
        assert r.empirical >= r.bound - 4 * r.se  # equality at q=1


def test_entropy_report_q1_rate_vanishes():
    params = ModelParams(2.0, 1.0, DiracRadius(0.2), UNIT)
    rep = entropy_report(params, 100_000, seeded(31))
    assert abs(rep.rate) < 3 * max(rep.rate_se, 1e-3)
    assert rep.bound == pytest.approx(2.0)
    assert rep.ok and rep.empty_floor_ok


def test_entropy_report_q2_bound_holds():
    rep = entropy_report(TINY, 150_000, seeded(32))
    assert rep.ok
    assert rep.ln_z_hat >= -TINY.total_intensity
    assert rep.rate <= rep.bound


def test_mean_components_nondecreasing_in_q():
    law = DiracRadius(0.3)
    estimates = []
    for q in (0.5, 1.0, 2.0, 4.0):
        params = ModelParams(2.0, q, law, UNIT)
        res = importance_oracle(params, lambda c, n: n, 150_000, seeded(33))
        estimates.append((res.estimate, res.se))
    for (a, sa), (b, sb) in zip(estimates, estimates[1:]):
        assert b >= a - 3 * math.hypot(sa, sb)
    assert estimates[-1][0] > estimates[0][0]


# -- report plumbing -------------------------------------------------------------------


def test_report_traces_and_rates():
    rep = run_chain(TINY, seeded(34), sweeps=50, burn_in=10, thin=5)
    assert len(rep.counts) == len(rep.n_cc) == len(rep.largest) == 10
    assert all(0.0 <= v <= 1.0 for v in rep.accept_rates.values())
    assert list(rep.sweeps) == list(range(10, 60, 5))
    assert rep.ess_count > 0


def test_snapshots_are_the_states_arrays():
    rep = run_chain(TINY, seeded(34), sweeps=50, burn_in=10, thin=1, keep_configs=True)
    assert len(rep.samples) == rep.counts.size == 50
    for (centers, radii, colors), count in zip(rep.samples, rep.counts):
        assert radii.size == count and centers.shape == (count, 2)
        assert colors is None
    # the last sweep is recorded: its snapshot is the final state's arrays
    for got, want in zip(rep.samples[-1][:2], rep.state.config.arrays()[:2]):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_short_traces_raise_no_warnings(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert integrated_autocorr_time(np.arange(n, dtype=float)) == 1.0
        assert effective_sample_size(np.arange(n)) == n
        if n == 1:
            run_chain(TINY, seeded(35), sweeps=1, burn_in=0, thin=1)


def _usable_cpus(monkeypatch, k):
    """Have the oracle see k usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


@pytest.mark.parametrize("block", [None, 40, 2**16])
def test_reference_draws_blocks_count_each_draw_alone(monkeypatch, block):
    # the draws come as every count, then every center, then every radius;
    # labeling them in runs of whole draws, on any number of worker threads,
    # must not mix two draws
    params = ModelParams(50.0, 1.5, DiracRadius(0.05), UNIT)
    n_draws = 1500  # about 75k balls: three blocks at the module's 2^15, two at 2^16
    _usable_cpus(monkeypatch, 1)
    serial = crcm._reference_draws(params, n_draws, seeded(43))
    if block is not None:  # 40: many blocks, some draws larger than a block
        monkeypatch.setattr(crcm, "_DRAW_BLOCK", block)
    rng = seeded(43)
    counts = rng.poisson(params.total_intensity, size=n_draws)
    centers = UNIT.sample_points(rng, int(counts.sum()))
    radii = params.law.sample(rng, int(counts.sum()))
    assert counts.sum() > crcm._DRAW_BLOCK
    ends = np.cumsum(counts)
    want = [components(centers[e - c:e], radii[e - c:e])[0] for c, e in zip(counts, ends)]
    labeled = []  # (balls, thread) per labeling call
    in_flight, peak, lock = [0], [0], threading.Lock()

    def spy(c, r, groups):
        with lock:
            labeled.append((r.size, threading.get_ident()))
            in_flight[0] += r.size
            peak[0] = max(peak[0], in_flight[0])
        try:
            return components(c, r, groups)
        finally:
            with lock:
                in_flight[0] -= r.size

    monkeypatch.setattr(crcm, "components", spy)
    for cpus in (1, 2, 3, "no affinity call"):
        if cpus == "no affinity call":
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
            cpus = 2
        else:
            _usable_cpus(monkeypatch, cpus)
        labeled.clear()
        peak[0] = 0
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches: a lost count would show
        try:
            got = crcm._reference_draws(params, n_draws, seeded(43))
        finally:
            sys.setswitchinterval(switch)
        for a, b in zip(got, serial):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert np.array_equal(got[0], counts) and got[1].tolist() == want
        # a run holds _DRAW_BLOCK // cpus balls, or one larger draw
        run_max = max(crcm._DRAW_BLOCK // cpus, int(counts.max()))
        assert max(n for n, _ in labeled) <= run_max
        assert peak[0] <= cpus * run_max
        assert len({t for _, t in labeled}) <= cpus
        assert sum(n for n, _ in labeled) == counts.sum()


def test_reference_draws_pass_on_a_worker_error(monkeypatch):
    # a run that fails reaches the caller, and every worker thread is joined
    params = ModelParams(50.0, 1.5, DiracRadius(0.05), UNIT)
    _usable_cpus(monkeypatch, 3)
    calls = itertools.count()

    def failing(c, r, groups):
        if next(calls) == 2:
            raise FloatingPointError("a run failed")
        return components(c, r, groups)

    monkeypatch.setattr(crcm, "components", failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="a run failed"):
        crcm._reference_draws(params, 1500, seeded(43))
    assert next(calls) > 3  # several runs were labeled
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "statistic",
    [
        lambda c, n: np.where(np.arange(n.size) == 5, np.nan, 1.0),
        lambda c, n: np.where(np.arange(n.size) == 5, np.inf, 1.0),
        lambda c, n: n[:, None].astype(float),
        lambda c, n: n[:-1].astype(float),
        lambda c, n: 1.0,
    ],
    ids=["nan", "inf", "column", "short", "scalar"],
)
def test_oracle_refuses_a_statistic_not_one_finite_value_per_draw(statistic):
    with pytest.raises(ValueError, match="one finite value per draw"):
        importance_oracle(TINY, statistic, 2000, seeded(8))


@pytest.mark.parametrize("n_oracle", [0, 1])
def test_entropy_report_needs_two_draws(n_oracle):
    with pytest.raises(ValueError, match="at least 2 draws"):
        entropy_report(TINY, n_oracle, seeded(40), min_ess=0.0)


def test_entropy_report_survives_overflowing_weights():
    # q^n_cc = 1e300^n_cc overflows a float; ln z_hat must stay finite and
    # equal the log-mean-exp of the log weights of the same draws
    from scipy.special import logsumexp

    from crcmlab.crcm import _reference_draws

    params = ModelParams(5.0, 1e300, DiracRadius(0.01), UNIT)
    rep = entropy_report(params, 2000, seeded(40), min_ess=0.0)
    _, n_cc = _reference_draws(params, 2000, seeded(40))
    logw = n_cc * math.log(params.q)
    assert math.isfinite(rep.ln_z_hat) and math.isfinite(rep.rate)
    assert rep.ln_z_hat == pytest.approx(logsumexp(logw) - math.log(2000), rel=1e-12)
    assert rep.ok and rep.empty_floor_ok


def test_entropy_report_large_dense_draws():
    # z=1200, q=2, tiny balls: about 1200 balls and 2^1100 weight per draw
    from scipy.special import logsumexp

    from crcmlab.crcm import _reference_draws

    params = ModelParams(1200.0, 2.0, DiracRadius(0.001), UNIT)
    rep = entropy_report(params, 300, seeded(41), min_ess=0.0)
    counts, n_cc = _reference_draws(params, 300, seeded(41))
    assert counts.mean() > 1000 and n_cc.min() > 900
    assert rep.ln_z_hat == pytest.approx(logsumexp(n_cc * math.log(2.0)) - math.log(300), rel=1e-12)
    assert math.isfinite(rep.rate) and rep.ok


def test_entropy_report_rejects_degenerate_weights():
    # the same draws carry an effective sample size of about 1
    params = ModelParams(1200.0, 2.0, DiracRadius(0.001), UNIT)
    with pytest.raises(DegenerateWeights):
        entropy_report(params, 300, seeded(41))


def test_oracle_log_normalizer_with_overflowing_weights():
    params = ModelParams(1200.0, 2.0, DiracRadius(0.001), UNIT)
    res = importance_oracle(params, lambda c, n: n, 1000, seeded(42), min_ess=0.0)
    assert res.z_hat == math.inf and math.isfinite(res.ln_z_hat)
    assert math.isfinite(res.estimate) and res.ln_z_hat > 700
