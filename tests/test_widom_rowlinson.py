import math

import numpy as np
import pytest
from scipy import stats

from crcmlab.geometry import Box
from crcmlab.model_core import (
    Configuration,
    DiracRadius,
    ModelParams,
    ParetoRadius,
    sample_poisson_boolean,
)
from crcmlab.connectivity import components, count_components
from crcmlab.crcm import birth_ratio, death_ratio, gnz_residuals
from crcmlab.widom_rowlinson import (
    WrParams,
    col_event,
    fk_colorize,
    fk_consistency_test,
    gnz_residual_wr,
    insertion_allowed,
    is_allowed,
    new_wr_chain,
    run_wr_chain,
    wr_step,
)

UNIT = Box([0, 0], [1, 1])
BIG = Box([-10, -10], [10, 10])


def seeded(k):
    return np.random.default_rng(np.random.SeedSequence(k))


def colored(window, balls):
    """A colored configuration from (center, radius, color) rows."""
    return Configuration.from_balls(window, balls)


# -- parameters and the allowed set ------------------------------------------------


def test_params_require_integer_colors():
    WrParams(1.0, 2, DiracRadius(0.1), UNIT)
    with pytest.raises(ValueError):
        WrParams(1.0, 1, DiracRadius(0.1), UNIT)
    with pytest.raises(ValueError):
        WrParams(1.0, 2.5, DiracRadius(0.1), UNIT)


def test_monochromatic_always_allowed():
    cfg = colored(BIG, [((0, 0), 1.0, 1), ((1, 0), 1.0, 1), ((0.5, 0.5), 2.0, 1)])
    assert is_allowed(*cfg.arrays())


def test_tangent_different_colors_forbidden():
    # contact at exactly radius sum is already a conflict
    cfg = colored(BIG, [((0, 0), 1.0, 1), ((2, 0), 1.0, 2)])
    assert not is_allowed(*cfg.arrays())


def test_disjoint_different_colors_allowed():
    cfg = colored(BIG, [((0, 0), 1.0, 1), ((2.0001, 0), 1.0, 2)])
    assert is_allowed(*cfg.arrays())


def test_insertion_allowed_matches_global_check():
    rng = seeded(1)
    cfg = colored(BIG, [((0, 0), 1.0, 1), ((3, 0), 1.0, 2)])
    for _ in range(200):
        c = BIG.sample_point(rng)
        r = float(rng.uniform(0, 2))
        k = int(rng.integers(1, 3))
        trial = cfg.copy()
        trial.add(c, r, k)
        assert insertion_allowed(cfg, cfg.intersectors(c, r), k) == is_allowed(*trial.arrays())


def test_col_event():
    assert not col_event(np.zeros(0, dtype=np.int64))
    assert not col_event(colored(BIG, [((0, 0), 1.0, 2), ((5, 5), 1.0, 2)]).arrays()[2])
    assert col_event(colored(BIG, [((0, 0), 1.0, 1), ((5, 5), 1.0, 2)]).arrays()[2])


def test_color_predicates_refuse_uncolored_balls():
    blind = Configuration.from_balls(BIG, [(np.zeros(2), 1.0)])
    with pytest.raises(ValueError):
        is_allowed(*blind.arrays())
    with pytest.raises(ValueError):
        col_event(blind.arrays()[2])


# -- chain -------------------------------------------------------------------------


def test_every_sampled_state_allowed():
    params = WrParams(25.0, 2, DiracRadius(0.08), UNIT)
    rep = run_wr_chain(params, seeded(2), sweeps=120, burn_in=40, thin=2, keep_configs=True)
    assert rep.samples and all(is_allowed(*c) for c in rep.samples)


def test_snapshots_are_the_states_arrays():
    params = WrParams(25.0, 2, DiracRadius(0.08), UNIT)
    rep = run_wr_chain(params, seeded(2), sweeps=30, burn_in=10, thin=1, keep_configs=True)
    assert len(rep.samples) == rep.counts.size == 30
    for (centers, radii, colors), count in zip(rep.samples, rep.counts):
        assert radii.size == count and centers.shape == (count, 2)
        assert colors is not None and colors.size == count
    # the last sweep is recorded: its snapshot is the final state's arrays
    for got, want in zip(rep.samples[-1], rep.state.config.arrays()):
        assert np.array_equal(got, want)


def test_recolor_acceptance_is_one():
    params = WrParams(20.0, 3, DiracRadius(0.07), UNIT)
    rep = run_wr_chain(params, seeded(3), sweeps=150, burn_in=50, thin=5)
    assert rep.accept_rates["recolor"] == pytest.approx(1.0)


def test_wr_detailed_balance_product():
    # the factors are the ones the chain runs: WrParams.insertion and .deletion
    params = WrParams(8.0, 2, DiracRadius(0.1), UNIT)
    state = new_wr_chain(params, seeded(4))
    for _ in range(400):
        wr_step(state)
    cfg, lab, rng = state.config, state.labeling, state.rng
    lam = params.total_intensity
    blocked = 0
    for _ in range(50):
        c = UNIT.sample_point(rng)
        r = params.law.sample_scalar(rng)
        factor, hits, k = params.insertion(cfg, lab, c, r, rng)
        assert sorted(hits) == sorted(cfg.intersectors(c, r))
        assert factor == float(insertion_allowed(cfg, hits, k))
        n = cfg.n
        forward = birth_ratio(lam, n, factor)
        if not factor:
            assert forward == 0.0
            blocked += 1
            continue
        slot = cfg.add(c, r, k)
        lab.apply_insertion(slot, hits)
        back, groups = params.deletion(lab, slot)
        assert groups is None  # the kernel splits only after an accepted death
        assert forward * death_ratio(lam, n + 1, back) == pytest.approx(1.0, rel=1e-12)
        groups = lab.removal_split(slot)
        cfg.remove(slot)
        lab.apply_removal(slot, groups)
    assert 0 < blocked < 50


def test_wr_tiny_z_matches_indicator_oracle():
    # self-normalized reference oracle: weight = allowed-set indicator
    params = WrParams(3.0, 2, DiracRadius(0.12), UNIT)
    rng = seeded(5)
    w_sum = v_sum = 0.0
    for _ in range(30_000):
        n = rng.poisson(params.total_intensity)
        cs = rng.random((n, 2))
        cols = rng.integers(1, 3, size=n)
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                d = cs[i] - cs[j]
                if d @ d <= 0.24**2 and cols[i] != cols[j]:
                    ok = False
                    break
            if not ok:
                break
        w_sum += ok
        v_sum += ok * n
    oracle = v_sum / w_sum
    rep = run_wr_chain(params, seeded(6), sweeps=4000, burn_in=300, thin=2)
    ess = max(4.0, len(rep.counts) / rep.iact_count)
    se = float(np.std(rep.counts) / math.sqrt(ess))
    assert abs(float(np.mean(rep.counts)) - oracle) < 4 * se


def test_wr_heavy_tail_radii_supported():
    # the cross-color hard core tames unbounded radii: no normalizability
    # assumption needed, big proposals just get rejected
    params = WrParams(5.0, 2, ParetoRadius(2), Box([0, 0], [3, 3]))
    rep = run_wr_chain(params, seeded(7), sweeps=80, burn_in=20, thin=2, keep_configs=True)
    assert all(is_allowed(*c) for c in rep.samples)


def test_single_color_reduction():
    # conditioned on every ball wearing color 1, counts are Poisson(z|W|/q)
    params = WrParams(1.5, 2, DiracRadius(0.05), UNIT)
    rep = run_wr_chain(params, seeded(8), sweeps=6000, burn_in=200, thin=3, keep_configs=True)
    mono_counts = []
    for _, radii, colors in rep.samples:
        if np.all(colors == 1):
            mono_counts.append(radii.size)
    lam = params.total_intensity / 2.0
    assert len(mono_counts) > 100
    direct = seeded(9).poisson(lam, size=len(mono_counts))
    p = stats.ks_2samp(mono_counts, direct, method="asymp").pvalue
    assert p > 0.005


# -- coloring kernel ------------------------------------------------------------------


def test_colorize_single_component_uniform():
    centers, radii = np.array([[2.0 * k, 0.0] for k in range(4)]), np.ones(4)
    rng = seeded(10)
    seen = {1: 0, 2: 0, 3: 0}
    for _ in range(3000):
        cols = set(fk_colorize(centers, radii, 3, rng).tolist())
        assert len(cols) == 1  # monochromatic component
        seen[cols.pop()] += 1
    freq = np.array(list(seen.values()))
    chi2 = float(((freq - 1000.0) ** 2 / 1000.0).sum())
    assert stats.chi2.sf(chi2, df=2) > 0.001


def test_colorize_singletons_iid_uniform():
    # k isolated balls: all q^k color patterns equally likely
    centers, radii = np.array([[4.0 * k, 0.0] for k in range(3)]), np.full(3, 0.5)
    rng = seeded(11)
    counts: dict = {}
    n_draws = 8000
    for _ in range(n_draws):
        pattern = tuple(fk_colorize(centers, radii, 2, rng).tolist())
        counts[pattern] = counts.get(pattern, 0) + 1
    assert len(counts) == 8
    expected = n_draws / 8.0
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stats.chi2.sf(chi2, df=7) > 0.001


def test_colorize_always_allowed(rng):
    params = ModelParams(40.0, 1.0, DiracRadius(0.06), UNIT)
    for k in range(20):
        centers, radii, _ = sample_poisson_boolean(params, seeded(100 + k)).arrays()
        assert is_allowed(centers, radii, fk_colorize(centers, radii, 2, rng))


def test_col_event_probability_from_component_count():
    # freshly colored: P(col) = 1 - q^(1-k) for k components
    centers, radii = np.array([[0.0, 0.0], [5.0, 0.0]]), np.ones(2)
    rng = seeded(12)
    hits = sum(col_event(fk_colorize(centers, radii, 2, rng)) for _ in range(4000))
    phat = hits / 4000
    se = math.sqrt(0.5 * 0.5 / 4000)
    assert abs(phat - 0.5) < 4 * se


def test_colorize_round_trip(rng):
    # one color per ball, constant on each component; a configuration built
    # with the colors gives back the balls, the colors and the component count
    params = ModelParams(30.0, 1.0, DiracRadius(0.08), UNIT)
    centers, radii, _ = sample_poisson_boolean(params, seeded(13)).arrays()
    colors = fk_colorize(centers, radii, 3, rng)
    count, labels = components(centers, radii)
    assert colors.shape == radii.shape
    assert all(np.unique(colors[labels == k]).size == 1 for k in range(count))
    out = Configuration.from_arrays(UNIT, centers, radii, colors)
    back_centers, back_radii, back_colors = out.arrays()
    assert np.array_equal(back_centers, centers) and np.array_equal(back_radii, radii)
    assert np.array_equal(back_colors, colors)
    assert count_components(out) == count


def test_recolorizing_a_projection_reproduces_the_color_law():
    # starting from uniformly colored components, project and recolor: the
    # color-pattern distribution on a fixed ball structure is unchanged
    centers, radii = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]), np.full(3, 0.5)
    rng = seeded(99)
    n_draws = 6000
    direct: dict = {}
    rebuilt: dict = {}
    for _ in range(n_draws):
        colors = fk_colorize(centers, radii, 2, rng)
        pattern = tuple(colors.tolist())
        direct[pattern] = direct.get(pattern, 0) + 1
        # the projection: the colored configuration's balls, colors dropped
        blind = Configuration.from_arrays(BIG, centers, radii, colors).arrays()[:2]
        again = tuple(fk_colorize(*blind, 2, rng).tolist())
        rebuilt[again] = rebuilt.get(again, 0) + 1
    assert set(direct) == set(rebuilt) and len(direct) == 8
    table = np.array([[direct[p], rebuilt[p]] for p in sorted(direct)])
    _, p, _, _ = stats.chi2_contingency(table.T)
    assert p > 0.001


# -- coupling consistency ---------------------------------------------------------------


def test_fk_consistency_small():
    report = fk_consistency_test(
        WrParams(4.0, 2, DiracRadius(0.1), UNIT), rng_seed=77, pairs=4,
        sweeps=250, burn_in=120, thin=3,
    )
    assert not report.rejected


def test_fk_consistency_negative_control():
    report = fk_consistency_test(
        WrParams(4.0, 2, DiracRadius(0.1), UNIT), rng_seed=78, pairs=3,
        sweeps=250, burn_in=120, thin=3, crcm_z=4.0,
    )
    assert report.rejected


def test_fk_consistency_three_colors():
    report = fk_consistency_test(
        WrParams(3.0, 3, DiracRadius(0.1), UNIT), rng_seed=79, pairs=3,
        sweeps=250, burn_in=120, thin=3,
    )
    assert not report.rejected


# -- balance-equation residuals -----------------------------------------------------------


@pytest.fixture(scope="module")
def wr_samples():
    params = WrParams(30.0, 2, DiracRadius(0.12), UNIT)
    rep = run_wr_chain(params, seeded(14), sweeps=450, burn_in=100, thin=3, keep_configs=True)
    return params, rep.samples


def test_gnz_wr_residuals_small(wr_samples):
    params, samples = wr_samples
    rows = gnz_residual_wr(samples, params, rng=seeded(15), inner_points=128)
    assert all(r.residual < 4.0 for r in rows)


def test_gnz_wr_dropped_constraint_detected(wr_samples):
    params, samples = wr_samples
    # the same samples against the Poisson reference, which has no constraint
    poisson = ModelParams(params.z, 1.0, params.law, params.window)
    rows = gnz_residuals(samples, poisson, rng=seeded(16), inner_points=128)
    assert max(r.residual for r in rows) > 4.0
