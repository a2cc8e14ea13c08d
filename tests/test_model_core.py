import math

import numpy as np
import pytest
from scipy import integrate, stats

from crcmlab.geometry import Box, MarkedBall, dilate
from crcmlab.model_core import (
    INFINITE,
    Configuration,
    DiracRadius,
    ModelParams,
    NonIntegrableWithoutTruncation,
    ParetoRadius,
    TruncatedParetoRadius,
    UniformRadius,
    box_covered,
    coverage_escalation,
    d_moment,
    expected_hits,
    load_configuration,
    parse_law,
    sample_boolean_with_halo,
    sample_poisson_boolean,
    sample_radius,
    save_configuration,
    steiner_volume,
)

UNIT = Box([0, 0], [1, 1])


# -- radius laws -------------------------------------------------------------


def test_dirac_sampling_is_constant(rng):
    law = DiracRadius(0.5)
    assert sample_radius(law, rng) == 0.5
    assert np.all(law.sample(rng, 100) == 0.5)


def test_pareto_inversion_at_supported_minimum():
    # u = 0 maps to the support minimum R = 1
    law = ParetoRadius(2)
    assert (1.0 - 0.0) ** (-1.0) == 1.0
    assert law.quantile(0.0) == 1.0


def test_pareto_empirical_cdf_matches_analytic(rng):
    law = ParetoRadius(2)
    draws = law.sample(rng, 10**6)
    rs = np.sort(draws)
    ecdf = np.arange(1, rs.size + 1) / rs.size
    analytic = 1.0 - 1.0 / rs
    assert np.max(np.abs(ecdf - analytic)) < 0.005


def test_d_moments():
    assert d_moment(DiracRadius(2.0), 2) == 4.0
    assert d_moment(ParetoRadius(2), 2) == INFINITE
    assert d_moment(ParetoRadius(3), 3) == INFINITE
    # quadrature oracle for the uniform law
    oracle, _ = integrate.quad(lambda r: r**2, 0, 1)
    assert d_moment(UniformRadius(0, 1), 2) == pytest.approx(oracle)
    assert d_moment(UniformRadius(0, 1), 2) == pytest.approx(1 / 3)


def test_truncated_pareto_moment_grows_without_bound():
    vals = [d_moment(TruncatedParetoRadius(2, rm), 2) for rm in (2, 8, 32, 128, 1024)]
    assert all(math.isfinite(v) for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 100


def test_law_metadata_flags():
    assert DiracRadius(1.0).bounded_support and DiracRadius(1.0).finite_d_moment(2)
    assert UniformRadius(0, 1).bounded_support
    p = ParetoRadius(2)
    assert not p.bounded_support and not p.finite_d_moment(2) and p.min_radius == 1.0
    t = TruncatedParetoRadius(2, 50.0)
    assert t.bounded_support and t.finite_d_moment(2)


def test_parse_law_round_trip():
    for law in (
        DiracRadius(0.25),
        UniformRadius(0.0, 1.5),
        ParetoRadius(2),
        TruncatedParetoRadius(3, 40.0),
    ):
        again = parse_law(law.descriptor())
        assert again.descriptor() == law.descriptor()
    with pytest.raises(ValueError):
        parse_law("cauchy:1")


def test_pareto_truncated_sampling_range(rng):
    law = TruncatedParetoRadius(2, 10.0)
    draws = law.sample(rng, 5000)
    assert np.all((draws >= 1.0) & (draws <= 10.0))


# -- model params ------------------------------------------------------------


def test_assumption_flag():
    assert ModelParams(1, 0.5, DiracRadius(1), UNIT).assumption_a
    assert ModelParams(1, 2.0, ParetoRadius(2), UNIT).assumption_a
    assert not ModelParams(1, 0.5, ParetoRadius(2), UNIT).assumption_a
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0, DiracRadius(1), UNIT)
    with pytest.raises(ValueError):
        ModelParams(1.0, -1.0, DiracRadius(1), UNIT)


# -- Poisson Boolean sampling --------------------------------------------------


def test_zero_intensity_window_gives_empty(rng):
    tiny = Box([0, 0], [1e-12, 1e-12])
    cfg = sample_poisson_boolean(ModelParams(1.0, 1.0, DiracRadius(0.1), tiny), rng)
    assert cfg.n == 0


def test_poisson_count_mean_and_fano(rng):
    params = ModelParams(50.0, 1.0, DiracRadius(0.05), UNIT)
    counts = np.array(
        [sample_poisson_boolean(params, rng).n for _ in range(10_000)], dtype=float
    )
    se_mean = np.sqrt(50.0 / counts.size)
    assert abs(counts.mean() - 50.0) < 3 * se_mean
    # Fano factor 1 for a Poisson count; SE of the variance via moments
    var = counts.var(ddof=1)
    se_var = 50.0 * np.sqrt(2.0 / counts.size + 1.0 / (50.0 * counts.size))
    assert abs(var - 50.0) < 3 * se_var * 1.5


def test_restriction_consistency(rng):
    # restricting to a sub-box keeps a Poisson count with reduced mean
    params = ModelParams(40.0, 1.0, UniformRadius(0, 0.05), UNIT)
    sub = Box([0.1, 0.1], [0.6, 0.6])
    counts = [
        sample_poisson_boolean(params, rng).count_in(sub) for _ in range(4000)
    ]
    lam = 40.0 * sub.volume
    grid = np.arange(0, stats.poisson.ppf(0.9999, lam) + 1)
    expected = stats.poisson.pmf(grid, lam) * len(counts)
    observed = np.bincount(counts, minlength=grid.size)[: grid.size]
    # merge the tail so expected counts stay reasonable
    keep = expected > 5
    obs = np.append(observed[keep], observed[~keep].sum() + len(counts) - observed.sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    chi2 = ((obs - exp) ** 2 / exp).sum()
    p = stats.chi2.sf(chi2, df=len(obs) - 1)
    assert p > 0.001


# -- expected hits -------------------------------------------------------------


def test_steiner_volume_square():
    # unit square grown by 1: area 1 + perimeter*1 + pi*1^2
    assert steiner_volume(UNIT, 1.0) == pytest.approx(1 + 4 + np.pi)
    assert steiner_volume(UNIT, 0.0) == pytest.approx(1.0)


def test_steiner_volume_monte_carlo_oracle(rng):
    # MC volume of the true dilation {x : dist(x, box) <= R}
    box = Box([0, 0], [1, 2])
    r = 0.7
    big = dilate(box, r)
    pts = big.sample_points(rng, 200_000)
    inside = np.array([box.distance_to_point(p) <= r for p in pts])
    mc = big.volume * inside.mean()
    se = big.volume * inside.std() / np.sqrt(len(pts))
    assert abs(steiner_volume(box, r) - mc) < 4 * se


def test_expected_hits_values():
    assert expected_hits(UNIT, 1.0, DiracRadius(0.0)) == pytest.approx(1.0)
    assert expected_hits(UNIT, 1.0, ParetoRadius(2)) == INFINITE
    # (1+2)^2 with rounded corners: 9 - (4 - pi)
    assert expected_hits(UNIT, 1.0, DiracRadius(1.0)) == pytest.approx(9 - (4 - np.pi))


def test_expected_hits_empirical(rng):
    # empirical count of balls hitting the unit box under a halo simulation
    law = UniformRadius(0.0, 0.5)
    target = Box([2, 2], [3, 3])
    params = ModelParams(3.0, 1.0, law, Box([0, 0], [5, 5]))
    lam = expected_hits(target, 3.0, law)
    hits = []
    for _ in range(800):
        cfg = sample_boolean_with_halo(target, params, rng)
        ids = np.asarray(cfg.active_ids(), dtype=np.intp)
        if ids.size == 0:
            hits.append(0)
            continue
        dist = np.array([target.distance_to_point(c) for c in cfg.centers[ids]])
        hits.append(int(np.sum(dist <= cfg.radii[ids])))
    hits = np.asarray(hits, dtype=float)
    se = hits.std(ddof=1) / np.sqrt(hits.size)
    assert abs(hits.mean() - lam) < 4 * se


# -- halo sampling -------------------------------------------------------------


def test_halo_dirac_exact(rng):
    params = ModelParams(2.0, 1.0, DiracRadius(0.3), Box([0, 0], [4, 4]))
    cfg = sample_boolean_with_halo(UNIT, params, rng)
    assert cfg.tags["halo"] == pytest.approx(0.3)
    assert cfg.tags["omitted_bound"] == 0.0
    assert not cfg.tags["biased"]


def test_halo_uniform_bound_below_tolerance(rng):
    params = ModelParams(2.0, 1.0, UniformRadius(0, 1), Box([0, 0], [4, 4]))
    cfg = sample_boolean_with_halo(UNIT, params, rng, tolerance=1e-9)
    assert cfg.tags["omitted_bound"] < 1e-9
    # tail-integral quadrature oracle: omitted mass at the chosen halo
    h = cfg.tags["halo"]
    law = UniformRadius(0, 1)
    if h < 1.0:
        base = steiner_volume(UNIT, h)
        oracle, _ = integrate.quad(
            lambda r: steiner_volume(UNIT, r) - base, h, 1.0
        )
        assert 2.0 * oracle == pytest.approx(cfg.tags["omitted_bound"], rel=1e-6)


def test_halo_pareto_requires_truncation(rng):
    params = ModelParams(1.0, 2.0, ParetoRadius(2), Box([-5, -5], [5, 5]))
    with pytest.raises(NonIntegrableWithoutTruncation):
        sample_boolean_with_halo(UNIT, params, rng)
    cfg = sample_boolean_with_halo(UNIT, params, rng, truncation_radius=10.0)
    assert cfg.tags["biased"]
    ids = np.asarray(cfg.active_ids(), dtype=np.intp)
    if ids.size:
        assert np.max(cfg.radii[ids]) <= 10.0


# -- coverage probe ------------------------------------------------------------


def test_box_covered_detects_single_covering_ball():
    w = Box([-5, -5], [5, 5])
    cfg = Configuration.from_balls(w, [MarkedBall(np.zeros(2), 3.0)])
    assert box_covered(cfg, UNIT, grid_per_axis=32)
    cfg2 = Configuration.from_balls(w, [MarkedBall(np.zeros(2), 0.4)])
    assert not box_covered(cfg2, UNIT, grid_per_axis=32)


def test_pareto_coverage_escalates(rng):
    # nested-coupling curve: nondecreasing by construction, high for a deep halo
    probs = coverage_escalation(
        UNIT, z=1.0, law=ParetoRadius(2), halos=[0.25, 1.0, 4.0, 12.0],
        trials=60, rng=rng, grid_per_axis=24,
    )
    assert all(b >= a for a, b in zip(probs, probs[1:]))
    assert probs[-1] > 0.99


# -- serialization ---------------------------------------------------------------


def test_configuration_round_trip(tmp_path, rng):
    params = ModelParams(30.0, 1.0, UniformRadius(0, 0.2), UNIT)
    cfg = sample_poisson_boolean(params, rng)
    path = tmp_path / "cfg.csv"
    save_configuration(cfg, path, law_descriptor=params.law.descriptor(), seed=7)
    back = load_configuration(path)
    assert back.n == cfg.n
    a = sorted(map(tuple, np.round(cfg.centers[cfg.active_ids()], 12)))
    b = sorted(map(tuple, np.round(back.centers[back.active_ids()], 12)))
    assert a == b
    assert back.tags["law"] == params.law.descriptor()


def test_colored_round_trip(tmp_path):
    w = UNIT
    balls = [
        MarkedBall(np.array([0.2, 0.2]), 0.05, 1),
        MarkedBall(np.array([0.8, 0.8]), 0.07, 3),
    ]
    cfg = Configuration.from_balls(w, balls)
    path = tmp_path / "colored.csv"
    save_configuration(cfg, path)
    back = load_configuration(path)
    assert back.colored
    got = sorted(int(back.colors[s]) for s in back.active_ids())
    assert got == [1, 3]


def test_add_remove_slots_reused():
    cfg = Configuration(UNIT, cell_size=0.25)
    s1 = cfg.add(np.array([0.5, 0.5]), 0.1)
    s2 = cfg.add(np.array([0.25, 0.25]), 0.1)
    assert cfg.n == 2
    cfg.remove(s1)
    assert cfg.n == 1
    s3 = cfg.add(np.array([0.75, 0.75]), 0.1)
    assert s3 == s1  # freed slot is reused
    assert sorted(cfg.active_ids()) == sorted([s2, s3])
    with pytest.raises(ValueError):
        cfg.add(np.array([2.0, 2.0]), 0.1)


def test_load_configuration_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# d=2 lo=0.0,0.0 hi=1.0,1.0 law= seed= colored=0\ny,x,radius\n0.5,0.5,0.1\n")
    with pytest.raises(ValueError, match="header"):
        load_configuration(path)


def _ball_by_ball(window, centers, radii, colors, cell_size):
    cfg = Configuration(
        window, cell_size=cell_size, colored=colors is not None, capacity=max(8, len(radii))
    )
    for k in range(len(radii)):
        cfg.add(centers[k], float(radii[k]), None if colors is None else int(colors[k]))
    return cfg


@pytest.mark.parametrize("n", [0, 1, 8, 9, 150])
@pytest.mark.parametrize("colored", [False, True])
def test_bulk_build_equals_ball_by_ball(rng, n, colored):
    w = Box([-20, -20], [20, 20])
    centers = w.sample_points(rng, n)
    radii = TruncatedParetoRadius(2, 20.0).sample(rng, n)  # fills the overflow list
    colors = rng.integers(1, 4, size=n) if colored else None
    cell = 2.0
    want = _ball_by_ball(w, centers, radii, colors, cell)
    balls = [
        MarkedBall(centers[k], radii[k], None if colors is None else int(colors[k]))
        for k in range(n)
    ]
    for got in (
        Configuration.from_arrays(w, centers, radii, colors, cell_size=cell),
        Configuration.from_balls(w, balls, cell_size=cell, colored=colored),
    ):
        assert got.active_ids() == want.active_ids() == list(range(n))
        assert got._free == want._free
        assert np.array_equal(got._slot_pos, want._slot_pos)
        assert np.array_equal(got.centers, want.centers)
        assert np.array_equal(got.radii, want.radii)
        if colored:
            assert np.array_equal(got.colors, want.colors)
        assert list(got.index.cells.items()) == list(want.index.cells.items())
        assert got.index.oversized == want.index.oversized
        assert list(got.index._where.items()) == list(want.index._where.items())
    if n:
        assert want.index.oversized  # the heavy tail reached the overflow list


def test_bulk_build_checks_window_and_colors():
    with pytest.raises(ValueError, match="outside window"):
        Configuration.from_arrays(UNIT, [[0.5, 0.5], [1.5, 0.5]], [0.1, 0.1])
    with pytest.raises(ValueError, match="needs a color"):
        Configuration.from_balls(
            UNIT,
            [MarkedBall(np.array([0.5, 0.5]), 0.1, 1), MarkedBall(np.array([0.2, 0.2]), 0.1)],
        )
