import math

import numpy as np
import pytest
from scipy import integrate, stats

from crcmlab.geometry import Box, dilate
from crcmlab.model_core import (
    INFINITE,
    Configuration,
    DiracRadius,
    ModelParams,
    ParetoRadius,
    UniformRadius,
    box_covered,
    coverage_escalation,
    load_configuration,
    parse_law,
    poisson_balls,
    sample_boolean_with_halo,
    sample_poisson_boolean,
    save_configuration,
)

UNIT = Box([0, 0], [1, 1])


# -- radius laws -------------------------------------------------------------


def test_dirac_sampling_is_constant(rng):
    law = DiracRadius(0.5)
    assert law.sample_scalar(rng) == 0.5
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
    assert DiracRadius(2.0).moment(2) == 4.0
    assert ParetoRadius(2).moment(2) == INFINITE
    assert ParetoRadius(3).moment(3) == INFINITE
    # quadrature oracle for the uniform law
    oracle, _ = integrate.quad(lambda r: r**2, 0, 1)
    assert UniformRadius(0, 1).moment(2) == pytest.approx(oracle)
    assert UniformRadius(0, 1).moment(2) == pytest.approx(1 / 3)


def test_truncated_pareto_moment_grows_without_bound():
    vals = [ParetoRadius(2, rm).moment(2) for rm in (2, 8, 32, 128, 1024)]
    assert all(math.isfinite(v) for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 100


def test_law_metadata_flags():
    assert DiracRadius(1.0).bounded_support and DiracRadius(1.0).finite_d_moment(2)
    assert UniformRadius(0, 1).bounded_support
    p = ParetoRadius(2)
    assert not p.bounded_support and not p.finite_d_moment(2) and p.min_radius == 1.0
    t = ParetoRadius(2, 50.0)
    assert t.bounded_support and t.finite_d_moment(2)


def test_parse_law_round_trip():
    for law in (
        DiracRadius(0.25),
        UniformRadius(0.0, 1.5),
        ParetoRadius(2),
        ParetoRadius(3, 40.0),
    ):
        again = parse_law(law.descriptor())
        assert again.descriptor() == law.descriptor()
    with pytest.raises(ValueError):
        parse_law("cauchy:1")
    for bad in ("dirac:nan", "dirac:inf", "uniform:0,inf", "uniform:nan,1", "tpareto:2,nan"):
        with pytest.raises(ValueError, match="bad radius law"):
            parse_law(bad)
    assert parse_law("tpareto:2,inf").descriptor() == "pareto:2"  # inf is the untruncated law


def test_untruncated_pareto_is_the_closed_form(rng):
    # r_max = inf gives the normalizer 1.0 exactly: draws, quantiles and
    # integrals are those of the plain law's closed forms
    law = ParetoRadius(3)
    assert law._norm == 1.0 and law.r_max == INFINITE and law.descriptor() == "pareto:3"
    state = rng.bit_generator.state
    draws = law.sample(rng, 1000)
    rng.bit_generator.state = state
    assert np.array_equal(draws, (1.0 - rng.random(1000)) ** (-1.0 / 2))
    assert law.quantile(0.9) == (1.0 - 0.9) ** (-1.0 / 2)
    val, _ = integrate.quad(lambda r: r * 2.0 * r**-3.0, 1.0, np.inf, limit=300)
    assert law.integrate(lambda r: r) == val
    assert law.moment(1) == 2.0 and law.moment(2) == INFINITE
    assert ParetoRadius(2, 50.0).descriptor() == "tpareto:2,50.0"


def test_pareto_truncated_sampling_range(rng):
    law = ParetoRadius(2, 10.0)
    draws = law.sample(rng, 5000)
    assert np.all((draws >= 1.0) & (draws <= 10.0))


# -- model params ------------------------------------------------------------


def test_assumption_flag():
    ModelParams(1, 0.5, DiracRadius(1), UNIT)
    ModelParams(1, 2.0, ParetoRadius(2), UNIT)
    with pytest.raises(ValueError, match="assumption A: q < 1 requires a radius law with bounded"):
        ModelParams(1, 0.5, ParetoRadius(2), UNIT)
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0, DiracRadius(1), UNIT)
    with pytest.raises(ValueError):
        ModelParams(1.0, -1.0, DiracRadius(1), UNIT)
    for z, q in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError, match="positive and finite"):
            ModelParams(z, q, DiracRadius(1), UNIT)


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


def _poisson_balls_one_by_one(box, law, mean, rng):
    """The draw `poisson_balls` replaced: the count, then for each ball its
    center, then its radius."""
    n = int(rng.poisson(mean))
    balls = [(box.sample_point(rng), law.sample_scalar(rng)) for _ in range(n)]
    centers = np.array([c for c, _ in balls], dtype=float).reshape(n, box.dimension)
    return centers, np.array([r for _, r in balls], dtype=float)


@pytest.mark.parametrize("box", [Box([0.25, -1.0], [0.5, 3.0]), Box([0, 0, 0], [1, 2, 3])])
@pytest.mark.parametrize("r0", [0.0, 0.3])
def test_poisson_balls_equal_the_ball_by_ball_draw_for_dirac_laws(box, r0):
    # a dirac law draws no radius, so block order and ball order read the
    # same uniforms in the same order
    for seed in range(200):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = poisson_balls(box, DiracRadius(r0), 12.0, got_rng)
        want = _poisson_balls_one_by_one(box, DiracRadius(r0), 12.0, want_rng)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got_rng.random() == want_rng.random()


def test_restriction_consistency(rng):
    # restricting to a sub-box keeps a Poisson count with reduced mean
    params = ModelParams(40.0, 1.0, UniformRadius(0, 0.05), UNIT)
    sub = Box([0.1, 0.1], [0.6, 0.6])
    counts = [
        int(np.count_nonzero(sub.contains_points(sample_poisson_boolean(params, rng).arrays()[0])))
        for _ in range(4000)
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


def test_dirac_zero_integrates_its_atom():
    law = DiracRadius(0.0)
    assert law.integrate(lambda r: r + 2.0) == 2.0


def test_expected_hits_empirical(rng):
    # empirical count of balls hitting the unit box under a halo simulation,
    # against z * E|target + B(0, R)| = 3 E[1 + 4R + pi R^2] for R ~ U(0, 0.5)
    law = UniformRadius(0.0, 0.5)
    target = Box([2, 2], [3, 3])
    params = ModelParams(3.0, 1.0, law, Box([0, 0], [5, 5]))
    lam = 3.0 * (2.0 + np.pi / 12.0)
    hits = []
    for _ in range(800):
        cfg = sample_boolean_with_halo(target, params, rng)
        hits.append(sum(target.distance_to_point(c) <= r for c, r in cfg.index.balls.values()))
    hits = np.asarray(hits, dtype=float)
    se = hits.std(ddof=1) / np.sqrt(hits.size)
    assert abs(hits.mean() - lam) < 4 * se


# -- halo sampling -------------------------------------------------------------


def test_halo_dirac_exact(rng):
    params = ModelParams(2.0, 1.0, DiracRadius(0.3), Box([0, 0], [4, 4]))
    cfg = sample_boolean_with_halo(UNIT, params, rng)
    halo = dilate(UNIT, 0.3)
    assert np.array_equal(cfg.window.lo, halo.lo) and np.array_equal(cfg.window.hi, halo.hi)


def test_halo_pareto_requires_truncation(rng):
    params = ModelParams(1.0, 2.0, ParetoRadius(2), Box([-5, -5], [5, 5]))
    with pytest.raises(ValueError, match="has unbounded radii, so no halo"):
        sample_boolean_with_halo(UNIT, params, rng)
    # a finite d-moment gives no halo either: every unbounded law is refused
    with pytest.raises(ValueError, match="has unbounded radii, so no halo"):
        sample_boolean_with_halo(UNIT, ModelParams(1.0, 2.0, ParetoRadius(4), params.window), rng)
    # the truncated law, tpareto:2,10, has the halo 10
    truncated = ModelParams(1.0, 2.0, ParetoRadius(2, 10.0), params.window)
    cfg = sample_boolean_with_halo(UNIT, truncated, rng)
    assert np.array_equal(cfg.window.hi, dilate(UNIT, 10.0).hi)
    assert all(r <= 10.0 for _, r in cfg.index.balls.values())


# -- coverage probe ------------------------------------------------------------


def test_box_covered_detects_single_covering_ball():
    assert box_covered(np.zeros((1, 2)), np.array([3.0]), UNIT)
    assert not box_covered(np.zeros((1, 2)), np.array([0.4]), UNIT)


def test_pareto_coverage_escalates(rng):
    # nested-coupling curve: nondecreasing by construction, high for a deep halo
    probs = coverage_escalation(
        UNIT, z=1.0, law=ParetoRadius(2), halos=[0.25, 1.0, 4.0, 12.0], trials=60, rng=rng,
    )
    assert all(b >= a for a, b in zip(probs, probs[1:]))
    assert probs[-1] > 0.99


# -- serialization ---------------------------------------------------------------


def test_configuration_round_trip(tmp_path, rng):
    params = ModelParams(30.0, 1.0, UniformRadius(0, 0.2), UNIT)
    cfg = sample_poisson_boolean(params, rng)
    path = tmp_path / "cfg.csv"
    save_configuration(cfg.window, cfg.arrays(), path, law_descriptor=params.law.descriptor(), seed=7)
    back = load_configuration(path)
    assert back.n == cfg.n
    a = sorted(map(tuple, np.round(cfg.arrays()[0], 12)))
    b = sorted(map(tuple, np.round(back.arrays()[0], 12)))
    assert a == b
    assert f" law={params.law.descriptor()} " in path.read_text().splitlines()[0]


def test_colored_round_trip(tmp_path):
    w = UNIT
    cfg = Configuration.from_balls(w, [((0.2, 0.2), 0.05, 1), ((0.8, 0.8), 0.07, 3)])
    path = tmp_path / "colored.csv"
    save_configuration(w, cfg.arrays(), path)
    back = load_configuration(path)
    assert back.colored
    got = sorted(int(back.colors[s]) for s in back.active_ids())
    assert got == [1, 3]


@pytest.mark.parametrize(
    "law, window, colored",
    [
        (UniformRadius(0, 0.2), UNIT, False),
        (UniformRadius(0, 0.2), UNIT, True),
        (ParetoRadius(2, 20.0), Box([-20, -20], [20, 20]), False),
    ],
)
def test_save_load_save_is_byte_identical(tmp_path, rng, law, window, colored):
    cfg = sample_poisson_boolean(ModelParams(30.0 / window.volume, 1.0, law, window), rng)
    centers, radii, _ = cfg.arrays()
    colors = rng.integers(1, 4, size=radii.size) if colored else None
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    save_configuration(window, (centers, radii, colors), first, law_descriptor=law.descriptor(), seed=3)
    back = load_configuration(first)
    save_configuration(back.window, back.arrays(), second, law_descriptor=law.descriptor(), seed=3)
    assert first.read_bytes() == second.read_bytes()
    got = back.arrays()
    assert np.array_equal(got[0], centers) and np.array_equal(got[1], radii)
    assert (got[2] is None) if colors is None else np.array_equal(got[2], colors)


def test_arrays_follow_move_order():
    cfg = Configuration(UNIT, cell_size=0.25, colored=True)
    for x, r, color in ((0.2, 0.1, 1), (0.5, 0.2, 2), (0.8, 0.3, 3)):
        cfg.add(np.array([x, 0.5]), r, color)
    cfg.remove(cfg.active_ids()[0])  # the last ball takes the freed position
    centers, radii, colors = cfg.arrays()
    assert centers[:, 0].tolist() == [0.8, 0.5]
    assert radii.tolist() == [0.3, 0.2]
    assert colors.tolist() == [3, 2]
    assert Configuration(UNIT, cell_size=0.25).arrays()[2] is None


def test_add_remove_slots_never_reused():
    cfg = Configuration(UNIT, cell_size=0.25)
    s1 = cfg.add(np.array([0.5, 0.5]), 0.1)
    s2 = cfg.add(np.array([0.25, 0.25]), 0.1)
    assert cfg.n == 2
    cfg.remove(s1)
    assert cfg.n == 1
    s3 = cfg.add(np.array([0.75, 0.75]), 0.1)
    assert s3 not in (s1, s2)  # a freed slot is not handed out again
    assert cfg.active_ids() == [s2, s3]  # the new ball is last in move order
    with pytest.raises(ValueError):
        cfg.add(np.array([2.0, 2.0]), 0.1)


def test_add_checks_balls_as_the_bulk_build_does():
    cfg = Configuration(UNIT, cell_size=0.25)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            cfg.add((0.5, 0.5), bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Configuration.from_arrays(UNIT, [[0.5, 0.5]], [bad])
    for center in ((0.5,), (0.5, 0.5, 0.5)):
        with pytest.raises(ValueError, match="coordinates"):
            cfg.add(center, 0.1)
        with pytest.raises(ValueError):
            Configuration.from_arrays(UNIT, [center], [0.1])
    colored = Configuration(UNIT, cell_size=0.25, colored=True)
    with pytest.raises(ValueError, match="needs a color"):
        colored.add((0.5, 0.5), 0.1)
    # a rejected ball takes no slot
    assert cfg.n == colored.n == 0 and not cfg.index.balls
    assert cfg.add((0.5, 0.5), 0.1) == colored.add((0.5, 0.5), 0.1, 2) == 0


def test_remove_reports_the_ball_moved_into_the_freed_position():
    cfg = Configuration(UNIT, cell_size=0.25)
    a, b, c = (cfg.add(np.array([x, 0.5]), 0.1) for x in (0.2, 0.5, 0.8))
    assert cfg.remove(a) == c
    assert cfg.active_ids() == [c, b]
    assert cfg.remove(b) is None  # b was last in move order
    assert cfg.active_ids() == [c]
    assert cfg.remove(c) is None and cfg.n == 0


def test_random_active_picks_by_one_uniform_and_refuses_an_empty_configuration():
    cfg = Configuration(UNIT, cell_size=0.25)
    rng = np.random.default_rng(8)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="empty"):
        cfg.random_active(rng)
    assert rng.bit_generator.state == before  # refused before any draw
    slots = [cfg.add(np.array([x, 0.5]), 0.05) for x in (0.1, 0.3, 0.5, 0.7, 0.9)]
    twin = np.random.default_rng(8)
    for _ in range(50):
        assert cfg.random_active(rng) == slots[int(twin.random() * len(slots))]


def test_load_configuration_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# d=2 lo=0.0,0.0 hi=1.0,1.0 law= seed= colored=0\ny,x,radius\n0.5,0.5,0.1\n")
    with pytest.raises(ValueError, match="header"):
        load_configuration(path)
    # an empty file, a meta line without d=, a meta line and nothing after it,
    # a last row cut short
    for text in (
        "",
        "# lo=0.0,0.0 hi=1.0,1.0\nx1,x2,radius\n",
        "# d=2 lo=0.0,0.0 hi=1.0,1.0\n",
        "# d=2 lo=0.0,0.0 hi=1.0,1.0\nx1,x2,radius\n0.5,0.5,0.1\n0.2,0.2\n",
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match="truncated") as info:
            load_configuration(path)
        assert str(path) in str(info.value)


def _ball_by_ball(window, centers, radii, colors, cell_size):
    cfg = Configuration(window, cell_size=cell_size, colored=colors is not None)
    for k in range(len(radii)):
        cfg.add(centers[k], float(radii[k]), None if colors is None else int(colors[k]))
    return cfg


@pytest.mark.parametrize("n", [0, 1, 8, 9, 150])
@pytest.mark.parametrize("colored", [False, True])
def test_bulk_build_equals_ball_by_ball(rng, n, colored):
    w = Box([-20, -20], [20, 20])
    centers = w.sample_points(rng, n)
    radii = ParetoRadius(2, 20.0).sample(rng, n)  # fills the overflow list
    colors = rng.integers(1, 4, size=n) if colored else None
    cell = 2.0
    want = _ball_by_ball(w, centers, radii, colors, cell)
    rows = list(zip(centers, radii) if colors is None else zip(centers, radii, colors))
    builds = [Configuration.from_arrays(w, centers, radii, colors, cell_size=cell)]
    if rows:  # an empty row list carries no colors, so it builds uncolored
        builds.append(Configuration.from_balls(w, rows, cell_size=cell))
    for got in builds:
        assert got.active_ids() == want.active_ids() == list(range(n))
        assert list(got._slot_pos.items()) == list(want._slot_pos.items())
        for a, b, ref in zip(got.arrays(), want.arrays(), (centers, radii, colors)):
            assert (a is None) if ref is None else (a.dtype == b.dtype and np.array_equal(a, b))
            assert ref is None or np.array_equal(a, ref)
        assert (got.colors is want.colors is None) or (
            list(got.colors.items()) == list(want.colors.items())
        )
        assert list(got.index.cells.items()) == list(want.index.cells.items())
        assert got.index.oversized == want.index.oversized
        assert list(got.index.keys.items()) == list(want.index.keys.items())
        assert list(got.index.balls.items()) == list(want.index.balls.items())
        assert got.index.grid_radius == want.index.grid_radius
        # both builds hand out slot n next
        assert got.add((0.0, 0.0), 1.0, 1 if colored else None) == n
    assert want.add((0.0, 0.0), 1.0, 1 if colored else None) == n
    if n:
        assert want.index.oversized  # the heavy tail reached the overflow list


def test_bulk_build_checks_window_and_colors():
    with pytest.raises(ValueError, match="outside window"):
        Configuration.from_arrays(UNIT, [[0.5, 0.5], [1.5, 0.5]], [0.1, 0.1])
    with pytest.raises(ValueError, match="outside window"):
        Configuration.from_arrays(UNIT, [[math.nan, 0.5]], [0.1])
    # rows are all (center, radius) or all (center, radius, color)
    for rows in (
        [((0.5, 0.5), 0.1, 1), ((0.2, 0.2), 0.1)],
        [((0.5, 0.5), 0.1), ((0.2, 0.2), 0.1, 1)],
        [((0.5, 0.5),)],
    ):
        with pytest.raises(ValueError, match="rows must all be"):
            Configuration.from_balls(UNIT, rows)


def test_bulk_build_rejects_mismatched_lengths_and_bad_radii():
    # one center and one color per radius: no numpy broadcasting of a short list
    with pytest.raises(ValueError, match=r"differ in length .*\[1, 3\]"):
        Configuration.from_arrays(UNIT, [[0.5, 0.5]], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match=r"\[2, 2, 1\]"):
        Configuration.from_arrays(UNIT, [[0.5, 0.5], [0.2, 0.2]], [0.1, 0.2], colors=[1])
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Configuration.from_arrays(UNIT, [[0.5, 0.5], [0.2, 0.2]], [0.1, bad])
    empty = Configuration.from_arrays(UNIT, np.zeros((0, 2)), [], colors=[])
    assert empty.colored and empty.n == 0
