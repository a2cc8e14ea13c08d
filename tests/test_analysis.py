import dataclasses
import math

import numpy as np
import pytest
from scipy import optimize
from scipy.integrate import IntegrationWarning

from crcmlab.geometry import Box, centered_box, dilate
from crcmlab.model_core import (
    Configuration,
    DiracRadius,
    ModelParams,
    ParetoRadius,
    UniformRadius,
    parse_law,
    sample_poisson_boolean,
)
from crcmlab.analysis import (
    PreconditionEventFailed,
    build_shield,
    estimate_NP,
    event_Aij,
    event_Wij,
    exterior_hit_mass,
    localization_check,
    mono_lower_bound,
    np_bound,
    phi_y,
    psi,
    psi_prime,
    psi_root,
    shield_covering_trials,
    shield_event_Wk,
    tilted_law,
    wr_entropy_upper,
)
from crcmlab.widom_rowlinson import is_allowed

W = Box([-30, -30], [30, 30])


def seeded(k):
    return np.random.default_rng(np.random.SeedSequence(k))


def balls(*specs):
    return Configuration.from_balls(W, specs)


# -- isolation event ---------------------------------------------------------------


def test_isolation_event_vacuous_inside():
    cfg = balls(((1, 1), 0.5), ((-2, 0.5), 1.0))
    assert event_Aij(*cfg.arrays()[:2], 3, 4)  # all centers inside the outer box


def test_isolation_event_detects_reaching_ball():
    # center at distance 4 from the inner box: radius 4.5 reaches, 1.0 does not
    cfg = balls(((6, 0), 4.5))
    assert not event_Aij(*cfg.arrays()[:2], 2, 4)
    cfg2 = balls(((6, 0), 1.0))
    assert event_Aij(*cfg2.arrays()[:2], 2, 4)


def test_isolation_probability_matches_void_oracle():
    z, law = 0.4, DiracRadius(1.5)
    mass = exterior_hit_mass(1.0, 2.0, z, law)
    pred = math.exp(-mass)
    rng = seeded(1)
    params = ModelParams(z, 1.0, law, Box([-8, -8], [8, 8]))
    trials = 3000
    hits = sum(
        event_Aij(*sample_poisson_boolean(params, rng).arrays()[:2], 1.0, 2.0)
        for _ in range(trials)
    )
    se = math.sqrt(pred * (1 - pred) / trials)
    assert abs(hits / trials - pred) < 4 * se


def test_exterior_mass_zero_when_radii_cannot_reach():
    assert exterior_hit_mass(1.0, 3.0, 2.0, DiracRadius(1.5)) == pytest.approx(0.0)
    # uniform law: quadrature against a plain Monte Carlo area oracle
    law = UniformRadius(0.5, 2.5)
    mass = exterior_hit_mass(1.0, 2.0, 1.0, law)
    rng = seeded(2)
    inner, outer = centered_box(1.0, 2), centered_box(2.0, 2)
    big = centered_box(6.0, 2)
    pts = big.sample_points(rng, 120_000)
    rs = law.sample(rng, 120_000)
    hit = np.array(
        [
            (not outer.contains_point(p)) and inner.distance_to_point(p) <= r
            for p, r in zip(pts, rs)
        ]
    )
    mc = big.volume * hit.mean()
    mc_se = big.volume * hit.std() / math.sqrt(len(pts))
    assert abs(mass - mc) < 4 * mc_se


def test_exterior_mass_of_a_divergent_law_raises():
    # the planar 2-moment of pareto:2 diverges, so the mass is infinite;
    # the quadrature once returned about 4.5e5 with only a warning
    with pytest.raises(IntegrationWarning):
        exterior_hit_mass(4.0, 9.0, 0.1, ParetoRadius(2))


# -- screening event ----------------------------------------------------------------


LAM = Box([-1, -1], [1, 1])


def chain_row(y, x0=1.5, n=7):
    return [((x0 + 2 * k, y), 1.0) for k in range(n)]


def test_screening_event_trivial_and_constructed():
    assert event_Wij(*Configuration(W, cell_size=1.0).arrays()[:2], LAM, 1.0, 3, 16)
    one = Configuration.from_balls(W, chain_row(1.6))
    assert event_Wij(*one.arrays()[:2], LAM, 1.0, 3, 16)
    two = Configuration.from_balls(W, chain_row(1.6) + chain_row(-1.6))
    assert not event_Wij(*two.arrays()[:2], LAM, 1.0, 3, 16)


def test_localization_trivial_when_inside():
    cfg = balls(((0.5, 0), 0.4), ((2.5, 0.2), 0.7))
    assert localization_check(*cfg.arrays()[:2], LAM, 1.0, 4, 9)


def test_localization_precondition_rejected():
    two = Configuration.from_balls(W, chain_row(1.6) + chain_row(-1.6))
    with pytest.raises(PreconditionEventFailed):
        localization_check(*two.arrays()[:2], LAM, 1.0, 3, 16)
    fat = balls(((0, 0), 3.0))  # radius above the cap inside the box
    with pytest.raises(PreconditionEventFailed):
        localization_check(*fat.arrays()[:2], LAM, 1.0, 4, 9)


def test_localization_conditioned_sweep():
    params = ModelParams(0.05, 1.0, UniformRadius(0.3, 1.0), W)
    rng = seeded(3)
    done = 0
    while done < 120:
        cfg = sample_poisson_boolean(params, rng)
        if any(LAM.contains_point(c) and r > 1.0 for c, r in cfg.index.balls.values()):
            continue
        centers, radii, _ = cfg.arrays()
        if not (event_Aij(centers, radii, 4, 9) and event_Wij(centers, radii, LAM, 1.0, 4, 9)):
            continue
        assert localization_check(centers, radii, LAM, 1.0, 4, 9)
        done += 1


# -- array events against per-ball references ------------------------------------------


def ref_groups(cfg, slots):
    """Components of the balls in `slots` by pairwise closed-ball tests."""
    parent = {s: s for s in slots}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    balls = cfg.index.balls
    for x, a in enumerate(slots):
        for b in slots[x + 1 :]:
            diff = np.subtract(balls[a][0], balls[b][0])
            if diff @ diff <= (balls[a][1] + balls[b][1]) ** 2:
                parent[find(b)] = find(a)
    groups: dict = {}
    for s in slots:
        groups.setdefault(find(s), []).append(s)
    return list(groups.values())


def ref_event_Aij(cfg, i, j):
    # the former ball-by-ball loop
    inner, outer = centered_box(i, 2), centered_box(j, 2)
    for c, r in cfg.index.balls.values():
        if not outer.contains_point(c) and inner.distance_to_point(c) <= r:
            return False
    return True


def ref_event_Wij(cfg, box, r0, i, j):
    inner, outer = centered_box(i, 2), centered_box(j, 2)
    balls = cfg.index.balls
    keep = [
        s for s in cfg.active_ids()
        if outer.contains_point(balls[s][0]) and not box.contains_point(balls[s][0])
    ]
    crossing = 0
    for comp in ref_groups(cfg, keep):
        touches = any(box.distance_to_point(balls[s][0]) <= r0 + balls[s][1] for s in comp)
        exits = any(not inner.contains_ball(*balls[s]) for s in comp)
        crossing += touches and exits
    return crossing <= 1


def ref_np_count(cfg, eroded):
    """Components with every ball inside the eroded window."""

    def inside(s):
        c, r = cfg.index.balls[s]
        return all(lo <= x - r and x + r <= hi for x, lo, hi in zip(c, eroded.lo, eroded.hi))

    return sum(all(inside(s) for s in comp) for comp in ref_groups(cfg, list(cfg.active_ids())))


def tangent_config(rng, window, n=40):
    """Balls on the integer lattice with radii in {0.5, 1, 2, 4}: ball-ball
    and ball-box distances hit the radius sums exactly."""
    lo, hi = int(window.lo[0]) + 1, int(window.hi[0]) - 1
    centers = rng.integers(lo, hi + 1, size=(n, 2)).astype(float)
    radii = rng.choice([0.5, 1.0, 2.0, 4.0], size=n)
    return Configuration.from_arrays(window, centers, radii)


def test_array_events_match_per_ball_references():
    # the localization spec of the benchmark's cli_suite, plus tangent lattices
    w = Box([-20, -20], [20, 20])
    params = ModelParams(0.02, 1.0, parse_law("tpareto:2,30"), w)
    lam_box = Box(w.lo + 0.45 * w.sides, w.lo + 0.55 * w.sides)
    rng = seeded(11)
    cfgs = [sample_poisson_boolean(params, rng) for _ in range(300)]
    cfgs += [tangent_config(rng, w) for _ in range(150)]
    outcomes = set()
    for cfg in cfgs:
        for i, j in ((5, 14), (2, 6), (3, 4)):
            a = event_Aij(*cfg.arrays()[:2], i, j)
            wij = event_Wij(*cfg.arrays()[:2], lam_box, 2.0, i, j)
            assert a == ref_event_Aij(cfg, i, j)
            assert wij == ref_event_Wij(cfg, lam_box, 2.0, i, j)
            outcomes.add((a, wij))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_estimate_NP_counts_match_per_component_reference():
    w = Box([-20, -20], [20, 20])
    params = ModelParams(0.05, 1.0, parse_law("tpareto:2,30"), w)
    rng = seeded(12)
    cfgs = [sample_poisson_boolean(params, rng) for _ in range(60)]
    cfgs += [tangent_config(rng, w, n=80) for _ in range(60)]
    for border in (1.0, 3.0, 8.0):
        est = estimate_NP([cfg.arrays() for cfg in cfgs], w, border)
        ref = [ref_np_count(cfg, est.eroded) / est.eroded.volume for cfg in cfgs]
        assert est.per_sample.tolist() == ref


def test_np_component_straddling_the_eroded_boundary_dropped():
    # the far-left ball of the chain lies inside the eroded window [1, 9]^2,
    # its last ball reaches past x = 9: the whole component is dropped
    win = Box([0, 0], [10, 10])
    chain = [((x, 5.0), 0.6) for x in (3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 8.7)]
    cfg = Configuration.from_balls(win, chain + [((5.0, 2.0), 0.5)])
    est = estimate_NP([cfg.arrays()], win, 1.0)
    assert est.value == pytest.approx(1 / 64.0)


# -- corner-cube shield ----------------------------------------------------------------


def test_shield_constants_closed_form():
    g = build_shield(1, 4, 2)
    assert g.d1 == math.ceil(math.sqrt(2) * 6 - 4) == 5
    assert g.d2 >= 1 and len(g.inner_cubes) == len(g.outer_cubes) == 4
    assert g.guard_box.hi[0] == pytest.approx(1 + 4 + g.d1)
    assert g.outer_box.hi[0] == pytest.approx(1 + 8 + g.d1 + 1 + g.d2)


def test_shield_invalid_parameters():
    with pytest.raises(ValueError, match="need k >= alpha >= 1 and dimension >= 2"):
        build_shield(3, 2, 2)  # k < alpha
    with pytest.raises(ValueError, match="need k >= alpha >= 1 and dimension >= 2"):
        build_shield(0, 2, 2)
    with pytest.raises(ValueError, match="alpha and k must be integers"):
        build_shield(1.5, 4, 2)


@pytest.mark.parametrize("alpha,k,d", [(1, 4, 2), (2, 3, 2), (1, 2, 3)])
def test_shield_covering_randomized(alpha, k, d):
    g = build_shield(alpha, k, d)
    bad_in, bad_out = shield_covering_trials(g, 20_000, seeded(4))
    assert bad_in == 0 and bad_out == 0


def test_shield_negative_control_grown_guard_box():
    # a guard box grown by 2 lets balls from beyond the outer box reach it
    # without covering an outer cube
    g = build_shield(1, 4, 2)
    grown = dataclasses.replace(g, guard_box=dilate(g.guard_box, 2.0))
    bad_in, bad_out = shield_covering_trials(grown, 5000, seeded(9))
    assert bad_in == 0 and bad_out > 500


def shield_with_pairs(geom, extra=()):
    big = Box(geom.outer_box.lo * 3, geom.outer_box.hi * 3)
    cfg = Configuration(big, cell_size=2.0, colored=True)
    for cube in geom.inner_cubes + geom.outer_cubes:
        cfg.add(cube.lo + 0.25 * cube.sides, 0.2, 1)
        cfg.add(cube.lo + 0.75 * cube.sides, 0.2, 2)
    for center, radius, color in extra:
        cfg.add(np.asarray(center, dtype=float), radius, color)
    return cfg, big


def test_shield_event_detection():
    g = build_shield(1, 2, 2)
    cfg, _ = shield_with_pairs(g)
    centers, _, colors = cfg.arrays()
    assert shield_event_Wk(centers, colors, g)
    assert not shield_event_Wk(centers, np.ones_like(colors), g)


def test_shield_screens_the_allowed_indicator():
    # with pairs in every cube, the indicator never feels balls beyond the
    # outer box, whatever sits inside the central box
    g = build_shield(1, 2, 2)
    rng = seeded(5)
    lam_box = g.central_box
    violations = 0
    for t in range(400):
        far = g.outer_box.hi[0] * (1.5 + rng.random())
        extra = [((far, far), rng.exponential(1.0), int(rng.integers(1, 3)))]
        cfg, big = shield_with_pairs(g, extra)
        centers, radii, colors = cfg.arrays()
        if not (is_allowed(centers, radii, colors) and shield_event_Wk(centers, colors, g)):
            continue
        full = Configuration(big, cell_size=2.0, colored=True)
        trunc = Configuration(big, cell_size=2.0, colored=True)
        for s in cfg.active_ids():
            c, r = cfg.index.balls[s]
            if lam_box.contains_point(c):
                continue
            full.add(c, r, cfg.colors[s])
            if g.outer_box.contains_point(c):
                trunc.add(c, r, cfg.colors[s])
        for _ in range(int(rng.integers(0, 4))):
            center = lam_box.sample_point(rng)
            radius = float(rng.exponential(3.0))
            color = int(rng.integers(1, 3))
            full.add(center, radius, color)
            trunc.add(center, radius, color)
        if is_allowed(*full.arrays()) != is_allowed(*trunc.arrays()):
            violations += 1
    assert violations == 0


# -- entropy-rate calculators --------------------------------------------------------------


def test_phi_closed_form_and_edges():
    assert phi_y(DiracRadius(1.0), 10.0, 2) == pytest.approx(0.64, abs=1e-12)
    assert phi_y(DiracRadius(1.0), 2.0, 2) == 0.0
    assert phi_y(DiracRadius(1.0), 1.5, 2) == 0.0
    # point grains always lie inside the cube: the atom at radius 0 counts
    assert phi_y(DiracRadius(0.0), 3.0, 2) == 1.0
    for y in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            phi_y(DiracRadius(1.0), y, 2)


def test_phi_monte_carlo_oracle():
    law = UniformRadius(0.2, 1.2)
    y, d = 6.0, 2
    val = phi_y(law, y, d)
    rng = seeded(6)
    box = Box([0, 0], [y, y])
    centers = box.sample_points(rng, 200_000)
    rs = law.sample(rng, 200_000)
    inside = np.all(
        (centers - rs[:, None] >= 0.0) & (centers + rs[:, None] <= y), axis=1
    )
    mc = inside.mean()
    se = inside.std() / math.sqrt(inside.size)
    assert abs(val - mc) < 4 * se


def test_phi_monotone_in_y():
    law = UniformRadius(0.1, 0.9)
    vals = [phi_y(law, y, 2) for y in (2, 4, 8, 16, 32)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.9


def test_mono_lower_bound_values():
    assert mono_lower_bound(1.0, 2) == 0.5
    assert mono_lower_bound(3.0, 2) == pytest.approx(1.5)
    grid = [mono_lower_bound(1.0, q) for q in (2, 3, 5, 10, 100)]
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert all(v < 1.0 for v in grid)
    with pytest.raises(ValueError):
        mono_lower_bound(1.0, 1)
    with pytest.raises(ValueError):
        mono_lower_bound(-1.0, 2)


def test_psi_zero_at_origin_and_negative_below_root():
    phi = 0.64
    assert psi(0.0, 2, 10.0, phi, 2) == 0.0
    zy = psi_root(2, 10.0, phi, 2)
    assert zy == pytest.approx((2 / 64) * math.log(0.5 / 0.44), rel=1e-12)
    for z in np.linspace(zy / 200, zy * 0.999, 150):
        assert psi(float(z), 2, 10.0, phi, 2) < 0


def test_psi_root_against_independent_solver():
    phi = phi_y(DiracRadius(1.0), 10.0, 2)
    zy = psi_root(2, 10.0, phi, 2)
    bracket = optimize.brentq(
        lambda z: psi_prime(z, 2, 10.0, phi, 2), 1e-12, 1.0, xtol=1e-15
    )
    assert abs(zy - bracket) < 1e-8
    # derivative changes sign exactly once around the root
    assert psi_prime(zy / 2, 2, 10.0, phi, 2) < 0 < psi_prime(zy * 2, 2, 10.0, phi, 2)


def test_psi_root_undefined_for_small_phi():
    # the root needs phi above 8/(7q) = 4/7
    with pytest.raises(ValueError, match=r"y=10 gives phi=0.5: needs phi > 8/\(7q\)"):
        psi_root(2, 10.0, 0.5, 2)
    with pytest.raises(ValueError, match=r"y=10 gives phi=0.55: needs phi > 8/\(7q\)"):
        psi_root(2, 10.0, 0.55, 2)


def test_entropy_upper_bound_below_intensity():
    law = DiracRadius(1.0)
    for z in (0.001, 0.01, 0.1):
        for n in (20, 40, 80):
            assert wr_entropy_upper(z, 2, 10.0, law, n, 2) <= z


def test_entropy_upper_q1_degenerates():
    # with a single color the logarithm term collapses to the exponent
    law = DiracRadius(1.0)
    z, y, n, d = 0.05, 10.0, 40, 2
    phi = phi_y(law, y, d)
    k_n = math.floor(2 * n / y) ** d
    c_n = (2 * n) ** d - k_n * y**d
    expected = z + (1 / y**d) * (c_n / (2 * n) ** d - 1.0) * (z * y**d * phi)
    assert wr_entropy_upper(z, 1, y, law, n, d) == pytest.approx(expected)
    assert expected < z


def test_separation_interval_exists():
    law = DiracRadius(1.0)
    phi = phi_y(law, 10.0, 2)
    zy = psi_root(2, 10.0, phi, 2)
    seps = [
        wr_entropy_upper(z, 2, 10.0, law, 40, 2) < mono_lower_bound(z, 2)
        for z in np.linspace(zy / 10, zy, 12)
    ]
    assert all(seps)


# -- tilted radius measure --------------------------------------------------------------------


def test_tilted_dirac_mass_exact():
    tl = tilted_law(DiracRadius(1.0), 2.0, 2)
    assert tl.c0 == 9.0
    assert tl.mass == pytest.approx(2.0**-9, rel=1e-12)
    assert tl.d_moment == pytest.approx(2.0**-9, rel=1e-12)


def test_tilted_heavy_tail_has_finite_moment():
    tl = tilted_law(ParetoRadius(2), 2.0, 2)
    assert 0 < tl.mass < 1
    assert math.isfinite(tl.d_moment) and tl.d_moment > 0


def test_tilted_mass_monotonicity():
    masses_q = [tilted_law(DiracRadius(1.0), q, 2).mass for q in (1.5, 2.0, 4.0)]
    assert all(b < a for a, b in zip(masses_q, masses_q[1:]))
    # larger r0 shrinks c0, so the weight grows
    masses_r0 = [
        tilted_law(UniformRadius(r0, 2.0), 2.0, 2).mass for r0 in (0.5, 1.0, 1.5)
    ]
    assert all(b > a for a, b in zip(masses_r0, masses_r0[1:]))


def test_tilted_mass_tends_to_one_as_q_drops():
    assert tilted_law(DiracRadius(1.0), 1.0 + 1e-9, 2).mass == pytest.approx(
        1.0, abs=1e-6
    )


# -- cluster density ----------------------------------------------------------------------------


def test_np_empty_and_singletons():
    win = Box([0, 0], [10, 10])
    empty = Configuration(win, cell_size=0.5)
    assert estimate_NP([empty.arrays()], win, 1.0).value == 0.0
    singles = Configuration.from_balls(win, [((3.0, 3.0), 0.5), ((7.0, 7.0), 0.5)])
    est = estimate_NP([singles.arrays()] * 3, win, 1.0)
    assert est.value == pytest.approx(2 / 64.0)


def test_np_translation_consistency():
    win = Box([0, 0], [10, 10])
    cfg = Configuration.from_balls(win, [((3.0, 3.0), 0.5), ((6.5, 7.0), 0.8)])
    base = estimate_NP([cfg.arrays()], win, 1.0)
    shift = np.array([11.0, -4.0])
    centers, radii, colors = cfg.arrays()
    moved = (centers + shift, radii, colors)
    again = estimate_NP([moved], Box(win.lo + shift, win.hi + shift), 1.0)
    assert base.value == again.value


def test_np_eroded_window_empty():
    win = Box([0, 0], [2, 2])
    with pytest.raises(ValueError, match="border leaves no observation window"):
        estimate_NP([Configuration(win, cell_size=0.5).arrays()], win, 1.0)


def test_np_boundary_components_dropped():
    win = Box([0, 0], [10, 10])
    cfg = Configuration.from_balls(
        win,
        [
            ((0.5, 5.0), 0.6),  # sticks into the border margin
            ((5.0, 5.0), 0.5),
        ],
    )
    est = estimate_NP([cfg.arrays()], win, 1.0)
    assert est.value == pytest.approx(1 / 64.0)


def test_np_doubled_window_consistency():
    # the same reference process observed in a doubled window gives a
    # compatible density estimate; the minus-sampling containment factor
    # ((Le-2r)/Le)^d is window-dependent, so the tolerance carries the exact
    # singleton differential plus a crude bound on the cluster contribution
    r, z, border = 0.05, 0.2, 0.2
    law = DiracRadius(r)
    small = Box([0, 0], [10, 10])
    big = Box([0, 0], [20, 20])
    s_small = [
        sample_poisson_boolean(ModelParams(z, 1.0, law, small), seeded(500 + t)).arrays()
        for t in range(400)
    ]
    s_big = [
        sample_poisson_boolean(ModelParams(z, 1.0, law, big), seeded(9000 + t)).arrays()
        for t in range(200)
    ]
    e1 = estimate_NP(s_small, small, border)
    e2 = estimate_NP(s_big, big, border)

    def singleton_pred(window):
        le = window.sides[0] - 2 * border
        return z * math.exp(-z * math.pi * (2 * r) ** 2) * ((le - 2 * r) / le) ** 2

    bias_diff = abs(singleton_pred(small) - singleton_pred(big))
    cluster_allowance = z * z * math.pi * (2 * r) ** 2
    tol = 3 * math.hypot(e1.se, e2.se) + bias_diff + cluster_allowance
    assert abs(e1.value - e2.value) < tol
    # each estimate also matches its own analytic singleton value
    for est, win in ((e1, small), (e2, big)):
        assert abs(est.value - singleton_pred(win)) < 3 * est.se + cluster_allowance


def test_np_bound_formula_and_decay():
    law = DiracRadius(1.0)
    val = np_bound(1.0, 2.0, law, 2)
    assert val == pytest.approx(2.0 * math.exp(-math.pi * 2.0**-10))
    # exponential decay wins far beyond the stationary point z = 1024/pi
    zs = np.linspace(500.0, 8000.0, 40)
    bounds = [np_bound(float(z), 2.0, law, 2) for z in zs]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] < 1e-3
