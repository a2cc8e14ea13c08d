import numpy as np
import pytest

from crcmlab import analysis, connectivity, crcm
from crcmlab import cli_runner as cli
from crcmlab.geometry import Box
from crcmlab.model_core import (
    Configuration,
    DiracRadius,
    ModelParams,
    UniformRadius,
    sample_poisson_boolean,
)
from crcmlab.connectivity import (
    BallGraph,
    ClusterLabeling,
    check_bounds,
    compatibility_offset,
    components,
    count_components,
    local_cc,
)

BIG = Box([-10, -10], [10, 10])


def mk(window, balls):
    return Configuration.from_balls(window, balls)


def increment(cfg, center, radius):
    """Change in component count if B(center, radius) were inserted."""
    return ClusterLabeling(cfg).insertion_increment(cfg, center, radius)[0]


def test_empty_configuration_has_no_components():
    assert count_components(Configuration(BIG, cell_size=1.0)) == 0


def test_two_tangent_unit_balls_form_one_component():
    cfg = mk(BIG, [((0, 0), 1.0), ((2, 0), 1.0)])
    assert count_components(cfg) == 1


def test_chain_of_five_connected_then_apart():
    chain = mk(BIG, [((2 * k, 0), 1.0) for k in range(5)])
    assert count_components(chain) == 1
    apart = mk(BIG, [((4 * k - 8, 0), 1.0) for k in range(5)])
    assert count_components(apart) == 5


# -- local component count -----------------------------------------------------


def test_local_cc_all_inside_equals_total():
    lam = Box([-3, -3], [3, 3])
    cfg = mk(BIG, [((0, 0), 0.5), ((2, 0), 0.5), ((2.9, 0), 0.5)])
    res = local_cc(cfg, lam)
    assert res.value == count_components(cfg) == 2


def test_local_cc_empty_box_is_zero():
    cfg = mk(BIG, [((5, 5), 0.5)])
    assert local_cc(cfg, Box([-1, -1], [1, 1])).value == 0


def test_local_cc_bridge_example_is_minus_one():
    # big ball in the box bridges two outside balls: 1 component with it,
    # 2 without -> local count -1
    lam = Box([-1, -1], [1, 1])
    cfg = mk(BIG, [((0, 0), 2.0), ((3, 0), 1.0), ((-3, 0), 1.0)])
    res = local_cc(cfg, lam)
    assert res.value == 1 - 2 == -1


def test_local_cc_requires_box_in_window():
    cfg = mk(BIG, [((0, 0), 1.0)])
    with pytest.raises(ValueError, match="probe box must sit inside the window"):
        local_cc(cfg, Box([-20, -20], [0, 0]))
    with pytest.raises(ValueError, match="audited box must sit inside the window"):
        bounds(cfg, Box([-20, -20], [0, 0]), 1.0)


def test_local_cc_stabilization_witness(rng):
    # re-evaluating with probes grown past the witness never changes the value
    params = ModelParams(0.08, 1.0, UniformRadius(0.2, 0.8), BIG)
    lam = Box([-2, -2], [2, 2])
    for _ in range(20):
        cfg = sample_poisson_boolean(params, rng)
        res = local_cc(cfg, lam)
        for extra in (1.0, 2.5, 7.0):
            grown = local_cc(cfg, lam, step=res.stabilization_box.hi[0] - lam.hi[0] + extra)
            assert grown.value == res.value


# -- single-ball increments ------------------------------------------------------


def test_increment_isolated_bridging_touching():
    cfg = mk(BIG, [((0, 0), 1.0), ((5, 0), 1.0)])
    assert increment(cfg, (-8.0, -8.0), 0.5) == 1  # isolated
    assert increment(cfg, (2.5, 0.0), 1.5) == -1  # bridges both
    assert increment(cfg, (1.5, 0.0), 0.6) == 0  # touches one


def test_increment_never_above_one(rng):
    params = ModelParams(0.08, 1.0, UniformRadius(0.0, 1.5), BIG)
    for _ in range(50):
        cfg = sample_poisson_boolean(params, rng)
        assert increment(cfg, BIG.sample_point(rng), float(rng.exponential(1.0))) <= 1


def test_increment_lower_bound_constant(rng):
    # all radii >= r0: increment >= -(3R/r0)^d for the inserted radius R
    r0 = 0.5
    params = ModelParams(0.08, 1.0, UniformRadius(r0, 1.2), BIG)
    c0 = (3.0 / r0) ** 2
    for _ in range(50):
        cfg = sample_poisson_boolean(params, rng)
        rad = float(rng.uniform(r0, 2.0))
        assert increment(cfg, BIG.sample_point(rng), rad) >= -c0 * rad**2


def test_increment_matches_local_cc_on_nested_boxes(rng):
    # the increment is the change of the local count for any box holding the center
    params = ModelParams(0.06, 1.0, UniformRadius(0.1, 0.6), BIG)
    boxes = [Box([-2, -2], [2, 2]), Box([-5, -5], [5, 5])]
    for _ in range(25):
        cfg = sample_poisson_boolean(params, rng)
        center, radius = (0.3, -0.4), float(rng.uniform(0.1, 0.8))
        inc = increment(cfg, center, radius)
        plus = cfg.copy()
        plus.add(center, radius)
        for box in boxes:
            assert local_cc(plus, box).value - local_cc(cfg, box).value == inc


def test_telescoping_identity(rng):
    # adding balls in any order, the increments sum to the component count
    params = ModelParams(0.06, 1.0, UniformRadius(0.2, 1.0), BIG)
    for _ in range(20):
        target = sample_poisson_boolean(params, rng)
        centers, radii, _ = target.arrays()
        cfg = Configuration(BIG, cell_size=target.index.cell_size)
        lab = ClusterLabeling(cfg)
        total = 0
        for k in rng.permutation(target.n):
            delta, hits = lab.insertion_increment(cfg, centers[k], radii[k])
            slot = cfg.add(centers[k], radii[k])
            lab.apply_insertion(slot, hits)
            total += delta
        assert total == count_components(target) == lab.n_components


def test_deletion_inverse(rng):
    # removal bookkeeping agrees with a from-scratch rebuild for every ball
    params = ModelParams(0.05, 1.0, UniformRadius(0.2, 1.0), BIG)
    for _ in range(20):
        cfg = sample_poisson_boolean(params, rng)
        lab = ClusterLabeling(cfg)
        n_cc = lab.n_components
        for slot in list(cfg.active_ids()):
            groups = lab.removal_split(slot)
            center, radius = cfg.index.balls[slot]
            without = cfg.copy()
            without.remove(slot)
            n_without = count_components(without)
            assert increment(without, center, radius) == n_cc - n_without
            assert 1 - len(groups) == n_cc - n_without


def test_incremental_removal_matches_full_rebuild(rng):
    params = ModelParams(0.08, 1.0, UniformRadius(0.2, 0.9), BIG)
    cfg = sample_poisson_boolean(params, rng)
    lab = ClusterLabeling(cfg)
    order = list(cfg.active_ids())
    rng.shuffle(order)
    for slot in order:
        groups = lab.removal_split(slot)
        cfg.remove(slot)
        lab.apply_removal(slot, groups)
        assert lab.n_components == count_components(cfg)
    assert cfg.n == 0 and lab.n_components == 0


# -- compatibility offsets -------------------------------------------------------


def offset(cfg, inner, outer):
    return compatibility_offset(BallGraph.of(*cfg.arrays()[:2]), inner, outer, cfg.window)


def test_offset_trivial_cases(rng):
    lam = Box([-1, -1], [1, 1])
    cfg = mk(BIG, [((0.2, 0.3), 0.4)])
    assert offset(cfg, lam, lam) == 0
    empty_outside = mk(BIG, [((0, 0), 0.2)])
    assert offset(empty_outside, lam, Box([-2, -2], [2, 2])) == 0
    with pytest.raises(ValueError, match="inner box must sit inside outer box"):
        offset(cfg, Box([-2, -2], [2, 2]), lam)
    with pytest.raises(ValueError, match="outer box must sit inside the window"):
        offset(cfg, lam, Box([-20, -20], [20, 20]))


def test_offset_independent_of_interior(rng):
    # resampling the interior must never move the offset
    lam = Box([-1.5, -1.5], [1.5, 1.5])
    lam2 = Box([-4, -4], [4, 4])
    params = ModelParams(0.05, 1.0, UniformRadius(0.2, 0.8), BIG)
    for _ in range(5):
        cfg = sample_poisson_boolean(params, rng)
        ref = offset(cfg, lam, lam2)
        outside = [(c, r) for c, r in cfg.index.balls.values() if not lam.contains_point(c)]
        for _ in range(20):
            n_new = int(rng.poisson(2.0))
            inner = [
                (lam.sample_point(rng), float(rng.uniform(0.1, 1.0))) for _ in range(n_new)
            ]
            redone = Configuration.from_balls(BIG, outside + inner)
            assert offset(redone, lam, lam2) == ref


# -- explicit bounds --------------------------------------------------------------


def bounds(cfg, box, r0):
    return check_bounds(BallGraph.of(*cfg.arrays()[:2]), cfg.window, box, r0)


def test_bounds_on_empty_configuration():
    cfg = Configuration(BIG, cell_size=1.0)
    rep = bounds(cfg, Box([0, 0], [1, 1]), r0=1.0)
    assert rep.upper_ok and rep.lower_ok
    assert rep.k_const < 0


def test_k_constant_formula():
    cfg = Configuration(BIG, cell_size=1.0)
    rep = bounds(cfg, Box([0, 0], [1, 1]), r0=1.0)
    # dilation by r0+2 = 3 of the unit square: side 7, area 49
    assert rep.k_const == pytest.approx(1 - 49.0 / np.pi)


def test_bounds_sweep_no_violations(rng):
    lam = Box([-1, -1], [1, 1])
    params = ModelParams(0.04, 1.0, UniformRadius(0.1, 1.0), BIG)
    for _ in range(300):
        cfg = sample_poisson_boolean(params, rng)
        rep = bounds(cfg, lam, r0=1.0)
        assert rep.upper_ok and rep.lower_ok and not rep.lower_vacuous


def test_bounds_vacuous_flag():
    lam = Box([-1, -1], [1, 1])
    cfg = mk(BIG, [((0, 0), 5.0)])
    rep = bounds(cfg, lam, r0=1.0)
    assert rep.lower_vacuous and rep.lower_ok


# -- one copy of each bound: a wrong value reaches every user ---------------------------


def patch_shared(monkeypatch, name, users, wrong):
    """Replace connectivity's function `name` by `wrong(real)` in it and in
    every user, each of which must hold connectivity's own function."""
    real = getattr(connectivity, name)
    for module in (connectivity, *users):
        assert getattr(module, name) is real
        monkeypatch.setattr(module, name, wrong(real))


def test_a_raised_floor_reaches_the_audit_and_the_heat_bath(monkeypatch):
    # a box of side 0.1 and r0 = 0.05: K = 1 - 4.2^2 / pi = -4.6, so a floor
    # 5 higher lies above 0, the local count of a box with no ball near it
    box = Box([0.45, 0.45], [0.55, 0.55])
    cfg = mk(BIG, [((-8, -8), 0.05)])
    assert bounds(cfg, box, r0=0.05).lower_ok
    params = ModelParams(1.0, 0.5, DiracRadius(0.05), Box([0, 0], [1, 1]))
    state = crcm.ChainState(params, Configuration(params.window, 1.0), np.random.default_rng(5))

    def raised(real):
        def floor(centers, b, r0):
            k_const, value = real(centers, b, r0)
            return k_const, value + 5
        return floor

    patch_shared(monkeypatch, "local_floor", [crcm], raised)
    rep = bounds(cfg, box, r0=0.05)
    assert not rep.lower_ok and not rep.lower_vacuous
    # q < 1: an empty draw's exponent 0 - (K + 5) is negative, past the envelope
    with pytest.raises(RuntimeError, match="envelope"):
        crcm.conditional_resample(state, box)


def test_a_wrong_c0_reaches_the_tilted_law_and_the_audit(monkeypatch, tmp_path):
    # doubling c0 loosens the audited bound; its negative puts -c0 r^d above 1,
    # which no increment reaches
    patch_shared(monkeypatch, "increment_c0", [analysis, cli],
                 lambda real: lambda r_min, d: -real(r_min, d))
    assert analysis.tilted_law(DiracRadius(1.0), 2.0, 2).c0 == -9.0
    args = ["bounds-audit", "--out", str(tmp_path), "--set", "law=uniform:0.2,1",
            "--set", "window=-4,-4:4,4", "--set", "z=0.1", "--set", "samples=3"]
    assert cli.main(args) == cli.EXIT_TEST
    rows = dict(line.split(",") for line in (tmp_path / "bounds.csv").read_text().splitlines()[2:])
    assert rows["increment_below"] == "3"


# -- component labels ------------------------------------------------------------


def test_sizes_partition_count(rng):
    params = ModelParams(0.08, 1.0, UniformRadius(0.1, 0.6), BIG)
    cfg = sample_poisson_boolean(params, rng)
    count, labels = components(*cfg.arrays()[:2])
    sizes = np.bincount(labels, minlength=count)
    assert sizes.size == count == count_components(cfg)
    assert sizes.sum() == cfg.n and np.all(sizes > 0)
