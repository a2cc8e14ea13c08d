import math
import warnings

import numpy as np
import pytest
from scipy import stats

from crcmlab.geometry import Box, MarkedBall
from crcmlab.model_core import (
    DiracRadius,
    ModelParams,
    ParetoRadius,
    UniformRadius,
    sample_poisson_boolean,
)
from crcmlab.connectivity import count_components
from crcmlab.crcm import (
    AssumptionAViolated,
    DegenerateWeights,
    RejectionBudgetExceeded,
    bd_step,
    birth_ratio,
    conditional_resample,
    death_ratio,
    domination_check,
    entropy_report,
    gnz_residual_crcm,
    importance_oracle,
    new_chain,
    papangelou_weight,
    run_chain,
)

UNIT = Box([0, 0], [1, 1])
TINY = ModelParams(2.0, 2.0, DiracRadius(0.3), UNIT)


def seeded(k):
    return np.random.default_rng(np.random.SeedSequence(k))


# -- papangelou weights ---------------------------------------------------------


def test_papangelou_isolated_merge_and_q1():
    state = new_chain(TINY, seeded(0), init="empty")
    # two far components
    for c in ([0.1, 0.1], [0.9, 0.9]):
        slot = state.config.add(np.array(c), 0.1)
        state.labeling.apply_insertion(slot, [])
    far = MarkedBall(np.array([0.9, 0.1]), 0.05)
    assert papangelou_weight(state, far) == pytest.approx(2.0 * 2.0)  # z q^{+1}
    bridge = MarkedBall(np.array([0.5, 0.5]), 0.6)
    assert papangelou_weight(state, bridge) == pytest.approx(2.0 / 2.0)  # z q^{-1}
    state1 = new_chain(ModelParams(3.0, 1.0, DiracRadius(0.3), UNIT), seeded(1))
    ball = MarkedBall(np.array([0.4, 0.4]), 0.3)
    assert papangelou_weight(state1, ball) == pytest.approx(3.0)


def test_birth_acceptance_from_empty_state():
    params = ModelParams(0.3, 2.0, DiracRadius(0.1), UNIT)
    state = new_chain(params, seeded(2), init="empty")
    ratio, delta, hits = birth_ratio(state, np.array([0.5, 0.5]), 0.1)
    assert delta == 1 and hits == []
    assert ratio == pytest.approx(params.total_intensity * params.q)


def test_detailed_balance_product_is_one():
    # birth ratio times the death ratio of the same ball is exactly 1
    rng = seeded(3)
    params = ModelParams(4.0, 2.0, UniformRadius(0.05, 0.4), UNIT)
    state = new_chain(params, rng)
    for _ in range(100):
        bd_step(state)
    for _ in range(50):
        center = UNIT.sample_point(rng)
        radius = params.law.sample_scalar(rng)
        r_birth, delta, hits = birth_ratio(state, center, radius)
        slot = state.config.add(center, radius)
        state.labeling.apply_insertion(slot, hits)
        r_death, groups = death_ratio(state, slot)
        assert r_birth * r_death * (state.config.n) == pytest.approx(
            state.config.n, rel=1e-12
        )
        assert 1 - len(groups) == delta
        state.config.remove(slot)
        state.labeling.apply_removal(slot, groups)


def test_cached_component_count_audited(rng):
    params = ModelParams(20.0, 2.0, DiracRadius(0.08), UNIT)
    state = new_chain(params, seeded(4), audit_interval=500)
    for _ in range(5000):
        bd_step(state)  # audit raises on any cache drift
    assert state.n_cc == count_components(state.config)


def test_assumption_violation_raises():
    bad = ModelParams(1.0, 0.5, ParetoRadius(2), UNIT)
    with pytest.raises(AssumptionAViolated):
        new_chain(bad, seeded(5))
    with pytest.raises(AssumptionAViolated):
        importance_oracle(bad, lambda c, n: c, 2000, seeded(6))


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
        conditional_resample(state, box, params)
        counts.append(state.config.count_in(box))
    lam = 10.0 * box.volume
    direct = seeded(20).poisson(lam, size=len(counts))
    p = stats.ks_2samp(counts, direct, method="asymp").pvalue
    assert p > 0.005


def test_conditional_resample_full_window():
    state = new_chain(TINY, seeded(21))
    counts = []
    for _ in range(1200):
        conditional_resample(state, UNIT, TINY)
        counts.append(state.config.n)
    res = importance_oracle(TINY, lambda c, n: c, 200_000, seeded(22))
    se = float(np.std(counts) / math.sqrt(len(counts)))
    assert abs(float(np.mean(counts)) - res.estimate) < 4 * se


def test_conditional_resample_keeps_exterior_fixed():
    state = new_chain(TINY, seeded(23))
    box = Box([0.3, 0.3], [0.7, 0.7])
    before = sorted(
        tuple(np.round(state.config.centers[s], 12))
        for s in state.config.active_ids()
        if not box.contains_point(state.config.centers[s])
    )
    conditional_resample(state, box, TINY)
    after = sorted(
        tuple(np.round(state.config.centers[s], 12))
        for s in state.config.active_ids()
        if not box.contains_point(state.config.centers[s])
    )
    assert before == after
    state.audit()


def test_conditional_resample_q_below_one():
    params = ModelParams(6.0, 0.5, DiracRadius(0.15), UNIT)
    state = new_chain(params, seeded(24))
    box = Box([0.25, 0.25], [0.75, 0.75])
    for _ in range(40):
        conditional_resample(state, box, params)
    state.audit()


def test_conditional_resample_budget_fallback_warns():
    params = ModelParams(3.0, 2.0, DiracRadius(0.3), UNIT)
    state = new_chain(params, seeded(25))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        conditional_resample(state, UNIT, params, max_attempts=0, nested_sweeps=5)
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
    samples = [sample_poisson_boolean(params, seeded(1000 + i)) for i in range(200)]
    rows = gnz_residual_crcm(samples, params, rng=seeded(27))
    assert all(r.residual < 4.0 for r in rows)


def test_gnz_residuals_small_on_chain_samples(crcm_samples):
    params, samples = crcm_samples
    rows = gnz_residual_crcm(samples, params, rng=seeded(28), inner_points=128)
    assert all(r.residual < 4.0 for r in rows)


def test_gnz_wrong_q_detected(crcm_samples):
    params, samples = crcm_samples
    rows = gnz_residual_crcm(samples, params, rng=seeded(29), inner_points=128, rhs_q=3.0)
    assert max(r.residual for r in rows) > 4.0


def test_gnz_needs_enough_samples(crcm_samples):
    params, samples = crcm_samples
    with pytest.raises(ValueError):
        gnz_residual_crcm(samples[:50], params)


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


def test_domination_q1_collapses_to_poisson():
    params = ModelParams(5.0, 1.0, DiracRadius(0.1), UNIT)
    samples = [sample_poisson_boolean(params, seeded(2000 + i)) for i in range(400)]
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
    rows = list(rep.trace_rows())
    assert rows[0][0] == 10 and len(rows[0]) == 6
    assert rep.ess_count > 0


def test_entropy_report_survives_overflowing_weights():
    # q^n_cc = 1e300^n_cc overflows a float; ln z_hat must stay finite and
    # equal the log-mean-exp of the log weights of the same draws
    from scipy.special import logsumexp

    from crcmlab.crcm import _reference_draws

    params = ModelParams(5.0, 1e300, DiracRadius(0.01), UNIT)
    rep = entropy_report(params, 2000, seeded(40))
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
    rep = entropy_report(params, 300, seeded(41))
    counts, n_cc = _reference_draws(params, 300, seeded(41))
    assert counts.mean() > 1000 and n_cc.min() > 900
    assert rep.ln_z_hat == pytest.approx(logsumexp(n_cc * math.log(2.0)) - math.log(300), rel=1e-12)
    assert math.isfinite(rep.rate) and rep.ok


def test_oracle_log_normalizer_with_overflowing_weights():
    params = ModelParams(1200.0, 2.0, DiracRadius(0.001), UNIT)
    res = importance_oracle(params, lambda c, n: n, 1000, seeded(42), min_ess=0.0)
    assert res.z_hat == math.inf and math.isfinite(res.ln_z_hat)
    assert math.isfinite(res.estimate) and res.ln_z_hat > 700
