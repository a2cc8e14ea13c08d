"""Each workload's output check on a negative control: a broken input or a
mis-weighted statistic must show up as failed units, so error_rate is live."""
import numpy as np

from crcmlab.model_core import ModelParams

import workloads as W


def run_steps(w, n):
    return sum(w.step(i).failed for i in range(n))


# -- audit ---------------------------------------------------------------------


def test_audit_counts_a_unit_that_raises(tmp_path):
    class ProbeBoxOutsideWindow(W.Audit):
        spec = {**W.Audit.spec, "lam_box": "-10,-10:10,10"}

    assert run_steps(ProbeBoxOutsideWindow(1, tmp_path), 2) == 2


def test_audit_check_reads_the_violation_counts(tmp_path):
    w = W.Audit(1, tmp_path)
    assert run_steps(w, 2) == 0
    assert w.check() == 0
    csv = w.out / "bounds.csv"
    csv.write_text(csv.read_text().replace("telescoping,0", "telescoping,1"))
    assert w.check() == 2


# -- coupling --------------------------------------------------------------------


class SmallCoupling(W.Coupling):
    z, radius = 60.0, 0.05
    burn_in, recorded = 10, 90


class MismatchedIntensity(SmallCoupling):
    """The cluster-weighted chain at z instead of z/q, the control of
    fk_consistency_test (crcm_z=z)."""

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.cr_params = ModelParams(self.z, float(self.q), self.cr_params.law,
                                     self.cr_params.window)


def test_coupling_passes_and_its_checks_fail_on_controls(tmp_path):
    good = SmallCoupling(3, tmp_path / "good")
    assert run_steps(good, 100) == 0
    assert good.check() == 0
    assert good.effective_samples() > 0
    # a stale cached component count fails ChainState.audit
    good.pairs[0].cr_state.labeling.n_components += 1
    assert good.check() == 100

    bad = MismatchedIntensity(3, tmp_path / "bad")
    assert run_steps(bad, 100) == 0
    assert bad.check() == 100
    assert bad.details["ks_min_p"] < bad.details["ks_threshold"]


# -- oracle ------------------------------------------------------------------------


class SmallOracle(W.Oracle):
    draws_per_call = 5000
    check_burn_in, check_sweeps = 50, 300


def test_oracle_agrees_with_the_chain(tmp_path):
    w = SmallOracle(4, tmp_path)
    assert run_steps(w, 2) == 0
    assert w.check() == 0
    assert w.layer_counts()["oracle.draws"] == 10_000


def test_oracle_check_fails_on_a_misweighted_statistic(tmp_path):
    class MisWeighted(SmallOracle):
        def f(self, counts, n_cc):
            return 1.1 * super().f(counts, n_cc)

    w = MisWeighted(4, tmp_path)
    assert run_steps(w, 2) == 0
    assert w.check() == 10_000


def test_oracle_counts_a_non_finite_estimate(tmp_path):
    class NotFinite(SmallOracle):
        def f(self, counts, n_cc):
            return np.full(counts.size, np.nan)

    assert run_steps(NotFinite(4, tmp_path), 1) == 5000


# -- cli_suite ---------------------------------------------------------------------


def suite_of(*entries):
    class Suite(W.CliSuite):
        suite = entries

    return Suite


def test_cli_suite_check_fails_on_bad_spec_and_missing_output(tmp_path):
    bad_spec = suite_of(("shield", {"alpha": "0", "k": "4", "trials": "10"}, ["shield.csv"]),
                        ("entropy-bounds", {"law": "weibull:2"}, ["entropy_bounds.csv"]))
    w = bad_spec(5, tmp_path / "spec")
    assert w.step(0).units == 2
    assert w.check() == 2

    missing = suite_of(("entropy-bounds", {"q": "2", "law": "dirac:1"}, ["nope.csv"]))
    w = missing(5, tmp_path / "missing")
    w.step(0)
    assert w.check() == 1


def test_statistical_verdict_must_match_the_csv(tmp_path):
    csv = tmp_path / "fk.csv"
    body = "pair,statistic,p_value\n0,count,0.001\n0,n_cc,0.5\n"
    csv.write_text("# threshold=0.01 rejected=1 pass=0\n" + body)
    assert W.VERDICTS["fk-check"](csv) is False
    csv.write_text("# threshold=0.01 rejected=1 pass=1\n" + body)
    assert W.VERDICTS["fk-check"](csv) is None
