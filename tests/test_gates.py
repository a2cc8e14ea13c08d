"""Each gate a check applies is written once, in `_stats`: the residual
limit, the bound slack and the KS family-wise level.  Every user applies it
through `_stats` when it runs, so a patched gate reaches each of them."""
import math
import sys
from pathlib import Path

import pytest

from crcmlab import _stats, crcm, widom_rowlinson
from crcmlab import cli_runner as cli
from crcmlab.geometry import Box
from crcmlab.model_core import DiracRadius, ModelParams
from conftest import make_rng

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import workloads  # noqa: E402

SUITE = {sub: settings for sub, settings, _ in workloads.SUITE}


def suite_run(sub: str, out: Path) -> int:
    """`sub` through the command line at its `cli_suite` spec and seed 3."""
    return cli.main(workloads.cli_args(sub, SUITE[sub], 3, out))


def hold_the_rule(name: str, users) -> None:
    """Each user module holds `_stats`' own function `name`, which reads the
    gate when called, and no copy."""
    for module in users:
        assert getattr(module, name) is getattr(_stats, name), module.__name__


def test_a_negative_bound_slack_fails_np_decay_domination_and_entropy(tmp_path, monkeypatch):
    params = ModelParams(2.0, 2.0, DiracRadius(0.3), Box([0, 0], [1, 1]))
    samples = crcm.run_chain(params, make_rng(60), sweeps=200, burn_in=50, thin=2,
                             keep_configs=True).samples

    def outcomes():
        rows = crcm.domination_check(samples, params)
        rep = crcm.entropy_report(params, 20_000, make_rng(61))
        return [r.ok for r in rows] + [rep.ok, rep.empty_floor_ok]

    assert suite_run("np-decay", tmp_path / "right") == cli.EXIT_OK
    assert outcomes() == [True] * 6  # both sides of both domination rows, rate and floor
    hold_the_rule("within", [crcm, cli])
    # every estimate then lies past its bound, whatever its SE
    monkeypatch.setattr(_stats, "BOUND_SLACK", -math.inf)
    assert suite_run("np-decay", tmp_path / "wrong") == cli.EXIT_TEST
    assert outcomes() == [False] * 6


def test_a_ks_level_above_one_per_test_fails_fk_and_dlr(tmp_path, monkeypatch):
    for sub in ("fk-check", "dlr-check"):
        assert suite_run(sub, tmp_path / "right" / sub) == cli.EXIT_OK
    hold_the_rule("ks_family", [widom_rowlinson, cli])
    # fk-check's 2 pairs run 6 tests and dlr-check 2: thresholds past every p-value
    monkeypatch.setattr(_stats, "KS_LEVEL", 100.0)
    for sub in ("fk-check", "dlr-check"):
        assert suite_run(sub, tmp_path / "wrong" / sub) == cli.EXIT_TEST
    head = (tmp_path / "wrong" / "fk-check" / "fk.csv").read_text().split("\n", 1)[0]
    meta = dict(tok.split("=", 1) for tok in head[2:].split())
    assert float(meta["threshold"]) == pytest.approx(100.0 / 6)
    assert meta["rejected"] == "1"


def test_a_zero_residual_limit_fails_gnz_check(tmp_path, monkeypatch):
    assert suite_run("gnz-check", tmp_path / "right") == cli.EXIT_OK
    assert cli._stats is _stats  # gnz-check reads the limit from `_stats` as it runs
    monkeypatch.setattr(_stats, "RESIDUAL_LIMIT", 0.0)  # no residual lies below 0
    assert suite_run("gnz-check", tmp_path / "wrong") == cli.EXIT_TEST
