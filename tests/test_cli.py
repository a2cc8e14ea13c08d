import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import run_python
from crcmlab import cli_runner as cli
from crcmlab import connectivity, crcm
from crcmlab.connectivity import count_components
from crcmlab.crcm import bd_step, new_chain, sweep_size
from crcmlab.widom_rowlinson import new_wr_chain, wr_step
from crcmlab.cli_runner import (
    EXIT_OK,
    EXIT_SPEC,
    ExperimentSpec,
    SpecInvalid,
    chain_rng,
    load_spec,
    rng_from_json,
    rng_state_to_json,
)


def run_cli(*args):
    return run_python("-m", "crcmlab.cli_runner", *args)


def set_flags(settings: dict) -> list[str]:
    return [x for k, v in settings.items() for x in ("--set", f"{k}={v}")]


FAST = {"z": "15", "q": "1.5", "law": "dirac:0.08", "sweeps": "40", "burn_in": "10", "thinning": "2"}
FAST_CHAIN = set_flags(FAST)
FAST_WR = {"z": "60", "q": "3", "law": "dirac:0.05", "sweeps": "40", "burn_in": "10", "thinning": "2"}


# -- spec parsing ----------------------------------------------------------------


def test_config_file_and_overrides(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("z = 3.5\nq = 2\nlaw = dirac:0.2\nsweeps = 10\n# comment\n\n")
    spec = load_spec("sample-crcm", str(cfgfile), {"seed": "9", "q": "4"})
    assert spec.z == 3.5
    assert spec.q == 4.0  # override wins
    assert spec.seed == 9
    assert spec.sweeps == 10


def test_bad_config_keys_and_values(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("zz = 1\n")
    with pytest.raises(SpecInvalid):
        load_spec("sample-crcm", str(cfgfile), {})
    cfgfile.write_text("sweeps = soon\n")
    with pytest.raises(SpecInvalid):
        load_spec("sample-crcm", str(cfgfile), {})
    cfgfile.write_text("just a line\n")
    with pytest.raises(SpecInvalid):
        load_spec("sample-crcm", str(cfgfile), {})
    with pytest.raises(SpecInvalid):
        load_spec("sample-crcm", str(tmp_path / "missing.cfg"), {})


def test_window_and_law_validation():
    spec = ExperimentSpec(subcommand="sample-crcm", window="0,0:2,3")
    box = spec.window_box()
    assert box.volume == 6.0
    spec.window = "nonsense"
    with pytest.raises(SpecInvalid):
        spec.window_box()
    spec.window = "0,0:1,1"
    spec.law = "weibull:2"
    with pytest.raises(SpecInvalid):
        spec.radius_law()


def test_assumption_gate_is_spec_error():
    spec = ExperimentSpec(subcommand="sample-crcm", q=0.5, law="pareto:2")
    with pytest.raises(SpecInvalid):
        spec.model_params()


def test_trial_defaults_per_subcommand():
    # a coverage-probe trial certifies a whole dilated box; shield trials are cheap
    assert load_spec("coverage-probe", None, {}).trials == 2000
    assert load_spec("shield", None, {}).trials == 100000
    assert load_spec("coverage-probe", None, {"trials": "40"}).trials == 40


def test_spec_hash_ignores_run_placement():
    a = ExperimentSpec(subcommand="x", out="a", resume="", checkpoint_every=0)
    b = ExperimentSpec(subcommand="x", out="b", resume="c.json", checkpoint_every=5)
    assert a.digest() == b.digest()


# -- rng streams -------------------------------------------------------------------


def test_chain_streams_disjoint_and_stable():
    a = chain_rng(7, 0).random(4)
    b = chain_rng(7, 1).random(4)
    again = chain_rng(7, 0).random(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, again)


def test_rng_state_round_trip():
    rng = chain_rng(3, 2)
    rng.random(17)
    doc = json.loads(json.dumps(rng_state_to_json(rng)))
    assert all(isinstance(doc["state"][k], list) for k in ("counter", "key"))  # plain JSON
    clone = rng_from_json(doc)
    assert np.array_equal(rng.random(8), clone.random(8))


@pytest.mark.parametrize("field, value", [
    ("buffer_pos", -1), ("buffer_pos", 5), ("buffer_pos", 2.0), ("has_uint32", 2),
    ("uinteger", 2**32), ("buffer", [0, 0, 0]), ("counter", [0, 0, 0, -1]),
    ("key", [0, 2**64]), ("key", [0, 1.5]),
])
def test_rng_from_json_rejects_a_state_out_of_range(field, value):
    doc = rng_state_to_json(chain_rng(3, 2))
    (doc["state"] if field in ("counter", "key") else doc)[field] = value
    with pytest.raises(ValueError, match=field):
        rng_from_json(doc)


def test_importing_the_cli_leaves_scipy_stats_and_integrate_unloaded():
    # both load on first use, through crcmlab._stats: every CLI process
    # would otherwise pay about half a second to import them
    code = ("import sys, crcmlab.cli_runner; "
            "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])")
    r = run_python("-c", code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


# -- end-to-end subcommands ----------------------------------------------------------


def test_sample_poisson_deterministic(tmp_path):
    args = ["sample-poisson", "--seed", "7", "--set", "z=40", "--set",
            "law=dirac:0.05", "--set", "samples=4"]
    r1 = run_cli(*args, "--out", str(tmp_path / "a"))
    r2 = run_cli(*args, "--out", str(tmp_path / "b"))
    assert r1.returncode == r2.returncode == EXIT_OK
    for name in ("summary.csv", "config_0002.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["subcommand"] == "sample-poisson"
    assert manifest["seed"] == 7
    assert "summary.csv" in manifest["outputs"]


def test_sample_crcm_trace_format(tmp_path):
    r = run_cli("sample-crcm", "--seed", "4", "--chains", "2", "--out", str(tmp_path), *FAST_CHAIN)
    assert r.returncode == EXIT_OK
    lines = (tmp_path / "trace_001.csv").read_text().splitlines()
    assert lines[1] == "sweep,count,n_cc,largest_component,accept_birth,accept_death"
    first = lines[2].split(",")
    assert int(first[0]) == 10
    assert 0.0 <= float(first[4]) <= 1.0
    assert (tmp_path / "final_config_000.csv").exists()


def check_resume_bitwise(tmp_path, subcommand: str, colored: bool, settings: dict) -> None:
    """Resuming from each of chain 0's checkpoints (every 10th sweep)
    reproduces the uninterrupted run's traces and final configurations."""
    straight = tmp_path / "straight"
    flags = set_flags(settings)
    r = run_cli(subcommand, "--seed", "11", "--chains", "2", "--out", str(straight), *flags)
    assert r.returncode == EXIT_OK

    spec = load_spec(subcommand, None, {"seed": "11", "chains": "2", **settings,
                                        "checkpoint_every": "10"})
    docs = []  # kept, not serialized, until the chain has finished
    cli.run_traced_chain(spec, 0, colored, checkpoint_cb=docs.append)
    assert [d["sweep"] for d in docs] == [10, 20, 30, 40]
    for d in docs:
        resumed = tmp_path / f"resumed_{d['sweep']}"
        resumed.mkdir()
        doc = {"spec_hash": spec.digest(), "chain": d, "next_chain": 0}
        (resumed / "checkpoint.json").write_text(json.dumps(doc))
        code = cli.main([
            subcommand, "--seed", "11", "--chains", "2", "--out", str(resumed),
            *flags, "--set", "checkpoint_every=10",
            "--resume", str(resumed / "checkpoint.json"),
        ])
        assert code == EXIT_OK
        for c in range(2):
            for name in (f"trace_{c:03d}.csv", f"final_config_{c:03d}.csv"):
                assert (straight / name).read_bytes() == (resumed / name).read_bytes()


def test_checkpoint_resume_bitwise(tmp_path):
    check_resume_bitwise(tmp_path, "sample-crcm", False, FAST)


def test_checkpoint_resume_bitwise_heavy_tail(tmp_path):
    # tpareto radii fill the grid's overflow list; slot ids and bucket order
    # change on resume, and the trajectory must not
    settings = {**FAST, "z": "0.02", "q": "1.7", "law": "tpareto:2,20",
                "window": "-20,-20:20,20"}
    check_resume_bitwise(tmp_path, "sample-crcm", False, settings)


def test_checkpoint_resume_bitwise_wr(tmp_path):
    # the recolor move picks a component through the move order, which the
    # checkpoint keeps; the restored labeling's internal roots play no part
    check_resume_bitwise(tmp_path, "sample-wr", True, FAST_WR)


def test_checkpoint_holds_only_what_resume_reads(tmp_path):
    straight, resumed = tmp_path / "straight", tmp_path / "resumed"
    flags = [*FAST_CHAIN, "--set", "checkpoint_every=20"]
    r = run_cli("sample-crcm", "--seed", "11", "--chains", "2", "--out", str(straight), *flags)
    assert r.returncode == EXIT_OK
    doc = json.loads((straight / "checkpoint.json").read_text())
    assert sorted(doc) == ["chain", "next_chain", "spec_hash"]
    assert doc["chain"] is None and doc["next_chain"] == 2
    # a run stopped between chains resumes at the next chain
    resumed.mkdir()
    doc["next_chain"] = 1
    (resumed / "checkpoint.json").write_text(json.dumps(doc))
    r = run_cli("sample-crcm", "--seed", "11", "--chains", "2", "--out", str(resumed), *flags,
                "--resume", str(resumed / "checkpoint.json"))
    assert r.returncode == EXIT_OK
    assert not (resumed / "trace_000.csv").exists()
    for name in ("trace_001.csv", "final_config_001.csv"):
        assert (straight / name).read_bytes() == (resumed / name).read_bytes()


def test_checkpoint_spec_mismatch_rejected(tmp_path):
    out = tmp_path / "o"
    r = run_cli("sample-crcm", "--seed", "11", "--chains", "1", "--out", str(out),
                *FAST_CHAIN, "--set", "checkpoint_every=20")
    assert r.returncode == EXIT_OK
    r = run_cli("sample-crcm", "--seed", "12", "--chains", "1", "--out", str(out),
                *FAST_CHAIN, "--set", "checkpoint_every=20",
                "--resume", str(out / "checkpoint.json"))
    assert r.returncode == EXIT_SPEC


def test_resume_from_a_file_that_is_not_a_checkpoint(tmp_path, capsys):
    # a run's manifest is JSON and holds the spec, but no chain to resume
    out = tmp_path / "o"
    args = ["sample-crcm", "--seed", "11", "--out", str(out), *FAST_CHAIN]
    assert cli.main(args) == EXIT_OK
    manifest = out / "manifest.json"
    capsys.readouterr()
    (tmp_path / "notes.txt").write_text("not json\n")
    # checkpoints of this spec whose body is malformed
    spec_hash = json.loads(manifest.read_text())["spec_hash"]
    bad_radius = _chain_doc(False)
    bad_radius["radii"][0] = -1.0
    bodies = {
        "no_balls.json": {"chain": {"sweep": 5}, "next_chain": 0},
        "word_index.json": {"chain": None, "next_chain": "zero"},
        "list_chain.json": {"chain": [1, 2], "next_chain": 0},
        "bad_radius.json": {"chain": bad_radius, "next_chain": 0},
    }
    for pos in (-1, 5):  # Philox itself accepts both and then draws from outside its buffer
        bad_stream = _chain_doc(False)
        bad_stream["rng"]["buffer_pos"] = pos
        bodies[f"buffer_pos_{pos}.json"] = {"chain": bad_stream, "next_chain": 0}
    # a sweep past the run, and traces that are not the rows of the sweeps
    # recorded before the checkpoint's (burn-in 10, thinning 2), each with
    # the step count of its sweep
    per_sweep = sweep_size(_chain_params(False))
    row = [10, 5, 4, 2, 0.5, 0.25]
    for name, sweep, trace in [
        ("far_sweep", 10**6, []),
        ("text_row", 11, [["x"]]),
        ("short_row", 11, [[1, 2]]),
        ("missing_rows", 13, [row]),
        ("extra_row", 9, [row]),
        ("wrong_sweep", 11, [[12, *row[1:]]]),
        ("float_count", 11, [[10, 5.0, 4, 2, 0.5, 0.25]]),
        ("rate_above_one", 11, [[*row[:4], 1.5, 0.25]]),
    ]:
        doc = _chain_doc(False)
        doc.update(sweep=sweep, trace=trace, step_count=sweep * per_sweep)
        bodies[f"{name}.json"] = {"chain": doc, "next_chain": 0}
    # move counters no run leaves: more births accepted than proposed, fewer
    # steps than proposals, and more steps than the checkpoint's 7 sweeps take
    over, short, long = _chain_doc(False), _chain_doc(False), _chain_doc(False)
    over["accepted"]["birth"] = 10**6
    short["step_count"] = 3
    long["step_count"] += 1
    bodies["accepted_birth.json"] = {"chain": over, "next_chain": 0}
    bodies["three_steps.json"] = {"chain": short, "next_chain": 0}
    bodies["extra_step.json"] = {"chain": long, "next_chain": 0}
    wr_args = ["sample-wr", "--seed", "11", "--out", str(tmp_path / "wr"), *set_flags(FAST_WR)]
    wr_hash = load_spec("sample-wr", None, {"seed": "11", **FAST_WR}).digest()
    # colors outside the model: outside 1..q, and ball 1 moved onto ball 0
    # with another color
    clash = _chain_doc(True)
    clash["centers"][1] = clash["centers"][0]
    clash["colors"][1] = clash["colors"][0] % 3 + 1
    wr_bodies = {"color_clash.json": {"chain": clash, "next_chain": 0}}
    for color in (7, 0):
        doc = _chain_doc(True)
        doc["colors"][1] = color
        wr_bodies[f"color_{color}.json"] = {"chain": doc, "next_chain": 0}
    for hash_, docs in ((spec_hash, bodies), (wr_hash, wr_bodies)):
        for name, body in docs.items():
            (tmp_path / name).write_text(json.dumps({"spec_hash": hash_, **body}))
    # the documents these are made from resume
    for run, colored in ((args, False), (wr_args, True)):
        (tmp_path / "base.json").write_text(json.dumps(
            {"spec_hash": wr_hash if colored else spec_hash,
             "chain": _chain_doc(colored), "next_chain": 0}))
        assert cli.main([*run, "--resume", str(tmp_path / "base.json")]) == EXIT_OK
    capsys.readouterr()
    for run, paths in ((args, [manifest, tmp_path / "notes.txt", tmp_path / "missing.json",
                               *(tmp_path / name for name in bodies)]),
                       (wr_args, [tmp_path / name for name in wr_bodies])):
        for path in paths:
            assert cli.main([*run, "--resume", str(path)]) == EXIT_SPEC
            err = capsys.readouterr().err
            assert "spec error" in err and str(path) in err


def test_unknown_subcommand_and_bad_set(tmp_path):
    assert run_cli("frobnicate").returncode == EXIT_SPEC
    assert run_cli("sample-crcm", "--set", "oops").returncode == EXIT_SPEC
    r = run_cli("sample-crcm", "--set", "q=0.5", "--set", "law=pareto:2",
                "--out", str(tmp_path / "x"))
    assert r.returncode == EXIT_SPEC
    assert "bounded support" in r.stderr


@pytest.mark.parametrize(
    "sub, settings",
    [
        ("bounds-audit", {"lam_box": "0,0:1"}),  # hi has one coordinate
        ("bounds-audit", {"lam_box": "a,b:c,d"}),
        ("bounds-audit", {"lam_box": "5,5:6,6"}),  # outside the window
        ("bounds-audit", {"lam_box": "0,0,0:1,1,1"}),  # window is planar
        ("localization", {"ij": "4;9"}),
        ("localization", {"ij": "a:9"}),
        ("localization", {"ij": "9:4"}),  # i < j needed
        ("np-decay", {"z_grid": "0.2,x"}),
        ("entropy-bounds", {"y_grid": "10,ten"}),
        ("coverage-probe", {"law": "pareto:2", "h_grid": "0.5,2x"}),
        ("entropy-bounds", {"q": "2.5"}),  # an integer color count
        ("fk-check", {"q": "2.5"}),
        # values that parse but are out of range
        ("sample-crcm", {"z": "0"}),
        ("shield", {"alpha": "0"}),
        ("entropy-bounds", {"y_grid": "0"}),
        ("np-decay", {"z_grid": "-1"}),
        ("coverage-probe", {"law": "pareto:2", "h_grid": "-1"}),
        ("np-decay", {"q": "0.5", "law": "pareto:2"}),  # q < 1 needs bounded radii
        ("np-decay", {"q": "0.5", "law": "dirac:1"}),  # the bound tilts by q > 1
        ("np-decay", {"border": "3", "window": "0,0:6,6"}),  # nothing left after erosion
        ("gnz-check", {"sweeps": "10"}),  # fewer than 100 recorded samples
        # count fields below their floor
        ("sample-crcm", {"thinning": "0", "sweeps": "4", "burn_in": "1"}),
        ("sample-wr", {"thinning": "0"}),
        ("dlr-check", {"thinning": "0"}),
        ("np-decay", {"thinning": "0"}),
        ("fk-check", {"thinning": "0"}),
        ("coverage-probe", {"law": "pareto:2", "z": "-1"}),
        ("coverage-probe", {"law": "pareto:2", "trials": "0"}),
        ("entropy-bounds", {"n_pack": "0"}),
        ("gnz-check", {"inner_points": "0"}),
        ("bounds-audit", {"samples": "0"}),
        ("localization", {"samples": "0"}),
        ("shield", {"trials": "-5"}),
        # model values that are not finite
        ("sample-poisson", {"law": "dirac:nan"}),
        ("sample-poisson", {"law": "dirac:inf"}),
        ("sample-poisson", {"law": "uniform:0,inf"}),
        ("sample-poisson", {"law": "tpareto:2,nan"}),
        ("sample-crcm", {"q": "nan"}),
        ("sample-crcm", {"z": "inf"}),
        ("sample-wr", {"q": "nan"}),
        ("fk-check", {"q": "inf"}),
        ("localization", {"r0": "nan"}),
        ("bounds-audit", {"r0": "inf"}),
        # fewer than 2 recorded sweeps: no p-value or standard error to gate on
        ("fk-check", {"sweeps": "1", "burn_in": "0", "thinning": "1"}),
        ("dlr-check", {"sweeps": "2", "burn_in": "0", "thinning": "2"}),
        ("np-decay", {"sweeps": "1", "thinning": "1"}),
        ("np-decay", {"sweeps": "3", "thinning": "3", "chains": "1"}),
        # models and controls a check does not take
        ("fk-check", {"control": "mismtach"}),  # a misspelling once ran the honest check
        ("fk-check", {"control": "wrong-q"}),
        ("gnz-check", {"model": "wr", "control": "wrong-q"}),  # once exited 2 after a run
        ("gnz-check", {"model": "crcm", "control": "drop-constraint"}),
        ("gnz-check", {"model": "crcm", "control": "mismatch"}),
        ("gnz-check", {"model": "ising"}),
        ("sample-crcm", {"control": "wrong-q"}),
        ("dlr-check", {"control": "mismatch"}),
        ("bounds-audit", {"control": "drop-constraint"}),
        # every subcommand checks its model, not only gnz-check that reads it
        ("sample-poisson", {"model": "isng", "samples": "1"}),  # once exited 0
        ("sample-wr", {"model": "ising"}),
        ("fk-check", {"model": "WR"}),
        ("shield", {"model": ""}),
        # localization boxes that cannot say anything about the window
        ("localization", {}),  # the default window lies inside [-9, 9]^2: A_ij, W_ij always hold
        ("localization", {"window": "-20,-20:20,20", "ij": "4:9;5:20"}),  # on the edge of j=20
        # boxes with no volume
        ("dlr-check", {"window": "0,0:0,1"}),  # once passed on all-zero traces
        ("gnz-check", {"window": "0,0:1,0"}),  # once a ZeroDivisionError
        ("bounds-audit", {"lam_box": "0.5,0.5:0.5,0.5"}),  # once passed on empty samples
        # grid values that are not finite
        ("coverage-probe", {"law": "pareto:2", "h_grid": "0.5,nan"}),  # once a traceback
        ("coverage-probe", {"law": "pareto:2", "h_grid": "inf"}),
        ("entropy-bounds", {"y_grid": "nan"}),  # once wrote a row of NaN
        ("entropy-bounds", {"y_grid": "inf"}),
    ],
)
def test_malformed_spec_values_are_spec_errors(tmp_path, capsys, monkeypatch, sub, settings):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain ran before the spec was checked")

    for module in (crcm, cli):
        monkeypatch.setattr(module, "sweep_loop", no_chain)
    args = [sub, "--out", str(tmp_path), *set_flags({"q": "2", **settings})]
    assert cli.main(args) == EXIT_SPEC
    assert "spec error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "sub, model, control",
    [("gnz-check", "crcm", "wrong-q"), ("gnz-check", "wr", "drop-constraint"),
     ("fk-check", "crcm", "mismatch"), ("shield", "wr", "none")],
)
def test_controls_each_check_takes(sub, model, control):
    spec = load_spec(sub, None, {"model": model, "control": control})
    assert (spec.model, spec.control) == (model, control)


def test_manifest_lists_only_what_this_run_wrote(tmp_path, capsys):
    # a second run into the same directory once listed the first run's
    # leftover chain files, whose headers name another seed and spec hash
    base = ["sample-crcm", "--out", str(tmp_path), *FAST_CHAIN]
    assert cli.main([*base, "--chains", "2"]) == EXIT_OK
    assert (tmp_path / "trace_001.csv").is_file()
    assert cli.main([*base, "--chains", "1", "--seed", "9"]) == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["outputs"] == ["final_config_000.csv", "trace_000.csv"]


def test_runtime_error_leaves_traceback_and_manifest(tmp_path, capsys, monkeypatch):
    def broken(spec, out):
        raise ZeroDivisionError("injected")

    monkeypatch.setitem(cli.COMMANDS, "shield", broken)
    assert cli.main(["shield", "--out", str(tmp_path)]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: ZeroDivisionError: injected\n"
    assert "in broken" in (tmp_path / "error.txt").read_text()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["exit_status"] == cli.EXIT_RUNTIME
    assert manifest["error"] == "ZeroDivisionError: injected"


def test_shield_subcommand_report(tmp_path):
    r = run_cli("shield", "--seed", "1", "--out", str(tmp_path),
                "--set", "alpha=1", "--set", "k=4", "--set", "trials=5000")
    assert r.returncode == EXIT_OK
    assert "D1=5" in r.stdout
    assert "0 violations / 5000" in r.stdout
    rows = (tmp_path / "shield.csv").read_text().splitlines()
    assert rows[1].startswith("alpha,k,dim,d1,d2")
    assert rows[2].split(",")[3] == "5"


def test_entropy_bounds_row_contains_phi(tmp_path):
    r = run_cli("entropy-bounds", "--out", str(tmp_path),
                "--set", "q=2", "--set", "law=dirac:1", "--set", "y_grid=10")
    assert r.returncode == EXIT_OK
    body = (tmp_path / "entropy_bounds.csv").read_text()
    assert "0.64" in body
    # every probed z below the root separates the bounds
    rows = [ln.split(",") for ln in body.splitlines()[2:]]
    assert rows and all(row[-1] == "1" for row in rows)


def test_coverage_probe_monotone(tmp_path):
    r = run_cli("coverage-probe", "--seed", "2", "--out", str(tmp_path),
                "--set", "z=1", "--set", "law=pareto:2",
                "--set", "h_grid=0.5,2,8", "--set", "trials=40")
    assert r.returncode == EXIT_OK
    rows = (tmp_path / "coverage.csv").read_text().splitlines()[2:]
    probs = [float(r.split(",")[1]) for r in rows]
    assert all(b >= a for a, b in zip(probs, probs[1:]))


def test_np_decay_pools_recorded_sweeps_over_its_chains():
    spec = cli.load_spec("np-decay", None, {"sweeps": "1", "thinning": "1", "chains": "2"})
    assert spec.chains == 2


def test_coverage_probe_pairs_each_halo_with_its_probability(tmp_path):
    # the halos are probed in increasing order whatever the spec's order
    pairs = []
    for grid in ("0.25,1,4,12", "12,4,1,0.25"):
        out = tmp_path / grid
        code = cli.main(["coverage-probe", "--seed", "0", "--out", str(out), "--set", "z=0.5",
                         "--set", "law=pareto:2", "--set", "trials=200", "--set", f"h_grid={grid}"])
        assert code == EXIT_OK
        rows = (out / "coverage.csv").read_text().splitlines()[2:]
        pairs.append(sorted(tuple(map(float, row.split(","))) for row in rows))
    assert pairs[0] == pairs[1]
    probs = [p for _, p in pairs[0]]
    assert probs == sorted(probs) and probs[0] < probs[-1]


def test_localization_fails_short_of_its_conditioned_samples(tmp_path):
    # the conditioning events never hold here: no sample, so no PASS
    out = tmp_path / "loc"
    code = cli.main(["localization", "--out", str(out), "--set", "z=100",
                     "--set", "law=dirac:0.05", "--set", "window=-3,-3:3,3", "--set", "r0=0.01",
                     "--set", "ij=1:2", "--set", "samples=2"])
    assert code == cli.EXIT_TEST
    lines = (out / "localization.csv").read_text().splitlines()
    assert " pass=0" in lines[0]
    assert lines[2] == "1.0,2.0,0,0"


def test_headers_record_what_ran(tmp_path):
    # coverage-probe runs every trial asked for, above 500 too
    out = tmp_path / "cov"
    code = cli.main(["coverage-probe", "--seed", "2", "--out", str(out), "--set", "z=1",
                     "--set", "law=pareto:2", "--set", "h_grid=0.5", "--set", "trials=600"])
    assert code == EXIT_OK
    assert " trials=600 " in (out / "coverage.csv").read_text().splitlines()[0]
    # fk-check runs one seed pair per chain, 8 by default, and says so
    fk = ["fk-check", "--seed", "3", "--set", "z=4", "--set", "q=2", "--set", "law=dirac:0.1",
          "--set", "sweeps=30", "--set", "burn_in=5", "--set", "thinning=3"]
    for chains, pairs in ((None, 8), ("1", 1)):
        out = tmp_path / f"fk{pairs}"
        code = cli.main([*fk, "--out", str(out), *(["--chains", chains] if chains else [])])
        assert code in (EXIT_OK, cli.EXIT_TEST)
        lines = (out / "fk.csv").read_text().splitlines()
        assert f" pairs={pairs} " in lines[0]
        assert {int(row.split(",")[0]) for row in lines[2:]} == set(range(pairs))


AUDIT = {"z": "0.1", "law": "uniform:0.2,1", "window": "-4,-4:4,4", "r0": "1", "samples": "20"}


def _audit_rows(out) -> dict[str, int]:
    rows = (out / "bounds.csv").read_text().splitlines()[2:]
    return {k: int(v) for k, v in (ln.split(",") for ln in rows)}


def test_bounds_audit_catches_a_wrong_compatibility_offset(tmp_path, monkeypatch):
    spec = load_spec("bounds-audit", None, AUDIT)
    assert cli.cmd_bounds_audit(spec, tmp_path / "right") == EXIT_OK
    # the closed form with inner and outer swapped: wrong wherever the offset is not 0
    right = cli.compatibility_offset
    monkeypatch.setattr(cli, "compatibility_offset",
                        lambda graph, inner, outer, w: -right(graph, inner, outer, w))
    assert cli.cmd_bounds_audit(spec, tmp_path / "wrong") == cli.EXIT_TEST
    rows = _audit_rows(tmp_path / "wrong")
    assert rows.pop("compatibility") > 0
    assert sum(rows.values()) == 0


_right_count = connectivity.BallGraph.count


def _count_losing_a_pair(graph, keep=None):  # a subset count loses its last kept pair
    if keep is None:
        return _right_count(graph)
    last = np.flatnonzero(keep[graph.i] & keep[graph.j])[-1:]
    fewer = dataclasses.replace(graph, i=np.delete(graph.i, last), j=np.delete(graph.j, last))
    return _right_count(fewer, keep)


def _outside_taking_one_inside(graph, box):  # the first ball centred in the box counts too
    out = ~box.contains_points(graph.centers)
    out[np.argmin(out)] = True
    return graph.count(out)


@pytest.mark.parametrize(
    "method, wrong", [("count", _count_losing_a_pair), ("outside", _outside_taking_one_inside)],
    ids=["count", "outside"],
)
def test_bounds_audit_catches_a_wrong_subset_count(tmp_path, monkeypatch, method, wrong):
    # the closed form's outside counts against the labeling's, which reads no subset count
    monkeypatch.setattr(connectivity.BallGraph, method, wrong)
    spec = load_spec("bounds-audit", None, AUDIT)
    assert cli.cmd_bounds_audit(spec, tmp_path) == cli.EXIT_TEST
    assert _audit_rows(tmp_path)["compatibility"] > 0


def test_bounds_audit_finds_the_pairs_of_each_ball_set_once(tmp_path, monkeypatch):
    sizes = []
    right = connectivity.intersecting_pairs

    def counted(centers, radii, groups=None):
        sizes.append(len(radii))
        return right(centers, radii, groups)

    monkeypatch.setattr(connectivity, "intersecting_pairs", counted)
    spec = load_spec("bounds-audit", None, {**AUDIT, "samples": "1", "seed": "4"})
    assert cli.cmd_bounds_audit(spec, tmp_path) == EXIT_OK
    assert min(sizes) >= 2  # a sample with pairs to find
    # the sample and its resample; the labeling under test is built ball by ball
    assert len(sizes) == 2


def test_bounds_audit_catches_a_labeling_that_never_merges(tmp_path, monkeypatch):
    right = connectivity.ClusterLabeling.apply_insertion

    def no_merge(lab, slot, hits):  # every ball files as a component of its own
        right(lab, slot, [])

    monkeypatch.setattr(connectivity.ClusterLabeling, "apply_insertion", no_merge)
    spec = load_spec("bounds-audit", None, AUDIT)
    assert cli.cmd_bounds_audit(spec, tmp_path) == cli.EXIT_TEST
    assert _audit_rows(tmp_path)["telescoping"] > 0


def test_coverage_probe_requires_heavy_tail(tmp_path):
    for law in ("dirac:1", "tpareto:2,20"):  # bounded laws, the truncated tail included
        r = run_cli("coverage-probe", "--out", str(tmp_path), "--set", f"law={law}")
        assert r.returncode == EXIT_SPEC


def test_manifest_written_for_checks(tmp_path):
    r = run_cli("fk-check", "--seed", "3", "--out", str(tmp_path), "--chains", "2",
                "--set", "z=4", "--set", "q=2", "--set", "law=dirac:0.1",
                "--set", "sweeps=60", "--set", "burn_in=30", "--set", "thinning=2")
    assert r.returncode in (EXIT_OK, 2)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["spec"]["law"] == "dirac:0.1"
    assert "fk.csv" in manifest["outputs"]
    assert manifest["versions"]["crcmlab"]


def test_dlr_check_runs_on_a_3d_window(tmp_path):
    out = tmp_path / "dlr3"
    code = cli.main([
        "dlr-check", "--seed", "2", "--out", str(out),
        "--set", "z=2", "--set", "q=2", "--set", "law=dirac:0.1",
        "--set", "window=0,0,0:1,1,1", "--set", "sweeps=30", "--set", "burn_in=5",
        "--set", "thinning=1",
    ])
    assert code in (EXIT_OK, cli.EXIT_TEST)
    rows = (out / "dlr.csv").read_text().splitlines()[2:]
    assert [r.split(",")[0] for r in rows] == ["count", "n_cc"]


CHAIN_SPECS = {False: FAST, True: FAST_WR}


def _chain_params(colored: bool):
    spec = load_spec("sample-wr" if colored else "sample-crcm", None, CHAIN_SPECS[colored])
    return spec.wr_params() if colored else spec.model_params()


def _chain_doc(colored: bool) -> dict:
    """A chain's checkpoint document, through JSON, after 7 sweeps."""
    params = _chain_params(colored)
    state = (new_wr_chain if colored else new_chain)(params, chain_rng(5, 0))
    for _ in range(7 * sweep_size(params)):
        (wr_step if colored else bd_step)(state)
    return json.loads(json.dumps(cli.chain_to_json(state, 7, [])))


@pytest.mark.parametrize("colored", [False, True])
def test_chain_json_round_trip(colored):
    doc = _chain_doc(colored)
    keys = ["accepted", "centers", "proposed", "radii", "rng", "step_count", "sweep", "trace"]
    assert sorted(doc) == sorted(keys + ["colors"] * colored)  # no slot layout
    state, sweep, trace = cli.chain_from_json(doc, _chain_params(colored))
    assert (sweep, trace) == (7, [])
    assert state.config.active_ids() == list(range(len(doc["radii"])))
    assert state.n_cc == count_components(state.config)
    assert cli.chain_to_json(state, 7, []) == doc


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: d["radii"].pop(),  # one radius short
        lambda d: d["centers"].append(d["centers"][0]),  # one center too many
        lambda d: d["radii"].__setitem__(0, -0.1),  # negative radius
        lambda d: d["radii"].__setitem__(0, float("nan")),  # non-finite radius
    ],
)
def test_chain_from_json_rejects_malformed_balls(corrupt):
    doc = _chain_doc(False)
    corrupt(doc)
    with pytest.raises(ValueError, match="radii"):
        cli.chain_from_json(doc, _chain_params(False))


# -- table headers -----------------------------------------------------------------

TABLES = [
    ("sample-poisson", {"z": "40", "law": "dirac:0.05", "samples": "2"},
     "summary.csv", "subcommand spec_hash"),
    ("sample-crcm", FAST, "trace_000.csv", "subcommand chain seed spec_hash"),
    ("sample-wr", FAST_WR, "trace_000.csv", "subcommand chain seed spec_hash"),
    ("gnz-check", {"model": "wr", "z": "6", "q": "2", "law": "dirac:0.15", "sweeps": "300",
                   "burn_in": "30", "thinning": "3", "inner_points": "16"},
     "gnz.csv", "subcommand model control spec_hash pass"),
    ("fk-check", {"z": "4", "q": "2", "law": "dirac:0.1", "chains": "2", "sweeps": "30",
                  "burn_in": "5", "thinning": "3"},
     "fk.csv", "subcommand control pairs threshold rejected spec_hash pass"),
    ("dlr-check", {"z": "2", "q": "2", "law": "dirac:0.1", "sweeps": "30", "burn_in": "5",
                   "thinning": "2"},
     "dlr.csv", "subcommand spec_hash pass"),
    ("bounds-audit", {"z": "0.1", "law": "uniform:0.2,1", "window": "-4,-4:4,4",
                      "samples": "3", "r0": "1"},
     "bounds.csv", "subcommand configs spec_hash violations pass"),
    ("localization", {"z": "0.02", "q": "1", "law": "tpareto:2,30", "window": "-20,-20:20,20",
                      "ij": "5:14", "r0": "2", "samples": "3"},
     "localization.csv", "subcommand spec_hash pass"),
    ("shield", {"alpha": "1", "k": "4", "trials": "500"},
     "shield.csv", "subcommand spec_hash pass"),
    ("entropy-bounds", {"q": "2", "law": "dirac:1", "y_grid": "10"},
     "entropy_bounds.csv", "subcommand q law n_pack spec_hash"),
    ("np-decay", {"q": "2", "law": "dirac:1", "window": "0,0:6,6", "z_grid": "0.2",
                  "sweeps": "20", "burn_in": "5", "thinning": "2", "border": "1"},
     "np_decay.csv", "subcommand q law border spec_hash pass"),
    ("coverage-probe", {"z": "1", "law": "pareto:2", "h_grid": "0.5,2", "trials": "10"},
     "coverage.csv", "subcommand z law trials spec_hash"),
]


@pytest.mark.parametrize("sub, settings, name, keys", TABLES, ids=[t[0] for t in TABLES])
def test_table_header_keys_and_exit_code(tmp_path, sub, settings, name, keys):
    code = cli.main([sub, "--seed", "3", "--out", str(tmp_path), *set_flags(settings)])
    head = (tmp_path / name).read_text().splitlines()[0]
    assert head.startswith("# ")
    meta = dict(tok.split("=", 1) for tok in head[2:].split(" "))
    assert list(meta) == keys.split()
    assert meta["subcommand"] == sub
    assert meta["spec_hash"] == json.loads((tmp_path / "manifest.json").read_text())["spec_hash"]
    # the exit code is the table's verdict; a table without one exits 0
    assert code == (EXIT_OK if meta.get("pass", "1") == "1" else cli.EXIT_TEST)


# -- pinned outputs ----------------------------------------------------------------

# sha256 (first 16 hex digits) of every table, configuration and checkpoint the
# benchmark's `cli_suite` specs write at seed 3, and each exit code.  A change
# that alters an output on purpose updates these values and says why.
SUITE_PINS = {
    "sample-poisson": (0, {
        "config_0000.csv": "fed9f70120d618af", "config_0001.csv": "c31a88ff35597bbe",
        "config_0002.csv": "1fdfabe6d7f9c7b2", "config_0003.csv": "9d3752c16bbc578c",
        "config_0004.csv": "900332b55fb21eed", "config_0005.csv": "6217ebf33b17836c",
        "config_0006.csv": "e1e8d2b4c0fc1df6", "config_0007.csv": "1c11bd4e0caf61e2",
        "summary.csv": "013a837e5e22204d",
    }),
    "sample-crcm": (0, {
        "checkpoint.json": "e663a3c8f456f611", "final_config_000.csv": "66fe445290da074d",
        "trace_000.csv": "7fcfc679b55373ee",
    }),
    "sample-wr": (0, {
        "final_config_000.csv": "887ee38380eecd8e", "trace_000.csv": "1c1114f8f18d810d",
    }),
    "gnz-check": (0, {"gnz.csv": "25348c2a4309b6fb"}),
    "fk-check": (0, {"fk.csv": "b8c5eb8a48b6b13a"}),
    "dlr-check": (0, {"dlr.csv": "43d685800fce6a66"}),
    "bounds-audit": (0, {"bounds.csv": "e1782d2cd8f2b832"}),
    "localization": (0, {"localization.csv": "0ad7dc610b5077e2"}),
    "shield": (0, {"shield.csv": "a64f0097abd91ef3"}),
    "entropy-bounds": (0, {"entropy_bounds.csv": "59d9f81bfcee46d2"}),
    "np-decay": (0, {"np_decay.csv": "fdda7f402d4ac365"}),
    "coverage-probe": (0, {"coverage.csv": "9ca33620b84d801c"}),
}


def test_cli_suite_outputs_are_pinned(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import workloads

    got = {}
    for sub, settings, _ in workloads.SUITE:
        out = tmp_path / sub
        code = cli.main(workloads.cli_args(sub, settings, 3, out))
        got[sub] = (code, {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in sorted(out.iterdir()) if p.suffix == ".csv" or p.name == "checkpoint.json"
        })
    assert got == SUITE_PINS
