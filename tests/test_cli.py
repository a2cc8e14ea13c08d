import json
import subprocess
import sys

import numpy as np
import pytest

from crcmlab import cli_runner as cli
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
    return subprocess.run(
        [sys.executable, "-m", "crcmlab.cli_runner", *args],
        capture_output=True,
        text=True,
    )


FAST_CHAIN = [
    "--set", "z=15", "--set", "q=1.5", "--set", "law=dirac:0.08",
    "--set", "sweeps=40", "--set", "burn_in=10", "--set", "thinning=2",
]


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
    clone = rng_from_json(doc)
    assert np.array_equal(rng.random(8), clone.random(8))


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


def test_checkpoint_resume_bitwise(tmp_path):
    straight = tmp_path / "straight"
    resumed = tmp_path / "resumed"
    r = run_cli("sample-crcm", "--seed", "11", "--chains", "2", "--out", str(straight), *FAST_CHAIN)
    assert r.returncode == EXIT_OK

    # interrupt chain 0 at its mid-run checkpoint, then resume
    spec = load_spec(
        "sample-crcm",
        None,
        {"seed": "11", "chains": "2", "out": str(resumed), "z": "15", "q": "1.5",
         "law": "dirac:0.08", "sweeps": "40", "burn_in": "10", "thinning": "2",
         "checkpoint_every": "20"},
    )
    resumed.mkdir()

    class Interrupt(Exception):
        pass

    def cb(chain_doc):
        if chain_doc["sweep"] == 40:
            doc = {"spec_hash": spec.digest(), "colored": False, "chain": chain_doc,
                   "chain_index": 0, "next_chain": 0, "finished": {}}
            (resumed / "checkpoint.json").write_text(json.dumps(cli.tmp_doc_default(doc)))
            raise Interrupt

    with pytest.raises(Interrupt):
        cli.run_traced_chain(spec, 0, False, checkpoint_cb=cb)
    r = run_cli(
        "sample-crcm", "--seed", "11", "--chains", "2", "--out", str(resumed),
        *FAST_CHAIN, "--set", "checkpoint_every=20",
        "--resume", str(resumed / "checkpoint.json"),
    )
    assert r.returncode == EXIT_OK
    for c in range(2):
        assert (straight / f"trace_{c:03d}.csv").read_bytes() == (
            resumed / f"trace_{c:03d}.csv"
        ).read_bytes()


def test_checkpoint_spec_mismatch_rejected(tmp_path):
    out = tmp_path / "o"
    r = run_cli("sample-crcm", "--seed", "11", "--chains", "1", "--out", str(out),
                *FAST_CHAIN, "--set", "checkpoint_every=20")
    assert r.returncode == EXIT_OK
    r = run_cli("sample-crcm", "--seed", "12", "--chains", "1", "--out", str(out),
                *FAST_CHAIN, "--set", "checkpoint_every=20",
                "--resume", str(out / "checkpoint.json"))
    assert r.returncode == EXIT_SPEC


def test_unknown_subcommand_and_bad_set(tmp_path):
    assert run_cli("frobnicate").returncode == EXIT_SPEC
    assert run_cli("sample-crcm", "--set", "oops").returncode == EXIT_SPEC
    r = run_cli("sample-crcm", "--set", "q=0.5", "--set", "law=pareto:2",
                "--out", str(tmp_path / "x"))
    assert r.returncode == EXIT_SPEC
    assert "bounded support" in r.stderr


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


def test_coverage_probe_requires_heavy_tail(tmp_path):
    r = run_cli("coverage-probe", "--out", str(tmp_path), "--set", "law=dirac:1")
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


def _checkpoint_config():
    from crcmlab.geometry import Box
    from crcmlab.model_core import Configuration

    cfg = Configuration(Box([0, 0], [1, 1]), cell_size=0.25, capacity=8)
    for x in (0.1, 0.4, 0.7):
        cfg.add(np.array([x, 0.5]), 0.1)
    cfg.remove(1)
    return cli.config_to_json(cfg)


def test_config_from_json_round_trip_keeps_slots():
    doc = _checkpoint_config()
    back = cli.config_from_json(doc)
    assert cli.config_to_json(back) == doc


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: d["active"][0].__setitem__(0, 8),  # slot out of range
        lambda d: d["active"][1].__setitem__(0, d["active"][0][0]),  # duplicate slot
        lambda d: d["free"].append(d["active"][0][0]),  # active slot also free
        lambda d: d["free"].pop(),  # a slot neither active nor free
    ],
)
def test_config_from_json_rejects_inconsistent_slots(corrupt):
    doc = _checkpoint_config()
    corrupt(doc)
    with pytest.raises(ValueError, match="slot"):
        cli.config_from_json(doc)
