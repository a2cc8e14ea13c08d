"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with the measured numbers.  Tolerances are fixed here, not tuned at
runtime.  Run with `pytest -s tests/test_acceptance.py` to see the lines."""
import json
import math
import time

import numpy as np
import pytest
from scipy import optimize, stats

from conftest import run_python
from crcmlab.geometry import Box
from crcmlab.model_core import (
    DiracRadius,
    ModelParams,
    ParetoRadius,
    sample_poisson_boolean,
)
from crcmlab.connectivity import count_components
from crcmlab import analysis as an
from crcmlab import cli_runner as cli
from crcmlab import crcm
from crcmlab import widom_rowlinson as wr
from crcmlab._stats import integrated_autocorr_time, wilson_interval

UNIT = Box([0, 0], [1, 1])


def seeded(k):
    return np.random.default_rng(np.random.SeedSequence(k))


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def run_cli(*args):
    return run_python("-m", "crcmlab.cli_runner", *args)


# -- 1. q = 1 reduction ------------------------------------------------------------


def test_criterion_1_q1_reduction():
    t0 = time.time()
    params = ModelParams(50.0, 1.0, DiracRadius(0.05), UNIT)
    n_seeds, alpha = 16, 0.01
    threshold = alpha / (n_seeds * 2)
    worst = 1.0
    for s in range(n_seeds):
        rep = crcm.run_chain(
            params, seeded(100 + s), sweeps=240, burn_in=60, thin=3
        )
        direct_counts, direct_ncc = [], []
        rng = seeded(5000 + s)
        for _ in range(rep.counts.size):
            cfg = sample_poisson_boolean(params, rng)
            direct_counts.append(cfg.n)
            direct_ncc.append(count_components(cfg))
        for a, b in ((rep.counts, direct_counts), (rep.n_cc, direct_ncc)):
            worst = min(worst, stats.ks_2samp(a, b, method="asymp").pvalue)
    wall = time.time() - t0
    ok = worst > threshold and wall < 120.0
    report(
        "criterion 1 (q=1 reduction)",
        ok,
        f"16 seeds, min p={worst:.5f} > {threshold:.2e}, wall {wall:.0f}s < 120s",
    )


# -- 2. oracle equivalence ----------------------------------------------------------


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    params = ModelParams(2.0, 2.0, DiracRadius(0.3), UNIT)
    rep = crcm.run_chain(params, seeded(2), sweeps=9000, burn_in=500, thin=2)
    z99 = stats.norm.ppf(0.995)
    details = []
    ok = True
    for name, f, trace in (
        ("count", lambda c, n: c, rep.counts),
        ("n_cc", lambda c, n: n, rep.n_cc),
    ):
        res = crcm.importance_oracle(params, f, 10**6, seeded(20 + len(name)))
        ess = max(8.0, trace.size / integrated_autocorr_time(trace.astype(float)))
        chain_mean = float(trace.mean())
        chain_half = z99 * float(trace.std(ddof=1)) / math.sqrt(ess)
        oracle_half = z99 * res.se
        overlap = (chain_mean - chain_half <= res.estimate + oracle_half) and (
            res.estimate - oracle_half <= chain_mean + chain_half
        )
        ok = ok and overlap
        details.append(
            f"{name}: chain {chain_mean:.4f}+-{chain_half:.4f} vs oracle "
            f"{res.estimate:.4f}+-{oracle_half:.4f}"
        )
    wall = time.time() - t0
    ok = ok and wall < 300.0
    report("criterion 2 (oracle equivalence)", ok, "; ".join(details) + f"; wall {wall:.0f}s < 300s")


# -- 3. coupling consistency -----------------------------------------------------------


def test_criterion_3_fk_consistency():
    t0 = time.time()
    rep = wr.fk_consistency_test(
        wr.WrParams(4.0, 2, DiracRadius(0.1), UNIT), rng_seed=303, pairs=8,
        sweeps=400, burn_in=150, thin=3,
    )
    control = wr.fk_consistency_test(
        wr.WrParams(4.0, 2, DiracRadius(0.1), UNIT), rng_seed=304, pairs=3,
        sweeps=400, burn_in=150, thin=3, crcm_z=4.0,
    )
    wall = time.time() - t0
    ok = (not rep.rejected) and control.rejected and wall < 600.0
    report(
        "criterion 3 (coupling consistency)",
        ok,
        f"8 pairs min p={rep.p_values.min():.4f} > {rep.threshold:.1e}; "
        f"mismatched-intensity control min p={control.p_values.min():.2e} rejects; "
        f"wall {wall:.0f}s < 600s",
    )


# -- 4. balance-equation residuals --------------------------------------------------------


def test_criterion_4_gnz_residuals():
    t0 = time.time()
    cp = ModelParams(3.0, 2.0, DiracRadius(0.12), UNIT)
    crep = crcm.run_chain(cp, seeded(4), sweeps=900, burn_in=150, thin=6, keep_configs=True)
    wp = wr.WrParams(6.0, 2, DiracRadius(0.15), UNIT)
    wrep = wr.run_wr_chain(wp, seeded(5), sweeps=900, burn_in=150, thin=6, keep_configs=True)
    rows_c = crcm.gnz_residuals(crep.samples, cp, rng=seeded(40), inner_points=128)
    rows_w = crcm.gnz_residuals(wrep.samples, wp, rng=seeded(41), inner_points=128)
    # negative controls: the same samples against a wrong model
    wrong_q = ModelParams(3.0, 3.0, DiracRadius(0.12), UNIT)
    ctrl_c = crcm.gnz_residuals(crep.samples, wrong_q, rng=seeded(42), inner_points=128)
    no_constraint = ModelParams(6.0, 1.0, DiracRadius(0.15), UNIT)
    ctrl_w = crcm.gnz_residuals(wrep.samples, no_constraint, rng=seeded(43), inner_points=128)
    wall = time.time() - t0
    max_main = max(r.residual for r in rows_c + rows_w)
    min_ctrl = min(max(r.residual for r in ctrl_c), max(r.residual for r in ctrl_w))
    ok = (
        all(r.residual < 4.0 for r in rows_c + rows_w)
        and max(r.residual for r in ctrl_c) > 4.0
        and max(r.residual for r in ctrl_w) > 4.0
        and wall < 600.0
    )
    report(
        "criterion 4 (balance residuals)",
        ok,
        f"6 statistics max |resid|/se={max_main:.2f} < 4; controls reach "
        f">= {min_ctrl:.1f} > 4; wall {wall:.0f}s < 600s",
    )


# -- 5. bounds audit ------------------------------------------------------------------------


def test_criterion_5_bounds_audit(tmp_path):
    spec = cli.load_spec(
        "bounds-audit",
        None,
        {
            "seed": "55", "z": "0.1", "law": "uniform:0.2,1",
            "window": "-4,-4:4,4", "samples": "10000", "r0": "1",
            "out": str(tmp_path),
        },
    )
    code = cli.cmd_bounds_audit(spec, tmp_path)
    body = (tmp_path / "bounds.csv").read_text()
    total = sum(int(line.split(",")[1]) for line in body.splitlines()[2:])
    report(
        "criterion 5 (bounds audit)",
        code == 0 and total == 0,
        f"upper/lower bounds, increments, telescoping, deletion inverse, "
        f"compatibility (closed form against the labeling and one resample): "
        f"{total} violations over 10000 configurations",
    )


# -- 6. domination ---------------------------------------------------------------------------


def test_criterion_6_domination():
    params = ModelParams(3.0, 2.0, DiracRadius(1.0), Box([0, 0], [2, 2]))
    rep = crcm.run_chain(params, seeded(6), sweeps=900, burn_in=150, thin=3, keep_configs=True)
    rows = crcm.domination_check(rep.samples, params)
    upper = next(r for r in rows if r.statistic == "count" and r.side == "upper")
    lower = next(r for r in rows if r.statistic == "count" and r.side == "lower")
    ok = (
        all(r.ok for r in rows)
        and upper.bound == pytest.approx(2.0 * 3.0 * 4.0)
        and lower.bound == pytest.approx(3.0 * 4.0 * 2.0**-9)
    )
    report(
        "criterion 6 (domination)",
        ok,
        f"E[count]={upper.empirical:.3f} <= qz|W|={upper.bound:.1f}+3se; "
        f"E[count] >= z|W|*2^-9={lower.bound:.4f}-3se (tilted mass 2^-9, c0=9); "
        f"all {len(rows)} increasing-statistic checks hold",
    )


# -- 7. localization and shield ------------------------------------------------------------------


def test_criterion_7_localization_and_shield():
    t0 = time.time()
    # localization on conditioned samples
    law = ParetoRadius(2, 30.0)
    params = ModelParams(0.02, 1.0, law, Box([-20, -20], [20, 20]))
    lam_box = Box([-1.5, -1.5], [1.5, 1.5])
    r0, i, j = 2.0, 5.0, 14.0
    rng = seeded(7)
    conditioned = failures = 0
    attempts = 0
    while conditioned < 1000 and attempts < 400_000:
        attempts += 1
        cfg = sample_poisson_boolean(params, rng)
        if any(lam_box.contains_point(c) and r > r0 for c, r in cfg.index.balls.values()):
            continue
        centers, radii, _ = cfg.arrays()
        if not (an.event_Aij(centers, radii, i, j)
                and an.event_Wij(centers, radii, lam_box, r0, i, j)):
            continue
        conditioned += 1
        if not an.localization_check(centers, radii, lam_box, r0, i, j):
            failures += 1

    # shield covering contracts
    geom = an.build_shield(1, 4, 2)
    bad_in, bad_out = an.shield_covering_trials(geom, 100_000, seeded(8))

    # colored locality consequence on the shield event
    g2 = an.build_shield(1, 2, 2)
    rngl = seeded(9)
    lam_g = g2.central_box
    locality_viol = 0
    trials = 0
    while trials < 1000:
        big = Box(g2.outer_box.lo * 3, g2.outer_box.hi * 3)
        from crcmlab.model_core import Configuration

        cfg = Configuration(big, cell_size=2.0, colored=True)
        for cube in g2.inner_cubes + g2.outer_cubes:
            u = rngl.random(2) * 0.3
            v = 0.55 + rngl.random(2) * 0.3
            cfg.add(cube.lo + u * cube.sides, 0.15, 1)
            cfg.add(cube.lo + v * cube.sides, 0.15, 2)
        far = g2.outer_box.hi[0] * (1.5 + rngl.random())
        cfg.add(np.array([far, -far]), float(rngl.exponential(1.0)), int(rngl.integers(1, 3)))
        centers, radii, colors = cfg.arrays()
        if not (wr.is_allowed(centers, radii, colors) and an.shield_event_Wk(centers, colors, g2)):
            continue
        trials += 1
        full = Configuration(big, cell_size=2.0, colored=True)
        trunc = Configuration(big, cell_size=2.0, colored=True)
        for s in cfg.active_ids():
            c, r = cfg.index.balls[s]
            if lam_g.contains_point(c):
                continue
            full.add(c, r, cfg.colors[s])
            if g2.outer_box.contains_point(c):
                trunc.add(c, r, cfg.colors[s])
        for _ in range(int(rngl.integers(0, 4))):
            center = lam_g.sample_point(rngl)
            radius = float(rngl.exponential(4.0))
            color = int(rngl.integers(1, 3))
            full.add(center, radius, color)
            trunc.add(center, radius, color)
        if wr.is_allowed(*full.arrays()) != wr.is_allowed(*trunc.arrays()):
            locality_viol += 1
    wall = time.time() - t0
    ok = (
        conditioned == 1000
        and failures == 0
        and bad_in == 0
        and bad_out == 0
        and locality_viol == 0
    )
    report(
        "criterion 7 (localization & shield)",
        ok,
        f"{failures} failures / {conditioned} conditioned samples; covering "
        f"{bad_in + bad_out} violations / 100000 balls; colored locality "
        f"{locality_viol} violations / 1000 trials; wall {wall:.0f}s",
    )


# -- 8. entropy-bound calculators ----------------------------------------------------------------


def test_criterion_8_entropy_calculators():
    law = DiracRadius(1.0)
    phi = an.phi_y(law, 10.0, 2)
    phi_ok = abs(phi - 0.64) < 1e-12
    psi0_ok = an.psi(0.0, 2, 10.0, phi, 2) == 0.0
    z_y = an.psi_root(2, 10.0, phi, 2)
    grid_ok = all(
        an.psi(float(z), 2, 10.0, phi, 2) < 0
        for z in np.linspace(z_y / 400, z_y * 0.9999, 400)
    )
    brent = optimize.brentq(
        lambda z: an.psi_prime(z, 2, 10.0, phi, 2), 1e-12, 1.0, xtol=1e-15
    )
    root_ok = abs(z_y - brent) < 1e-8
    mono_ok = an.mono_lower_bound(1.0, 2) == 0.5

    # separation interval and the color event under the hard-core sampler
    zs = np.linspace(z_y / 10, z_y, 10)
    separated = [
        float(z)
        for z in zs
        if an.wr_entropy_upper(float(z), 2, 10.0, law, 40, 2)
        < an.mono_lower_bound(float(z), 2)
    ]
    interval_ok = len(separated) > 0
    z_run = separated[len(separated) // 2]
    params = wr.WrParams(z_run, 2, law, Box([0, 0], [20, 20]))
    rep = wr.run_wr_chain(
        params, seeded(88), sweeps=8000, burn_in=400, thin=20, keep_configs=True
    )
    hits = np.array([wr.col_event(colors) for _, _, colors in rep.samples], dtype=float)
    n_eff = max(8, int(hits.size / integrated_autocorr_time(hits)))
    lo, _ = wilson_interval(int(round(hits.mean() * n_eff)), n_eff, confidence=0.99)
    col_ok = lo > 0.0
    ok = phi_ok and psi0_ok and grid_ok and root_ok and mono_ok and interval_ok and col_ok
    report(
        "criterion 8 (entropy calculators)",
        ok,
        f"phi=0.64 exact; psi(0)=0; psi<0 on (0,z_y); |z_y-brentq|="
        f"{abs(z_y - brent):.1e} < 1e-8; mono(z=1,q=2)=0.5; separation on "
        f"{len(separated)}/10 grid points; P(col) at z={z_run:.4f}: "
        f"{hits.mean():.3f}, 99% Wilson lower {lo:.3f} > 0",
    )


# -- 9. cluster-density decay ----------------------------------------------------------------------


def test_criterion_9_np_decay():
    t0 = time.time()
    law = DiracRadius(1.0)
    window = Box([0, 0], [6, 6])
    border = 1.0
    grid = [0.1, 0.2, 0.4, 0.7]
    values, ses, bounds = [], [], []
    below = True
    for gi, z in enumerate(grid):
        params = ModelParams(z, 2.0, law, window)
        samples = []
        for c in range(3):
            rep = crcm.run_chain(
                params, seeded(9000 + 10 * gi + c), sweeps=150, burn_in=60, thin=3,
                keep_configs=True,
            )
            samples.extend(rep.samples)
        est = an.estimate_NP(samples, window, border)
        bound = an.np_bound(z, 2.0, law, 2)
        below = below and est.value <= bound + 3 * est.se
        values.append(est.value)
        ses.append(max(est.se, 1e-6))
        bounds.append(bound)
    # one-sided weighted trend test on the large-z half of the grid
    zs = np.array(grid[1:])
    ys = np.array(values[1:])
    ws = 1.0 / np.array(ses[1:]) ** 2
    zbar = np.average(zs, weights=ws)
    slope = np.sum(ws * (zs - zbar) * ys) / np.sum(ws * (zs - zbar) ** 2)
    slope_se = math.sqrt(1.0 / np.sum(ws * (zs - zbar) ** 2))
    trend_ok = slope / slope_se < stats.norm.ppf(0.05)
    wall = time.time() - t0
    ok = below and trend_ok and wall < 1200.0
    report(
        "criterion 9 (cluster-density decay)",
        ok,
        f"grid {grid}: estimates {[round(v, 4) for v in values]} all <= bound+3se; "
        f"trend slope z-score {slope / slope_se:.1f} < -1.64; wall {wall:.0f}s < 1200s",
    )


# -- 10. reproducibility -----------------------------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    args = [
        "sample-crcm", "--seed", "77", "--chains", "2",
        "--set", "z=20", "--set", "q=2", "--set", "law=dirac:0.08",
        "--set", "sweeps=40", "--set", "burn_in=10", "--set", "thinning=2",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    r1 = run_cli(*args, "--out", str(a))
    r2 = run_cli(*args, "--out", str(b))
    bitwise = r1.returncode == r2.returncode == 0 and all(
        (a / f).read_bytes() == (b / f).read_bytes()
        for f in ["trace_000.csv", "trace_001.csv", "final_config_000.csv", "final_config_001.csv"]
    )

    # checkpoint-resume: interrupt at the mid-run checkpoint, then continue
    resumed = tmp_path / "resumed"
    resumed.mkdir()
    spec = cli.load_spec(
        "sample-crcm",
        None,
        {"seed": "77", "chains": "2", "out": str(resumed), "z": "20", "q": "2",
         "law": "dirac:0.08", "sweeps": "40", "burn_in": "10", "thinning": "2",
         "checkpoint_every": "25"},
    )

    class Interrupt(Exception):
        pass

    def cb(doc):
        if doc["sweep"] == 25:
            payload = {"spec_hash": spec.digest(), "colored": False, "chain": doc,
                       "chain_index": 0, "next_chain": 0, "finished": {}}
            (resumed / "checkpoint.json").write_text(json.dumps(payload))
            raise Interrupt

    try:
        cli.run_traced_chain(spec, 0, False, checkpoint_cb=cb)
    except Interrupt:
        pass
    r3 = run_cli(
        *args, "--out", str(resumed), "--set", "checkpoint_every=25",
        "--resume", str(resumed / "checkpoint.json"),
    )
    resume_ok = r3.returncode == 0 and all(
        (a / f).read_bytes() == (resumed / f).read_bytes()
        for f in ["trace_000.csv", "trace_001.csv"]
    )
    report(
        "criterion 10 (reproducibility)",
        bitwise and resume_ok,
        f"bitwise-identical CSVs across reruns: {bitwise}; "
        f"checkpoint-resume trace-identical: {resume_ok}",
    )
