"""Reproducible experiment driver: flat key=value configs, counter-based
per-chain random streams, one subcommand per experiment family, plot-ready
CSV tables with metadata headers, and checkpoint/resume that continues the
exact trajectory."""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy import stats

from . import __version__
from ._stream import generator
from .geometry import Box
from .model_core import (
    Configuration,
    ModelParams,
    coverage_escalation,
    open_fresh,
    parse_law,
    poisson_balls,
    sample_poisson_boolean,
    save_configuration,
)
from .connectivity import (
    ClusterLabeling,
    check_bounds,
    compatibility_offset,
    components,
    count_components,
    local_cc,
)
from .crcm import (
    TRACE_COLUMNS,
    ChainState,
    bd_step,
    gnz_residual_crcm,
    heat_bath_sweep,
    new_chain,
    run_chain,
    sweep_loop,
    sweep_size,
)
from .widom_rowlinson import (
    WrParams,
    fk_consistency_test,
    gnz_residual_wr,
    new_wr_chain,
    run_wr_chain,
    wr_step,
)
from . import analysis

EXIT_OK = 0
EXIT_SPEC = 1
EXIT_TEST = 2
EXIT_RUNTIME = 3


class SpecInvalid(ValueError):
    pass


def spec_checked(fn, *args):
    """fn(*args), with a ValueError (an out-of-range spec value) raised as
    SpecInvalid."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise SpecInvalid(str(exc)) from exc


SUBCOMMANDS = (
    "sample-poisson",
    "sample-crcm",
    "sample-wr",
    "gnz-check",
    "fk-check",
    "dlr-check",
    "bounds-audit",
    "localization",
    "shield",
    "entropy-bounds",
    "np-decay",
    "coverage-probe",
)


@dataclass
class ExperimentSpec:
    """Everything a run needs; mirrored one-to-one by the config file."""

    subcommand: str = ""
    z: float = 1.0
    q: float = 1.0
    law: str = "dirac:0.1"
    window: str = "0,0:1,1"
    chains: int = 1
    sweeps: int = 400
    burn_in: int = 200
    thinning: int = 2
    seed: int = 0
    out: str = "out"
    samples: int = 200
    model: str = "crcm"  # gnz-check target
    control: str = "none"  # negative-control switch per subcommand
    z_grid: str = ""
    y_grid: str = "10"
    ij: str = "4:9"
    alpha: int = 1
    k: int = 4
    r0: float = 1.0
    border: float = -1.0
    trials: int = 100000
    inner_points: int = 96
    n_pack: int = 40
    lam_box: str = ""
    h_grid: str = "0.25,1,4,12"
    checkpoint_every: int = 0
    resume: str = ""

    def _box(self, key: str) -> Box:
        text = getattr(self, key)
        try:
            lo_s, hi_s = text.split(":")
            lo = np.array([float(v) for v in lo_s.split(",")])
            hi = np.array([float(v) for v in hi_s.split(",")])
            return Box(lo, hi)
        except Exception as exc:
            raise SpecInvalid(f"bad {key} {text!r} (want 'lo1,lo2:hi1,hi2')") from exc

    def window_box(self) -> Box:
        return self._box("window")

    def lam_box_in(self, w: Box) -> Box:
        """The audited box: `lam_box`, which must lie in the window `w`, or
        by default the middle half of `w`."""
        if not self.lam_box:
            return Box(w.lo + 0.25 * w.sides, w.lo + 0.75 * w.sides)
        box = self._box("lam_box")
        if box.dimension != w.dimension or not w.contains_box(box):
            raise SpecInvalid(f"lam_box {self.lam_box!r} must lie inside the window {self.window!r}")
        return box

    def radius_law(self):
        try:
            return parse_law(self.law)
        except ValueError as exc:
            raise SpecInvalid(str(exc)) from exc

    def model_params(self) -> ModelParams:
        return spec_checked(ModelParams, self.z, self.q, self.radius_law(), self.window_box())

    def n_colors(self) -> int:
        """q as the integer number of colors the color model needs."""
        if int(self.q) != self.q or self.q < 2:
            raise SpecInvalid("the color model needs an integer q >= 2")
        return int(self.q)

    def wr_params(self) -> WrParams:
        return spec_checked(
            WrParams, self.z, float(self.n_colors()), self.radius_law(), self.window_box()
        )

    def floats(self, key: str) -> list[float]:
        text = getattr(self, key)
        try:
            return [float(v) for v in text.split(",") if v.strip()]
        except ValueError as exc:
            raise SpecInvalid(f"bad {key} {text!r} (want 'v1,v2,...')") from exc

    def ij_pairs(self) -> list[tuple[float, float]]:
        pairs = []
        try:
            for tok in self.ij.split(";"):
                if tok.strip():
                    i_s, j_s = tok.split(":")
                    pairs.append((float(i_s), float(j_s)))
        except ValueError as exc:
            raise SpecInvalid(f"bad ij {self.ij!r} (want 'i1:j1;i2:j2')") from exc
        if any(not i < j for i, j in pairs):
            raise SpecInvalid(f"bad ij {self.ij!r}: need i < j in every pair")
        return pairs

    def canonical(self) -> str:
        d = dataclasses.asdict(self)
        # identity of the trajectory only: where it runs, whether it pauses
        # and where artifacts land are not part
        d.pop("resume")
        d.pop("out")
        d.pop("checkpoint_every")
        return json.dumps(d, sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


# least allowed value of each count field; burn-in and checkpoints may be off
MINIMUMS = {
    "sweeps": 1, "thinning": 1, "chains": 1, "samples": 1, "trials": 1,
    "inner_points": 1, "n_pack": 1, "burn_in": 0, "checkpoint_every": 0,
}


# defaults that differ by subcommand: each coverage-probe trial samples and
# certifies a whole dilated box, so the shared 100,000 would take a minute
SUBCOMMAND_DEFAULTS = {"coverage-probe": {"trials": 2000}}


def load_spec(subcommand: str, config_path: Optional[str], overrides: dict) -> ExperimentSpec:
    spec = ExperimentSpec(subcommand=subcommand, **SUBCOMMAND_DEFAULTS.get(subcommand, {}))
    fields = {f.name: f for f in dataclasses.fields(ExperimentSpec)}
    values: dict = {}
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise SpecInvalid(f"config file {config_path} not found")
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SpecInvalid(f"{config_path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    values.update({k: v for k, v in overrides.items() if v is not None})
    for key, val in values.items():
        if key not in fields:
            raise SpecInvalid(f"unknown config key {key!r}")
        typ = fields[key].type
        try:
            if typ == "int":
                setattr(spec, key, int(val))
            elif typ == "float":
                setattr(spec, key, float(val))
            else:
                setattr(spec, key, str(val))
        except ValueError as exc:
            raise SpecInvalid(f"bad value for {key}: {val!r}") from exc
    for key, least in MINIMUMS.items():
        if getattr(spec, key) < least:
            raise SpecInvalid(f"{key} must be at least {least}, got {getattr(spec, key)}")
    return spec


# ---------------------------------------------------------------------------
# Random streams, CSV and manifest plumbing
# ---------------------------------------------------------------------------


def chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, chain index): adding chains never
    perturbs existing ones."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(chain_index,)))
    )


def tmp_doc_default(doc):
    """Plain-JSON view: numpy arrays become lists, numpy scalars plain
    numbers, tuples lists."""
    if isinstance(doc, (np.ndarray, np.generic)):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: tmp_doc_default(x) for k, x in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [tmp_doc_default(x) for x in doc]
    return doc


def rng_state_to_json(rng: np.random.Generator) -> dict:
    return tmp_doc_default(rng.bit_generator.state)


def rng_from_json(state: dict) -> np.random.Generator:
    bg = np.random.Philox()
    bg.state = state  # Philox takes its counter, key and buffer as lists
    return np.random.Generator(bg)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, meta: dict, columns: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open_fresh(path) as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_manifest(out: Path, spec: ExperimentSpec, wall: float, outputs: list[str], extra=None):
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "subcommand": spec.subcommand,
        "spec": json.loads(spec.canonical()),
        "spec_hash": spec.digest(),
        "seed": spec.seed,
        "versions": {
            "crcmlab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": wall,
        "outputs": sorted(outputs),
    }
    if extra:
        doc.update(extra)
    with open_fresh(out / "manifest.json") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Checkpoint format: one chain's state as plain JSON
# ---------------------------------------------------------------------------


def chain_to_json(state: ChainState, sweep: int, trace: list) -> dict:
    """What the next move reads and nothing more: the balls in move order
    (`active_ids`, the order `random_active` draws from), their colors for
    colored chains, the stream, the counters and the trace so far.  Slot
    ids, the window and the grid are not stored: resume rebuilds them from
    the chain's params, which the checkpoint's spec hash pins.  The document
    shares no object with the running chain."""
    centers, radii, colors = state.config.arrays()
    doc = {
        "sweep": sweep,
        "step_count": state.step_count,
        "proposed": dict(state.proposed),
        "accepted": dict(state.accepted),
        "rng": rng_state_to_json(generator(state.rng)),
        "centers": centers.tolist(),
        "radii": radii.tolist(),
        "trace": list(trace),
    }
    if colors is not None:
        doc["colors"] = colors.tolist()
    return doc


def chain_from_json(doc: dict, params: ModelParams) -> tuple[ChainState, int, list]:
    """Inverse of chain_to_json for a chain of `params`; raises ValueError
    on a malformed ball list."""
    colors = doc["colors"] if isinstance(params, WrParams) else None
    cfg = Configuration.from_arrays(
        params.window, doc["centers"], doc["radii"], colors, cell_size=params.cell_size
    )
    state = ChainState(
        params=params,
        config=cfg,
        rng=rng_from_json(doc["rng"]),
        step_count=doc["step_count"],
        proposed={k: int(v) for k, v in doc["proposed"].items()},
        accepted={k: int(v) for k, v in doc["accepted"].items()},
    )
    return state, doc["sweep"], [tuple(r) for r in doc["trace"]]


def run_traced_chain(
    spec: ExperimentSpec,
    chain_index: int,
    colored: bool,
    resume_doc: Optional[dict] = None,
    checkpoint_cb=None,
):
    """Burn-in + recorded sweeps with optional mid-run checkpoints; the
    recorded trace is identical whether or not the run was interrupted."""
    params = spec.wr_params() if colored else spec.model_params()
    if resume_doc is not None:
        state, start_sweep, trace = chain_from_json(resume_doc, params)
    else:
        rng = chain_rng(spec.seed, chain_index)
        state = new_wr_chain(params, rng) if colored else new_chain(params, rng)
        start_sweep, trace = 0, []
    total = spec.burn_in + spec.sweeps

    def checkpoint(done: int, recorded: bool) -> None:
        if spec.checkpoint_every > 0 and done % spec.checkpoint_every == 0 and done < total:
            checkpoint_cb(chain_to_json(state, done, trace))

    sweep_loop(
        state,
        wr_step if colored else bd_step,
        sweep_size(params),
        spec.burn_in,
        spec.sweeps,
        spec.thinning,
        trace,
        start=start_sweep,
        on_sweep=checkpoint if checkpoint_cb is not None else None,
    )
    return state, trace


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_sample_poisson(spec: ExperimentSpec, out: Path) -> int:
    params = spec.model_params()
    w = params.window
    rows = []
    for s in range(spec.samples):
        rng = chain_rng(spec.seed, s)
        centers, radii = poisson_balls(w, params.law, params.total_intensity, rng)
        save_configuration(w, (centers, radii, None), out / f"config_{s:04d}.csv",
                           law_descriptor=spec.law, seed=spec.seed)
        rows.append((s, radii.size, components(centers, radii)[0]))
    write_csv(
        out / "summary.csv",
        {"subcommand": spec.subcommand, "spec_hash": spec.digest()},
        ["sample", "count", "n_cc"],
        rows,
    )
    return EXIT_OK


def _write_chain_outputs(spec: ExperimentSpec, out: Path, c: int, cfg: Configuration, trace):
    write_csv(
        out / f"trace_{c:03d}.csv",
        {"subcommand": spec.subcommand, "chain": c, "seed": spec.seed,
         "spec_hash": spec.digest()},
        TRACE_COLUMNS,
        trace,
    )
    save_configuration(
        cfg.window,
        cfg.arrays(),
        out / f"final_config_{c:03d}.csv",
        law_descriptor=spec.law,
        seed=spec.seed,
    )


def cmd_sample_chain(spec: ExperimentSpec, out: Path, colored: bool) -> int:
    resume_doc = None
    start_chain = 0
    if spec.resume:
        with open(spec.resume) as fh:
            doc = json.load(fh)
        if doc["spec_hash"] != spec.digest():
            raise SpecInvalid("checkpoint belongs to a different experiment spec")
        resume_doc = doc.get("chain")  # None between chains
        start_chain = doc["next_chain"]
    ckpt = out / "checkpoint.json"

    def save_checkpoint(chain_doc, next_chain):
        doc = {"spec_hash": spec.digest(), "chain": chain_doc, "next_chain": next_chain}
        tmp = ckpt.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(tmp_doc_default(doc), fh)
        tmp.replace(ckpt)

    for c in range(start_chain, spec.chains):
        state, trace = run_traced_chain(
            spec,
            c,
            colored,
            resume_doc=resume_doc if c == start_chain else None,
            checkpoint_cb=(
                (lambda chain_doc, _c=c: save_checkpoint(chain_doc, _c))
                if spec.checkpoint_every
                else None
            ),
        )
        _write_chain_outputs(spec, out, c, state.config, trace)
        if spec.checkpoint_every:
            save_checkpoint(None, c + 1)
    return EXIT_OK


def cmd_gnz_check(spec: ExperimentSpec, out: Path) -> int:
    if spec.model not in ("crcm", "wr"):
        raise SpecInvalid(f"gnz-check model must be crcm or wr, got {spec.model!r}")
    rng = chain_rng(spec.seed, 10_000)
    crcm_model = spec.model == "crcm"
    params = spec.model_params() if crcm_model else spec.wr_params()
    if len(range(0, spec.sweeps, spec.thinning)) < 100:
        raise SpecInvalid("gnz-check needs at least 100 recorded sweeps (sweeps / thinning)")
    rep = (run_chain if crcm_model else run_wr_chain)(
        params,
        chain_rng(spec.seed, 0),
        sweeps=spec.sweeps,
        burn_in=spec.burn_in,
        thin=spec.thinning,
        keep_configs=True,
    )
    if crcm_model:
        rhs_q = (params.q + 1.0) if spec.control == "wrong-q" else None
        rows = gnz_residual_crcm(
            rep.samples, params, rng=rng, inner_points=spec.inner_points, rhs_q=rhs_q
        )
    else:
        drop = spec.control == "drop-constraint"
        rows = gnz_residual_wr(
            rep.samples, params, rng=rng, inner_points=spec.inner_points, drop_constraint=drop
        )
    control = spec.control != "none"
    if control:
        passed = max(r.residual for r in rows) > 4.0  # the corruption must be detected
    else:
        passed = all(r.residual < 4.0 for r in rows)
    write_csv(
        out / "gnz.csv",
        {"subcommand": spec.subcommand, "model": spec.model, "control": spec.control,
         "spec_hash": spec.digest(), "pass": int(passed)},
        ["statistic", "lhs", "rhs", "se", "residual"],
        [(r.name, r.lhs, r.rhs, r.se, r.residual) for r in rows],
    )
    return EXIT_OK if passed else EXIT_TEST


def cmd_fk_check(spec: ExperimentSpec, out: Path) -> int:
    params = spec.wr_params()
    pairs = spec.chains if spec.chains > 1 else 8  # --chains 1, the default, runs 8 pairs
    report = fk_consistency_test(
        params.z,
        params.n_colors,
        params.law,
        params.window,
        rng_seed=spec.seed,
        pairs=pairs,
        sweeps=spec.sweeps,
        burn_in=spec.burn_in,
        thin=spec.thinning,
        crcm_z=spec.z if spec.control == "mismatch" else None,
    )
    rows = []
    for s in range(report.p_values.shape[0]):
        for t, stat_name in enumerate(report.statistics):
            rows.append((s, stat_name, report.p_values[s, t]))
    expected_reject = spec.control == "mismatch"
    passed = report.rejected == expected_reject
    write_csv(
        out / "fk.csv",
        {"subcommand": spec.subcommand, "control": spec.control, "pairs": pairs,
         "threshold": report.threshold, "rejected": int(report.rejected),
         "spec_hash": spec.digest(), "pass": int(passed)},
        ["pair", "statistic", "p_value"],
        rows,
    )
    return EXIT_OK if passed else EXIT_TEST


def cmd_dlr_check(spec: ExperimentSpec, out: Path) -> int:
    """Heat-bath sweeps over a window partition versus plain birth-death:
    both target the same law, so their traces must be indistinguishable."""
    params = spec.model_params()
    w = params.window
    mid = 0.5 * (w.lo + w.hi)
    # the 2^d orthants of the window; the first axis halves fastest
    quads = []
    for k in range(2 ** w.dimension):
        upper = (k >> np.arange(w.dimension)) & 1 == 1
        quads.append(Box(np.where(upper, mid, w.lo), np.where(upper, w.hi, mid)))
    hb = run_chain(
        params,
        chain_rng(spec.seed, 0),
        sweeps=spec.sweeps,
        burn_in=spec.burn_in,
        thin=spec.thinning,
        step=lambda state: heat_bath_sweep(state, quads),
        per_sweep=1,
    )
    rep = run_chain(
        params,
        chain_rng(spec.seed, 1),
        sweeps=spec.sweeps,
        burn_in=spec.burn_in,
        thin=spec.thinning,
    )
    p_count = stats.ks_2samp(hb.counts, rep.counts, method="asymp").pvalue
    p_ncc = stats.ks_2samp(hb.n_cc, rep.n_cc, method="asymp").pvalue
    passed = min(p_count, p_ncc) > 0.01 / 2
    write_csv(
        out / "dlr.csv",
        {"subcommand": spec.subcommand, "spec_hash": spec.digest(), "pass": int(passed)},
        ["statistic", "p_value", "heat_bath_mean", "bd_mean"],
        [
            ("count", p_count, float(hb.counts.mean()), float(rep.counts.mean())),
            ("n_cc", p_ncc, float(hb.n_cc.mean()), float(rep.n_cc.mean())),
        ],
    )
    return EXIT_OK if passed else EXIT_TEST


def cmd_bounds_audit(spec: ExperimentSpec, out: Path) -> int:
    params = spec.model_params()
    w = params.window
    lam_box = spec.lam_box_in(w)
    r0 = spec.r0
    # the increment lower bound holds when every radius >= the law's minimum
    r_lo = params.law.min_radius
    c0 = (3.0 / r_lo) ** w.dimension if r_lo > 0 else math.inf
    viol = {
        "upper": 0,
        "lower": 0,
        "increment_above": 0,
        "increment_below": 0,
        "telescoping": 0,
        "deletion_inverse": 0,
        "compatibility": 0,
    }
    outer = Box(
        np.maximum(w.lo, lam_box.lo - 0.2 * w.sides),
        np.minimum(w.hi, lam_box.hi + 0.2 * w.sides),
    )
    rng_ins = chain_rng(spec.seed, 90_001)
    for s in range(spec.samples):
        rng = chain_rng(spec.seed, s)
        cfg = sample_poisson_boolean(params, rng)
        rep = check_bounds(cfg, lam_box, r0)
        viol["upper"] += not rep.upper_ok
        viol["lower"] += not rep.lower_ok
        lab = ClusterLabeling(cfg)
        # single-ball increment window and lower bound (radii >= min_radius)
        ball_c = w.sample_point(rng_ins)
        ball_r = params.law.sample_scalar(rng_ins)
        delta, _ = lab.insertion_increment(cfg, ball_c, ball_r)
        viol["increment_above"] += delta > 1
        if r_lo > 0:
            viol["increment_below"] += delta < -c0 * ball_r**w.dimension
        # telescoping: increments summed over a uniform insertion order
        centers, radii, _ = cfg.arrays()
        probe = Configuration(w, cell_size=cfg.index.cell_size)
        plab = ClusterLabeling(probe)
        total = 0
        for k in rng.permutation(cfg.n):
            dlt, hits = plab.insertion_increment(probe, centers[k], radii[k])
            plab.apply_insertion(probe.add(centers[k], radii[k]), hits)
            total += dlt
        viol["telescoping"] += total != lab.n_components
        # deletion inverse on one random ball
        if cfg.n:
            slot = cfg.random_active(rng)
            groups = lab.removal_split(slot)
            center, radius = cfg.index.balls[slot]
            cfg.remove(slot)
            lab.apply_removal(slot, groups)
            viol["deletion_inverse"] += lab.n_components != count_components(cfg)
            back, hits = lab.insertion_increment(cfg, center, radius)
            viol["deletion_inverse"] += back != 1 - len(groups)
            lab.apply_insertion(cfg.add(center, radius), hits)
        # compatibility offset: its closed form against the probe sequences of
        # local_cc, on the sample and on one resample of the interior of lam_box
        centers, radii, _ = cfg.arrays()
        outside = ~lam_box.contains_points(centers)
        new_c, new_r = poisson_balls(lam_box, params.law, params.z * lam_box.volume, rng)
        redone = Configuration.from_arrays(
            w, np.vstack([centers[outside], new_c]), np.concatenate([radii[outside], new_r]),
            cell_size=cfg.index.cell_size,
        )
        for c in (cfg, redone):
            offset = compatibility_offset(*c.arrays()[:2], lam_box, outer, w)
            viol["compatibility"] += offset != local_cc(c, outer).value - local_cc(c, lam_box).value
    total_viol = sum(viol.values())
    write_csv(
        out / "bounds.csv",
        {"subcommand": spec.subcommand, "configs": spec.samples, "spec_hash": spec.digest(),
         "violations": total_viol, "pass": int(total_viol == 0)},
        ["check", "violations"],
        sorted(viol.items()),
    )
    print(f"bounds-audit: {total_viol} violations over {spec.samples} configurations")
    return EXIT_OK if total_viol == 0 else EXIT_TEST


def cmd_localization(spec: ExperimentSpec, out: Path) -> int:
    params = spec.model_params()
    w = params.window
    lam_box = Box(w.lo + 0.45 * w.sides, w.lo + 0.55 * w.sides)
    rows = []
    failures_total = 0
    for i, j in spec.ij_pairs():
        rng = chain_rng(spec.seed, int(1000 * i + j))
        ok = fails = tried = 0
        target = spec.samples
        while ok + fails < target and tried < 400 * target:
            tried += 1
            centers, radii = poisson_balls(w, params.law, params.total_intensity, rng)
            try:
                held = analysis.localization_check(centers, radii, lam_box, spec.r0, i, j)
            except analysis.PreconditionEventFailed:
                continue  # outside the conditioning events: not a sample
            ok += held
            fails += not held
        failures_total += fails
        rows.append((i, j, ok + fails, fails))
    write_csv(
        out / "localization.csv",
        {"subcommand": spec.subcommand, "spec_hash": spec.digest(),
         "pass": int(failures_total == 0)},
        ["i", "j", "conditioned_samples", "failures"],
        rows,
    )
    return EXIT_OK if failures_total == 0 else EXIT_TEST


def cmd_shield(spec: ExperimentSpec, out: Path) -> int:
    w = spec.window_box()
    geom = spec_checked(analysis.build_shield, spec.alpha, spec.k, w.dimension)
    rng = chain_rng(spec.seed, 0)
    bad_in, bad_out = analysis.shield_covering_trials(geom, spec.trials, rng)
    passed = bad_in == 0 and bad_out == 0
    write_csv(
        out / "shield.csv",
        {"subcommand": spec.subcommand, "spec_hash": spec.digest(), "pass": int(passed)},
        ["alpha", "k", "dim", "d1", "d2", "trials", "inner_violations", "outer_violations"],
        [(geom.alpha, geom.k, geom.dim, geom.d1, geom.d2, spec.trials, bad_in, bad_out)],
    )
    print(
        f"shield d={geom.dim} alpha={geom.alpha} k={geom.k}: D1={geom.d1} D2={geom.d2} "
        f"covering test: {bad_in + bad_out} violations / {spec.trials}"
    )
    return EXIT_OK if passed else EXIT_TEST


def cmd_entropy_bounds(spec: ExperimentSpec, out: Path) -> int:
    law = spec.radius_law()
    d = spec.window_box().dimension
    q = spec.n_colors()
    ys = spec.floats("y_grid")
    phis = [spec_checked(analysis.phi_y, law, y, d) for y in ys]
    rows = []
    for y, phi in zip(ys, phis):
        try:
            z_y = analysis.psi_root(q, y, phi, d)
        except analysis.RootUndefined:
            rows.append((y, phi, float("nan"), float("nan"), float("nan"), float("nan"), 0))
            continue
        z_probes = np.linspace(z_y / 8, z_y, 8)
        for z in z_probes:
            upper = analysis.wr_entropy_upper(z, q, y, law, spec.n_pack, d)
            lower = analysis.mono_lower_bound(z, q)
            rows.append((y, phi, z_y, float(z), upper, lower, int(upper < lower)))
    write_csv(
        out / "entropy_bounds.csv",
        {"subcommand": spec.subcommand, "q": q, "law": spec.law, "n_pack": spec.n_pack,
         "spec_hash": spec.digest()},
        ["y", "phi_y", "z_y", "z", "upper_bound", "mono_lower_bound", "separated"],
        rows,
    )
    return EXIT_OK


def cmd_np_decay(spec: ExperimentSpec, out: Path) -> int:
    law = spec.radius_law()
    w = spec.window_box()
    d = w.dimension
    border = spec.border if spec.border > 0 else law.quantile(0.99)
    grid = spec.floats("z_grid") or [0.1, 0.2, 0.4, 0.7]
    # every value the estimate and its bound need, checked before any chain runs
    spec_checked(analysis.eroded_window, w, border)
    models = [spec_checked(ModelParams, z, spec.q, law, w) for z in grid]
    bounds = [spec_checked(analysis.np_bound, z, spec.q, law, law.min_radius, d) for z in grid]
    rows = []
    all_ok = True
    for gi, (z, params, bound) in enumerate(zip(grid, models, bounds)):
        configs = []
        for c in range(spec.chains):
            rep = run_chain(
                params,
                chain_rng(spec.seed, 100 * gi + c),
                sweeps=spec.sweeps,
                burn_in=spec.burn_in,
                thin=spec.thinning,
                keep_configs=True,
            )
            configs.extend(rep.samples)
        est = analysis.estimate_NP(configs, w, border)
        ok = est.value <= bound + 3.0 * est.se
        all_ok = all_ok and ok
        rows.append((z, est.value, est.se, bound, int(ok)))
    write_csv(
        out / "np_decay.csv",
        {"subcommand": spec.subcommand, "q": spec.q, "law": spec.law, "border": border,
         "spec_hash": spec.digest(), "pass": int(all_ok)},
        ["z", "np_hat", "se", "bound", "below_bound"],
        rows,
    )
    return EXIT_OK if all_ok else EXIT_TEST


def cmd_coverage_probe(spec: ExperimentSpec, out: Path) -> int:
    params = spec.model_params()
    if params.law.bounded_support:
        raise SpecInvalid("coverage-probe expects the heavy-tail law (pareto:d)")
    halos = spec.floats("h_grid")
    if not halos or min(halos) < 0:
        raise SpecInvalid(f"h_grid {spec.h_grid!r} needs one or more nonnegative halos")
    rng = chain_rng(spec.seed, 0)
    probs = coverage_escalation(
        params.window, params.z, params.law, halos, trials=spec.trials, rng=rng, grid_per_axis=48,
    )
    write_csv(
        out / "coverage.csv",
        {"subcommand": spec.subcommand, "z": spec.z, "law": spec.law, "trials": spec.trials,
         "spec_hash": spec.digest()},
        ["halo", "coverage_probability"],
        list(zip(halos, probs)),
    )
    return EXIT_OK


COMMANDS = {
    "sample-poisson": cmd_sample_poisson,
    "sample-crcm": lambda spec, out: cmd_sample_chain(spec, out, colored=False),
    "sample-wr": lambda spec, out: cmd_sample_chain(spec, out, colored=True),
    "gnz-check": cmd_gnz_check,
    "fk-check": cmd_fk_check,
    "dlr-check": cmd_dlr_check,
    "bounds-audit": cmd_bounds_audit,
    "localization": cmd_localization,
    "shield": cmd_shield,
    "entropy-bounds": cmd_entropy_bounds,
    "np-decay": cmd_np_decay,
    "coverage-probe": cmd_coverage_probe,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crcmlab",
        description="simulation and verification lab for cluster-weighted and "
        "hard-core-color ball models",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--chains", type=int, help="number of chains / seed pairs")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--resume", help="checkpoint file to continue from")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any spec field",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return EXIT_SPEC
    overrides: dict = {
        "seed": args.seed,
        "chains": args.chains,
        "out": args.out,
        "resume": args.resume,
    }
    for item in args.set:
        if "=" not in item:
            print(f"bad --set {item!r}: want KEY=VALUE", file=sys.stderr)
            return EXIT_SPEC
        k, _, v = item.partition("=")
        overrides[k.strip()] = v.strip()
    try:
        spec = load_spec(args.subcommand, args.config, overrides)
        out = Path(spec.out)
        out.mkdir(parents=True, exist_ok=True)
        start = time.time()
        status = COMMANDS[spec.subcommand](spec, out)
        outputs = [p.name for p in out.iterdir() if p.suffix == ".csv"]
        write_manifest(out, spec, time.time() - start, outputs, extra={"exit_status": status})
        return status
    except SpecInvalid as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except Exception as exc:  # runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
