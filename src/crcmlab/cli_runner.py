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
from .geometry import Box, MarkedBall
from .model_core import (
    Configuration,
    ModelParams,
    ParetoRadius,
    coverage_escalation,
    parse_law,
    sample_poisson_boolean,
    save_configuration,
)
from .connectivity import (
    ClusterLabeling,
    check_bounds,
    compatibility_offset,
    count_components,
)
from .crcm import (
    ChainState,
    bd_step,
    gnz_residual_crcm,
    heat_bath_sweep,
    largest_component_size,
    new_chain,
    run_chain,
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
    workers: int = 1
    checkpoint_every: int = 0
    resume: str = ""

    def window_box(self) -> Box:
        try:
            lo_s, hi_s = self.window.split(":")
            lo = np.array([float(v) for v in lo_s.split(",")])
            hi = np.array([float(v) for v in hi_s.split(",")])
            return Box(lo, hi)
        except Exception as exc:
            raise SpecInvalid(f"bad window {self.window!r} (want 'lo1,lo2:hi1,hi2')") from exc

    def radius_law(self):
        try:
            return parse_law(self.law)
        except ValueError as exc:
            raise SpecInvalid(str(exc)) from exc

    def model_params(self) -> ModelParams:
        p = ModelParams(self.z, self.q, self.radius_law(), self.window_box())
        if not p.assumption_a:
            raise SpecInvalid(
                "q<1 requires bounded support: the partition function "
                "diverges for unbounded radii below q=1"
            )
        return p

    def wr_params(self) -> WrParams:
        if int(self.q) != self.q or self.q < 2:
            raise SpecInvalid("the color model needs an integer q >= 2")
        return WrParams(self.z, self.q, self.radius_law(), self.window_box())

    def floats(self, text: str) -> list[float]:
        return [float(v) for v in text.split(",") if v.strip()]

    def ij_pairs(self) -> list[tuple[float, float]]:
        pairs = []
        for tok in self.ij.split(";"):
            if not tok.strip():
                continue
            i_s, j_s = tok.split(":")
            pairs.append((float(i_s), float(j_s)))
        return pairs

    def canonical(self) -> str:
        d = dataclasses.asdict(self)
        # identity of the trajectory only: where it runs, whether it pauses,
        # how many workers carry it, and where artifacts land are not part
        d.pop("resume")
        d.pop("out")
        d.pop("checkpoint_every")
        d.pop("workers")
        return json.dumps(d, sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def load_spec(subcommand: str, config_path: Optional[str], overrides: dict) -> ExperimentSpec:
    spec = ExperimentSpec(subcommand=subcommand)
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


def rng_state_to_json(rng: np.random.Generator) -> dict:
    def conv(v):
        if isinstance(v, np.ndarray):
            return {"__array__": v.tolist()}
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, (np.integer,)):
            return int(v)
        return v

    return conv(rng.bit_generator.state)


def rng_from_json(state: dict) -> np.random.Generator:
    def unconv(v):
        if isinstance(v, dict) and "__array__" in v:
            return np.array(v["__array__"], dtype=np.uint64)
        if isinstance(v, dict):
            return {k: unconv(x) for k, x in v.items()}
        return v

    bg = np.random.Philox()
    bg.state = unconv(state)
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
    with open(path, "w") as fh:
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
    with open(out / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Chain serialization (checkpoint/resume)
# ---------------------------------------------------------------------------


def config_to_json(cfg: Configuration) -> dict:
    rows = []
    for slot in cfg.active_ids():
        row = [int(slot)] + [float(v) for v in cfg.centers[slot]] + [float(cfg.radii[slot])]
        if cfg.colored:
            row.append(int(cfg.colors[slot]))
        rows.append(row)
    return {
        "capacity": int(cfg.radii.size),
        "colored": cfg.colored,
        "cell_size": cfg.index.cell_size,
        "lo": [float(v) for v in cfg.window.lo],
        "hi": [float(v) for v in cfg.window.hi],
        "active": rows,
        "free": [int(s) for s in cfg._free],
    }


def config_from_json(doc: dict) -> Configuration:
    window = Box(np.array(doc["lo"]), np.array(doc["hi"]))
    capacity = int(doc["capacity"])
    slots = [int(row[0]) for row in doc["active"]]
    if sorted(slots + [int(s) for s in doc["free"]]) != list(range(capacity)):
        raise ValueError(
            "checkpoint slot lists are inconsistent: active and free slots must "
            f"be distinct and together cover 0..{capacity - 1}"
        )
    cfg = Configuration(
        window,
        cell_size=doc["cell_size"],
        colored=doc["colored"],
        capacity=capacity,
    )
    d = window.dimension
    rows = np.array(doc["active"], dtype=float).reshape(len(slots), d + 2 + bool(doc["colored"]))
    cfg.centers[slots] = rows[:, 1 : 1 + d]
    cfg.radii[slots] = rows[:, 1 + d]
    if doc["colored"]:
        cfg.colors[slots] = rows[:, 2 + d]
    cfg._active = slots
    cfg._slot_pos[slots] = np.arange(len(slots))
    cfg.index.insert_many(slots, cfg.centers[slots], cfg.radii[slots])
    cfg._free = [int(s) for s in doc["free"]]
    return cfg


def chain_to_json(state: ChainState, sweep: int, trace: list) -> dict:
    return {
        "sweep": sweep,
        "step_count": state.step_count,
        "proposed": state.proposed,
        "accepted": state.accepted,
        "rng": rng_state_to_json(state.rng),
        "config": config_to_json(state.config),
        "trace": trace,
    }


def chain_from_json(doc: dict, params: ModelParams) -> tuple[ChainState, int, list]:
    cfg = config_from_json(doc["config"])
    state = ChainState(
        params=params,
        config=cfg,
        labeling=ClusterLabeling(cfg),
        rng=rng_from_json(doc["rng"]),
        step_count=doc["step_count"],
        proposed={k: int(v) for k, v in doc["proposed"].items()},
        accepted={k: int(v) for k, v in doc["accepted"].items()},
    )
    return state, doc["sweep"], [tuple(r) for r in doc["trace"]]


TRACE_COLUMNS = ["sweep", "count", "n_cc", "largest_component", "accept_birth", "accept_death"]


def _trace_row(state: ChainState, sweep: int):
    pb, ab = state.proposed["birth"], state.accepted["birth"]
    pd_, ad = state.proposed["death"], state.accepted["death"]
    return (
        sweep,
        state.config.n,
        state.labeling.n_components,
        largest_component_size(state),
        (ab / pb) if pb else 0.0,
        (ad / pd_) if pd_ else 0.0,
    )


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
    step = wr_step if colored else bd_step
    per_sweep = (
        max(1, math.ceil(params.total_intensity)) if colored else sweep_size(params)
    )
    if resume_doc is not None:
        state, start_sweep, trace = chain_from_json(resume_doc, params)
    else:
        rng = chain_rng(spec.seed, chain_index)
        state = new_wr_chain(params, rng) if colored else new_chain(params, rng)
        start_sweep, trace = 0, []
    total = spec.burn_in + spec.sweeps
    for sweep in range(start_sweep, total):
        for _ in range(per_sweep):
            step(state)
        if sweep >= spec.burn_in and (sweep - spec.burn_in) % spec.thinning == 0:
            trace.append(_trace_row(state, sweep))
        done = sweep + 1
        if (
            checkpoint_cb is not None
            and spec.checkpoint_every > 0
            and done % spec.checkpoint_every == 0
            and done < total
        ):
            checkpoint_cb(chain_to_json(state, done, trace))
    return state, trace


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_sample_poisson(spec: ExperimentSpec, out: Path) -> int:
    params = spec.model_params()
    rows = []
    for s in range(spec.samples):
        rng = chain_rng(spec.seed, s)
        cfg = sample_poisson_boolean(params, rng)
        save_configuration(cfg, out / f"config_{s:04d}.csv", law_descriptor=spec.law, seed=spec.seed)
        rows.append((s, cfg.n, count_components(cfg)))
    write_csv(
        out / "summary.csv",
        {"subcommand": spec.subcommand, "spec_hash": spec.digest()},
        ["sample", "count", "n_cc"],
        rows,
    )
    return EXIT_OK


def _chain_worker(spec: ExperimentSpec, chain_index: int, colored: bool):
    state, trace = run_traced_chain(spec, chain_index, colored)
    return config_to_json(state.config), trace


def _write_chain_outputs(spec: ExperimentSpec, out: Path, c: int, config_doc, trace):
    write_csv(
        out / f"trace_{c:03d}.csv",
        {"subcommand": spec.subcommand, "chain": c, "seed": spec.seed,
         "spec_hash": spec.digest()},
        TRACE_COLUMNS,
        trace,
    )
    save_configuration(
        config_from_json(config_doc),
        out / f"final_config_{c:03d}.csv",
        law_descriptor=spec.law,
        seed=spec.seed,
    )


def cmd_sample_chain(spec: ExperimentSpec, out: Path, colored: bool) -> int:
    if spec.workers > 1:
        if spec.checkpoint_every or spec.resume:
            raise SpecInvalid("checkpoint/resume runs are single-worker")
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            results = list(
                pool.map(
                    _chain_worker,
                    [spec] * spec.chains,
                    range(spec.chains),
                    [colored] * spec.chains,
                )
            )
        for c, (config_doc, trace) in enumerate(results):
            _write_chain_outputs(spec, out, c, config_doc, trace)
        return EXIT_OK

    resume_doc = None
    start_chain = 0
    finished_traces: dict[int, list] = {}
    if spec.resume:
        with open(spec.resume) as fh:
            doc = json.load(fh)
        if doc["spec_hash"] != spec.digest():
            raise SpecInvalid("checkpoint belongs to a different experiment spec")
        finished_traces = {
            int(k): [tuple(r) for r in v] for k, v in doc.get("finished", {}).items()
        }
        if doc.get("chain") is not None:
            resume_doc = doc["chain"]
            start_chain = doc["chain_index"]
        else:
            start_chain = doc.get("next_chain", 0)
    ckpt = out / "checkpoint.json"

    def save_checkpoint(chain_doc, chain_index, next_chain):
        doc = {
            "spec_hash": spec.digest(),
            "colored": colored,
            "chain": chain_doc,
            "chain_index": chain_index,
            "next_chain": next_chain,
            "finished": {str(k): v for k, v in finished_traces.items()},
        }
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
                (lambda chain_doc, _c=c: save_checkpoint(chain_doc, _c, _c))
                if spec.checkpoint_every
                else None
            ),
        )
        finished_traces[c] = trace
        _write_chain_outputs(spec, out, c, config_to_json(state.config), trace)
        if spec.checkpoint_every:
            save_checkpoint(None, None, c + 1)
    return EXIT_OK


def tmp_doc_default(doc):
    """JSON-serializable view (numpy scalars in traces become plain ints)."""

    def conv(v):
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [conv(x) for x in v]
        if isinstance(v, (np.integer,)):
            return int(v)
        if isinstance(v, (np.floating,)):
            return float(v)
        return v

    return conv(doc)


def cmd_gnz_check(spec: ExperimentSpec, out: Path) -> int:
    rng = chain_rng(spec.seed, 10_000)
    if spec.model == "crcm":
        params = spec.model_params()
        rep = run_chain(
            params,
            chain_rng(spec.seed, 0),
            sweeps=spec.sweeps,
            burn_in=spec.burn_in,
            thin=spec.thinning,
            keep_configs=True,
        )
        rows = gnz_residual_crcm(
            rep.samples,
            params,
            rng=rng,
            inner_points=spec.inner_points,
            rhs_q=(params.q + 1.0) if spec.control == "wrong-q" else None,
        )
    elif spec.model == "wr":
        params = spec.wr_params()
        rep = run_wr_chain(
            params,
            chain_rng(spec.seed, 0),
            sweeps=spec.sweeps,
            burn_in=spec.burn_in,
            thin=spec.thinning,
            keep_configs=True,
        )
        rows = gnz_residual_wr(
            rep.samples,
            params,
            rng=rng,
            inner_points=spec.inner_points,
            drop_constraint=spec.control == "drop-constraint",
        )
    else:
        raise SpecInvalid(f"gnz-check model must be crcm or wr, got {spec.model!r}")
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
    report = fk_consistency_test(
        spec.z,
        int(spec.q),
        spec.radius_law(),
        spec.window_box(),
        rng_seed=spec.seed,
        pairs=spec.chains if spec.chains > 1 else 8,
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
        {"subcommand": spec.subcommand, "control": spec.control, "threshold": report.threshold,
         "rejected": int(report.rejected), "spec_hash": spec.digest(), "pass": int(passed)},
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
    state = new_chain(params, chain_rng(spec.seed, 0))
    hb_counts, hb_ncc = [], []
    for sweep in range(spec.burn_in + spec.sweeps):
        heat_bath_sweep(state, quads, params)
        if sweep >= spec.burn_in and (sweep - spec.burn_in) % spec.thinning == 0:
            hb_counts.append(state.config.n)
            hb_ncc.append(state.n_cc)
    rep = run_chain(
        params,
        chain_rng(spec.seed, 1),
        sweeps=spec.sweeps,
        burn_in=spec.burn_in,
        thin=spec.thinning,
    )
    p_count = stats.ks_2samp(hb_counts, rep.counts, method="asymp").pvalue
    p_ncc = stats.ks_2samp(hb_ncc, rep.n_cc, method="asymp").pvalue
    passed = min(p_count, p_ncc) > 0.01 / 2
    write_csv(
        out / "dlr.csv",
        {"subcommand": spec.subcommand, "spec_hash": spec.digest(), "pass": int(passed)},
        ["statistic", "p_value", "heat_bath_mean", "bd_mean"],
        [
            ("count", p_count, float(np.mean(hb_counts)), float(rep.counts.mean())),
            ("n_cc", p_ncc, float(np.mean(hb_ncc)), float(rep.n_cc.mean())),
        ],
    )
    return EXIT_OK if passed else EXIT_TEST


def cmd_bounds_audit(spec: ExperimentSpec, out: Path) -> int:
    params = spec.model_params()
    w = params.window
    lam_box = (
        Box(*[np.array([float(v) for v in part.split(",")]) for part in spec.lam_box.split(":")])
        if spec.lam_box
        else Box(w.lo + 0.25 * w.sides, w.lo + 0.75 * w.sides)
    )
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
        # telescoping
        balls = list(cfg.iter_balls())
        rng.shuffle(balls)
        probe = Configuration(w, cell_size=cfg.index.cell_size)
        plab = ClusterLabeling(probe)
        total = 0
        for b in balls:
            dlt, hits = plab.insertion_increment(probe, b.center, b.radius)
            slot = probe.add(b.center, b.radius)
            plab.apply_insertion(slot, hits)
            total += dlt
        viol["telescoping"] += total != lab.n_components
        # deletion inverse on one random ball
        if cfg.n:
            slot = cfg.random_active(rng)
            groups = lab.removal_split(cfg, slot)
            ball = cfg.ball(slot)
            cfg.remove(slot)
            lab.apply_removal(slot, groups)
            viol["deletion_inverse"] += lab.n_components != count_components(cfg)
            back, _ = lab.insertion_increment(cfg, ball.center, ball.radius)
            viol["deletion_inverse"] += back != 1 - len(groups)
            slot2 = cfg.add(ball.center, ball.radius)
            _, hits2 = lab.insertion_increment(cfg, ball.center, ball.radius)
            lab.apply_insertion(slot2, [h for h in hits2 if h != slot2])
        # compatibility offset invariance under interior resampling
        ref = compatibility_offset(cfg, lam_box, outer)
        keepers = [b for b in cfg.iter_balls() if not lam_box.contains_point(b.center)]
        for _ in range(20):
            n_new = int(rng.poisson(params.z * lam_box.volume))
            inner = [
                MarkedBall(lam_box.sample_point(rng), params.law.sample_scalar(rng))
                for _ in range(n_new)
            ]
            redone = Configuration.from_balls(w, keepers + inner, cell_size=cfg.index.cell_size)
            if compatibility_offset(redone, lam_box, outer) != ref:
                viol["compatibility"] += 1
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
            cfg = sample_poisson_boolean(params, rng)
            radii_ok = all(
                cfg.radii[s] <= spec.r0
                for s in cfg.active_ids()
                if lam_box.contains_point(cfg.centers[s])
            )
            if not radii_ok:
                continue
            if not (
                analysis.event_Aij(cfg, i, j)
                and analysis.event_Wij(cfg, lam_box, spec.r0, i, j)
            ):
                continue
            if analysis.localization_check(cfg, lam_box, spec.r0, i, j):
                ok += 1
            else:
                fails += 1
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
    geom = analysis.build_shield(spec.alpha, spec.k, w.dimension)
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
    q = int(spec.q)
    rows = []
    for y in spec.floats(spec.y_grid):
        phi = analysis.phi_y(law, y, d)
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
    grid = spec.floats(spec.z_grid) or [0.1, 0.2, 0.4, 0.7]
    rows = []
    all_ok = True
    for gi, z in enumerate(grid):
        configs = []
        for c in range(spec.chains):
            params = ModelParams(z, spec.q, law, w)
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
        bound = analysis.np_bound(z, spec.q, law, law.min_radius, d)
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
    law = spec.radius_law()
    if not isinstance(law, ParetoRadius):
        raise SpecInvalid("coverage-probe expects the heavy-tail law (pareto:d)")
    w = spec.window_box()
    halos = spec.floats(spec.h_grid)
    rng = chain_rng(spec.seed, 0)
    probs = coverage_escalation(
        w, spec.z, law, halos, trials=min(spec.trials, 500), rng=rng, grid_per_axis=48
    )
    write_csv(
        out / "coverage.csv",
        {"subcommand": spec.subcommand, "z": spec.z, "law": spec.law, "spec_hash": spec.digest()},
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
