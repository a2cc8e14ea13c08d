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
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from ._stats import ks_family, ks_pvalue, within
from ._stream import chain_rng, generator, rng_from_json, rng_state_to_json
from .geometry import Box
from .model_core import (
    Configuration,
    ModelParams,
    coverage_escalation,
    open_fresh,
    parse_law,
    poisson_balls,
    save_configuration,
    write_table,
)
from .connectivity import (
    BallGraph,
    ClusterLabeling,
    check_bounds,
    compatibility_offset,
    components,
    increment_c0,
)
from .crcm import (
    TRACE_COLUMNS,
    ChainState,
    bd_step,
    conditional_resample,
    gnz_residuals,
    new_chain,
    run_chain,
    sweep_loop,
    sweep_size,
)
from .widom_rowlinson import WrParams, fk_consistency_test, is_allowed
from . import _stats, analysis

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
            box = Box(lo, hi)
        except Exception as exc:
            raise SpecInvalid(f"bad {key} {text!r} (want 'lo1,lo2:hi1,hi2')") from exc
        if not np.all(box.sides > 0):
            raise SpecInvalid(f"{key} {text!r} has no volume: every side must be positive")
        return box

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
        return spec_checked(parse_law, self.law)

    def model_params(self, q: Optional[float] = None) -> ModelParams:
        q = self.q if q is None else q
        return spec_checked(ModelParams, self.z, q, self.radius_law(), self.window_box())

    def n_colors(self) -> int:
        """q as the integer number of colors the color model needs."""
        if not (2 <= self.q < math.inf and int(self.q) == self.q):
            raise SpecInvalid("the color model needs an integer q >= 2")
        return int(self.q)

    def wr_params(self) -> WrParams:
        return spec_checked(
            WrParams, self.z, float(self.n_colors()), self.radius_law(), self.window_box()
        )

    def floats(self, key: str, zero_ok: bool = False) -> list[float]:
        """The comma list `key`: one or more finite values, each positive,
        or nonnegative where `zero_ok`."""
        text = getattr(self, key)
        try:
            values = [float(v) for v in text.split(",") if v.strip()]
        except ValueError as exc:
            raise SpecInvalid(f"bad {key} {text!r} (want 'v1,v2,...')") from exc
        if not values or not all(0 < v < math.inf or zero_ok and v == 0 for v in values):
            sign = "nonnegative" if zero_ok else "positive"
            raise SpecInvalid(f"bad {key} {text!r}: want one or more finite {sign} values")
        return values

    def ij_pairs(self) -> list[tuple[float, float]]:
        pairs = []
        try:
            for tok in self.ij.split(";"):
                if tok.strip():
                    i_s, j_s = tok.split(":")
                    pairs.append((float(i_s), float(j_s)))
        except ValueError as exc:
            raise SpecInvalid(f"bad ij {self.ij!r} (want 'i1:j1;i2:j2')") from exc
        if any(not 0 <= i < j for i, j in pairs):
            raise SpecInvalid(f"bad ij {self.ij!r}: need 0 <= i < j in every pair")
        return pairs

    def canonical(self) -> str:
        # every field is a str, int or float: no deep copy needed
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        # identity of the trajectory only: where it runs, whether it pauses
        # and where artifacts land are not part
        d.pop("resume")
        d.pop("out")
        d.pop("checkpoint_every")
        return json.dumps(d, sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


# least allowed value of each count field and the seed; burn-in and checkpoints may be off
MINIMUMS = {
    "sweeps": 1, "thinning": 1, "chains": 1, "samples": 1, "trials": 1,
    "inner_points": 1, "n_pack": 1, "burn_in": 0, "checkpoint_every": 0, "seed": 0,
}


def load_spec(subcommand: str, config_path: Optional[str], overrides: dict) -> ExperimentSpec:
    """The spec of `subcommand`: its defaults, then the config file, then `overrides`."""
    cmd = COMMANDS[subcommand]
    spec = ExperimentSpec(subcommand=subcommand, **cmd.defaults)
    takes = sorted({*cmd.keys, "seed", "out"})
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
        if key not in takes:  # an unknown key too
            raise SpecInvalid(f"{subcommand} does not read {key!r}: it takes {', '.join(takes)}")
        typ = type(getattr(spec, key))
        try:
            value = typ(val)
        except ValueError as exc:
            raise SpecInvalid(f"bad value for {key}: {val!r}") from exc
        if typ is float and not math.isfinite(value):
            raise SpecInvalid(f"{key} must be finite, got {val!r}")
        setattr(spec, key, value)
    for key, least in MINIMUMS.items():
        if getattr(spec, key) < least:
            raise SpecInvalid(f"{key} must be at least {least}, got {getattr(spec, key)}")
    recorded = len(range(0, spec.sweeps, spec.thinning)) * (spec.chains if cmd.pooled else 1)
    if recorded < cmd.recorded:
        raise SpecInvalid(f"{subcommand} needs at least {cmd.recorded} recorded sweeps, got {recorded}")
    if spec.r0 < 0:
        raise SpecInvalid(f"r0 must be nonnegative, got {spec.r0}")
    if not (spec.border > 0 or spec.border == -1):
        raise SpecInvalid(f"border must be positive or -1 (the 99% radius quantile), got {spec.border}")
    model = spec.model if "model" in cmd.keys else None
    if model is not None and model not in cmd.controls:
        raise SpecInvalid(f"{subcommand} takes model {' or '.join(cmd.controls)}, got {model!r}")
    allowed = sorted({"none", cmd.controls.get(model, "none")})
    if spec.control not in allowed:
        what = f"{subcommand} model={model}" if model else subcommand
        raise SpecInvalid(f"{what} takes control {' or '.join(allowed)}, got {spec.control!r}")
    return spec


# ---------------------------------------------------------------------------
# CSV and manifest plumbing
# ---------------------------------------------------------------------------


# the files the running subcommand wrote, for its manifest; `main` empties it
written: set[str] = set()


def write_csv(
    spec: ExperimentSpec, out: Path, name: str, meta: dict, columns: list[str], rows,
    ok: Optional[bool] = None,
) -> int:
    """Write the table `out / name` under one header line: the subcommand,
    `meta` in order, the spec hash (unless `meta` places it) and, for a check
    with outcome `ok` (no statistic past its gate), its verdict `pass`, flipped
    under a `control` in `meta`.  Returns the verdict's exit code."""
    head = {"subcommand": spec.subcommand, **meta}
    if "spec_hash" not in head:
        head["spec_hash"] = spec.digest()
    if ok is not None:
        # a control runs the check against a wrong model: it passes when the check fails
        head["pass"] = int(ok if meta.get("control", "none") == "none" else not ok)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / name, head, columns, rows)
    written.add(name)
    return EXIT_TEST if head.get("pass") == 0 else EXIT_OK


def save_config(spec: ExperimentSpec, out: Path, name: str, window: Box, balls: tuple) -> None:
    """`save_configuration` to `out / name`, tagged with the spec's law and seed."""
    save_configuration(window, balls, out / name, law_descriptor=spec.law, seed=spec.seed)
    written.add(name)


def spec_chain(spec: ExperimentSpec, params: ModelParams, key: tuple, **kw):
    """`run_chain` of `params` on the spec's stream `key` with the spec's
    burn-in, sweeps and thinning."""
    return run_chain(
        params, chain_rng(spec.seed, *key),
        sweeps=spec.sweeps, burn_in=spec.burn_in, thin=spec.thinning, **kw,
    )


def write_manifest(out: Path, spec: ExperimentSpec, wall: float, extra=None):
    """`out / manifest.json`: the spec, its hash, versions, wall time, the
    files this subcommand wrote (`written`) and `extra`."""
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
        "outputs": sorted(written),
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


def _count(v) -> int:
    """`v` if it is a nonnegative integer; ValueError otherwise."""
    if type(v) is not int or v < 0:
        raise ValueError(f"want a nonnegative integer, got {v!r}")
    return v


def chain_from_json(doc: dict, params: ModelParams) -> tuple[ChainState, int, list]:
    """Inverse of chain_to_json for a chain of `params`; raises ValueError
    on any malformed field, on colors outside 1..q or not allowed, and on
    move counters no chain leaves (one proposal per step at most)."""
    try:
        colors = doc["colors"] if isinstance(params, WrParams) else None
        if colors is not None and not all(type(c) is int and 0 < c <= params.q for c in colors):
            raise ValueError(f"colors must be integers in 1..{params.n_colors}")
        cfg = Configuration.from_arrays(
            params.window, doc["centers"], doc["radii"], colors, cell_size=params.cell_size
        )
        if colors is not None and not is_allowed(*cfg.arrays()):
            raise ValueError("balls of different colors overlap")
        moves = ("birth", "death", "recolor")
        state = ChainState(
            params=params,
            config=cfg,
            rng=rng_from_json(doc["rng"]),
            step_count=_count(doc["step_count"]),
            proposed={k: _count(doc["proposed"][k]) for k in moves},
            accepted={k: _count(doc["accepted"][k]) for k in moves},
        )
        if any(state.accepted[k] > state.proposed[k] for k in moves):
            raise ValueError(f"more moves accepted than proposed: {doc['accepted']!r}")
        if sum(state.proposed.values()) > state.step_count:
            raise ValueError(f"more moves proposed than steps taken: {state.step_count}")
        return state, _count(doc["sweep"]), [tuple(r) for r in doc["trace"]]
    except (KeyError, TypeError, AttributeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed chain document: {type(exc).__name__}: {exc}") from exc


def check_trace(trace: list, recorded: range) -> None:
    """ValueError unless `trace` holds one row per sweep in `recorded`:
    that sweep, two counts and the largest component size (integers), then
    two acceptance rates in [0, 1], as `trace_row` writes them."""
    if len(trace) != len(recorded):
        raise ValueError(f"{len(trace)} trace rows for {len(recorded)} recorded sweeps")
    for row, sweep in zip(trace, recorded):
        if (
            len(row) != len(TRACE_COLUMNS)
            or row[0] != sweep
            or any(type(v) is not int or v < 0 for v in row[:4])
            or any(type(v) not in (int, float) or not 0 <= v <= 1 for v in row[4:])
        ):
            raise ValueError(f"trace row {list(row)!r} is not a row of sweep {sweep}")


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
    total = spec.burn_in + spec.sweeps
    if resume_doc is not None:
        try:
            state, start_sweep, trace = chain_from_json(resume_doc, params)
            if start_sweep > total:
                raise ValueError(f"sweep {start_sweep} is past the run's last sweep {total}")
            if state.step_count != start_sweep * sweep_size(params):
                raise ValueError(f"{state.step_count} steps in {start_sweep} sweeps")
            check_trace(trace, range(spec.burn_in, start_sweep, spec.thinning))
        except ValueError as exc:
            raise SpecInvalid(f"checkpoint {spec.resume} holds no chain of this run: {exc}") from exc
    else:
        state = new_chain(params, chain_rng(spec.seed, chain_index))
        start_sweep, trace = 0, []

    def checkpoint(done: int, recorded: bool) -> None:
        if spec.checkpoint_every > 0 and done % spec.checkpoint_every == 0 and done < total:
            checkpoint_cb(chain_to_json(state, done, trace))

    sweep_loop(
        state,
        bd_step,
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
    params = spec.model_params(q=1.0)
    w = params.window
    rows = []
    for s in range(spec.samples):
        rng = chain_rng(spec.seed, s)
        centers, radii = poisson_balls(w, params.law, params.total_intensity, rng)
        save_config(spec, out, f"config_{s:04d}.csv", w, (centers, radii, None))
        rows.append((s, radii.size, components(centers, radii)[0]))
    return write_csv(spec, out, "summary.csv", {}, ["sample", "count", "n_cc"], rows)


def cmd_sample_chain(spec: ExperimentSpec, out: Path) -> int:
    colored = spec.subcommand == "sample-wr"
    resume_doc = None
    start_chain = 0
    if spec.resume:
        try:
            doc = json.loads(Path(spec.resume).read_text())
        except (OSError, ValueError) as exc:
            raise SpecInvalid(f"cannot read checkpoint {spec.resume}: {exc}") from exc
        if not isinstance(doc, dict) or not {"spec_hash", "next_chain"} <= doc.keys():
            raise SpecInvalid(f"{spec.resume} is not a checkpoint file")
        if doc["spec_hash"] != spec.digest():
            raise SpecInvalid("checkpoint belongs to a different experiment spec")
        resume_doc = doc.get("chain")  # None between chains
        start_chain = doc["next_chain"]
        if type(start_chain) is not int or not 0 <= start_chain <= spec.chains:
            raise SpecInvalid(f"{spec.resume}: next_chain {start_chain!r} is not in 0..{spec.chains}")
    ckpt = out / "checkpoint.json"

    def save_checkpoint(chain_doc, next_chain):
        doc = {"spec_hash": spec.digest(), "chain": chain_doc, "next_chain": next_chain}
        tmp = ckpt.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        tmp.replace(ckpt)

    for c in range(start_chain, spec.chains):
        state, trace = run_traced_chain(
            spec,
            c,
            colored,
            resume_doc=resume_doc if c == start_chain else None,
            checkpoint_cb=lambda chain_doc: save_checkpoint(chain_doc, c),
        )
        write_csv(spec, out, f"trace_{c:03d}.csv", {"chain": c, "seed": spec.seed},
                  TRACE_COLUMNS, trace)
        save_config(spec, out, f"final_config_{c:03d}.csv", state.config.window,
                    state.config.arrays())
        if spec.checkpoint_every:
            save_checkpoint(None, c + 1)
    return EXIT_OK


def cmd_gnz_check(spec: ExperimentSpec, out: Path) -> int:
    params = spec.model_params() if spec.model == "crcm" else spec.wr_params()
    rep = spec_chain(spec, params, (0,), keep_configs=True)
    # a negative control tests the same samples against a wrong model
    tested = {
        "none": params,
        "wrong-q": dataclasses.replace(params, q=params.q + 1.0),
        "drop-constraint": ModelParams(params.z, 1.0, params.law, params.window),
    }[spec.control]
    rows = gnz_residuals(rep.samples, tested, rng=chain_rng(spec.seed, 0, 0),
                         inner_points=spec.inner_points)
    return write_csv(
        spec, out, "gnz.csv", {"model": spec.model, "control": spec.control},
        ["statistic", "lhs", "rhs", "se", "residual"],
        [(r.name, r.lhs, r.rhs, r.se, r.residual) for r in rows],
        all(r.residual < _stats.RESIDUAL_LIMIT for r in rows),
    )


def cmd_fk_check(spec: ExperimentSpec, out: Path) -> int:
    report = fk_consistency_test(
        spec.wr_params(),
        rng_seed=spec.seed,
        pairs=spec.chains,
        sweeps=spec.sweeps,
        burn_in=spec.burn_in,
        thin=spec.thinning,
        crcm_z=spec.z if spec.control == "mismatch" else None,
    )
    rows = [(s, name, p) for s, ps in enumerate(report.p_values)
            for name, p in zip(report.statistics, ps)]
    return write_csv(
        spec, out, "fk.csv",
        {"control": spec.control, "pairs": spec.chains, "threshold": report.threshold,
         "rejected": int(report.rejected)},
        ["pair", "statistic", "p_value"],
        rows,
        not report.rejected,
    )


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

    def heat_bath(state: ChainState) -> ChainState:
        for box in quads:
            conditional_resample(state, box)
        return state

    hb = spec_chain(spec, params, (0,), step=heat_bath, per_sweep=1)
    rep = spec_chain(spec, params, (1,))
    p_count = ks_pvalue(hb.counts, rep.counts)
    p_ncc = ks_pvalue(hb.n_cc, rep.n_cc)
    return write_csv(
        spec, out, "dlr.csv", {},
        ["statistic", "p_value", "heat_bath_mean", "bd_mean"],
        [
            ("count", p_count, float(hb.counts.mean()), float(rep.counts.mean())),
            ("n_cc", p_ncc, float(hb.n_cc.mean()), float(rep.n_cc.mean())),
        ],
        not ks_family(np.array([p_count, p_ncc]))[1],
    )


def cmd_bounds_audit(spec: ExperimentSpec, out: Path) -> int:
    params = spec.model_params(q=1.0)
    w = params.window
    lam_box = spec.lam_box_in(w)
    # the increment lower bound holds when every radius >= the law's minimum
    c0 = spec_checked(increment_c0, params.law.min_radius, w.dimension)
    vacuous = 0  # lower checks with a ball in lam_box larger than r0: no pass
    viol = dict.fromkeys(["upper", "lower", "increment_above", "increment_below", "telescoping",
                          "deletion_inverse", "compatibility"], 0)
    grow = 0.2 * w.sides
    outer = Box(np.maximum(w.lo, lam_box.lo - grow), np.minimum(w.hi, lam_box.hi + grow))
    rng_ins = chain_rng(spec.seed, 0, 0)
    for s in range(spec.samples):
        rng = chain_rng(spec.seed, s)
        centers, radii = poisson_balls(w, params.law, params.total_intensity, rng)
        # every from-scratch count of the sample reads this one pair list
        graph = BallGraph.of(centers, radii)
        rep = check_bounds(graph, w, lam_box, spec.r0)
        viol["upper"] += not rep.upper_ok
        viol["lower"] += not rep.lower_ok
        vacuous += rep.lower_vacuous
        # the labeling under test, built ball by ball in a uniform order taken
        # zone by zone (slot k holds ball order[k]): balls centred outside
        # outer, then outside lam_box, then in it; its increments must telescope
        zone = outer.contains_points(centers).astype(np.int64) + lam_box.contains_points(centers)
        order = rng.permutation(radii.size)
        order = order[np.argsort(zone[order], kind="stable")]
        cfg = Configuration(w, params.cell_size)
        lab = ClusterLabeling(cfg)
        before = []  # its count as each zone begins: 0, ncc(outside outer), ncc(outside lam_box)
        total = 0
        for part in np.split(order, np.searchsorted(zone[order], [1, 2])):
            before.append(lab.n_components)
            for k in part:
                dlt, hits = lab.insertion_increment(cfg, centers[k], radii[k])
                lab.apply_insertion(cfg.add(centers[k], radii[k]), hits)
                total += dlt
        n_cc = graph.count()
        viol["telescoping"] += total != n_cc or lab.n_components != n_cc
        # compatibility offset: its closed form against the labeling's counts
        offset = compatibility_offset(graph, lam_box, outer, w)
        viol["compatibility"] += offset != before[2] - before[1]
        # single-ball increment window and lower bound (radii >= min_radius)
        ball_c = w.sample_point(rng_ins)
        ball_r = params.law.sample_scalar(rng_ins)
        delta, _ = lab.insertion_increment(cfg, ball_c, ball_r)
        viol["increment_above"] += delta > 1
        viol["increment_below"] += delta < -c0 * ball_r**w.dimension
        # deletion inverse on one random ball
        if cfg.n:
            slot = cfg.random_active(rng)
            others = np.arange(cfg.n) != order[slot]
            groups = lab.removal_split(slot)
            center, radius = cfg.index.balls[slot]
            cfg.remove(slot)
            lab.apply_removal(slot, groups)
            viol["deletion_inverse"] += lab.n_components != graph.count(others)
            back, _ = lab.insertion_increment(cfg, center, radius)
            viol["deletion_inverse"] += back != 1 - len(groups)
        # the offset reads only the balls outside lam_box (zone < 2): a
        # resample of the interior of lam_box keeps it
        new_c, new_r = poisson_balls(lam_box, params.law, params.z * lam_box.volume, rng)
        redone = BallGraph.of(
            np.vstack([centers[zone < 2], new_c]), np.concatenate([radii[zone < 2], new_r])
        )
        viol["compatibility"] += compatibility_offset(redone, lam_box, outer, w) != offset
    total_viol = sum(viol.values())
    print(f"bounds-audit: {total_viol} violations over {spec.samples} configurations, {vacuous} vacuous")
    return write_csv(
        spec, out, "bounds.csv",
        {"configs": spec.samples, "spec_hash": spec.digest(), "violations": total_viol,
         "vacuous": vacuous},
        ["check", "violations"],
        sorted(viol.items()),
        total_viol == 0 and vacuous == 0,
    )


def cmd_localization(spec: ExperimentSpec, out: Path) -> int:
    params = spec.model_params()
    w = params.window
    lam_box = Box(w.lo + 0.45 * w.sides, w.lo + 0.55 * w.sides)
    pairs = spec.ij_pairs()
    for _, j in pairs:
        # a window inside [-j, j]^d makes A_ij and W_ij hold on every sample
        if not (np.all(w.lo < -j) and np.all(w.hi > j)):
            raise SpecInvalid(
                f"window {spec.window!r} must strictly contain [-{j:g}, {j:g}]^{w.dimension} "
                f"for j={j:g}"
            )
    rows = []
    for k, (i, j) in enumerate(pairs):
        rng = chain_rng(spec.seed, k)
        ok = fails = tried = 0
        while ok + fails < spec.samples and tried < 400 * spec.samples:
            tried += 1
            centers, radii = poisson_balls(w, params.law, params.total_intensity, rng)
            try:
                held = analysis.localization_check(centers, radii, lam_box, spec.r0, i, j)
            except analysis.PreconditionEventFailed:
                continue  # outside the conditioning events: not a sample
            ok += held
            fails += not held
        rows.append((i, j, ok + fails, fails))
    return write_csv(
        spec, out, "localization.csv", {}, ["i", "j", "conditioned_samples", "failures"], rows,
        all(n == spec.samples and bad == 0 for _, _, n, bad in rows),  # no shortfall either
    )


def cmd_shield(spec: ExperimentSpec, out: Path) -> int:
    w = spec.window_box()
    geom = spec_checked(analysis.build_shield, spec.alpha, spec.k, w.dimension)
    rng = chain_rng(spec.seed, 0)
    bad_in, bad_out = analysis.shield_covering_trials(geom, spec.trials, rng)
    status = write_csv(
        spec, out, "shield.csv", {},
        ["alpha", "k", "dim", "d1", "d2", "trials", "inner_violations", "outer_violations"],
        [(geom.alpha, geom.k, geom.dim, geom.d1, geom.d2, spec.trials, bad_in, bad_out)],
        bad_in == 0 and bad_out == 0,
    )
    print(
        f"shield d={geom.dim} alpha={geom.alpha} k={geom.k}: D1={geom.d1} D2={geom.d2} "
        f"covering test: {bad_in + bad_out} violations / {spec.trials}"
    )
    return status


def cmd_entropy_bounds(spec: ExperimentSpec, out: Path) -> int:
    law = spec.radius_law()
    d = spec.window_box().dimension
    q = spec.n_colors()
    ys = spec.floats("y_grid")
    phis = [spec_checked(analysis.phi_y, law, y, d) for y in ys]
    try:
        roots = [analysis.psi_root(q, y, phi, d) for y, phi in zip(ys, phis)]
    except ValueError as exc:
        raise SpecInvalid(f"bad y_grid {spec.y_grid!r}: {exc}") from exc
    rows = []
    for y, phi, z_y in zip(ys, phis, roots):
        z_probes = np.linspace(z_y / 8, z_y, 8)
        for z in z_probes:
            upper = analysis.wr_entropy_upper(z, q, y, law, spec.n_pack, d)
            lower = analysis.mono_lower_bound(z, q)
            rows.append((y, phi, z_y, float(z), upper, lower, int(upper < lower)))
    return write_csv(
        spec, out, "entropy_bounds.csv", {"q": q, "law": spec.law, "n_pack": spec.n_pack},
        ["y", "phi_y", "z_y", "z", "upper_bound", "mono_lower_bound", "separated"],
        rows,
    )


def cmd_np_decay(spec: ExperimentSpec, out: Path) -> int:
    law = spec.radius_law()
    w = spec.window_box()
    border = spec.border if spec.border > 0 else law.quantile(0.99)
    grid = spec.floats("z_grid")
    # every value the estimate and its bound need, checked before any chain runs
    spec_checked(analysis.eroded_window, w, border)
    models = [spec_checked(ModelParams, z, spec.q, law, w) for z in grid]
    bounds = [spec_checked(analysis.np_bound, z, spec.q, law, w.dimension) for z in grid]
    rows = []
    for gi, (z, params, bound) in enumerate(zip(grid, models, bounds)):
        configs = []
        for c in range(spec.chains):
            configs.extend(spec_chain(spec, params, (gi, c), keep_configs=True).samples)
        est = analysis.estimate_NP(configs, w, border)
        rows.append((z, est.value, est.se, bound, int(within(est.value, bound, est.se))))
    return write_csv(
        spec, out, "np_decay.csv", {"q": spec.q, "law": spec.law, "border": border},
        ["z", "np_hat", "se", "bound", "below_bound"],
        rows,
        all(row[4] for row in rows),
    )


def cmd_coverage_probe(spec: ExperimentSpec, out: Path) -> int:
    params = spec.model_params(q=1.0)
    d = params.window.dimension
    # the paper's regime: radii not integrable, an infinite d-moment
    if params.law.finite_d_moment(d):
        raise SpecInvalid(f"coverage-probe needs a law with an infinite {d}-moment, "
                          f"got law {spec.law!r}")
    halos = spec.floats("h_grid", zero_ok=True)
    rng = chain_rng(spec.seed, 0)
    probs = coverage_escalation(params.window, params.z, params.law, halos, trials=spec.trials,
                                rng=rng)
    return write_csv(
        spec, out, "coverage.csv", {"z": spec.z, "law": spec.law, "trials": spec.trials},
        ["halo", "coverage_probability"],
        list(zip(sorted(halos), probs)),
    )


class Command(NamedTuple):
    """A subcommand: what runs it, the spec keys it reads (it takes no other
    but `seed` and `out`), its own defaults, its control besides "none" by
    model (None: it reads no `model`) and the recorded sweeps it needs
    (sweeps / thinning) per chain, or over its chains where `pooled`."""

    run: Callable[[ExperimentSpec, Path], int]
    keys: tuple[str, ...]
    defaults: dict = {}
    controls: dict = {}
    recorded: int = 0
    pooled: bool = False


POISSON = ("z", "law", "window")  # what `model_params(q=1.0)` reads
MODEL = (*POISSON, "q")  # ... and `model_params()`
CHAIN = (*MODEL, "sweeps", "burn_in", "thinning")  # ... and `spec_chain`
SAMPLE_CHAIN = (*CHAIN, "chains", "checkpoint_every", "resume")

# each coverage-probe trial samples and certifies a whole dilated box, so the
# shared 100,000 trials would take a minute; fk-check runs one seed pair per chain
COMMANDS = {
    "sample-poisson": Command(cmd_sample_poisson, (*POISSON, "samples")),
    "sample-crcm": Command(cmd_sample_chain, SAMPLE_CHAIN),
    "sample-wr": Command(cmd_sample_chain, SAMPLE_CHAIN),
    "gnz-check": Command(cmd_gnz_check, (*CHAIN, "model", "control", "inner_points"),
                         controls={"crcm": "wrong-q", "wr": "drop-constraint"}, recorded=100),
    "fk-check": Command(cmd_fk_check, (*CHAIN, "chains", "control"), defaults={"chains": 8},
                        controls={None: "mismatch"}, recorded=2),
    "dlr-check": Command(cmd_dlr_check, CHAIN, recorded=2),
    "bounds-audit": Command(cmd_bounds_audit, (*POISSON, "samples", "lam_box", "r0")),
    "localization": Command(cmd_localization, (*MODEL, "samples", "ij", "r0")),
    "shield": Command(cmd_shield, ("window", "alpha", "k", "trials")),
    "entropy-bounds": Command(cmd_entropy_bounds, ("q", "law", "window", "y_grid", "n_pack")),
    "np-decay": Command(cmd_np_decay, (*CHAIN[1:], "chains", "z_grid", "border"),  # z: z_grid
                        defaults={"z_grid": "0.1,0.2,0.4,0.7"}, recorded=2, pooled=True),
    "coverage-probe": Command(cmd_coverage_probe, (*POISSON, "h_grid", "trials"),
                              defaults={"trials": 2000}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crcmlab",
        description="simulation and verification lab for cluster-weighted and "
        "hard-core-color ball models",
    )
    parser.add_argument("subcommand", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--chains", type=int, help="number of chains / seed pairs")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--resume", help="checkpoint file to continue from")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="set a spec key the subcommand reads")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return EXIT_SPEC
    overrides = {k: getattr(args, k) for k in ("seed", "chains", "out", "resume")}
    for item in args.set:
        if "=" not in item:
            print(f"bad --set {item!r}: want KEY=VALUE", file=sys.stderr)
            return EXIT_SPEC
        k, _, v = item.partition("=")
        overrides[k.strip()] = v.strip()
    out = None
    try:
        spec = load_spec(args.subcommand, args.config, overrides)
        out = Path(spec.out)
        out.mkdir(parents=True, exist_ok=True)
        written.clear()
        start = time.time()
        status = COMMANDS[spec.subcommand].run(spec, out)
        write_manifest(out, spec, time.time() - start, extra={"exit_status": status})
        return status
    except SpecInvalid as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except Exception as exc:  # runtime failure
        error = f"{type(exc).__name__}: {exc}"
        print(f"runtime error: {error}", file=sys.stderr)
        if out is not None and out.is_dir():  # leave the traceback and a manifest
            (out / "error.txt").write_text(traceback.format_exc())
            write_manifest(out, spec, time.time() - start,
                           extra={"exit_status": EXIT_RUNTIME, "error": error})
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
