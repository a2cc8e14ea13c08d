"""Finite-volume cluster-weighted ball process: birth-death Metropolis
chains targeting the density q^(number of components) against the Poisson
reference, a self-normalized importance-sampling oracle exact at desk scale,
conditional resampling of a sub-box, and identity/domination/entropy
diagnostics."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import Box, MarkedBall, default_cell_size, dilate, unit_ball_volume
from .model_core import Configuration, ModelParams, sample_poisson_boolean
from .connectivity import ClusterLabeling, components, count_components, local_count
# local_cc stays importable from this module: the tracer self-test in benchmarks/ relies on it
from .connectivity import local_cc  # noqa: F401
from .analysis import tilted_law
from ._stats import (
    batch_means_se,
    effective_sample_size,
    integrated_autocorr_time,
    weighted_ratio_estimate,
)


class AssumptionAViolated(ValueError):
    """q < 1 with unbounded radii: the Gibbs weights are not normalizable."""


class DegenerateWeights(RuntimeError):
    """Importance weights collapsed onto too few samples."""


class RejectionBudgetExceeded(UserWarning):
    """Conditional rejection sampling gave up; nested chain fallback used."""


# ---------------------------------------------------------------------------
# Chain state
# ---------------------------------------------------------------------------


@dataclass
class ChainState:
    """One birth-death chain: configuration, labeling, cached component
    count (audited against a from-scratch recount), and its random stream."""

    params: ModelParams
    config: Configuration
    labeling: ClusterLabeling
    rng: np.random.Generator
    step_count: int = 0
    audit_interval: int = 10_000
    proposed: dict = field(default_factory=lambda: {"birth": 0, "death": 0, "recolor": 0})
    accepted: dict = field(default_factory=lambda: {"birth": 0, "death": 0, "recolor": 0})

    @property
    def n_cc(self) -> int:
        return self.labeling.n_components

    def audit(self) -> None:
        fresh = count_components(self.config)
        if fresh != self.labeling.n_components:
            raise RuntimeError(
                f"cached component count {self.labeling.n_components} != {fresh}"
            )

    def maybe_audit(self) -> None:
        if self.audit_interval and self.step_count % self.audit_interval == 0:
            self.audit()


def new_chain(
    params: ModelParams,
    rng: np.random.Generator,
    init: str = "poisson",
    audit_interval: int = 10_000,
) -> ChainState:
    if not params.assumption_a:
        raise AssumptionAViolated(
            "q < 1 requires a radius law with bounded support"
        )
    if init == "poisson":
        cfg = sample_poisson_boolean(params, rng)
    elif init == "empty":
        cell = default_cell_size(params.window, params.law.median())
        cfg = Configuration(params.window, cell_size=cell)
    else:
        raise ValueError(f"unknown init {init!r}")
    return ChainState(
        params=params,
        config=cfg,
        labeling=ClusterLabeling(cfg),
        rng=rng,
        audit_interval=audit_interval,
    )


# ---------------------------------------------------------------------------
# Birth-death kernel
# ---------------------------------------------------------------------------


def papangelou_weight(state: ChainState, ball: MarkedBall) -> float:
    """Conditional insertion intensity z * q^(component-count change)."""
    delta, _ = state.labeling.insertion_increment(state.config, ball.center, ball.radius)
    return state.params.z * state.params.q**delta


def birth_ratio(state: ChainState, center, radius) -> tuple[float, int, list[int]]:
    """Unclipped acceptance ratio for inserting a ball, with its increment
    and the slots it touches."""
    delta, hits = state.labeling.insertion_increment(state.config, center, radius)
    p = state.params
    return p.total_intensity * p.q**delta / (state.config.n + 1), delta, hits


def death_ratio(state: ChainState, slot: int) -> tuple[float, list[list[int]]]:
    """Unclipped acceptance ratio for deleting a slot, with the sub-component
    split of its component."""
    groups = state.labeling.removal_split(state.config, slot)
    delta_re = 1 - len(groups)  # increment of re-adding the ball
    p = state.params
    return state.config.n * p.q ** (-delta_re) / p.total_intensity, groups


def bd_step(state: ChainState, params: Optional[ModelParams] = None) -> ChainState:
    """One birth-death proposal: equal-probability birth (uniform center,
    law radius) or death (uniform ball), Metropolis-accepted against the
    cluster-weighted density.  Mutates and returns the state."""
    p = params if params is not None else state.params
    rng = state.rng
    cfg = state.config
    lab = state.labeling
    lam = p.total_intensity
    q = p.q
    state.step_count += 1
    if rng.random() < 0.5:
        state.proposed["birth"] += 1
        center = cfg.window.sample_point(rng)
        radius = p.law.sample_scalar(rng)
        delta, hits = lab.insertion_increment(cfg, center, radius)
        ratio = lam * q**delta / (cfg.n + 1)
        if ratio >= 1.0 or rng.random() < ratio:
            slot = cfg.add(center, radius)
            lab.apply_insertion(slot, hits)
            state.accepted["birth"] += 1
    else:
        state.proposed["death"] += 1
        if cfg.n > 0:
            slot = cfg.random_active(rng)
            groups = lab.removal_split(cfg, slot)
            ratio = cfg.n * q ** (len(groups) - 1) / lam
            if ratio >= 1.0 or rng.random() < ratio:
                cfg.remove(slot)
                lab.apply_removal(slot, groups)
                state.accepted["death"] += 1
    state.maybe_audit()
    return state


# ---------------------------------------------------------------------------
# Chain driver
# ---------------------------------------------------------------------------


@dataclass
class SamplerReport:
    """Per-sweep traces and acceptance bookkeeping for one chain."""

    sweeps: np.ndarray
    counts: np.ndarray
    n_cc: np.ndarray
    largest: np.ndarray
    accept_rates: dict
    iact_count: float
    ess_count: float
    state: ChainState
    samples: list  # retained decorrelated configuration snapshots

    def trace_rows(self):
        """(sweep, count, n_cc, largest_component, accept_birth, accept_death)."""
        ab = self.accept_rates.get("birth", 0.0)
        ad = self.accept_rates.get("death", 0.0)
        for t in range(self.sweeps.size):
            yield (
                int(self.sweeps[t]),
                int(self.counts[t]),
                int(self.n_cc[t]),
                int(self.largest[t]),
                ab,
                ad,
            )


def largest_component_size(state: ChainState) -> int:
    sizes = state.labeling.component_sizes(state.config)
    return max(sizes.values()) if sizes else 0


def sweep_size(params: ModelParams) -> int:
    """Proposals per sweep: the dominating mean point count.

    Fixed per run on purpose: tying the sweep length to the current count
    would make recording times state-dependent and size-bias the trace toward
    sparse states."""
    return max(1, math.ceil(max(params.q, 1.0) * params.total_intensity))


def run_chain(
    params: ModelParams,
    rng: np.random.Generator,
    sweeps: int = 400,
    burn_in: int = 200,
    thin: int = 2,
    step: Callable[[ChainState], ChainState] = bd_step,
    state: Optional[ChainState] = None,
    keep_configs: bool = False,
    audit_interval: int = 10_000,
    per_sweep: Optional[int] = None,
) -> SamplerReport:
    """Run a chain for `burn_in + sweeps` sweeps (one sweep = a fixed number
    of proposals, the dominating mean count) recording every `thin`-th sweep."""
    if state is None:
        state = new_chain(params, rng, audit_interval=audit_interval)
    if per_sweep is None:
        per_sweep = sweep_size(params)
    recorded = []
    for sweep in range(burn_in + sweeps):
        for _ in range(per_sweep):
            step(state)
        if sweep >= burn_in and (sweep - burn_in) % thin == 0:
            recorded.append(
                (
                    sweep,
                    state.config.n,
                    state.n_cc,
                    largest_component_size(state),
                    state.config.copy() if keep_configs else None,
                )
            )
    sweeps_arr = np.array([r[0] for r in recorded], dtype=np.int64)
    counts = np.array([r[1] for r in recorded], dtype=np.int64)
    n_cc = np.array([r[2] for r in recorded], dtype=np.int64)
    largest = np.array([r[3] for r in recorded], dtype=np.int64)
    rates = {
        kind: (state.accepted[kind] / state.proposed[kind] if state.proposed[kind] else 0.0)
        for kind in state.proposed
    }
    cf = counts.astype(float)
    return SamplerReport(
        sweeps=sweeps_arr,
        counts=counts,
        n_cc=n_cc,
        largest=largest,
        accept_rates=rates,
        iact_count=integrated_autocorr_time(cf),
        ess_count=effective_sample_size(cf),
        state=state,
        samples=[r[4] for r in recorded] if keep_configs else [],
    )


# ---------------------------------------------------------------------------
# Importance-sampling oracle
# ---------------------------------------------------------------------------


def _reference_draws(params: ModelParams, n_samples: int, rng: np.random.Generator):
    """Vectorized Poisson reference draws: per-sample counts and component
    counts, all draws labeled in one kernel call (one group per draw)."""
    counts = rng.poisson(params.total_intensity, size=n_samples)
    total = int(counts.sum())
    centers = params.window.sample_points(rng, total)
    radii = np.asarray(params.law.sample(rng, total), dtype=float)
    draw = np.repeat(np.arange(n_samples), counts)
    n_comp, labels = components(centers, radii, draw)
    owner = np.zeros(n_comp, dtype=np.int64)
    owner[labels] = draw
    n_cc = np.bincount(owner, minlength=n_samples)
    return counts.astype(np.int64), n_cc.astype(np.int64)


def _log_weight_summary(logw: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Weights rescaled by exp(-max log weight), the log of their raw mean
    (ln z_hat) and the relative standard error z_hat_se / z_hat; nothing is
    exponentiated unscaled, so huge q^n_cc cannot overflow."""
    top = float(logw.max())
    w = np.exp(logw - top)
    mean = float(w.mean())
    rel_se = float(w.std(ddof=1)) / (mean * math.sqrt(w.size))
    return w, top + math.log(mean), rel_se


_LN_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass
class OracleResult:
    estimate: float
    se: float
    z_hat: float
    z_hat_se: float
    ess: float
    n_samples: int
    ln_z_hat: float


def importance_oracle(
    params: ModelParams,
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_samples: int,
    rng: np.random.Generator,
    min_ess: float = 50.0,
) -> OracleResult:
    """Self-normalized importance estimate of a statistic under the
    cluster-weighted law, from Poisson reference draws reweighted by
    q^(component count).  `f` maps (counts, n_cc) arrays to per-sample values.

    Also returns the raw mean of the weights, an unbiased estimate of the
    normalizing constant, and its logarithm (z_hat is inf beyond the float
    range; ln_z_hat stays finite)."""
    if not params.assumption_a:
        raise AssumptionAViolated("q < 1 requires a bounded-support law")
    if n_samples < 1000:
        raise ValueError("need at least 10^3 reference draws")
    counts, n_cc = _reference_draws(params, n_samples, rng)
    w, ln_z, rel_se = _log_weight_summary(n_cc.astype(float) * math.log(params.q))
    ess = float(w.sum() ** 2 / (w @ w))
    if ess < min_ess:
        raise DegenerateWeights(f"effective sample size {ess:.1f} < {min_ess}")
    vals = np.asarray(f(counts, n_cc), dtype=float)
    est, se = weighted_ratio_estimate(w, vals)
    z_hat = math.exp(ln_z) if ln_z < _LN_FLOAT_MAX else math.inf
    z_se = z_hat * rel_se if rel_se > 0 else 0.0
    return OracleResult(est, se, z_hat, z_se, ess, n_samples, ln_z)


# ---------------------------------------------------------------------------
# Conditional resampling (the Gibbs kernel of a sub-box)
# ---------------------------------------------------------------------------


def conditional_resample(
    state: ChainState,
    box: Box,
    params: Optional[ModelParams] = None,
    max_attempts: int = 400,
    nested_sweeps: int = 60,
) -> ChainState:
    """Replace the balls centered in `box` by an exact draw from their
    conditional law given the rest, via envelope rejection; falls back to a
    nested restricted birth-death run when the rejection budget runs out.

    For q >= 1 proposals come from the q-thickened Poisson process on the
    box and are accepted with probability q^(local count - box count) <= 1;
    for q < 1 (bounded radii) the acceptance exponent is bounded through the
    explicit lower bound on the local count."""
    p = params if params is not None else state.params
    if not p.assumption_a:
        raise AssumptionAViolated("q < 1 requires a bounded-support law")
    if state.config.colored:
        raise ValueError("conditional resampling is for uncolored chains")
    if not state.config.window.contains_box(box):
        raise ValueError("box must sit inside the window")
    rng = state.rng
    cfg = state.config
    ids = np.asarray(cfg.active_ids(), dtype=np.intp)
    inside = box.contains_points(cfg.centers[ids])
    ext_c, ext_r = cfg.centers[ids[~inside]], cfg.radii[ids[~inside]]
    vol = box.volume
    q = p.q

    def propose(mean: float) -> list:
        n = int(rng.poisson(mean))
        return [(box.sample_point(rng), p.law.sample_scalar(rng)) for _ in range(n)]

    def commit(new_inner: list) -> ChainState:
        for s in ids[inside].tolist():
            cfg.remove(s)
        for center, radius in new_inner:
            cfg.add(center, radius)
        state.labeling.rebuild(cfg)
        return state

    if q == 1.0:
        return commit(propose(p.z * vol))
    if q > 1.0:
        mean, floor_exp = p.z * q * vol, None
    else:
        big = dilate(box, p.law.max_radius + 2.0)
        k_const = 1.0 - big.volume / unit_ball_volume(cfg.window.dimension)
        mean, floor_exp = p.z * vol, k_const - np.count_nonzero(big.contains_points(ext_c))
    for _ in range(max_attempts):
        inner = propose(mean)
        centers = np.vstack([ext_c] + [c for c, _ in inner])
        radii = np.concatenate([ext_r, [r for _, r in inner]])
        exponent = local_count(centers, radii, box) - (len(inner) if floor_exp is None else floor_exp)
        if rng.random() < q**exponent:
            return commit(inner)

    warnings.warn(
        "conditional rejection budget exceeded; running nested restricted chain",
        RejectionBudgetExceeded,
    )
    return _nested_box_chain(state, box, p, nested_sweeps)


def _nested_box_chain(
    state: ChainState, box: Box, p: ModelParams, sweeps: int
) -> ChainState:
    """Birth-death moves restricted to `box` with increments computed against
    the full configuration; frozen exterior."""
    rng = state.rng
    cfg = state.config
    lam = p.z * box.volume
    per_sweep = max(1, math.ceil(max(p.q, 1.0) * lam))
    for _ in range(sweeps):
        for _ in range(per_sweep):
            inner_slots = [
                s for s in cfg.active_ids() if box.contains_point(cfg.centers[s])
            ]
            n_in = len(inner_slots)
            if rng.random() < 0.5:
                center = box.sample_point(rng)
                radius = p.law.sample_scalar(rng)
                delta, hits = state.labeling.insertion_increment(cfg, center, radius)
                ratio = lam * p.q**delta / (n_in + 1)
                if ratio >= 1.0 or rng.random() < ratio:
                    slot = cfg.add(center, radius)
                    state.labeling.apply_insertion(slot, hits)
            elif n_in > 0:
                slot = inner_slots[int(rng.integers(n_in))]
                groups = state.labeling.removal_split(cfg, slot)
                delta_re = 1 - len(groups)
                ratio = n_in * p.q ** (-delta_re) / lam
                if ratio >= 1.0 or rng.random() < ratio:
                    cfg.remove(slot)
                    state.labeling.apply_removal(slot, groups)
    return state


def heat_bath_sweep(
    state: ChainState, partition: Sequence[Box], params: Optional[ModelParams] = None
) -> ChainState:
    """One conditional resample of every box of a window partition."""
    for box in partition:
        conditional_resample(state, box, params)
    return state


# ---------------------------------------------------------------------------
# Identity and domination diagnostics
# ---------------------------------------------------------------------------


@dataclass
class GnzRow:
    name: str
    lhs: float
    rhs: float
    se: float
    residual: float


def default_test_functions(window: Box):
    """Bounded statistics probing the balance equation: a constant, a count
    contraction, and a half-window indicator."""
    mid = 0.5 * (window.lo[0] + window.hi[0])

    def f_one(count, center, radius):
        return 1.0

    def f_exp(count, center, radius):
        return math.exp(-float(count))

    def f_left(count, center, radius):
        return 1.0 if center[0] <= mid else 0.0

    return [("one", f_one), ("exp_neg_count", f_exp), ("left_half", f_left)]


def gnz_residuals(
    samples: Sequence[Configuration],
    params: ModelParams,
    weigh: Callable,
    f_family=None,
    rng: Optional[np.random.Generator] = None,
    inner_points: int = 96,
) -> list[GnzRow]:
    """Balance-equation residuals: removal sums against the insertion
    integral lam * E[f(n, x, r) w(x, r)], Monte Carlo over `inner_points`
    insertions per sample shared by every test function.
    `weigh(cfg, xs, rs, rng)` returns the insertion weights w."""
    if len(samples) < 100:
        raise ValueError("need at least 100 decorrelated samples")
    if rng is None:
        rng = np.random.default_rng(0)
    if f_family is None:
        f_family = default_test_functions(params.window)
    lam = params.total_intensity
    lhs_all = {name: [] for name, _ in f_family}
    rhs_all = {name: [] for name, _ in f_family}
    for cfg in samples:
        n = cfg.n
        xs = params.window.sample_points(rng, inner_points)
        rs = np.asarray(params.law.sample(rng, inner_points), dtype=float)
        weights = weigh(cfg, xs, rs, rng)
        for name, f in f_family:
            lhs_all[name].append(
                sum(f(n - 1, cfg.centers[s], float(cfg.radii[s])) for s in cfg.active_ids())
            )
            fvals = np.array([f(n, xs[j], float(rs[j])) for j in range(inner_points)])
            rhs_all[name].append(lam * float(np.mean(fvals * weights)))
    rows = []
    for name, _ in f_family:
        lhs = np.asarray(lhs_all[name])
        rhs = np.asarray(rhs_all[name])
        d = lhs - rhs
        se = float(d.std(ddof=1) / math.sqrt(d.size))
        mean = float(d.mean())
        resid = abs(mean) / se if se > 0 else (0.0 if mean == 0 else math.inf)
        rows.append(GnzRow(name, float(lhs.mean()), float(rhs.mean()), se, resid))
    return rows


def gnz_residual_crcm(
    samples: Sequence[Configuration],
    params: ModelParams,
    f_family=None,
    rng: Optional[np.random.Generator] = None,
    inner_points: int = 96,
    rhs_q: Optional[float] = None,
) -> list[GnzRow]:
    """Balance-equation residuals with insertions weighted by
    q^(component increment).  `rhs_q` deliberately mis-weights the insertion
    side for negative controls."""
    q_rhs = params.q if rhs_q is None else rhs_q

    def weigh(cfg, xs, rs, rng):
        lab = ClusterLabeling(cfg)
        deltas = [lab.insertion_increment(cfg, x, float(r))[0] for x, r in zip(xs, rs)]
        return np.array([q_rhs**delta for delta in deltas])

    return gnz_residuals(samples, params, weigh, f_family, rng, inner_points)


@dataclass
class DominationRow:
    statistic: str
    side: str
    empirical: float
    se: float
    bound: float
    ok: bool


def domination_check(
    samples: Sequence[Configuration],
    params: ModelParams,
    probe: Optional[Box] = None,
) -> list[DominationRow]:
    """Sandwich checks on increasing statistics: the q-thickened Poisson
    process from above (q >= 1) and the tilted-law Poisson process from below
    (radii bounded away from 0, q > 1).  Flags violations beyond 3 SE."""
    w = params.window
    d = w.dimension
    if probe is None:
        probe = Box(w.lo + 0.25 * w.sides, w.lo + 0.75 * w.sides)
    counts = np.array([c.n for c in samples], dtype=float)
    probe_counts = np.array([c.count_in(probe) for c in samples], dtype=float)
    rows: list[DominationRow] = []

    def add(stat, side, emp_arr, bound, direction):
        se = batch_means_se(emp_arr)
        emp = float(emp_arr.mean())
        ok = emp <= bound + 3 * se if direction == "upper" else emp >= bound - 3 * se
        rows.append(DominationRow(stat, side, emp, se, bound, ok))

    if params.q >= 1.0:
        add("count", "upper", counts, params.q * params.total_intensity, "upper")
        add("probe_count", "upper", probe_counts, params.q * params.z * probe.volume, "upper")
    if params.q > 1.0 and params.law.min_radius > 0:
        tl = tilted_law(params.law, params.q, params.law.min_radius, d)
        add("count", "lower", counts, params.z * tl.mass * w.volume, "lower")
        add("probe_count", "lower", probe_counts, params.z * tl.mass * probe.volume, "lower")
    return rows


@dataclass
class EntropyReport:
    rate: float
    rate_se: float
    bound: float
    bound_se: float
    ok: bool
    ln_z_hat: float
    mean_n_cc: float
    mean_count: float
    empty_floor_ok: bool


def entropy_report(
    params: ModelParams, n_oracle: int, rng: np.random.Generator
) -> EntropyReport:
    """Entropy rate of the cluster-weighted law against the Poisson reference,
    estimated through the importance oracle, with its linear-in-intensity
    upper bound and the empty-configuration floor on the normalizer."""
    if not params.assumption_a:
        raise AssumptionAViolated("q < 1 requires a bounded-support law")
    counts, n_cc = _reference_draws(params, n_oracle, rng)
    lnq = math.log(params.q)
    w, ln_z_hat, rel_se = _log_weight_summary(n_cc.astype(float) * lnq)
    e_ncc, se_ncc = weighted_ratio_estimate(w, n_cc.astype(float))
    e_count, se_count = weighted_ratio_estimate(w, counts.astype(float))
    vol = params.window.volume
    rate = (-ln_z_hat + lnq * e_ncc) / vol
    rate_se = (rel_se + abs(lnq) * se_ncc) / vol
    bound = params.z + max(lnq, 0.0) * e_count / vol
    bound_se = max(lnq, 0.0) * se_count / vol
    ok = rate <= bound + 3.0 * (rate_se + bound_se)
    floor_ok = ln_z_hat >= -params.total_intensity - 3.0 * rel_se
    return EntropyReport(
        rate, rate_se, bound, bound_se, ok, ln_z_hat, e_ncc, e_count, floor_ok
    )
