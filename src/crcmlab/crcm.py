"""Finite-volume cluster-weighted ball process: birth-death Metropolis
chains targeting the density q^(number of components) against the Poisson
reference, a self-normalized importance-sampling oracle exact at desk scale,
conditional resampling of a sub-box, and identity/domination/entropy
diagnostics."""
from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import Box
from .model_core import Configuration, ModelParams, poisson_balls
from .connectivity import BallGraph, ClusterLabeling, components, local_floor
# local_cc stays importable from this module: the tracer self-test in benchmarks/ relies on it
from .connectivity import local_cc  # noqa: F401
from .analysis import tilted_law
from ._stream import block_reads, generator
from ._stats import (
    batch_means_se,
    effective_sample_size,
    integrated_autocorr_time,
    weighted_ratio_estimate,
    within,
)


class DegenerateWeights(RuntimeError):
    """Importance weights collapsed onto too few samples."""


class RejectionBudgetExceeded(UserWarning):
    """Conditional rejection sampling gave up; nested chain fallback used."""


AUDIT_EVERY = 10_000  # bd_step audits the chain state every this many steps
_REJECTION_ATTEMPTS = 400  # envelope draws before conditional_resample falls back
_FALLBACK_SWEEPS = 60  # sweeps of the nested restricted chain it then runs


# ---------------------------------------------------------------------------
# Chain state
# ---------------------------------------------------------------------------


@dataclass
class ChainState:
    """One birth-death chain: configuration, the labeling it builds of it
    (audited against a from-scratch labeling), and its random stream (a
    `_stream.BlockStream` over the Generator while `sweep_loop` runs)."""

    params: ModelParams
    config: Configuration
    rng: np.random.Generator
    step_count: int = 0
    proposed: dict = field(default_factory=lambda: {"birth": 0, "death": 0, "recolor": 0})
    accepted: dict = field(default_factory=lambda: {"birth": 0, "death": 0, "recolor": 0})
    labeling: ClusterLabeling = field(init=False)

    def __post_init__(self):
        self.labeling = ClusterLabeling(self.config)

    @property
    def n_cc(self) -> int:
        return self.labeling.n_components

    def audit(self) -> None:
        """Check the grid index's filing of the active balls, then the
        labeling's partition against the components."""
        cfg = self.config
        if not cfg.index.files_exactly(cfg.active_ids()):
            raise RuntimeError("grid index differs from the configuration's active balls")
        if not self.labeling.labels_exactly(cfg):
            raise RuntimeError("component labels differ from the configuration's components")


def new_chain(params: ModelParams, rng: np.random.Generator) -> ChainState:
    """Chain of either model, started from `params.start(rng)`."""
    return ChainState(params=params, config=params.start(rng), rng=rng)


# ---------------------------------------------------------------------------
# Birth-death kernel
# ---------------------------------------------------------------------------


def birth_ratio(lam: float, n: int, factor: float) -> float:
    """Unclipped Metropolis ratio for adding a ball, proposed uniformly at
    intensity `lam` (z * |region|), to a region holding n balls; `factor`
    is the model's insertion factor of the ball (`ModelParams.insertion`)."""
    return lam * factor / (n + 1)


def death_ratio(lam: float, n: int, factor: float) -> float:
    """Unclipped Metropolis ratio for deleting one of the region's n balls,
    picked uniformly: the reciprocal of birth_ratio for adding it back, with
    the reciprocal insertion factor (`ModelParams.deletion`)."""
    return n * factor / lam


def metropolis(ratio: float, rng: np.random.Generator) -> bool:
    """Accept with probability min(1, ratio); a zero ratio (a forbidden
    move) draws no uniform."""
    return ratio > 0 and (ratio >= 1.0 or rng.random() < ratio)


def birth_death(state: ChainState, p: ModelParams, slots: list, birth: bool) -> Optional[tuple]:
    """One proposal in the window of `p`, whose balls are `slots`: a birth
    (uniform center, law radius) or a death (uniform ball of `slots`),
    weighed by the model's factor `p.insertion` or `p.deletion`.  Returns
    None when the move is rejected, else ("birth", new slot, None) or
    ("death", freed slot, what `Configuration.remove` returned)."""
    rng = state.rng
    cfg = state.config
    lab = state.labeling
    lam = p.total_intensity
    n = len(slots)
    if birth:
        state.proposed["birth"] += 1
        center = p.window.sample_point(rng)
        radius = p.law.sample_scalar(rng)
        factor, hits, color = p.insertion(cfg, lab, center, radius, rng)
        if metropolis(birth_ratio(lam, n, factor), rng):
            slot = cfg.add(center, radius, color)
            lab.apply_insertion(slot, hits)
            state.accepted["birth"] += 1
            return "birth", slot, None
    else:
        state.proposed["death"] += 1
        if n > 0:
            slot = slots[int(rng.random() * n)]
            factor, groups = p.deletion(lab, slot)
            if metropolis(death_ratio(lam, n, factor), rng):
                groups = lab.removal_split(slot) if groups is None else groups
                moved = cfg.remove(slot)
                lab.apply_removal(slot, groups)
                state.accepted["death"] += 1
                return "death", slot, moved


def bd_step(state: ChainState) -> ChainState:
    """One move of either model's chain, picked by one uniform u: below
    the params' `move_share` a birth-death proposal through `birth_death` (a
    birth below half the share), otherwise the params' `recolor` of a
    nonempty configuration.  Mutates and returns the state."""
    p = state.params
    state.step_count += 1
    u = state.rng.random()
    if u < p.move_share:
        birth_death(state, p, state.config.active_ids(), u < 0.5 * p.move_share)
    elif state.config.n > 0:
        p.recolor(state)
    if state.step_count % AUDIT_EVERY == 0:
        state.audit()
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
    samples: list  # recorded sweeps' (centers, radii, colors or None), in move order


TRACE_COLUMNS = ["sweep", "count", "n_cc", "largest_component", "accept_birth", "accept_death"]


def trace_row(state: ChainState, sweep: int) -> tuple:
    """The state's TRACE_COLUMNS, with the acceptance rates so far."""
    pb, ab = state.proposed["birth"], state.accepted["birth"]
    pd_, ad = state.proposed["death"], state.accepted["death"]
    return (
        sweep,
        state.config.n,
        state.n_cc,
        max(state.labeling.component_sizes().values(), default=0),
        (ab / pb) if pb else 0.0,
        (ad / pd_) if pd_ else 0.0,
    )


def sweep_size(params: ModelParams) -> int:
    """Proposals per sweep: the mean count of the Poisson process dominating
    the model.

    Fixed per run on purpose: tying the sweep length to the current count
    would make recording times state-dependent and size-bias the trace toward
    sparse states."""
    return max(1, math.ceil(params.dominating_intensity))


def sweep_loop(
    state: ChainState,
    step: Callable[[ChainState], ChainState],
    per_sweep: int,
    burn_in: int,
    sweeps: int,
    thin: int,
    trace: list,
    start: int = 0,
    on_sweep: Optional[Callable[[int, bool], None]] = None,
) -> list:
    """Sweeps start, ..., burn_in + sweeps - 1 of a chain, each `per_sweep`
    calls of `step`.  Every `thin`-th sweep after burn-in appends its
    trace_row to `trace`; then `on_sweep(sweeps done, row appended)` runs.
    Starting from a saved sweep and trace continues the same trajectory.
    Meanwhile `state.rng` is a `_stream.BlockStream` over the chain's
    Generator, whatever its bit generator (see `block_reads`): it serves the
    Generator's own `random()` values in fixed blocks."""
    with block_reads(state):
        for sweep in range(start, burn_in + sweeps):
            for _ in range(per_sweep):
                step(state)
            recorded = sweep >= burn_in and (sweep - burn_in) % thin == 0
            if recorded:
                trace.append(trace_row(state, sweep))
            if on_sweep is not None:
                on_sweep(sweep + 1, recorded)
    return trace


def run_chain(
    params: ModelParams,
    rng: np.random.Generator,
    sweeps: int = 400,
    burn_in: int = 200,
    thin: int = 2,
    step: Callable[[ChainState], ChainState] = bd_step,
    state: Optional[ChainState] = None,
    keep_configs: bool = False,
    per_sweep: Optional[int] = None,
) -> SamplerReport:
    """Run a chain for `burn_in + sweeps` sweeps (one sweep = a fixed number
    of proposals, see sweep_size) recording every `thin`-th sweep."""
    if state is None:
        state = new_chain(params, rng)
    if per_sweep is None:
        per_sweep = sweep_size(params)
    samples: list = []

    def keep(done: int, recorded: bool) -> None:
        if recorded:
            samples.append(state.config.arrays())

    rows = sweep_loop(
        state, step, per_sweep, burn_in, sweeps, thin, [], on_sweep=keep if keep_configs else None
    )
    sweeps_arr, counts, n_cc, largest = (
        np.array([r[:4] for r in rows], dtype=np.int64).reshape(-1, 4).T.copy()
    )
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
        samples=samples,
    )


# ---------------------------------------------------------------------------
# Importance-sampling oracle
# ---------------------------------------------------------------------------


_DRAW_BLOCK = 2**15  # balls per labeling call in _reference_draws: bounds its peak memory


def _reference_draws(params: ModelParams, n_samples: int, rng: np.random.Generator):
    """Vectorized Poisson reference draws: per-sample counts and component
    counts.  The draws come in blocks (every count, then every center, then
    every radius) and are labeled in runs of whole draws of about
    `_DRAW_BLOCK` balls, one group per draw."""
    counts = rng.poisson(params.total_intensity, size=n_samples)
    total = int(counts.sum())
    centers = params.window.sample_points(rng, total)
    radii = np.asarray(params.law.sample(rng, total), dtype=float)
    ends = np.cumsum(counts)
    n_cc = np.zeros(n_samples, dtype=np.int64)
    a = lo = 0  # first draw and first ball of the next run
    while a < n_samples:
        b = max(int(np.searchsorted(ends, lo + _DRAW_BLOCK, "right")), a + 1)
        hi = int(ends[b - 1])
        draw = np.repeat(np.arange(b - a), counts[a:b])
        n_comp, labels = components(centers[lo:hi], radii[lo:hi], draw)
        owner = np.zeros(n_comp, dtype=np.int64)
        owner[labels] = draw
        n_cc[a:b] = np.bincount(owner, minlength=b - a)
        a, lo = b, hi
    return counts.astype(np.int64), n_cc


def _log_weight_summary(
    logw: np.ndarray, min_ess: float
) -> tuple[np.ndarray, float, float, float]:
    """Weights rescaled by exp(-max log weight), the log of their raw mean
    (ln z_hat), the relative standard error z_hat_se / z_hat and the
    effective sample size; nothing is exponentiated unscaled, so huge q^n_cc
    cannot overflow.  Raises DegenerateWeights when the effective sample
    size is below `min_ess`."""
    top = float(logw.max())
    w = np.exp(logw - top)
    ess = float(w.sum() ** 2 / (w @ w))
    if ess < min_ess:
        raise DegenerateWeights(f"effective sample size {ess:.1f} < {min_ess}")
    mean = float(w.mean())
    rel_se = float(w.std(ddof=1)) / (mean * math.sqrt(w.size))
    return w, top + math.log(mean), rel_se, ess


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
    if n_samples < 1000:
        raise ValueError("need at least 10^3 reference draws")
    counts, n_cc = _reference_draws(params, n_samples, rng)
    w, ln_z, rel_se, ess = _log_weight_summary(n_cc.astype(float) * math.log(params.q), min_ess)
    vals = np.asarray(f(counts, n_cc), dtype=float)
    est, se = weighted_ratio_estimate(w, vals)
    z_hat = math.exp(ln_z) if ln_z < _LN_FLOAT_MAX else math.inf
    z_se = z_hat * rel_se if rel_se > 0 else 0.0
    return OracleResult(est, se, z_hat, z_se, ess, n_samples, ln_z)


# ---------------------------------------------------------------------------
# Conditional resampling (the Gibbs kernel of a sub-box)
# ---------------------------------------------------------------------------


def conditional_resample(state: ChainState, box: Box) -> ChainState:
    """Replace the balls centered in `box` by an exact draw from their
    conditional law given the rest, via envelope rejection; falls back to a
    nested restricted birth-death run when the rejection budget runs out.

    For q >= 1 proposals come from the q-thickened Poisson process on the
    box and are accepted with probability q^(local count - box count) <= 1;
    for q < 1 (bounded radii) the exponent is the local count less its
    `local_floor` at r0 = the largest radius.  Raises RuntimeError on a
    draw whose exponent breaks its bound, where q^exponent would exceed 1."""
    p = state.params
    if state.config.colored:
        raise ValueError("conditional resampling is for uncolored chains")
    if not state.config.window.contains_box(box):
        raise ValueError("box must sit inside the window")
    rng = generator(state.rng)  # array draws: the Generator itself
    cfg = state.config
    centers, radii, _ = cfg.arrays()
    inside = box.contains_points(centers)
    ext_c, ext_r = centers[~inside], radii[~inside]
    vol = box.volume
    q = p.q

    def commit(new_c: np.ndarray, new_r: np.ndarray) -> ChainState:
        for s in np.asarray(cfg.active_ids(), dtype=np.intp)[inside].tolist():
            cfg.remove(s)
        for center, radius in zip(new_c, new_r.tolist()):
            cfg.add(center, radius)
        state.labeling.rebuild(cfg)
        return state

    if q == 1.0:
        return commit(*poisson_balls(box, p.law, p.z * vol, rng))
    if q > 1.0:
        mean, floor_exp = p.z * q * vol, None
    else:
        mean, floor_exp = p.z * vol, local_floor(ext_c, box, p.law.max_radius)[1]
    for _ in range(_REJECTION_ATTEMPTS):
        new_c, new_r = poisson_balls(box, p.law, mean, rng)
        local = BallGraph.of(np.vstack([ext_c, new_c]), np.concatenate([ext_r, new_r])).local(box)
        exponent = local - (new_r.size if floor_exp is None else floor_exp)
        if (exponent > 0 if q > 1.0 else exponent < 0):
            raise RuntimeError(f"heat-bath envelope broken: acceptance exponent {exponent}")
        if rng.random() < q**exponent:
            return commit(new_c, new_r)

    warnings.warn(
        "conditional rejection budget exceeded; running nested restricted chain",
        RejectionBudgetExceeded,
    )
    return _nested_box_chain(state, box, _FALLBACK_SWEEPS)


def _nested_box_chain(state: ChainState, box: Box, sweeps: int) -> ChainState:
    """Birth-death moves restricted to `box` with increments computed against
    the full configuration; frozen exterior.  The balls centered in `box`
    are kept in move order (`cfg.active_ids()` filtered by the box) as moves
    are accepted."""
    cfg = state.config
    local = dataclasses.replace(state.params, window=box)
    inner = [s for s in cfg.active_ids() if box.contains_point(cfg.index.balls[s][0])]
    for _ in range(sweeps * sweep_size(local)):
        move = birth_death(state, local, inner, state.rng.random() < 0.5)
        if move is None:
            continue
        kind, slot, moved = move
        if kind == "birth":
            if box.contains_point(cfg.index.balls[slot][0]):
                inner.append(slot)
            continue
        # `moved` was last in move order, so last in `inner` if it is there
        i = inner.index(slot)
        if moved is not None and inner[-1] == moved:
            inner[i] = inner.pop()
        else:
            del inner[i]
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


def default_test_functions(params: ModelParams):
    """Bounded statistics probing the balance equation: a constant, a count
    contraction, and a half-window indicator, each mapping (count, centers,
    radii) to one value per ball.

    The contraction is exp(-count / (z |W|)), on the scale of typical
    counts.  exp(-count) would put its mean on rare near-empty states when
    counts run to tens, and a few hundred samples then miss them: its 4-SE
    gate failed on 17 of 30 seeds of a correct chain at z |W| = 30."""
    window = params.window
    lam = params.total_intensity
    mid = 0.5 * (window.lo[0] + window.hi[0])

    def f_one(count, centers, radii):
        return np.ones(radii.size)

    def f_exp(count, centers, radii):
        return np.full(radii.size, math.exp(-float(count) / lam))

    def f_left(count, centers, radii):
        return (centers[:, 0] <= mid).astype(float)

    return [("one", f_one), ("exp_neg_relative_count", f_exp), ("left_half", f_left)]


def gnz_residuals(
    samples: Sequence[tuple],
    params: ModelParams,
    rng: np.random.Generator,
    inner_points: int = 96,
) -> list[GnzRow]:
    """Balance-equation residuals: removal sums against the insertion
    integral lam * E[f(n, x, r) w(x, r)], Monte Carlo over `inner_points`
    insertions per sample shared by every test function.
    Each sample is (centers, radii, colors or None), as `run_chain` records
    it; the weights w are `params.insertion_weights`, the factor the chain
    of `params` accepts a birth with.  Testing samples against other params
    than those that drew them is a negative control."""
    if len(samples) < 100:
        raise ValueError("need at least 100 decorrelated samples")
    tests = default_test_functions(params)
    lam = params.total_intensity
    lhs = np.zeros((len(tests), len(samples)))
    rhs = np.zeros((len(tests), len(samples)))
    for s, (centers, radii, colors) in enumerate(samples):
        xs = params.window.sample_points(rng, inner_points)
        rs = np.asarray(params.law.sample(rng, inner_points), dtype=float)
        diff = centers[None, :, :] - xs[:, None, :]
        rsum = radii[None, :] + rs[:, None]
        hits = np.einsum("mkd,mkd->mk", diff, diff) <= rsum * rsum
        weights = params.insertion_weights((centers, radii, colors), hits, rng)
        for t, (_, f) in enumerate(tests):
            lhs[t, s] = f(radii.size - 1, centers, radii).sum()
            rhs[t, s] = lam * float(np.mean(f(radii.size, xs, rs) * weights))
    rows = []
    for (name, _), lhs_t, rhs_t in zip(tests, lhs, rhs):
        d = lhs_t - rhs_t
        se = float(d.std(ddof=1) / math.sqrt(d.size))
        mean = float(d.mean())
        resid = abs(mean) / se if se > 0 else (0.0 if mean == 0 else math.inf)
        rows.append(GnzRow(name, float(lhs_t.mean()), float(rhs_t.mean()), se, resid))
    return rows


@dataclass
class DominationRow:
    statistic: str
    side: str
    empirical: float
    se: float
    bound: float
    ok: bool


def domination_check(
    samples: Sequence[tuple], params: ModelParams
) -> list[DominationRow]:
    """Sandwich checks on increasing statistics, over the whole window and a
    central probe box of half its side: the q-thickened Poisson process from
    above (q >= 1) and the tilted-law Poisson process from below (radii
    bounded away from 0, q > 1).  Samples are (centers, radii, colors)
    tuples.  Flags violations beyond `_stats.BOUND_SLACK` SE."""
    if len(samples) < 2:
        raise ValueError("domination check needs at least 2 samples for a standard error")
    w = params.window
    d = w.dimension
    probe = Box(w.lo + 0.25 * w.sides, w.lo + 0.75 * w.sides)
    counts = np.array([radii.size for _, radii, _ in samples], dtype=float)
    probe_counts = np.array(
        [np.count_nonzero(probe.contains_points(centers)) for centers, _, _ in samples],
        dtype=float,
    )
    rows: list[DominationRow] = []

    def add(stat, side, emp_arr, bound):
        se = batch_means_se(emp_arr)
        emp = float(emp_arr.mean())
        ok = within(emp, bound, se) if side == "upper" else within(-emp, -bound, se)
        rows.append(DominationRow(stat, side, emp, se, bound, ok))

    if params.q >= 1.0:
        add("count", "upper", counts, params.q * params.total_intensity)
        add("probe_count", "upper", probe_counts, params.q * params.z * probe.volume)
    if params.q > 1.0 and params.law.min_radius > 0:
        tl = tilted_law(params.law, params.q, d)
        add("count", "lower", counts, params.z * tl.mass * w.volume)
        add("probe_count", "lower", probe_counts, params.z * tl.mass * probe.volume)
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
    params: ModelParams, n_oracle: int, rng: np.random.Generator, min_ess: float = 50.0
) -> EntropyReport:
    """Entropy rate of the cluster-weighted law against the Poisson reference,
    estimated through the importance oracle, with its linear-in-intensity
    upper bound and the empty-configuration floor on the normalizer.  Raises
    DegenerateWeights, as the oracle does, when the weights' effective sample
    size is below `min_ess`."""
    counts, n_cc = _reference_draws(params, n_oracle, rng)
    lnq = math.log(params.q)
    w, ln_z_hat, rel_se, _ = _log_weight_summary(n_cc.astype(float) * lnq, min_ess)
    e_ncc, se_ncc = weighted_ratio_estimate(w, n_cc.astype(float))
    e_count, se_count = weighted_ratio_estimate(w, counts.astype(float))
    vol = params.window.volume
    rate = (-ln_z_hat + lnq * e_ncc) / vol
    rate_se = (rel_se + abs(lnq) * se_ncc) / vol
    bound = params.z + max(lnq, 0.0) * e_count / vol
    bound_se = max(lnq, 0.0) * se_count / vol
    ok = within(rate, bound, rate_se + bound_se)
    floor_ok = within(-ln_z_hat, params.total_intensity, rel_se)
    return EntropyReport(
        rate, rate_se, bound, bound_se, ok, ln_z_hat, e_ncc, e_count, floor_ok
    )
