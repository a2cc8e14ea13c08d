"""The q-color hard-core ball model: colored configurations where balls of
different colors may never overlap (tangency included), its birth-death-
recolor chain, the uniform component-coloring kernel, the color-blind
projection, and the coupling consistency test tying the color-blind model at
intensity z to the cluster-weighted model at intensity z/q."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import stats

from .geometry import Box, default_cell_size
from .model_core import Configuration, ModelParams
from .connectivity import ClusterLabeling, intersecting_pairs
from .crcm import ChainState, GnzRow, SamplerReport, gnz_residuals, run_chain

@dataclass
class WrParams(ModelParams):
    """Model parameters with an integer number of colors q >= 2."""

    def __post_init__(self):
        super().__post_init__()
        if int(self.q) != self.q or self.q < 2:
            raise ValueError("the color count q must be an integer >= 2")

    @property
    def n_colors(self) -> int:
        return int(self.q)


# ---------------------------------------------------------------------------
# The allowed set
# ---------------------------------------------------------------------------


def insertion_allowed(cfg: Configuration, center, radius: float, color: int) -> bool:
    """May a ball of this color be added?  Forbidden when it comes within
    touching distance (closed balls) of any differently colored ball."""
    for j in cfg.intersectors(center, radius):
        if int(cfg.colors[j]) != color:
            return False
    return True


def is_allowed(cfg: Configuration) -> bool:
    """No two balls of different colors overlap or touch."""
    if not cfg.colored:
        raise ValueError("allowed-set test needs a colored configuration")
    ids = np.asarray(cfg.active_ids(), dtype=np.intp)
    i, j = intersecting_pairs(cfg.centers[ids], cfg.radii[ids])
    return not np.any(cfg.colors[ids[i]] != cfg.colors[ids[j]])


def col_event(cfg: Configuration) -> bool:
    """At least two balls carry distinct colors."""
    if not cfg.colored:
        raise ValueError("color event needs a colored configuration")
    ids = cfg.active_ids()
    if len(ids) < 2:
        return False
    first = int(cfg.colors[ids[0]])
    return any(int(cfg.colors[s]) != first for s in ids[1:])


# ---------------------------------------------------------------------------
# Chain
# ---------------------------------------------------------------------------


def new_wr_chain(
    params: WrParams, rng: np.random.Generator, audit_interval: int = 10_000
) -> ChainState:
    """Empty-start chain (the empty configuration is always allowed)."""
    cell = default_cell_size(params.window, params.law.median())
    cfg = Configuration(params.window, cell_size=cell, colored=True)
    return ChainState(
        params=params,
        config=cfg,
        labeling=ClusterLabeling(cfg),
        rng=rng,
        audit_interval=audit_interval,
    )


def wr_step(state: ChainState, params: Optional[WrParams] = None) -> ChainState:
    """One move of the hard-core-color chain: birth (uniform center, law
    radius, uniform color; rejected outright on any cross-color contact),
    death (uniform ball), or whole-component recolor (always accepted:
    distinct components never touch, so cross-component colors are free)."""
    p = params if params is not None else state.params
    rng = state.rng
    cfg = state.config
    lab = state.labeling
    lam = p.total_intensity
    n_colors = int(p.q)
    state.step_count += 1
    u = rng.random()
    if u < 0.4:
        state.proposed["birth"] += 1
        center = cfg.window.sample_point(rng)
        radius = p.law.sample_scalar(rng)
        color = int(rng.integers(1, n_colors + 1))
        hits = cfg.intersectors(center, radius)
        if all(int(cfg.colors[j]) == color for j in hits):
            ratio = lam / (cfg.n + 1)
            if ratio >= 1.0 or rng.random() < ratio:
                slot = cfg.add(center, radius, color)
                lab.apply_insertion(slot, hits)
                state.accepted["birth"] += 1
    elif u < 0.8:
        state.proposed["death"] += 1
        if cfg.n > 0:
            slot = cfg.random_active(rng)
            ratio = cfg.n / lam
            if ratio >= 1.0 or rng.random() < ratio:
                groups = lab.removal_split(cfg, slot)
                cfg.remove(slot)
                lab.apply_removal(slot, groups)
                state.accepted["death"] += 1
    else:
        if cfg.n > 0:
            state.proposed["recolor"] += 1
            # canonical member lists keyed by each component's smallest slot:
            # stable across checkpoint restores, unlike union-find root ids
            comps: dict[int, list[int]] = {}
            for s in cfg.active_ids():
                r = lab.find(s)
                comps.setdefault(r, []).append(s)
            reps = sorted(min(members) for members in comps.values())
            pick = reps[int(rng.integers(len(reps)))]
            color = int(rng.integers(1, n_colors + 1))
            for members in comps.values():
                if min(members) == pick:
                    for s in members:
                        cfg.colors[s] = color
                    break
            state.accepted["recolor"] += 1
    state.maybe_audit()
    return state


def run_wr_chain(
    params: WrParams,
    rng: np.random.Generator,
    sweeps: int = 400,
    burn_in: int = 200,
    thin: int = 2,
    keep_configs: bool = False,
    audit_interval: int = 10_000,
) -> SamplerReport:
    state = new_wr_chain(params, rng, audit_interval=audit_interval)
    return run_chain(
        params,
        rng,
        sweeps=sweeps,
        burn_in=burn_in,
        thin=thin,
        step=wr_step,
        state=state,
        keep_configs=keep_configs,
        per_sweep=max(1, math.ceil(params.total_intensity)),
    )


# ---------------------------------------------------------------------------
# Coloring kernel and projection
# ---------------------------------------------------------------------------


def fk_colorize(cfg: Configuration, q: int, rng: np.random.Generator) -> Configuration:
    """Color every connected component with one independent uniform color.
    The result is always allowed: distinct components never touch."""
    if q < 2 or int(q) != q:
        raise ValueError("need an integer q >= 2")
    lab = ClusterLabeling(cfg)
    color_of = {root: int(rng.integers(1, int(q) + 1)) for root in sorted(lab.roots(cfg))}
    ids = cfg.active_ids()
    colors = np.array([color_of[lab.find(s)] for s in ids], dtype=np.int64)
    return Configuration.from_arrays(
        cfg.window, cfg.centers[ids], cfg.radii[ids], colors, cell_size=cfg.index.cell_size
    )


def color_blind(cfg: Configuration) -> Configuration:
    """Forget colors; positions and radii unchanged."""
    return cfg.copy(drop_colors=True)


# ---------------------------------------------------------------------------
# Coupling consistency
# ---------------------------------------------------------------------------


@dataclass
class FkReport:
    p_values: np.ndarray  # (pairs, 3): count, components, largest
    alpha: float
    threshold: float
    rejected: bool
    statistics: tuple = ("count", "n_cc", "largest")


def fk_consistency_test(
    z: float,
    q: int,
    law,
    window: Box,
    rng_seed: int = 0,
    pairs: int = 8,
    sweeps: int = 300,
    burn_in: int = 150,
    thin: int = 3,
    alpha: float = 0.01,
    crcm_z: Optional[float] = None,
) -> FkReport:
    """Two-sampler cross-check: color-blind hard-core-color samples at
    intensity z against cluster-weighted samples at intensity z/q, compared
    per seed pair on count, component count, and largest component size.
    Pass `crcm_z` to deliberately mismatch intensities (negative control)."""
    z_crcm = z / q if crcm_z is None else crcm_z
    pvals = np.ones((pairs, 3))
    for s in range(pairs):
        wr_rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=(2 * s,)))
        cr_rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=(2 * s + 1,)))
        wr = run_wr_chain(
            WrParams(z, q, law, window), wr_rng, sweeps=sweeps, burn_in=burn_in, thin=thin
        )
        cr = run_chain(
            ModelParams(z_crcm, float(q), law, window),
            cr_rng,
            sweeps=sweeps,
            burn_in=burn_in,
            thin=thin,
        )
        for t, (a, b) in enumerate(
            [(wr.counts, cr.counts), (wr.n_cc, cr.n_cc), (wr.largest, cr.largest)]
        ):
            pvals[s, t] = stats.ks_2samp(a, b, method="asymp").pvalue
    threshold = alpha / (pairs * 3)
    return FkReport(pvals, alpha, threshold, bool((pvals < threshold).any()))


# ---------------------------------------------------------------------------
# Balance-equation residuals
# ---------------------------------------------------------------------------


def gnz_residual_wr(
    samples: Sequence[Configuration],
    params: WrParams,
    f_family=None,
    rng: Optional[np.random.Generator] = None,
    inner_points: int = 96,
    drop_constraint: bool = False,
) -> list[GnzRow]:
    """Residuals of the balance equation for the hard-core-color model:
    removal sums against insertion integrals weighted by the allowed-set
    indicator for a uniform color.  `drop_constraint` omits the indicator
    (negative control)."""
    n_colors = int(params.q)

    def weigh(cfg, xs, rs, rng):
        ks = rng.integers(1, n_colors + 1, size=inner_points)
        if drop_constraint:
            return np.ones(inner_points)
        allowed = [insertion_allowed(cfg, x, float(r), int(k)) for x, r, k in zip(xs, rs, ks)]
        return np.array(allowed, dtype=float)

    return gnz_residuals(samples, params, weigh, f_family, rng, inner_points)
