"""The q-color hard-core ball model: colored configurations where balls of
different colors may never overlap (tangency included), the params of its
birth-death-recolor chain, the uniform component-coloring kernel on ball
arrays, and the coupling consistency test tying the color-blind model at
intensity z to the cluster-weighted model at intensity z/q."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._stats import ks_family, ks_pvalue
from ._stream import chain_rng
from .model_core import Configuration, ModelParams
from .connectivity import components, intersecting_pairs
from .crcm import (
    ChainState,
    GnzRow,
    SamplerReport,
    bd_step,
    gnz_residuals,
    new_chain,
    run_chain,
)

@dataclass
class WrParams(ModelParams):
    """Model parameters with an integer number of colors q >= 2."""

    move_share = 0.8  # the other fifth of the chain's moves recolor a component

    def __post_init__(self):
        super().__post_init__()
        if int(self.q) != self.q or self.q < 2:
            raise ValueError("the color count q must be an integer >= 2")

    @property
    def n_colors(self) -> int:
        return int(self.q)

    @property
    def dominating_intensity(self) -> float:
        """The color-blind model at z is the cluster-weighted one at z/q,
        dominated by the q-thickened process: intensity z."""
        return self.total_intensity

    def insertion(self, cfg, labeling, center, radius: float, rng) -> tuple:
        """(allowed-set indicator, hits, color) of a ball in a uniform color."""
        color = 1 + int(rng.random() * self.n_colors)
        hits = cfg.intersectors(center, radius)
        return float(insertion_allowed(cfg, hits, color)), hits, color

    def insertion_weights(self, sample: tuple, hits: np.ndarray, rng) -> np.ndarray:
        """`insertion`'s factor for m candidate balls against one recorded
        `(centers, radii, colors)` sample: the allowed-set indicator, each
        candidate in its own uniform color."""
        colors = sample[2]
        ks = 1 + (rng.random(hits.shape[0]) * self.n_colors).astype(np.int64)
        clash = hits & (colors[None, :] != ks[:, None])
        return (~clash.any(axis=1)).astype(float)

    def deletion(self, labeling, slot: int) -> tuple:
        """(1, None): every deletion leaves the set allowed, and the kernel
        finds the split only once a death is accepted."""
        return 1.0, None

    def start(self, rng) -> Configuration:
        """The empty colored configuration, which is always allowed."""
        return Configuration(self.window, cell_size=self.cell_size, colored=True)

    def recolor(self, state: ChainState) -> None:
        """A uniform new color for the component of a uniform ball, always
        accepted: distinct components never touch."""
        rng = state.rng
        cfg = state.config
        state.proposed["recolor"] += 1
        # the pick reads only the color-blind configuration and the move
        # order, which checkpoints keep, so this is a Gibbs update of one
        # component's color and resumed runs repeat it exactly
        slot = cfg.random_active(rng)
        color = 1 + int(rng.random() * self.n_colors)
        lab = state.labeling
        cfg.colors.update(dict.fromkeys(lab.members[lab.label[slot]], color))
        state.accepted["recolor"] += 1


# ---------------------------------------------------------------------------
# The allowed set
# ---------------------------------------------------------------------------


def insertion_allowed(cfg: Configuration, hits: list[int], color: int) -> bool:
    """May a ball of this color be added, given `hits`, the slots of the
    balls it meets (`cfg.intersectors`)?  Forbidden when any of them has
    another color: closed balls, so touching counts."""
    colors = cfg.colors
    for j in hits:
        if colors[j] != color:
            return False
    return True


def is_allowed(centers: np.ndarray, radii: np.ndarray, colors: Optional[np.ndarray]) -> bool:
    """No two balls of different colors overlap or touch."""
    if colors is None:
        raise ValueError("allowed-set test needs a colored configuration")
    i, j = intersecting_pairs(centers, radii)
    return not np.any(colors[i] != colors[j])


def col_event(colors: Optional[np.ndarray]) -> bool:
    """At least two balls carry distinct colors."""
    if colors is None:
        raise ValueError("color event needs a colored configuration")
    return colors.size > 1 and bool(np.any(colors != colors[0]))


# ---------------------------------------------------------------------------
# Chain
# ---------------------------------------------------------------------------


# `crcm.new_chain`, `bd_step` and `run_chain` run either model; this name
# stays because benchmarks/workloads.py starts its color chains with it
new_wr_chain = new_chain


def wr_step(state: ChainState) -> ChainState:
    """`bd_step`, under the name benchmarks/tracer.py and workloads.py bind."""
    return bd_step(state)


def run_wr_chain(
    params: WrParams,
    rng: np.random.Generator,
    sweeps: int = 400,
    burn_in: int = 200,
    thin: int = 2,
    keep_configs: bool = False,
) -> SamplerReport:
    """`run_chain`, under the name benchmarks/tracer.py times."""
    return run_chain(params, rng, sweeps, burn_in, thin, keep_configs=keep_configs)


# ---------------------------------------------------------------------------
# Coloring kernel
# ---------------------------------------------------------------------------


def fk_colorize(
    centers: np.ndarray, radii: np.ndarray, q: int, rng: np.random.Generator
) -> np.ndarray:
    """One color per ball: every connected component gets one independent
    uniform color in 1..q.  The colored balls are always allowed: distinct
    components never touch.  Forgetting the colors is dropping the array."""
    if q < 2 or int(q) != q:
        raise ValueError("need an integer q >= 2")
    count, labels = components(centers, radii)
    return rng.integers(1, int(q) + 1, size=count)[labels]


# ---------------------------------------------------------------------------
# Coupling consistency
# ---------------------------------------------------------------------------


@dataclass
class FkReport:
    p_values: np.ndarray  # (pairs, 3): count, components, largest
    threshold: float
    rejected: bool
    statistics: tuple = ("count", "n_cc", "largest")


def fk_consistency_test(
    params: WrParams,
    rng_seed: int = 0,
    pairs: int = 8,
    sweeps: int = 300,
    burn_in: int = 150,
    thin: int = 3,
    crcm_z: Optional[float] = None,
) -> FkReport:
    """Two-sampler cross-check: color-blind samples of `params` (intensity
    z, q colors) against cluster-weighted samples at intensity z/q, compared
    per seed pair on count, component count, and largest component size.
    Pass `crcm_z` to deliberately mismatch intensities (negative control)."""
    z_crcm = params.z / params.q if crcm_z is None else crcm_z
    cr_params = ModelParams(z_crcm, params.q, params.law, params.window)
    pvals = np.ones((pairs, 3))
    for s in range(pairs):
        wr, cr = (run_chain(p, chain_rng(rng_seed, s, k), sweeps=sweeps, burn_in=burn_in, thin=thin)
                  for k, p in enumerate((params, cr_params)))
        for t, (a, b) in enumerate(
            [(wr.counts, cr.counts), (wr.n_cc, cr.n_cc), (wr.largest, cr.largest)]
        ):
            pvals[s, t] = ks_pvalue(a, b)
    return FkReport(pvals, *ks_family(pvals))


# ---------------------------------------------------------------------------
# Balance-equation residuals
# ---------------------------------------------------------------------------


def gnz_residual_wr(samples, params: WrParams, rng, inner_points: int = 96) -> list[GnzRow]:
    """`gnz_residuals`, under the name the benchmark tracer times."""
    return gnz_residuals(samples, params, rng, inner_points)
