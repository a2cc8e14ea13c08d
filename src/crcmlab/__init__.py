"""Finite-volume lab for the continuum random cluster model and the
Widom-Rowlinson model: exact Poisson Boolean sampling, birth-death MCMC for
the cluster-weighted and hard-core-color densities, their component-coloring
coupling, and calculators for the explicit bounds the models satisfy."""

from .geometry import (
    Box,
    MarkedBall,
    SpatialIndex,
    balls_intersect,
    centered_box,
    default_cell_size,
    dilate,
    neighbor_candidates,
    unit_ball_volume,
)
from .model_core import (
    INFINITE,
    Configuration,
    DiracRadius,
    ModelParams,
    NonIntegrableWithoutTruncation,
    ParetoRadius,
    RadiusLaw,
    TruncatedParetoRadius,
    UniformRadius,
    d_moment,
    expected_hits,
    load_configuration,
    parse_law,
    sample_boolean_with_halo,
    sample_poisson_boolean,
    sample_radius,
    save_configuration,
    steiner_volume,
)
from .connectivity import (
    BoundsReport,
    ClusterLabeling,
    ComponentStats,
    LambdaNotInWindow,
    LocalCCResult,
    NestingViolation,
    cc_increment,
    check_bounds,
    compatibility_offset,
    component_stats,
    components,
    count_components,
    far_left_slot,
    local_cc,
    local_count,
)

__version__ = "0.1.0"
