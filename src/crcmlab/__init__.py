"""Finite-volume lab for the continuum random cluster model and the
Widom-Rowlinson model: exact Poisson Boolean sampling, birth-death MCMC for
the cluster-weighted and hard-core-color densities, their component-coloring
coupling, and calculators for the explicit bounds the models satisfy."""

from .geometry import (
    Box,
    SpatialIndex,
    centered_box,
    default_cell_size,
    dilate,
    unit_ball_volume,
)
from .model_core import (
    INFINITE,
    Configuration,
    DiracRadius,
    ModelParams,
    ParetoRadius,
    RadiusLaw,
    UniformRadius,
    load_configuration,
    parse_law,
    sample_boolean_with_halo,
    sample_poisson_boolean,
    save_configuration,
)
from .connectivity import (
    BallGraph,
    BoundsReport,
    ClusterLabeling,
    LocalCCResult,
    check_bounds,
    compatibility_offset,
    components,
    count_components,
    local_cc,
)

__version__ = "0.1.0"
