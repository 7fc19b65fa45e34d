"""Covering asymptotics of graph-directed self-similar sets with condensation.

The package measures grid-cell covering counts of attractors described by
directed multigraphs of contractive similarities, solves the associated
matrix renewal equations, and classifies the large-scale behavior of the
rescaled counts (constant limit, periodic oscillation, or divergence
driven by a large condensation set).
"""
from .asymptotics import (
    AnalysisResult,
    AsymptoticReport,
    CrossCheckResult,
    RegimeResult,
    analyze,
    classify_regime,
    cross_check,
    estimate_limit,
)
from .covering import (
    CountResult,
    CoveringProfile,
    ForcingContext,
    GeometrySet,
    IntegralResult,
    condensation_integral,
    count,
    generate,
    lattice_grid,
    profile,
    profile_at,
)
from .errors import (
    GdcoverError,
    InconclusiveRegimeError,
    NumericalError,
    ResourceLimitError,
    ValidationError,
)
from .geometry import Box, Primitive, Similarity, rotation_2d
from .graph import (
    Edge,
    MWGraph,
    Path,
    ValidationReport,
    certify_separation,
    validate,
)
from .lattice import LatticeResult, classify, classify_graph, cycle_log_ratios
from .renewal import (
    AtomicMeasure,
    MatrixMeasure,
    RenewalLimit,
    StepFunction,
    check_dri,
    limit_value,
    renewal_solve,
    transfer_measure,
)
from .schema import (
    bundled_systems,
    dump_system,
    dumps_system,
    load_bundled,
    load_system,
    parse_system,
)
from .spectral import SpectralData, solve_s0, spectral_radius

__version__ = "0.1.0"
