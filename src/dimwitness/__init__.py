"""Dimension witnesses from sphere-embedding ratio bounds.

The package computes an analytic lower bound on the ratio between bilinear
forms maximized over n-dimensional versus m-dimensional unit vectors,
simulates the quantum strategy whose correlations saturate the inner-product
kernel, and runs a finite-question Bell-functional pipeline that certifies a
lower bound on the local Hilbert-space dimension needed to reproduce those
correlations.
"""

__version__ = "0.1.0"

from .analytic_bounds import (
    LowerBoundReport,
    asymptotic_estimate,
    f,
    gamma_ratio_series,
    kg_lower_bound,
    log1p_bounds,
    log_gamma,
    monotonicity_check,
    robbins_bounds,
    y_closed_form,
)
from .embedding_opt import (
    DOT_KERNEL,
    KernelMatrix,
    SeesawResult,
    VectorAssignment,
    analytic_d,
    brute_force_signs,
    discretize_kernel,
    empirical_ratio,
    project_embed,
    seesaw_maximize,
)
from .errors import DomainError, NumericalIntegrityError, ResourceError
from .quantum import (
    CliffordSet,
    PauliMap,
    QuantumStrategy,
    RealizedVectors,
    clifford_generators,
    correlation,
    tsirelson_strategy,
    vectorize,
)
from .sphere import (
    EpsNet,
    RegionMoments,
    SphereSampler,
    build_eps_net,
    dot_squared_expectation,
    geodesic_net,
    nearest_point,
    partial_norm_expectation,
    region_moments,
    sample_uniform,
    voronoi_moments,
)
from .witness import (
    WitnessConfig,
    WitnessReport,
    bell_value_finite,
    bell_value_infinite,
    eps_threshold,
    run_witness,
)

__all__ = [
    "__version__",
    "LowerBoundReport",
    "asymptotic_estimate",
    "f",
    "gamma_ratio_series",
    "kg_lower_bound",
    "log1p_bounds",
    "log_gamma",
    "monotonicity_check",
    "robbins_bounds",
    "y_closed_form",
    "DOT_KERNEL",
    "KernelMatrix",
    "SeesawResult",
    "VectorAssignment",
    "analytic_d",
    "brute_force_signs",
    "discretize_kernel",
    "empirical_ratio",
    "project_embed",
    "seesaw_maximize",
    "DomainError",
    "NumericalIntegrityError",
    "ResourceError",
    "CliffordSet",
    "PauliMap",
    "QuantumStrategy",
    "RealizedVectors",
    "clifford_generators",
    "correlation",
    "tsirelson_strategy",
    "vectorize",
    "EpsNet",
    "RegionMoments",
    "SphereSampler",
    "build_eps_net",
    "dot_squared_expectation",
    "geodesic_net",
    "nearest_point",
    "partial_norm_expectation",
    "region_moments",
    "sample_uniform",
    "voronoi_moments",
    "WitnessConfig",
    "WitnessReport",
    "bell_value_finite",
    "bell_value_infinite",
    "eps_threshold",
    "run_witness",
]
