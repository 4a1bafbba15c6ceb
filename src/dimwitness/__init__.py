"""Dimension witnesses from sphere-embedding ratio bounds.

The package computes an analytic lower bound on the ratio between bilinear
forms maximized over n-dimensional versus m-dimensional unit vectors,
simulates the quantum strategy whose correlations saturate the inner-product
kernel, and runs a finite-question Bell-functional pipeline that certifies a
lower bound on the local Hilbert-space dimension needed to reproduce those
correlations.

The namespace is lazy (PEP 562): ``import dimwitness`` loads no submodule
and not even numpy.  Each exported name, and each submodule, is imported
from its home on first access and then kept in the package globals, so
``dimwitness.kg_lower_bound`` loads only ``analytic_bounds`` and
``errors``.  ``dimwitness.cli`` imports every module when it loads.
"""

import importlib

__version__ = "0.1.0"

# every exported name, under its home module
_HOMES = {
    "analytic_bounds": (
        "LowerBoundReport", "asymptotic_estimate", "f", "gamma_ratio_series", "kg_lower_bound",
        "log1p_bounds", "log_gamma", "monotonicity_check", "robbins_bounds", "y_closed_form",
    ),
    "embedding_opt": (
        "KernelMatrix", "SeesawResult", "VectorAssignment", "analytic_d", "brute_force_signs",
        "discretize_kernel", "empirical_ratio", "project_embed", "seesaw_maximize",
    ),
    "errors": ("DomainError", "NumericalIntegrityError", "ResourceError"),
    "quantum": (
        "CliffordSet", "PauliMap", "QuantumStrategy", "RealizedVectors", "clifford_generators",
        "correlation", "tsirelson_strategy", "vectorize",
    ),
    "sphere": (
        "EpsNet", "RegionMoments", "SphereSampler", "build_eps_net", "dot_squared_expectation",
        "geodesic_net", "nearest_point", "partial_norm_expectation", "region_moments",
        "sample_uniform", "voronoi_moments",
    ),
    "witness": (
        "WitnessConfig", "WitnessReport", "bell_value_finite", "bell_value_infinite",
        "eps_threshold", "run_witness",
    ),
}
_HOME = {name: home for home, names in _HOMES.items() for name in names}
# every submodule, served on first access as the names are
_SUBMODULES = {*_HOMES, "cli", "schemas", "seeding"}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
