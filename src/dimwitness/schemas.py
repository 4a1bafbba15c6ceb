"""JSON Schemas for every machine-readable output of the CLI.

Each document carries "schema": 1; bumping a format bumps the constant.
"""

_MANIFEST = {
    "type": "object",
    "required": ["command", "argv", "seed", "version"],
    "properties": {
        "command": {"type": "string"},
        "argv": {"type": "array", "items": {"type": "string"}},
        "seed": {"type": "integer"},
        "version": {"type": "string"},
        "timestamp": {"type": "string"},
        "duration_s": {"type": "number"},
    },
}

BOUND_REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "kind", "n", "m", "bound", "log_bound",
                 "asymptotic_estimate", "f_n", "f_m"],
    "properties": {
        "schema": {"const": 1},
        "kind": {"const": "lower_bound_report"},
        "n": {"type": "integer", "minimum": 1},
        "m": {"type": "integer", "minimum": 1},
        "bound": {"type": "number", "exclusiveMinimum": 0},
        "log_bound": {"type": "number"},
        "asymptotic_estimate": {"type": "number"},
        "f_n": {"type": "number"},
        "f_m": {"type": "number"},
        "manifest": _MANIFEST,
    },
}

NET_HEADER_SCHEMA = {
    "type": "object",
    "required": ["schema", "kind", "dim", "eps", "seed", "size"],
    "properties": {
        "schema": {"const": 1},
        "kind": {"const": "eps_net"},
        "dim": {"type": "integer", "minimum": 1},
        "eps": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "seed": {"type": "integer"},
        "size": {"type": "integer", "minimum": 0},
        "covering_radius": {"type": ["number", "null"]},
        "manifest": _MANIFEST,
    },
}

SEESAW_RESULT_SCHEMA = {
    "type": "object",
    "required": ["schema", "kind", "value", "m", "iterations", "converged"],
    "properties": {
        "schema": {"const": 1},
        "kind": {"const": "seesaw_result"},
        "value": {"type": "number"},
        "m": {"type": "integer", "minimum": 1},
        "iterations": {"type": "integer", "minimum": 0},
        "converged": {"type": "boolean"},
        "value_trace": {"type": "array", "items": {"type": "number"}},
        "manifest": _MANIFEST,
    },
}

TSIRELSON_REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "kind", "n", "local_dim", "pairs", "max_deviation"],
    "properties": {
        "schema": {"const": 1},
        "kind": {"const": "tsirelson_report"},
        "n": {"type": "integer", "minimum": 1},
        "local_dim": {"type": "integer", "minimum": 1},
        "pairs": {"type": "integer", "minimum": 1},
        "max_deviation": {"type": "number", "minimum": 0},
        "manifest": _MANIFEST,
    },
}

_WITNESS_CONFIG = {
    "type": "object",
    "required": ["n", "d", "eps", "m", "seed", "moment_samples_per_region",
                 "validation_pairs", "adversary_restarts", "adversary_max_iters",
                 "adversary_stop_rule", "max_net_points", "allow_small_n"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "d": {"type": "integer", "minimum": 1},
        "eps": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "m": {"type": "integer", "minimum": 2},
        "seed": {"type": "integer"},
        "moment_samples_per_region": {"type": "integer", "minimum": 1},
        "validation_pairs": {"type": "integer", "minimum": 1},
        "adversary_restarts": {"type": "integer", "minimum": 1},
        "adversary_max_iters": {"type": "integer", "minimum": 1},
        "adversary_stop_rule": {"type": "string"},
        "max_net_points": {"type": "integer", "minimum": 1},
        "allow_small_n": {"type": "boolean"},
    },
    "additionalProperties": False,
}

_CHAIN_CHECK = {
    "type": "object",
    "required": ["name", "holds", "slack"],
    "properties": {
        "name": {"type": "string"},
        "holds": {"type": "boolean"},
        "slack": {"type": "number"},
    },
}

WITNESS_REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "kind", "config", "k_lower", "b_infinite_quantum",
                 "b_finite_quantum", "b_finite_seesaw_d", "eps_threshold",
                 "chain_checks", "verdict"],
    "properties": {
        "schema": {"const": 1},
        "kind": {"const": "witness_report"},
        "config": _WITNESS_CONFIG,
        "k_lower": {"type": "number", "minimum": 1},
        "b_infinite_quantum": {"type": "number"},
        "b_finite_quantum": {"type": "number"},
        "b_finite_quantum_se": {"type": "number", "minimum": 0},
        "b_finite_seesaw_d": {"type": "number"},
        "b_finite_seesaw_se": {"type": "number", "minimum": 0},
        "adversary_upper_bound": {
            "type": "number",
            "minimum": 0,
            "description": "tr(M) lambda_max(M), M = sum_u w_u w_u^T / |w_u|: "
                           "no assignment of unit vectors, in any dimension, "
                           "scores above it on the net's kernel",
        },
        "eps_threshold": {"type": "number", "minimum": 0},
        "net_size": {"type": "integer", "minimum": 0},
        "covering_radius": {"type": ["number", "null"], "minimum": 0},
        "moment_method": {
            "enum": ["exact", "monte_carlo"],
            "description": "exact: closed-form Voronoi moments of the geodesic "
                           "net (n = 3), every standard error 0; monte_carlo: "
                           "config.moment_samples_per_region samples per region",
        },
        "empty_regions": {"type": "integer", "minimum": 0},
        "tsirelson_validation_dev": {"type": ["number", "null"], "minimum": 0},
        "seesaw_converged": {
            "type": "boolean",
            "description": "the best adversary restart stopped because "
                           "config.adversary_stop_rule held, not at "
                           "config.adversary_max_iters",
        },
        "chain_checks": {"type": "array", "items": _CHAIN_CHECK},
        "verdict": {
            "enum": [
                "certified_separation",
                "consistent_but_uncertified",
                "violation_of_theory",
            ]
        },
        "manifest": _MANIFEST,
    },
}

APPENDIX_REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "kind", "checks", "all_passed"],
    "properties": {
        "schema": {"const": 1},
        "kind": {"const": "appendix_report"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed"],
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "detail": {"type": "string"},
                },
            },
        },
        "all_passed": {"type": "boolean"},
        "manifest": _MANIFEST,
    },
}
