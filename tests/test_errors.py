"""Arguments outside an operation's domain raise DomainError, never a
TypeError, ValueError or OverflowError from deeper in numpy or Python."""

import json
import math

import numpy as np
import pytest

from dimwitness import (
    DomainError,
    KernelMatrix,
    SphereSampler,
    WitnessConfig,
    analytic_d,
    asymptotic_estimate,
    build_eps_net,
    clifford_generators,
    dot_squared_expectation,
    empirical_ratio,
    f,
    gamma_ratio_series,
    geodesic_net,
    kg_lower_bound,
    monotonicity_check,
    partial_norm_expectation,
    project_embed,
    region_moments,
    robbins_bounds,
    seesaw_maximize,
    tsirelson_strategy,
    y_closed_form,
)
from dimwitness.analytic_bounds import log_f
from dimwitness.embedding_opt import discretize_kernel, dot_climb
from dimwitness.errors import as_integer
from dimwitness.quantum import tsirelson_deviation
from dimwitness.sphere import EpsNet, geodesic_frequency
from dimwitness.witness import bell_value_infinite, eps_threshold


def moments_of_a_half_sample():
    net = build_eps_net(3, 0.5)
    return region_moments(net, 100 * net.size + 0.5, SphereSampler(3, 0))


def ratio_on_moments_of_another_net():
    """empirical_ratio on the (3, 0.5) net, given the moments of (3, 0.4)."""
    other = build_eps_net(3, 0.4)
    moments = region_moments(other, 100 * other.size, SphereSampler(3, 0))
    return empirical_ratio(3, 2, build_eps_net(3, 0.5), moments)


def dot(a, b):
    """Row-wise dot products of two (batch, dim) arrays."""
    return np.einsum("ij,ij->i", a, b)


def kernel_of(samples):
    """The kernel `dot` discretized by Monte Carlo over `samples` pairs on a
    net of three points on S^2."""
    net = EpsNet(dim=3, eps=0.9, points=np.eye(3))
    return discretize_kernel(dot, net, samples=samples, sampler=SphereSampler(3, 1))


KERNEL = KernelMatrix(np.eye(2))

# each of these raised TypeError, ValueError or OverflowError instead
REFUSED = {
    "net-dim": lambda: build_eps_net(2.5, 0.5),
    "net-eps-str": lambda: build_eps_net(3, "0.5"),
    "geodesic-k": lambda: geodesic_net(2.5),
    "sampler-dim": lambda: SphereSampler(2.5, 0).sample(3),
    "moments-samples": moments_of_a_half_sample,
    "climb-m": lambda: dot_climb(np.eye(3), 2.5, 0),
    "seesaw-m": lambda: seesaw_maximize(KERNEL, 2.5),
    "seesaw-restarts": lambda: seesaw_maximize(KERNEL, 2, restarts=2.5),
    "partial-norm-k": lambda: partial_norm_expectation(3, 1.5, 2000, SphereSampler(3, 0)),
    "dot-squared-samples": lambda: dot_squared_expectation(3, 1000.5, SphereSampler(3, 0)),
    "config-eps-str": lambda: WitnessConfig(3, 1, "0.3"),
    # each of these two was kept as a truthy string or int, which allowed small n
    "config-allow-small-n-str": lambda: WitnessConfig(3, 2, 0.3, allow_small_n="no"),
    "config-allow-small-n-int": lambda: WitnessConfig(3, 2, 0.3, allow_small_n=1),
    "monotonicity-inf": lambda: monotonicity_check(math.inf),
    "strategy-none": lambda: tsirelson_strategy(None),
    "strategy-nan": lambda: tsirelson_strategy(math.nan),
    "generators-inf": lambda: clifford_generators(math.inf),
    "bound-n-none": lambda: kg_lower_bound(None, 2),
    "bound-m-nan": lambda: kg_lower_bound(3, math.nan),
    "estimate-n-inf": lambda: asymptotic_estimate(math.inf, 2),
    # these returned a kernel of NaN (with a RuntimeWarning) and of -0.0
    "kernel-samples-zero": lambda: kernel_of(0),
    "kernel-samples-negative": lambda: kernel_of(-5),
    # a kernel that is not a callable
    "kernel-str": lambda: discretize_kernel("dot", build_eps_net(3, 0.5), 100,
                                            SphereSampler(3, 0)),
    # this returned the d = 1 threshold, as m = 2 d^2
    "eps-threshold-d-negative": lambda: eps_threshold(3, -1),
    # these returned NaN, raised a RuntimeWarning and "not enough values to unpack"
    "climb-nan": lambda: dot_climb(np.full((3, 3), math.nan), 2, 0),
    "climb-inf": lambda: dot_climb(np.diag([1.0, math.inf, 1.0]), 2, 0),
    "climb-1d": lambda: dot_climb(np.ones(3), 2, 0),
    # this returned a ratio, 1.0594
    "ratio-moments-of-another-net": ratio_on_moments_of_another_net,
}

# (call, the argument its refusal names); each but bound-m raised a TypeError
# or named the wrong argument
NAMED = {
    "sampler-seed": (lambda: SphereSampler(3, 2.5), "seed"),
    "sampler-stream": (lambda: SphereSampler(3, 1, 0.5), "stream_id"),
    "net-seed": (lambda: build_eps_net(3, 0.5, seed=1.5), "seed"),
    "net-max-points": (lambda: build_eps_net(3, 0.5, max_points=None), "max_points"),
    "frequency-max-points": (lambda: geodesic_frequency(0.3, 2.5e4 + 0.5), "max_points"),
    "y-closed-form-k": (lambda: y_closed_form(3, 1.5), "k"),
    "bound-m": (lambda: kg_lower_bound(3, 1.5), "m"),
    "partial-norm-samples": (
        lambda: partial_norm_expectation(3, 2, None, SphereSampler(3, 0)), "samples"),
    "dot-squared-samples-str": (
        lambda: dot_squared_expectation(3, "2000", SphereSampler(3, 0)), "samples"),
    "bell-infinite-samples": (
        lambda: bell_value_infinite(3, dot, None, SphereSampler(3, 0)), "samples"),
    "kernel-samples": (lambda: kernel_of(2.5), "samples"),
    "eps-threshold-d": (lambda: eps_threshold(3, 1.5), "d"),
    "eps-threshold-n-none": (lambda: eps_threshold(None, 1), "n"),
    "eps-threshold-n-str": (lambda: eps_threshold("9", 1), "n"),
    "partial-norm-n-none": (
        lambda: partial_norm_expectation(None, 1, 2000, SphereSampler(3, 0)), "n"),
    # this blamed the sampler, as did the next two
    "partial-norm-n-float": (
        lambda: partial_norm_expectation(3.5, 1, 2000, SphereSampler(3, 0)), "n"),
    "dot-squared-n": (lambda: dot_squared_expectation(None, 2000, SphereSampler(3, 0)), "n"),
    "bell-infinite-n": (lambda: bell_value_infinite(None, dot, 10, SphereSampler(3, 0)), "n"),
    "analytic-d-n": (lambda: analytic_d(None, 1), "n"),
    # this named k
    "analytic-d-m": (lambda: analytic_d(3, 1.5), "m"),
    "project-embed-m": (lambda: project_embed([1.0, 0.0, 0.0], 1.5), "m"),
    "tsirelson-deviation-n": (lambda: tsirelson_deviation(None), "n"),
    # the cache hashed n first: TypeError, unhashable type 'list'
    "tsirelson-deviation-n-list": (lambda: tsirelson_deviation([3]), "n"),
}


# (call, its refusal); the first three returned NaN, the array named
# log_gamma, and robbins_bounds raised NumericalIntegrityError
NOT_A_NUMBER = {
    "log-f-nan": (lambda: log_f(math.nan), "f requires n >= 1"),
    "f-nan": (lambda: f(math.nan), "f requires n >= 1"),
    "gamma-ratio-series-nan": (lambda: gamma_ratio_series(math.nan, 3),
                               "gamma_ratio_series requires k >= 1"),
    "log-f-array-nan": (lambda: log_f(np.array([math.nan, 3.0])), "f requires n >= 1"),
    "robbins-nan": (lambda: robbins_bounds(math.nan), "robbins_bounds requires a finite x >= 2"),
    "robbins-inf": (lambda: robbins_bounds(math.inf), "robbins_bounds requires a finite x >= 2"),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_out_of_domain_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call, message", NOT_A_NUMBER.values(), ids=NOT_A_NUMBER.keys())
def test_nan_and_inf_are_refused_as_out_of_range(call, message):
    with pytest.raises(DomainError, match=rf"^{message}$"):
        call()


@pytest.mark.parametrize("call, name", NAMED.values(), ids=NAMED.keys())
def test_refusals_name_the_argument(call, name):
    with pytest.raises(DomainError, match=rf"^{name} must be an integer, got "):
        call()


def test_y_closed_form_names_k_in_its_range_refusals():
    with pytest.raises(DomainError, match="^k must satisfy k ≥ 1$"):
        y_closed_form(3, 0)
    with pytest.raises(DomainError, match="^k must satisfy k ≤ n$"):
        y_closed_form(3, 4)


@pytest.mark.parametrize("d", [0, -1])
def test_eps_threshold_names_d_in_its_range_refusal(d):
    # d = 0 blamed m, and d = -1 returned the d = 1 threshold
    with pytest.raises(DomainError, match="^d must satisfy d ≥ 1$"):
        eps_threshold(3, d)


def test_whole_float_seeds_and_sizes_are_kept():
    assert SphereSampler(3, 2.0, 1.0).seed == 2
    assert build_eps_net(3, 0.5, max_points=1e6).size == build_eps_net(3, 0.5).size
    # 2.5e4 is a float, which math.isqrt refused with a TypeError
    assert geodesic_frequency(0.3, 2.5e4) == geodesic_frequency(0.3, 25_000)
    assert (dot_squared_expectation(3.0, 2000, SphereSampler(3, 0))
            == dot_squared_expectation(3, 2000, SphereSampler(3, 0)))


@pytest.mark.parametrize("eps", [np.float32(0.3), np.float64(0.3), 0.3])
def test_config_keeps_eps_as_a_float(eps):
    # a float32 eps was kept, and `to_json` of the finished report raised
    # TypeError: Object of type float32 is not JSON serializable
    config = WitnessConfig(3, 1, eps)
    assert type(config.eps) is float and config.eps == float(eps)
    assert json.loads(json.dumps(config.to_dict()))["eps"] == float(eps)


@pytest.mark.parametrize("flag", [True, False, np.bool_(True), np.bool_(False)])
def test_config_keeps_allow_small_n_as_a_bool(flag):
    config = WitnessConfig(4, 1, 0.5, allow_small_n=flag)
    assert type(config.allow_small_n) is bool and config.allow_small_n == flag
    assert json.dumps(config.to_dict())


@pytest.mark.parametrize("value", [None, "3", 2.5, math.nan, math.inf, -math.inf])
def test_as_integer_refuses_what_is_not_a_whole_number(value):
    with pytest.raises(DomainError, match=r"^n must be an integer, got "):
        as_integer("n", value)


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0), True])
def test_as_integer_keeps_whole_numbers_as_int(value):
    assert type(as_integer("n", value)) is int
    assert as_integer("n", value) == value
