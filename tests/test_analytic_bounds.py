import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from dimwitness import (
    DomainError,
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
from dimwitness import analytic_bounds
from dimwitness.analytic_bounds import LowerBoundReport, log_f

mp.dps = 40

# high-precision reference evaluation of ln Gamma(1/2) = ln sqrt(pi)
LN_SQRT_PI = 0.5723649429247001


def mp_log_gamma(x):
    return float(mp.loggamma(mp.mpf(x)))


class TestLogGamma:
    def test_trivial_values(self):
        assert abs(log_gamma(1.0)) <= 1e-13
        assert abs(log_gamma(2.0)) <= 1e-13
        assert abs(log_gamma(0.5) - LN_SQRT_PI) <= 1e-13

    def test_against_high_precision_oracle(self):
        # abs error <= 1e-13 where |ln Gamma| is moderate; the output ulp
        # itself exceeds 1e-13 once |ln Gamma| > ~450, so scaled above that
        rng = np.random.default_rng(7)
        xs = np.concatenate([
            np.exp(rng.uniform(np.log(1e-3), np.log(1e6), 300)),
            [1e-3, 0.25, 0.5, 1.0, 1.5, 2.0, 10.5, 100.0, 1e4, 1e6],
        ])
        for x in xs:
            ours = log_gamma(float(x))
            true = mp_log_gamma(float(x))
            assert abs(ours - true) <= 1e-13 * max(1.0, abs(true)), f"x={x}"

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.1, 0.5, 3.0, 1e5])
        vec = log_gamma(xs)
        assert vec.shape == xs.shape
        for i, x in enumerate(xs):
            assert vec[i] == log_gamma(float(x))

    @pytest.mark.parametrize("xs", [
        np.array([0.1, 0.5, 3.0, 1e5, 1e6]),
        np.linspace(0.01, 1e6, 24).reshape(4, 6),
        np.array([]),
        np.ones((0, 3)),
        # a strided view, a Fortran-ordered array and integers
        np.linspace(0.01, 1e6, 48).reshape(6, 8)[1::2, ::3],
        np.asfortranarray(np.linspace(0.01, 1e6, 24).reshape(4, 6)),
        np.arange(1, 25).reshape(4, 6),
    ])
    def test_arrays_equal_math_lgamma(self, xs):
        out = log_gamma(xs)
        assert isinstance(out, np.ndarray) and out.dtype == float
        assert out.shape == xs.shape
        want = np.array([math.lgamma(v) for v in xs.ravel().tolist()]).reshape(xs.shape)
        assert np.array_equal(out, want)

    def test_scalars_give_float(self):
        for x in (2.5, 3, np.float64(0.5), np.array(7.0)):
            out = log_gamma(x)
            assert type(out) is float
            assert out == math.lgamma(float(x))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)
        for bad in ([1.0, 0.0], [2.0, -1.0], [1.0, np.inf], [np.nan], [[1.0], [-3.0]]):
            with pytest.raises(DomainError):
                log_gamma(np.array(bad))


class TestKgLowerBound:
    def test_two_to_one(self):
        assert kg_lower_bound(2, 1).bound == pytest.approx(math.pi**2 / 8, abs=1e-10)

    def test_two_to_one_to_rounding(self):
        assert abs(kg_lower_bound(2, 1).bound - math.pi**2 / 8) <= 2e-15

    def test_three_to_two(self):
        assert kg_lower_bound(3, 2).bound == pytest.approx(
            32 / (3 * math.pi**2), abs=1e-10
        )

    def test_equal_dims_exactly_one(self):
        assert kg_lower_bound(5, 5).bound == 1.0
        assert kg_lower_bound(1, 1).bound == 1.0

    def test_stirling_limit(self):
        assert kg_lower_bound(10**6, 1).bound == pytest.approx(
            math.pi / 2, abs=1e-3
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            kg_lower_bound(2, 3)
        with pytest.raises(DomainError):
            kg_lower_bound(4, 0)

    def test_report_fields(self):
        rep = kg_lower_bound(10, 4)
        assert rep.n == 10 and rep.m == 4
        assert rep.bound == pytest.approx(math.exp(rep.log_bound), rel=1e-15)
        assert rep.f_n == pytest.approx(f(10), rel=1e-15)
        assert rep.asymptotic_estimate == asymptotic_estimate(10, 4)

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=80, deadline=None)
    def test_exceeds_one_and_reconciles_with_f(self, a, b):
        n, m = max(a, b), min(a, b)
        rep = kg_lower_bound(n, m)
        if m < n:
            assert rep.bound > 1.0
        ratio_form = (f(n) / f(m)) ** 2
        # the two evaluation paths agree to 12 significant digits
        assert rep.bound == pytest.approx(ratio_form, rel=1e-12)

    def test_above_one_at_large_n(self):
        # K(n, n-1) - 1 ~ 1/(2n^2) is below the error of a difference of
        # ln Gamma values near n/2, so this needs log_f's series branch
        for n in range(60_000, 10**6 + 1, 997):
            assert kg_lower_bound(n, n - 1).bound > 1.0, n
        assert kg_lower_bound(10**6, 10**6 - 1).bound - 1.0 == pytest.approx(
            0.5 / (10**6 * (10**6 - 1)), rel=1e-3
        )
        assert monotonicity_check(10**5) == (True, None)

    def test_scalar_path_equals_array_path(self):
        # kg_lower_bound takes log_f's scalar branch (math.lgamma, math.log);
        # on the theory sweep grid and every m < n < 120 its reports equal,
        # bit for bit, those built from the array branch
        grid = np.unique(np.round(np.logspace(np.log10(2), 6, 300)).astype(int))
        pairs = {(n, m) for n in grid.tolist()
                 for m in {1, 2, 3, 8, n // 2, n - 1} if 1 <= m < n}
        pairs |= {(n, m) for n in range(2, 120) for m in range(1, n)}
        args = sorted({x for pair in pairs for x in pair})
        by_array = dict(zip(args, log_f(np.array(args, dtype=float)).tolist()))
        for x, want in by_array.items():
            got = log_f(x)
            assert type(got) is float and got == want, x
        for n, m in sorted(pairs):
            lf_n, lf_m = by_array[n], by_array[m]
            log_bound = 2.0 * (lf_n - lf_m)
            expected = LowerBoundReport(
                n=n, m=m, bound=math.exp(log_bound), log_bound=log_bound,
                asymptotic_estimate=asymptotic_estimate(n, m),
                f_n=math.exp(lf_n), f_m=math.exp(lf_m),
            )
            assert kg_lower_bound(n, m) == expected, (n, m)
        for bad in (0, 0.5, np.array([2.0, 0.5])):
            with pytest.raises(DomainError):
                log_f(bad)

    def test_monotone_in_each_argument(self):
        ns = [1, 2, 3, 5, 8, 13, 40, 90, 200]
        for m in (1, 2, 7, 33):
            vals = [kg_lower_bound(n, m).bound for n in ns if n >= m]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        for n in (50, 200):
            vals = [kg_lower_bound(n, m).bound for m in range(1, n + 1)]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


class TestAsymptoticEstimate:
    def test_trivial(self):
        assert asymptotic_estimate(7, 7) == 1.0
        assert asymptotic_estimate(100, 50) == pytest.approx(1.005, abs=1e-15)

    def test_error_within_one_over_m_squared(self):
        for m in (32, 64, 128):
            n = 2 * m
            gap = abs(kg_lower_bound(n, m).bound - asymptotic_estimate(n, m))
            assert gap <= 1.0 / m**2

    def test_n_past_float_range(self):
        # n = 10^400 cannot be made a float; the ints divide exactly, and
        # f(n) is its limit 1/sqrt(2), so K = (f(n)/f(2))^2 = 4/pi
        report = kg_lower_bound(10**400, 2)
        assert report.bound == pytest.approx(4 / math.pi)
        assert report.asymptotic_estimate == asymptotic_estimate(10**400, 2) == 1.25
        assert log_f(10**400) == -0.5 * math.log(2.0)


class TestGammaRatioSeries:
    def test_one_term_at_one(self):
        assert gamma_ratio_series(1.0, 1) == 1.0

    def test_terms_validation(self):
        with pytest.raises(DomainError):
            gamma_ratio_series(2.0, 0)
        with pytest.raises(DomainError):
            gamma_ratio_series(2.0, 4)
        with pytest.raises(DomainError):
            gamma_ratio_series(0.5, 2)

    def test_k100_three_terms(self):
        val = gamma_ratio_series(100.0, 3)
        assert val == pytest.approx(10.0 * (1 - 1 / 800 + 1 / 1280000), rel=1e-15)
        oracle = math.exp(log_gamma(100.5) - log_gamma(100.0))
        assert val == pytest.approx(oracle, rel=1e-7)

    def test_k10_relative_error(self):
        oracle = math.exp(log_gamma(10.5) - log_gamma(10.0))
        assert abs(gamma_ratio_series(10.0, 3) - oracle) / oracle <= 1e-5

    def test_truncation_error_scaling(self):
        # the first omitted term is (5/1024) sqrt(k) / k^3 ~ 4.9e-3 sqrt(k)/k^3
        for k in (10.0, 31.0, 100.0, 1000.0):
            oracle = math.exp(log_gamma(k + 0.5) - log_gamma(k))
            err = abs(gamma_ratio_series(k, 3) - oracle)
            assert err <= 6e-3 * math.sqrt(k) / k**3
        # past k ~ 1e4 the ln Gamma difference loses more bits than the
        # series truncates, so the tail is checked against the exact ratio
        for k in (10000.0, 100000.0):
            oracle = float(mp.gamma(mp.mpf(k) + 0.5) / mp.gamma(mp.mpf(k)))
            err = abs(gamma_ratio_series(k, 3) - oracle)
            assert err <= 6e-3 * math.sqrt(k) / k**3


class TestF:
    def test_values(self):
        assert f(1) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-13)
        assert f(2) == pytest.approx(math.sqrt(math.pi) / (2 * math.sqrt(2)), rel=1e-13)

    def test_limit(self):
        assert f(10**6) == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            f(0)


class TestMonotonicity:
    def test_small_range_by_evaluation(self):
        assert monotonicity_check(9) == (True, None)

    def test_first_step(self):
        assert monotonicity_check(2) == (True, None)
        assert f(2) > f(1)

    def test_large_range(self):
        assert monotonicity_check(10**4) == (True, None)

    def test_domain(self):
        with pytest.raises(DomainError):
            monotonicity_check(1)

    def test_memory_does_not_grow_with_the_range(self):
        # all at once, 4e6 values took about 185 MB
        tracemalloc.start()
        try:
            assert monotonicity_check(4_000_000) == (True, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_a_dip_at_a_block_boundary_is_found(self, shift, monkeypatch):
        # f(k + 1) <= f(k) at k one before, at and one past the first k of
        # the second block, which is the last k of the first
        k = analytic_bounds._MONOTONE_BLOCK + 1 + shift

        def dipped(n):
            values = log_f(n)
            values[n == k + 1] -= 1.0
            return values

        monkeypatch.setattr(analytic_bounds, "log_f", dipped)
        assert monotonicity_check(3 * analytic_bounds._MONOTONE_BLOCK) == (False, k)


class TestRobbinsBounds:
    def test_factorials_inside(self):
        lo, hi = robbins_bounds(2.0)
        assert lo < math.log(2.0) < hi
        lo, hi = robbins_bounds(10.0)
        assert lo < math.log(3628800.0) < hi

    def test_half_integer(self):
        lo, hi = robbins_bounds(5.5)
        assert lo < log_gamma(6.5) < hi

    def test_random_points_bracket(self):
        # each call certifies the strict bracket at 40 digits; the float
        # comparison gets ulp-scaled slack since the margin 1/(360 x^3)
        # drops below double resolution of ln Gamma near x ~ 4e3
        rng = np.random.default_rng(11)
        for x in rng.uniform(2.0, 1e4, size=200):
            lo, hi = robbins_bounds(float(x))
            val = log_gamma(float(x) + 1.0)
            slack = 16 * np.finfo(float).eps * max(1.0, abs(val))
            assert lo - slack <= val <= hi + slack, f"x={x}"

    def test_domain(self):
        with pytest.raises(DomainError):
            robbins_bounds(1.99)

    @pytest.mark.parametrize("x", [c * 10.0**e for e in range(9, 31) for c in (1, 2, 5)])
    def test_large_arguments_are_bracketed(self, x):
        # at 40 digits each but 1e9 and 1e12 raised "factorial bracket
        # failed": the upper margin needs log10(360 x^4 ln x) digits
        lo, hi = robbins_bounds(x)
        assert lo <= hi
        with mp.workdps(200):
            val = mp.loggamma(mp.mpf(x) + 1)
        slack = 4 * np.finfo(float).eps * float(val)
        assert lo - slack <= val <= hi + slack


class TestLog1pBounds:
    def test_n1(self):
        lo, hi = log1p_bounds(1)
        assert lo == pytest.approx(1 - 0.5 + 1 / 3 - 0.25, rel=1e-15)
        assert hi == pytest.approx(1 - 0.5 + 1 / 3, rel=1e-15)
        assert lo <= math.log(2.0) <= hi

    def test_n10(self):
        lo, hi = log1p_bounds(10)
        assert lo == pytest.approx(0.09530833333333333, rel=1e-12)
        assert hi == pytest.approx(0.09533333333333333, rel=1e-12)

    def test_width_at_n1000(self):
        lo, hi = log1p_bounds(1000)
        assert hi - lo <= 2.5e-13

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_bracket_certified(self, n):
        lo, hi = log1p_bounds(n)  # raises internally if the bracket fails
        assert lo <= hi

    @pytest.mark.parametrize("n", [10**16, 10**22, 10**28, 10**29, 10**31,
                                   3 * 10**20, 3 * 10**21, 3 * 10**30])
    def test_large_arguments_are_bracketed(self, n):
        # at 60 digits each raised "log1p bracket failed": the lower margin
        # needs log10(5 n^4) digits
        lo, hi = log1p_bounds(n)
        assert lo <= hi
        assert hi == pytest.approx(1.0 / n, rel=1e-15)

    def test_a_non_integral_n_is_refused(self):
        # 2.5 used to run as 2: a bracket (0.40104, 0.41667) that misses
        # ln(1 + 1/2.5) = 0.33647
        with pytest.raises(DomainError, match=r"^n must be an integer, got 2\.5"):
            log1p_bounds(2.5)
        assert log1p_bounds(3.0) == log1p_bounds(3)


class TestYClosedForm:
    def test_full_norm(self):
        assert y_closed_form(7, 7) == 1.0

    def test_two_one(self):
        assert y_closed_form(2, 1) == pytest.approx(2 / math.pi, rel=1e-13)

    def test_frozen_oracle_value(self):
        # mpmath: gamma(2) gamma(4) / (gamma(3/2) gamma(9/2)) at 40 digits
        assert y_closed_form(8, 3) == pytest.approx(0.5820523633075029, rel=1e-13)

    @given(st.integers(min_value=2, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_increasing_in_k(self, n):
        vals = [y_closed_form(n, k) for k in range(1, n + 1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0
