"""Acceptance suite: one test per release criterion.

Each test pins the documented tolerance and wall-clock budget and prints one
PASS line (run with -s to see them; a failure prints FAIL via the assert).
Everything is seeded, so green runs are reproducible bit for bit.
"""

import json
import math
import time

import numpy as np
import pytest

import dimwitness.cli
from dimwitness import (
    SphereSampler,
    WitnessConfig,
    brute_force_signs,
    build_eps_net,
    dot_squared_expectation,
    empirical_ratio,
    kg_lower_bound,
    log1p_bounds,
    log_gamma,
    monotonicity_check,
    partial_norm_expectation,
    region_moments,
    robbins_bounds,
    run_witness,
    seesaw_maximize,
    tsirelson_strategy,
    vectorize,
    y_closed_form,
)
from dimwitness.embedding_opt import KernelMatrix
from dimwitness.quantum import correlation
from dimwitness.witness import VERDICT_CERTIFIED, VERDICT_CONSISTENT

CHSH = np.array([[1.0, 1.0], [1.0, -1.0]])


class Budget:
    def __init__(self, name, limit_s):
        self.name = name
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"{self.name}: runtime {elapsed:.2f}s exceeds {self.limit_s}s"
            )
            print(f"ACCEPTANCE {self.name} PASS ({elapsed:.2f}s < {self.limit_s}s)")
        return False


def test_criterion_01_bound_values():
    with Budget("1 bound values", 1.0):
        assert abs(kg_lower_bound(2, 1).bound - math.pi**2 / 8) <= 1e-10
        assert abs(kg_lower_bound(3, 2).bound - 32 / (3 * math.pi**2)) <= 1e-10
        assert abs(kg_lower_bound(10**6, 1).bound - math.pi / 2) <= 1e-3


def test_criterion_02_asymptotics():
    with Budget("2 asymptotics", 1.0):
        for m in (32, 64, 128):
            n = 2 * m
            est = 1 + 1 / (2 * m) - 1 / (2 * n)
            assert abs(kg_lower_bound(n, m).bound - est) <= 1 / m**2


def test_criterion_03_appendix_checks():
    with Budget("3 appendix checks", 5.0):
        ok, first_bad = monotonicity_check(10**4)
        assert ok and first_bad is None

        rng = np.random.default_rng(101)
        for x in rng.uniform(2.0, 1e4, size=200):
            lo, hi = robbins_bounds(float(x))  # certifies the strict bracket
            val = log_gamma(float(x) + 1.0)
            slack = 16 * np.finfo(float).eps * max(1.0, abs(val))
            assert lo - slack <= val <= hi + slack

        ns = np.unique(np.exp(rng.uniform(0, np.log(1e6), 200)).astype(np.int64))
        for n in ns[ns >= 1]:
            log1p_bounds(int(n))  # raises internally on a bracket failure


def test_criterion_04_sphere_integrals():
    with Budget("4 sphere integrals", 30.0):
        est, se = partial_norm_expectation(8, 3, 10**6, SphereSampler(8, 104))
        assert abs(est - y_closed_form(8, 3)) <= 3 * se
        for n, seed in ((2, 204), (3, 304), (10, 1004)):
            est, se = dot_squared_expectation(n, 10**6, SphereSampler(n, seed))
            assert abs(est - 1 / n) <= 3 * se


def test_criterion_05_tsirelson_exactness():
    with Budget("5 inner-product strategy exactness", 60.0):
        for n in range(2, 13):
            strategy = tsirelson_strategy(n)
            sampler = SphereSampler(n, 500 + n)
            worst = 0.0
            for _ in range(1000):
                pair = sampler.sample(2)
                dev = abs(
                    correlation(strategy, pair[0], pair[1])
                    - float(pair[0] @ pair[1])
                )
                worst = max(worst, dev)
            assert worst <= 1e-10, f"n={n}: deviation {worst}"


def test_criterion_06_vectorization():
    with Budget("6 unit-vector realization", 30.0):
        for n in (3, 5, 7):  # local dimensions 2, 4, 8
            strategy = tsirelson_strategy(n)
            assert strategy.d == 2 ** (n // 2)
            sampler = SphereSampler(n, 600 + n)
            for _ in range(1000):
                pair = sampler.sample(2)
                rv = vectorize(strategy, pair[0], pair[1])
                corr = correlation(strategy, pair[0], pair[1])
                assert abs(float(rv.alice_vector @ rv.bob_vector) - corr) <= 1e-10
                assert abs(np.linalg.norm(rv.alice_vector) - 1) <= 1e-12
                assert abs(np.linalg.norm(rv.bob_vector) - 1) <= 1e-12


def test_criterion_07_optimizer_oracle():
    with Budget("7 optimizer vs exact oracle", 60.0):
        rng = np.random.default_rng(107)
        hits = 0
        for trial in range(100):
            kernel = KernelMatrix(entries=rng.uniform(-1, 1, (4, 4)))
            exact = brute_force_signs(kernel)
            found = seesaw_maximize(kernel, 1, restarts=64, seed=trial).value
            assert found <= exact + 1e-9  # a local method never overshoots
            hits += abs(found - exact) <= 1e-7
        assert hits >= 95, f"only {hits}/100 matched the sign oracle"

        chsh = KernelMatrix(entries=CHSH)
        assert seesaw_maximize(chsh, 1, restarts=16, seed=0).value == pytest.approx(
            2.0, abs=1e-7
        )
        assert seesaw_maximize(chsh, 2, restarts=16, seed=0).value == pytest.approx(
            2 * math.sqrt(2), abs=1e-7
        )


def test_criterion_08_empirical_ratio_convergence():
    with Budget("8 empirical ratio convergence", 300.0):
        def ratio(n, m, eps, seed):
            # 1600 samples per region: the eps 0.1 -> 0.05 increment of the
            # (2,1) ratio is ~8e-3 and must clear the moment noise
            net = build_eps_net(n, eps)
            moments = region_moments(
                net, 1600 * net.size, SphereSampler(n, seed + 1)
            )
            return empirical_ratio(n, m, net, moments, seed=seed + 2)

        target21 = math.pi**2 / 8
        values = []
        for eps in (0.2, 0.1, 0.05):
            val, details = ratio(2, 1, eps, seed=108)
            assert val <= target21 + 4 * details["ratio_std_error"]
            values.append(val)
        assert values[0] < values[1] < values[2], f"not increasing: {values}"

        target32 = 32 / (3 * math.pi**2)
        for eps in (0.3, 0.2, 0.1):
            val, details = ratio(3, 2, eps, seed=208)
            assert val <= target32 + 4 * details["ratio_std_error"]


def test_criterion_09_witness_chain():
    with Budget("9 witness chain", 600.0):
        baseline = run_witness(WitnessConfig(n=3, d=1, eps=0.1, seed=0))
        assert all(c.holds for c in baseline.chain_checks)
        assert baseline.verdict in (VERDICT_CERTIFIED, VERDICT_CONSISTENT)

        for seed in range(10):
            report = run_witness(WitnessConfig(n=3, d=1, eps=0.1, seed=seed))
            assert report.verdict in (VERDICT_CERTIFIED, VERDICT_CONSISTENT), (
                f"seed {seed}: {report.verdict}"
            )
            assert all(c.holds for c in report.chain_checks)

        quantum_values = [
            run_witness(WitnessConfig(n=3, d=1, eps=eps, seed=0)).b_finite_quantum
            for eps in (0.3, 0.2, 0.1)
        ]
        assert quantum_values[0] < quantum_values[1] < quantum_values[2] <= 1 / 3 + 0.01


def test_criterion_10_determinism():
    with Budget("10 determinism", 120.0):
        # reruns of the criterion-4 estimators are bit-identical
        a = dot_squared_expectation(3, 10**5, SphereSampler(3, 310))
        b = dot_squared_expectation(3, 10**5, SphereSampler(3, 310))
        assert a == b
        a = partial_norm_expectation(8, 3, 10**5, SphereSampler(8, 311))
        b = partial_norm_expectation(8, 3, 10**5, SphereSampler(8, 311))
        assert a == b
        # rerun of a criterion-9 pipeline reproduces the report verbatim
        r1 = run_witness(WitnessConfig(n=3, d=1, eps=0.2, seed=3))
        r2 = run_witness(WitnessConfig(n=3, d=1, eps=0.2, seed=3))
        assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())


def test_criterion_11_certified_deep_run(tmp_path):
    with Budget("11 certified deep run", 30.0):
        # eps 0.006 < eps* ~ 6.47e-3: the k = 128 geodesic net, 163 842
        # regions, with exact moments and no statistical slack
        out = tmp_path / "deep.json"
        code = dimwitness.cli.main(
            ["witness", "3", "1", "0.006", "--deep", "--out", str(out)]
        )
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert code == 0
        assert doc["net_size"] == 163_842 and doc["moment_method"] == "exact"
        assert [c["holds"] for c in doc["chain_checks"]] == [True] * 4
        assert doc["verdict"] == VERDICT_CERTIFIED
        # the adversary must never fall below the value it reaches here
        # (ROADMAP item 7), which README quotes
        assert doc["b_finite_seesaw_d"] >= 0.30842136760679834
