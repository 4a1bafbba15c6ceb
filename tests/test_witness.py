import collections
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import dimwitness.witness
from dimwitness import embedding_opt, quantum, sphere
from dimwitness import (
    DomainError,
    EpsNet,
    NumericalIntegrityError,
    ResourceError,
    SphereSampler,
    WitnessConfig,
    analytic_d,
    bell_value_finite,
    bell_value_infinite,
    build_eps_net,
    eps_threshold,
    kg_lower_bound,
    project_embed,
    region_moments,
    run_witness,
)
from dimwitness.schemas import WITNESS_REPORT_SCHEMA
from dimwitness.seeding import derive_seed
from dimwitness.sphere import (
    RegionMoments,
    geodesic_frequency,
    geodesic_net,
    geodesic_radius,
    voronoi_moments,
)
from dimwitness.witness import (
    VERDICT_CERTIFIED,
    VERDICT_CONSISTENT,
    VERDICT_VIOLATION,
)


def dot_correlation(a, b):
    return np.einsum("ij,ij->i", a, b)


class TestBellValueInfinite:
    def test_zero_correlation(self):
        val, se = bell_value_infinite(
            3, lambda a, b: np.zeros(a.shape[0]), 5000, SphereSampler(3, 60)
        )
        assert val == 0.0
        assert se == 0.0

    def test_dot_correlation_scores_one_over_n(self):
        for n, seed in ((3, 61), (5, 62)):
            val, se = bell_value_infinite(
                n, dot_correlation, 200_000, SphereSampler(n, seed)
            )
            assert abs(val - 1.0 / n) <= 3 * se

    def test_projection_correlation_capped(self):
        n, m = 3, 2

        def projected(a, b):
            pa = np.stack([project_embed(x, m) for x in a])
            pb = np.stack([project_embed(x, m) for x in b])
            return np.einsum("ij,ij->i", pa, pb)

        val, se = bell_value_infinite(n, projected, 200_000, SphereSampler(n, 63))
        k = kg_lower_bound(n, m).bound
        assert val <= (1.0 / k) * (1.0 / n) + 3 * se
        # the optimal-embedding value is attained by the projection itself
        assert abs(val - analytic_d(n, m)) <= 4 * se

    def test_out_of_range_correlation_rejected(self):
        for value in (2.0, np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                bell_value_infinite(
                    3, lambda a, b: np.full(a.shape[0], value), 5000, SphereSampler(3, 64)
                )


class TestBellValueFinite:
    @staticmethod
    def exact_dim1():
        net = EpsNet(dim=1, eps=0.5, points=np.array([[1.0], [-1.0]]))
        mom = RegionMoments(
            net=net,
            weights=np.array([0.5, 0.5]),
            moment_vectors=np.array([[0.5], [-0.5]]),
            samples_used=0,
            standard_errors=np.zeros(2),
            empty_regions=np.array([], dtype=np.int64),
        )
        return net, mom

    def test_zero_correlations(self):
        net, mom = self.exact_dim1()
        assert bell_value_finite(net, mom, (np.zeros((2, 1)), np.zeros((2, 1)))) == 0.0

    def test_dim1_hand_evaluation(self):
        # w = (+1/2, -1/2), E[uv] = u v: sum_uv w_u w_v u v = (sum_u w_u u)^2 = 1
        net, mom = self.exact_dim1()
        corr = (net.points, net.points)
        assert bell_value_finite(net, mom, corr) == pytest.approx(1.0, abs=1e-15)

    def test_factored_matches_dense(self):
        net = build_eps_net(3, 0.3)
        mom = region_moments(net, 100 * net.size, SphereSampler(3, 65))
        u, w = net.points, mom.moment_vectors
        # sum_uv (w_u . w_v) E_uv over the dense (size, size) E = u u^T
        dense = float(np.sum((w.T @ (u @ u.T)) * w.T))
        factored = bell_value_finite(net, mom, (u, u))
        assert factored == pytest.approx(dense, abs=1e-12)

    def test_dot_correlations_near_one_over_n(self):
        net = build_eps_net(3, 0.3)
        mom = region_moments(net, 200 * net.size, SphereSampler(3, 66))
        val = bell_value_finite(net, mom, (net.points, net.points))
        n, eps = 3, 0.3
        stat = 5 * float(np.sum(mom.standard_errors))
        assert 1.0 / n - 2 * eps - stat <= val <= 1.0 / n + stat

    def test_consistency_with_kernel_path(self):
        from dimwitness.embedding_opt import KernelMatrix, VectorAssignment, kernel_value

        net = build_eps_net(3, 0.3)
        mom = region_moments(net, 100 * net.size, SphereSampler(3, 67))
        w = mom.moment_vectors
        via_bell = bell_value_finite(net, mom, (net.points, net.points))
        via_kernel = kernel_value(
            KernelMatrix(entries=w @ w.T),
            VectorAssignment(m=3, row_vectors=net.points, col_vectors=net.points),
        )
        assert via_bell == pytest.approx(via_kernel, abs=1e-9)

    def test_foreign_moments_rejected(self):
        net, mom = self.exact_dim1()
        corr = (np.ones((2, 1)), np.ones((2, 1)))
        # same size, other points: only the net check can refuse these
        swapped = EpsNet(dim=1, eps=0.5, points=net.points[::-1].copy())
        for other in (swapped, build_eps_net(2, 0.5)):
            with pytest.raises(DomainError, match="different net"):
                bell_value_finite(other, mom, corr)
        # a copy of the net with equal points is accepted
        copy = EpsNet(dim=1, eps=0.5, points=net.points.copy())
        assert bell_value_finite(copy, mom, corr) == bell_value_finite(net, mom, corr)

    def test_shape_validation(self):
        net, mom = self.exact_dim1()
        big = np.array([[1e300], [-1e300]])  # W^T big = 1e300
        for corr in (
            (np.zeros((3, 1)), np.zeros((2, 1))),  # not the net size
            (np.zeros((2, 1)), np.zeros((2, 2))),  # mismatched inner dimension
            (np.zeros(2), np.zeros(2)),  # not matrices
            np.zeros((2, 2)),  # a dense matrix, not a factored pair
            (np.zeros((2, 1)),) * 3,
            (np.full((2, 1), np.nan), np.ones((2, 1))),  # non-finite factors
            (np.ones((2, 1)), np.full((2, 1), -np.inf)),
            (big, big),  # finite factors, the entries' product overflows to inf
            (np.hstack([big, big]), np.hstack([big, -big])),  # inf - inf
            (np.hstack([big, big]) * 1.2e-146,) * 2,  # 2 * 1.44e308 overflows
        ):
            with pytest.raises(DomainError):
                bell_value_finite(net, mom, corr)

    def test_within_one_ulp_of_the_exact_value(self):
        net = geodesic_net(16)
        mom = voronoi_moments(net)
        u = net.points
        w = [[Fraction(a) for a in column] for column in mom.moment_vectors.T.tolist()]
        x = [[Fraction(a) for a in column] for column in u.T.tolist()]
        exact = float(sum(sum(a * b for a, b in zip(wi, xj)) ** 2 for wi in w for xj in x))
        assert abs(bell_value_finite(net, mom, (u, u)) - exact) <= math.ulp(exact)

    def test_the_adversary_and_the_empirical_ratio_share_its_evaluation(self):
        geodesic, greedy = geodesic_net(16), build_eps_net(5, 0.7)
        for net, mom in ((geodesic, voronoi_moments(geodesic)),
                         (greedy, region_moments(greedy, 100 * greedy.size, SphereSampler(5, 68)))):
            adversary = embedding_opt.dot_climb(mom.moment_vectors, 2, 5)
            x = adversary.assignment.row_vectors
            assert adversary.value == bell_value_finite(net, mom, (x, x))
            w = mom.moment_vectors
            norms = np.linalg.norm(w, axis=1, keepdims=True)
            what = np.divide(w, norms, out=np.zeros_like(w), where=norms > 0)
            _, details = embedding_opt.empirical_ratio(net.dim, 2, net, mom, seed=5)
            assert details["numerator"] == bell_value_finite(net, mom, (what, what))


class TestEpsThreshold:
    def test_three_one(self):
        k = kg_lower_bound(3, 2).bound
        expected = (k - 1) / (6 * (k + 1))
        assert eps_threshold(3, 1) == pytest.approx(expected, rel=1e-15)
        assert eps_threshold(3, 1) == pytest.approx(6.4687e-3, rel=1e-3)

    def test_nine_two(self):
        k = kg_lower_bound(9, 8).bound
        assert eps_threshold(9, 2) == pytest.approx((k - 1) / (18 * (k + 1)), rel=1e-15)

    def test_algebraic_identity(self):
        for n, d in ((3, 1), (9, 2), (20, 3), (51, 5)):
            k = kg_lower_bound(n, 2 * d * d).bound
            thr = eps_threshold(n, d)
            assert thr * 2 * n * (k + 1) / (k - 1) == pytest.approx(1.0, rel=1e-12)

    def test_threshold_vanishes_at_large_n(self):
        # non-monotone at small n (the ratio bound still grows there), but
        # the 1/(2n) factor wins from a dozen dimensions on
        vals = [eps_threshold(n, 1) for n in (12, 24, 100, 1000, 10_000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            eps_threshold(2, 1)

    def test_bound_not_above_one_is_integrity_error(self, monkeypatch):
        at_one = dataclasses.replace(kg_lower_bound(3, 2), bound=1.0)
        monkeypatch.setattr(dimwitness.witness, "kg_lower_bound", lambda n, m: at_one)
        with pytest.raises(NumericalIntegrityError):
            eps_threshold(3, 1)


class TestWitnessConfig:
    def test_m_is_twice_d_squared(self):
        cfg = WitnessConfig(n=9, d=2, eps=0.1)
        assert cfg.m == 8

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            WitnessConfig(n=2, d=1, eps=0.1)

    def test_small_n_override(self):
        cfg = WitnessConfig(n=2, d=1, eps=0.1, allow_small_n=True)
        assert cfg.m == 2

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            WitnessConfig(n=3, d=1, eps=0.0)

    def test_too_few_moment_samples(self):
        # region_moments would refuse them only after the whole net is built
        with pytest.raises(DomainError):
            WitnessConfig(n=3, d=1, eps=0.1, moment_samples_per_region=99)

    # run_witness used to end in a TypeError on n = 4.5, d = 1.5 or seed = 1.5
    @pytest.mark.parametrize("name, value", [
        ("n", 4.5), ("d", 1.5), ("seed", 1.5), ("moment_samples_per_region", 100.5),
        ("max_net_points", 5e4 + 0.5), ("n", math.nan), ("seed", math.inf),
        ("seed", "1"), ("d", None),
    ])
    def test_non_integral_values_are_refused(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            WitnessConfig(**{"n": 4, "d": 1, "eps": 0.5, name: value})

    def test_integral_values_are_kept_as_int(self):
        config = WitnessConfig(3.0, np.int64(1), 0.3, seed=np.float64(2.0),
                               moment_samples_per_region=100.0, max_net_points=5e4)
        plain = WitnessConfig(3, 1, 0.3, seed=2, max_net_points=50_000)
        assert config == plain
        assert all(type(getattr(config, name)) is int for name in (
            "n", "d", "seed", "moment_samples_per_region", "max_net_points"))
        assert run_witness(config).to_json() == run_witness(plain).to_json()


class TestRunWitness:
    def test_a_kept_base_net_gives_the_report_of_a_fresh_process(self):
        # the (5, 0.7) base net kept from an earlier build here, and built
        # anew in a fresh process, give one report (TestBaseNetCache covers
        # the cache's cold, warm and evicted states)
        build_eps_net(5, 0.7)
        code = ("import json, dimwitness\n"
                "report = dimwitness.run_witness(dimwitness.WitnessConfig(5, 1, 0.7, seed=3))\n"
                "print(json.dumps(report.to_dict()))\n")
        kept = run_witness(WitnessConfig(5, 1, 0.7, seed=3))
        src = str(Path(dimwitness.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code],
                             env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True, timeout=120).stdout
        assert json.loads(out) == json.loads(json.dumps(kept.to_dict()))

    # SHA-256 of whole reports, which pins every bit of the net, its moments
    # and the adversary's climb at each of these (n, eps, seed)
    @pytest.mark.parametrize("n, eps, seed, digest", [
        (3, 0.3, 0, "b15375dd0d7bfa05fcb0ce3ec8505cb537e5c3a786b7f76d619b31bf597d856f"),
        (3, 0.1, 0, "14e4e4220163072faa23ca54d95fd62efe65acf0bac089337d3c3afaeed92fed"),
        (4, 0.5, 1, "24d0ec531477df6a78b067740018f362ef1ea699c52d4fb7f6c42b3e30d0bd94"),
        (5, 0.7, 1, "531e64680a2f86ce215d921ee48a59f6bda77d882c10830ff3c35a10a3a78002"),
        (6, 0.7, 2, "3ac7cdbc9eb9bb379854540483e2cf1325b8c5d2358dee7a83638cd43fb66c00"),
    ])
    def test_reports_keep_their_bits(self, n, eps, seed, digest):
        report = run_witness(WitnessConfig(n, 1, eps, seed=seed)).to_json()
        assert hashlib.sha256(report.encode()).hexdigest() == digest

    def test_baseline_run(self):
        report = run_witness(WitnessConfig(n=3, d=1, eps=0.1, seed=0))
        assert report.verdict in (VERDICT_CERTIFIED, VERDICT_CONSISTENT)
        assert report.verdict == VERDICT_CONSISTENT  # eps >> eps*
        assert all(c.holds for c in report.chain_checks)
        assert report.k_lower == pytest.approx(kg_lower_bound(3, 2).bound)
        assert report.b_infinite_quantum == pytest.approx(1 / 3)
        assert report.tsirelson_validation_dev is not None
        assert report.tsirelson_validation_dev <= 1e-10
        assert report.eps_threshold == pytest.approx(eps_threshold(3, 1))

    def test_chain_checks_across_seeds(self):
        for seed in (1, 2, 3):
            report = run_witness(WitnessConfig(n=3, d=1, eps=0.2, seed=seed))
            assert report.verdict != VERDICT_VIOLATION
            assert all(c.holds for c in report.chain_checks)
            assert report.b_finite_seesaw_d <= report.b_finite_quantum

    def test_seeds_share_the_greedy_net_and_draw_their_own_moments(self):
        first, second = (run_witness(WitnessConfig(5, 1, 0.7, seed=seed)) for seed in (1, 2))
        assert first.net_size == second.net_size
        assert first.covering_radius == second.covering_radius
        assert first.b_finite_quantum != second.b_finite_quantum

    def test_quantum_value_grows_as_eps_shrinks(self):
        values = []
        for eps in (0.3, 0.2, 0.1):
            report = run_witness(WitnessConfig(n=3, d=1, eps=eps, seed=0))
            values.append(report.b_finite_quantum)
        assert values[0] < values[1] < values[2] <= 1 / 3 + 0.01

    def test_n3_net_is_the_coarsest_covering_geodesic_net(self):
        for eps in (0.3, 0.2):
            report = run_witness(WitnessConfig(n=3, d=1, eps=eps, seed=1))
            k = round(((report.net_size - 2) / 10) ** 0.5)
            assert report.net_size == 10 * k * k + 2
            assert report.covering_radius == geodesic_radius(k) <= eps
            assert geodesic_radius(k - 1) > eps
            c1, _, c3, _ = report.chain_checks
            rho2, se = 2.0 * report.covering_radius, report.b_finite_quantum_se
            assert c1.slack == report.b_finite_quantum - (1 / 3 - rho2 - 4.0 * se)
            assert c3.slack < ((report.b_finite_quantum + 2.0 * eps) / report.k_lower
                               + 4.0 * se - report.b_finite_seesaw_d)

    def test_moment_method_follows_the_net(self):
        # the n = 3 geodesic net takes exact moments: no error, no samples,
        # so the sample count changes nothing but its own config echo
        exact = run_witness(WitnessConfig(n=3, d=1, eps=0.3, seed=2))
        more = run_witness(WitnessConfig(n=3, d=1, eps=0.3, seed=2,
                                         moment_samples_per_region=400))
        assert exact.moment_method == "exact"
        assert exact.b_finite_quantum_se == exact.b_finite_seesaw_se == 0.0
        assert exact.empty_regions == 0
        assert dataclasses.replace(more, config=exact.config) == exact
        greedy = run_witness(WitnessConfig(n=4, d=1, eps=0.7, seed=2))
        assert greedy.moment_method == "monte_carlo"
        assert greedy.b_finite_quantum_se > 0.0

    def test_adversary_above_its_upper_bound_is_a_violation(self, monkeypatch):
        # an adversary a relative 1e-12 above U breaks c4 alone: c2 and c3
        # still hold on this greedy net.  The report evaluates the adversary
        # from its assignment, which no assignment lifts above U, so U is
        # lowered below the adversary.
        config = WitnessConfig(n=4, d=1, eps=0.5, seed=0)
        b_fs = run_witness(config).b_finite_seesaw_d
        monkeypatch.setattr(dimwitness.witness, "dot_upper_bound",
                            lambda moments: b_fs / (1.0 + 1e-12))
        report = run_witness(config)
        assert [c.holds for c in report.chain_checks] == [True, True, True, False]
        c4 = report.chain_checks[3]
        assert c4.name == "c4_seesaw_below_full_dim"
        assert c4.slack == report.adversary_upper_bound - report.b_finite_seesaw_d
        assert report.verdict == VERDICT_VIOLATION

    def test_certification_needs_a_computed_radius(self, monkeypatch):
        # with eps* raised above both runs' eps, the geodesic net and the
        # greedy n = 4 net, whose covering radii are computed, certify; the
        # same greedy net with a radius above eps* does not, so the verdict
        # reads the net's radius, not eps.  4000 samples per region put
        # every gap beyond 4 sigma.
        monkeypatch.setattr(dimwitness.witness, "eps_threshold", lambda n, d: 0.9)
        geo = run_witness(WitnessConfig(n=3, d=1, eps=0.3, seed=0,
                                        moment_samples_per_region=4000))
        greedy_config = WitnessConfig(n=4, d=1, eps=0.7, seed=0,
                                      moment_samples_per_region=4000)
        greedy = run_witness(greedy_config)
        build = dimwitness.witness.build_eps_net
        monkeypatch.setattr(dimwitness.witness, "build_eps_net", lambda *a, **k:
                            dataclasses.replace(build(*a, **k), covering_radius=0.95))
        widened = run_witness(greedy_config)
        for report in (geo, greedy, widened):
            gap = report.b_finite_quantum - report.b_finite_seesaw_d
            assert gap > 4.0 * np.hypot(report.b_finite_quantum_se,
                                        report.b_finite_seesaw_se)
        assert geo.verdict == greedy.verdict == VERDICT_CERTIFIED
        assert greedy.covering_radius <= 0.7
        assert widened.covering_radius == 0.95
        assert widened.verdict == VERDICT_CONSISTENT

    def test_small_n_override_never_certifies(self):
        report = run_witness(
            WitnessConfig(n=2, d=1, eps=0.2, seed=0, allow_small_n=True)
        )
        assert report.k_lower == 1.0
        assert report.eps_threshold == 0.0
        assert report.verdict == VERDICT_CONSISTENT
        # c4 only applies when m < n
        assert [c.name for c in report.chain_checks] == [
            "c1_finite_quantum_floor",
            "c2_seesaw_embedding_cap",
            "c3_seesaw_chain_cap",
        ]

    # at n = 1 the adversary's tangent space is empty and f is constant; the
    # report must still fit the schema with the radius 0 of the two-point
    # net on S^0
    def test_n1_report_fits_the_schema(self):
        # at n = 1 about half the restarts draw W^T Y = 0 and start at e_1 e_1^T
        doc = json.loads(run_witness(WitnessConfig(1, 1, 0.5, allow_small_n=True)).to_json())
        assert doc["covering_radius"] == 0.0
        assert math.isfinite(doc["b_finite_seesaw_d"])
        assert doc["verdict"] != "violation_of_theory"
        jsonschema.validate(doc, WITNESS_REPORT_SCHEMA)

    def test_report_roundtrip(self):
        report = run_witness(WitnessConfig(n=3, d=1, eps=0.3, seed=5))
        doc = json.loads(report.to_json())
        assert doc["schema"] == 1
        assert doc["kind"] == "witness_report"
        assert doc["config"]["m"] == 2
        assert doc["verdict"] == report.verdict
        assert len(doc["chain_checks"]) == 4

    def test_report_keys_follow_the_fields(self):
        report = run_witness(WitnessConfig(n=3, d=1, eps=0.3, seed=6))
        doc = report.to_dict()
        fields = [f.name for f in dataclasses.fields(dimwitness.witness.WitnessReport)]
        assert list(doc) == ["schema", "kind", *fields]
        assert list(doc) == [
            "schema", "kind", "config", "k_lower", "b_infinite_quantum",
            "b_finite_quantum", "b_finite_quantum_se", "b_finite_seesaw_d",
            "b_finite_seesaw_se", "adversary_upper_bound", "eps_threshold", "net_size", "covering_radius", "moment_method",
            "empty_regions", "tsirelson_validation_dev", "seesaw_converged",
            "chain_checks", "verdict",
        ]
        assert doc["config"] == WitnessConfig(n=3, d=1, eps=0.3, seed=6).to_dict()
        assert [list(c) for c in doc["chain_checks"]] == [["name", "holds", "slack"]] * 4
        assert doc["chain_checks"] == [dataclasses.asdict(c) for c in report.chain_checks]

    def test_schema_lists_every_report_key(self):
        doc = run_witness(WitnessConfig(n=3, d=1, eps=0.3, seed=6)).to_dict()
        keys = set(doc) | {"manifest"}
        assert keys <= set(WITNESS_REPORT_SCHEMA["properties"])
        config = WITNESS_REPORT_SCHEMA["properties"]["config"]
        assert set(doc["config"]) == set(config["properties"]) == set(config["required"])

    def test_config_echoes_the_adversary_that_ran(self):
        config = WitnessConfig(n=3, d=1, eps=0.3, seed=6).to_dict()
        assert config["adversary_restarts"] == embedding_opt.ADVERSARY_RESTARTS
        assert config["adversary_max_iters"] == embedding_opt.ADVERSARY_MAX_ITERS
        assert config["adversary_stop_rule"] == embedding_opt.ADVERSARY_STOP_RULE
        assert not any(key.startswith("seesaw_") for key in config)

    def test_determinism(self):
        a = run_witness(WitnessConfig(n=3, d=1, eps=0.3, seed=9))
        b = run_witness(WitnessConfig(n=3, d=1, eps=0.3, seed=9))
        assert a.to_dict() == b.to_dict()


def bench_seed(seed, i):
    """Input i of the witness-n3-ci benchmark run with --seed seed, as
    perfbench/workloads.py derives it."""
    digest = hashlib.sha256(f"{seed}:op-{i}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def per_seed_adversary(eps, seed, turned):
    """The n = 3 adversary as it was before the base was kept: the seed's
    own restart stream on the exact moments of the seed's net, the net
    turned by the seed's rotation.  Its value is `bell_value_finite`'s
    evaluation, as the kept one's is."""
    net = turned(geodesic_net(geodesic_frequency(eps, 200_000)), derive_seed(seed, "net"))
    moments = voronoi_moments(net)
    return embedding_opt.dot_climb(moments.moment_vectors, 2, derive_seed(seed, "seesaw")).value


# (eps, seeds) of acceptance criteria 9, 10 and 11 and of the witness-n3-ci
# benchmark at --seed 1 to 10
NEVER_LOWER_INPUTS = [
    pytest.param(0.1, range(10), id="criterion9-eps0.1"),
    pytest.param(0.3, [0], id="criterion9-eps0.3"),
    pytest.param(0.2, [0], id="criterion9-eps0.2"),
    pytest.param(0.2, [3], id="criterion10"),
    pytest.param(0.006, [0], id="criterion11"),
    *[pytest.param(0.3, [bench_seed(b, i) for i in range(26)], id=f"bench-seed{b}")
      for b in range(1, 11)],
]


class TestKeptGeodesicBase:
    """At n = 3 only the finished report of each frequency k and d is kept
    (`sphere._kept`), and every seed is served a copy of it."""

    # at eps 0.1 seed 5's own restart stream stops at a lower maximum, so an
    # entry that kept the first asker's adversary would show there; at d = 2
    # m = 8 > n, so K is 1.0 and there is no c4
    @pytest.mark.parametrize("eps, d, seed, other", [
        pytest.param(0.3, 1, 4, 7, id="0.3-4-7"), pytest.param(0.1, 1, 5, 0, id="0.1-5-0"),
        pytest.param(0.1, 1, 0, 5, id="0.1-0-5"), pytest.param(0.3, 2, 4, 7, id="d2-0.3-4-7")])
    def test_a_cold_and_a_warmed_entry_give_one_report(self, eps, d, seed, other):
        def report(seed):
            return run_witness(WitnessConfig(3, d, eps, seed=seed, allow_small_n=d > 1))

        cold = report(seed)
        assert len(cold.chain_checks) == (4 if d == 1 else 3)
        assert (cold.k_lower == 1.0) == (d > 1)
        sphere._BASE_NETS.clear()
        report(other)
        assert report(seed).to_json() == cold.to_json()

    def test_a_later_seed_only_copies_the_report(self, monkeypatch):
        first = run_witness(WitnessConfig(3, 1, 0.3, seed=0))
        calls = collections.Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for name in ("dot_climb", "bell_value_finite", "dot_upper_bound",
                     "moment_value_std_error", "kg_lower_bound", "eps_threshold",
                     "geodesic_net", "voronoi_moments"):
            count(dimwitness.witness, name)
        count(quantum, "tsirelson_strategy")
        count(quantum, "_jordan_wigner")  # the strategy's build
        later = run_witness(WitnessConfig(3, 1, 0.3, seed=1))
        assert calls == {}
        assert dataclasses.replace(later, config=first.config).to_json() == first.to_json()
        assert later.b_finite_seesaw_d == first.b_finite_seesaw_d
        assert later.config.seed == 1

    @pytest.fixture
    def climbs(self, monkeypatch):
        """The arguments of every `dot_climb` call of `run_witness`."""
        calls = []
        climb = dimwitness.witness.dot_climb

        def counted(*args):
            calls.append(args)
            return climb(*args)

        monkeypatch.setattr(dimwitness.witness, "dot_climb", counted)
        return calls

    def test_an_evicted_report_is_climbed_again_to_the_same_json(self, climbs):
        # each frequency keeps one entry, its report, so four other
        # frequencies (k = 3, 4, 6, 8) evict the first one's (k = 2)
        first = run_witness(WitnessConfig(3, 1, 0.5, seed=0)).to_json()
        for eps in (0.3, 0.2, 0.15, 0.1):
            run_witness(WitnessConfig(3, 1, eps, seed=0))
        assert ("witness", 2, 1) not in sphere._BASE_NETS
        climbs.clear()
        assert run_witness(WitnessConfig(3, 1, 0.5, seed=0)).to_json() == first
        assert len(climbs) == 1
        assert list(sphere._BASE_NETS)[-1] == ("witness", 2, 1)

    def test_a_changed_report_leaves_the_next_one_as_it_was(self):
        changed = run_witness(WitnessConfig(3, 1, 0.3, seed=0))
        expected = run_witness(WitnessConfig(3, 1, 0.3, seed=1)).to_json()
        with pytest.raises(AttributeError):
            changed.chain_checks.append(changed.chain_checks[0])
        for field in dataclasses.fields(changed):
            object.__setattr__(changed, field.name, None)
        assert run_witness(WitnessConfig(3, 1, 0.3, seed=1)).to_json() == expected

    @pytest.mark.parametrize("eps", [0.3, 0.1])
    def test_seeds_report_one_adversary_and_every_check_holds(self, eps):
        reports = [run_witness(WitnessConfig(3, 1, eps, seed=seed)) for seed in range(10)]
        docs = set()
        for report in reports:
            assert all(c.holds for c in report.chain_checks)
            assert report.verdict == VERDICT_CONSISTENT
            doc = report.to_dict()
            del doc["config"]["seed"]
            docs.add(json.dumps(doc))
        # at n = 3 the seed selects nothing
        assert len(docs) == 1

    def test_entries_are_evicted_least_recently_used_first(self):
        # greedy nets and n = 3 reports share the _BASE_NET_ENTRIES slots
        def report(eps):
            run_witness(WitnessConfig(3, 1, eps, seed=0))

        for eps in (0.5, 0.3, 0.2):  # k = 2, 3, 4
            report(eps)
        build_eps_net(3, 0.5)
        report(0.5)  # now the most recently used
        report(0.15)  # k = 6 drops k = 3, the least recently used
        assert list(sphere._BASE_NETS) == [
            ("witness", 4, 1), (3, 0.5), ("witness", 2, 1), ("witness", 6, 1)]

    def test_each_frequency_takes_one_entry(self, climbs):
        # four frequencies fill the _BASE_NET_ENTRIES slots with reports
        # alone, so the first is still kept when it is asked for again
        for eps in (0.5, 0.3, 0.2, 0.15, 0.5):
            run_witness(WitnessConfig(3, 1, eps, seed=0))
        assert len(climbs) == 4
        assert len(sphere._BASE_NETS) == sphere._BASE_NET_ENTRIES

    @pytest.mark.parametrize("eps, seeds", NEVER_LOWER_INPUTS)
    def test_never_lower_than_the_per_seed_adversary(self, eps, seeds, turned):
        for seed in seeds:
            kept = run_witness(WitnessConfig(3, 1, eps, seed=seed)).b_finite_seesaw_d
            assert kept >= per_seed_adversary(eps, seed, turned) * (1.0 - 1e-15), seed


class TestGeodesicStrategy:
    """The Tsirelson strategy is checked once per n, on its table."""

    @staticmethod
    def builds(monkeypatch, n, eps):
        """The strategy builds (`_jordan_wigner` calls) of two runs at (n, eps)."""
        builds = []
        jordan_wigner = quantum._jordan_wigner

        def counted(n):
            builds.append(n)
            return jordan_wigner(n)

        monkeypatch.setattr(quantum, "_jordan_wigner", counted)
        for seed in (0, 1):
            run_witness(WitnessConfig(n, 1, eps, seed=seed))
        return builds

    def test_two_runs_at_n3_build_it_once(self, monkeypatch):
        assert self.builds(monkeypatch, 3, 0.3) == [3]

    def test_two_runs_at_n5_build_it_once(self, monkeypatch):
        assert self.builds(monkeypatch, 5, 0.7) == [5]

    def test_direct_calls_keep_nothing(self):
        first, second = quantum.tsirelson_strategy(16), quantum.tsirelson_strategy(16)
        assert first is not second
        for a, b in ((first.state, second.state), (first.table, second.table)):
            assert a.flags.writeable and b.flags.writeable
            assert not np.shares_memory(a, b)

    def test_reports_the_norm_of_the_table_deviation(self):
        # every correlation is a^T T b, so ||T - I||_2 bounds |E(a, b) - a.b|
        # on every pair: at least the deviation on sampled pairs, less the
        # rounding of the contraction, which sums n^2 terms a_j T_jk b_k of
        # total size <= ||a||_1 ||b||_1 max|T| <= n max|T|, and of a.b
        for n in range(1, 17):
            strategy = quantum.tsirelson_strategy(n)
            table = strategy.table
            reported = quantum.tsirelson_deviation(n)
            assert reported == float(np.linalg.norm(table - np.eye(n), 2)) <= 1e-10
            pairs = SphereSampler(n, seed=43).sample(128).reshape(64, 2, n)
            sampled = max(abs(quantum.correlation(strategy, a, b) - float(np.sum(a * b)))
                          for a, b in pairs)
            allowance = np.finfo(float).eps * (n**3 * np.abs(table).max() + n)
            assert reported >= sampled - allowance, n
        with pytest.raises(ResourceError, match="n ≤ 16"):
            quantum.tsirelson_deviation(17)

    @pytest.mark.parametrize("n, eps, dev", [(3, 0.3, 2.220446049250313e-16),
                                             (4, 0.5, 0.0), (5, 0.7, 0.0)])
    def test_runs_report_it(self, n, eps, dev):
        report = run_witness(WitnessConfig(n, 1, eps, seed=2))
        assert report.tsirelson_validation_dev == quantum.tsirelson_deviation(n)
        assert report.tsirelson_validation_dev == dev

    def test_past_16_generators_a_run_is_refused_before_any_net(self, monkeypatch):
        def no_net(*args, **kwargs):
            raise AssertionError("a net was built")

        monkeypatch.setattr(dimwitness.witness, "build_eps_net", no_net)
        monkeypatch.setattr(dimwitness.witness, "geodesic_frequency", no_net)
        with pytest.raises(ResourceError, match="n ≤ 16"):
            run_witness(WitnessConfig(17, 1, 0.99))

    def test_a_bent_strategy_is_refused(self, monkeypatch, bent_strategy):
        monkeypatch.setattr(quantum, "tsirelson_strategy", bent_strategy)
        with pytest.raises(NumericalIntegrityError, match="deviates by up to 5.000e-01"):
            run_witness(WitnessConfig(5, 1, 0.7))
