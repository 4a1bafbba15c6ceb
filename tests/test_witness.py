import dataclasses
import json

import jsonschema
import numpy as np
import pytest

import dimwitness.witness
from dimwitness import embedding_opt
from dimwitness import (
    DomainError,
    EpsNet,
    NumericalIntegrityError,
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
from dimwitness.sphere import RegionMoments, geodesic_radius
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
        with pytest.raises(DomainError):
            bell_value_infinite(
                3, lambda a, b: 2.0 * np.ones(a.shape[0]), 5000, SphereSampler(3, 64)
            )


class TestBellValueFinite:
    @staticmethod
    def exact_dim1():
        net = EpsNet(dim=1, eps=0.5, points=np.array([[1.0], [-1.0]]), seed=0)
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
        net = build_eps_net(3, 0.3, seed=7)
        mom = region_moments(net, 100 * net.size, SphereSampler(3, 65))
        u, w = net.points, mom.moment_vectors
        # sum_uv (w_u . w_v) E_uv over the dense (size, size) E = u u^T
        dense = float(np.sum((w.T @ (u @ u.T)) * w.T))
        factored = bell_value_finite(net, mom, (u, u))
        assert factored == pytest.approx(dense, abs=1e-12)

    def test_dot_correlations_near_one_over_n(self):
        net = build_eps_net(3, 0.3, seed=7)
        mom = region_moments(net, 200 * net.size, SphereSampler(3, 66))
        val = bell_value_finite(net, mom, (net.points, net.points))
        n, eps = 3, 0.3
        stat = 5 * float(np.sum(mom.standard_errors))
        assert 1.0 / n - 2 * eps - stat <= val <= 1.0 / n + stat

    def test_consistency_with_kernel_path(self):
        from dimwitness.embedding_opt import KernelMatrix, VectorAssignment, kernel_value

        net = build_eps_net(3, 0.3, seed=7)
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
        swapped = EpsNet(dim=1, eps=0.5, points=net.points[::-1].copy(), seed=0)
        for other in (swapped, build_eps_net(2, 0.5, seed=4)):
            with pytest.raises(DomainError, match="different net"):
                bell_value_finite(other, mom, corr)
        # a copy of the net with equal points is accepted
        copy = EpsNet(dim=1, eps=0.5, points=net.points.copy(), seed=1)
        assert bell_value_finite(copy, mom, corr) == bell_value_finite(net, mom, corr)

    def test_shape_validation(self):
        net, mom = self.exact_dim1()
        for corr in (
            (np.zeros((3, 1)), np.zeros((2, 1))),  # not the net size
            (np.zeros((2, 1)), np.zeros((2, 2))),  # mismatched inner dimension
            (np.zeros(2), np.zeros(2)),  # not matrices
            np.zeros((2, 2)),  # a dense matrix, not a factored pair
            (np.zeros((2, 1)),) * 3,
        ):
            with pytest.raises(DomainError):
                bell_value_finite(net, mom, corr)


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


class TestRunWitness:
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
        # still hold on this greedy net
        adversary = dimwitness.witness.dot_adversary

        def above(moments, m, seed):
            result, se = adversary(moments, m, seed)
            value = embedding_opt.dot_upper_bound(moments) * (1.0 + 1e-12)
            return dataclasses.replace(result, value=value), se

        monkeypatch.setattr(dimwitness.witness, "dot_adversary", above)
        report = run_witness(WitnessConfig(n=4, d=1, eps=0.5, seed=0))
        assert [c.holds for c in report.chain_checks] == [True, True, True, False]
        c4 = report.chain_checks[3]
        assert c4.name == "c4_seesaw_below_full_dim"
        assert c4.slack == report.adversary_upper_bound - report.b_finite_seesaw_d
        assert report.verdict == VERDICT_VIOLATION

    def test_certification_needs_a_computed_radius(self, monkeypatch):
        # with eps* raised above both runs' eps, the geodesic net and the
        # greedy n = 4 net, whose covering radii are computed, certify; the
        # same greedy net with its radius stripped does not.  4000 samples
        # per region put every gap beyond 4 sigma.
        monkeypatch.setattr(dimwitness.witness, "eps_threshold", lambda n, d: 0.9)
        geo = run_witness(WitnessConfig(n=3, d=1, eps=0.3, seed=0,
                                        moment_samples_per_region=4000))
        greedy_config = WitnessConfig(n=4, d=1, eps=0.7, seed=0,
                                      moment_samples_per_region=4000)
        greedy = run_witness(greedy_config)
        build = dimwitness.witness.build_eps_net
        monkeypatch.setattr(dimwitness.witness, "build_eps_net", lambda *a, **k:
                            dataclasses.replace(build(*a, **k), covering_radius=None))
        stripped = run_witness(greedy_config)
        for report in (geo, greedy, stripped):
            gap = report.b_finite_quantum - report.b_finite_seesaw_d
            assert gap > 4.0 * np.hypot(report.b_finite_quantum_se,
                                        report.b_finite_seesaw_se)
        assert geo.verdict == greedy.verdict == VERDICT_CERTIFIED
        assert greedy.covering_radius <= 0.7
        assert stripped.covering_radius is None
        assert stripped.verdict == VERDICT_CONSISTENT

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

    # the see-saw's Newton step divides by zero on the constant objective of
    # n = 1 (a known defect, not this test's subject); the report must still
    # fit the schema with the radius 0 of the two-point net on S^0
    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
    def test_n1_report_fits_the_schema(self):
        doc = json.loads(run_witness(WitnessConfig(1, 1, 0.5, allow_small_n=True)).to_json())
        assert doc["covering_radius"] == 0.0
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
        doc = run_witness(WitnessConfig(n=3, d=1, eps=0.3, seed=6)).to_dict()
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
