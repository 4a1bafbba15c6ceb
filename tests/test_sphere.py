import math

import numpy as np
import pytest

from dimwitness import (
    DomainError,
    EpsNet,
    ResourceError,
    SphereSampler,
    build_eps_net,
    dot_squared_expectation,
    nearest_point,
    partial_norm_expectation,
    region_moments,
    sample_uniform,
    y_closed_form,
)
from dimwitness.sphere import assign_regions, load_net, save_net


class TestSampler:
    def test_determinism(self):
        a = SphereSampler(5, seed=42, stream_id=3).sample(100)
        b = SphereSampler(5, seed=42, stream_id=3).sample(100)
        assert np.array_equal(a, b)

    def test_stream_separation(self):
        a = SphereSampler(5, seed=42, stream_id=0).sample(10)
        b = SphereSampler(5, seed=42, stream_id=1).sample(10)
        assert not np.array_equal(a, b)

    def test_batching_preserves_stream(self):
        whole = SphereSampler(3, seed=1).sample(50)
        s = SphereSampler(3, seed=1)
        parts = np.vstack([s.sample(20), s.sample(30)])
        assert np.array_equal(whole, parts)

    def test_unit_norm(self):
        pts = SphereSampler(7, seed=0).sample(1000)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-12

    def test_dim1_signs(self):
        pts = SphereSampler(1, seed=0).sample(2000).ravel()
        assert set(np.unique(pts)) == {-1.0, 1.0}
        # fair coin: 4 sigma band around the mean
        assert abs(pts.mean()) <= 4 / math.sqrt(2000)

    def test_coordinate_symmetry(self):
        n = 200_000
        pts = SphereSampler(3, seed=9).sample(n)
        se_mean = math.sqrt(1 / 3 / n)  # Var[a_1] = 1/3
        assert np.abs(pts.mean(axis=0)).max() <= 4 * se_mean
        sq = pts[:, 0] ** 2
        assert abs(sq.mean() - 1 / 3) <= 4 * sq.std() / math.sqrt(n)

    def test_single_draw(self):
        v = sample_uniform(SphereSampler(4, seed=5))
        assert v.shape == (4,)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


class TestEpsNet:
    def test_dim1_half(self):
        net = build_eps_net(1, 0.5, seed=3)
        assert sorted(net.points.ravel().tolist()) == [-1.0, 1.0]

    def test_dim3_size_bound_and_covering(self):
        net = build_eps_net(3, 0.3, seed=7)
        assert net.size <= 1000  # (3/eps)^dim volume bound
        probes = SphereSampler(3, 11).sample(100_000)
        idx = assign_regions(net, probes)
        dist = np.linalg.norm(probes - net.points[idx], axis=1)
        assert dist.max() <= 0.3

    def test_circle_count(self):
        net = build_eps_net(2, 0.1, seed=5)
        # packing/covering count on the unit circle
        assert 31 <= net.size <= 63

    def test_packing_exact(self):
        for dim, eps, seed in ((2, 0.1, 5), (3, 0.3, 7), (4, 0.45, 1)):
            net = build_eps_net(dim, eps, seed=seed)
            gram = net.points @ net.points.T
            np.fill_diagonal(gram, -1.0)
            min_dist = math.sqrt(max(2.0 - 2.0 * gram.max(), 0.0))
            assert min_dist >= eps

    def test_determinism(self):
        a = build_eps_net(3, 0.25, seed=13)
        b = build_eps_net(3, 0.25, seed=13)
        assert np.array_equal(a.points, b.points)

    def test_resource_limit(self):
        with pytest.raises(ResourceError):
            build_eps_net(3, 0.3, seed=0, max_points=10)

    def test_projected_refusal(self):
        with pytest.raises(ResourceError):
            build_eps_net(8, 0.01, seed=0, max_points=1000)

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            build_eps_net(3, 1.5, seed=0)
        with pytest.raises(DomainError):
            build_eps_net(3, 0.0, seed=0)

    def test_save_load_roundtrip(self, tmp_path):
        net = build_eps_net(3, 0.4, seed=2)
        csv_path = str(tmp_path / "net.csv")
        save_net(net, csv_path)
        back = load_net(csv_path)
        assert back.dim == net.dim and back.eps == net.eps and back.seed == net.seed
        assert np.array_equal(back.points, net.points)


class TestNearestPoint:
    def test_net_point_maps_to_itself(self):
        net = build_eps_net(3, 0.3, seed=7)
        for idx in (0, 5, net.size - 1):
            assert nearest_point(net, net.points[idx]) == idx

    def test_dim1(self):
        net = EpsNet(dim=1, eps=0.5, points=np.array([[1.0], [-1.0]]), seed=0)
        assert nearest_point(net, np.array([1.0])) == 0
        assert nearest_point(net, np.array([-1.0])) == 1

    def test_tie_breaks_to_lowest_index(self):
        net = EpsNet(
            dim=2, eps=0.9, points=np.array([[1.0, 0.0], [0.0, 1.0]]), seed=0
        )
        bisector = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert nearest_point(net, bisector) == 0

    def test_random_probes_within_eps(self):
        net = build_eps_net(3, 0.3, seed=7)
        probes = SphereSampler(3, 17).sample(2000)
        idx = assign_regions(net, probes)
        dist = np.linalg.norm(probes - net.points[idx], axis=1)
        assert dist.max() <= 0.3

    def test_matches_brute_force_argmax(self):
        probes = SphereSampler(3, 19).sample(20_000)

        def check(net):
            expected = np.argmax(probes @ net.points.T, axis=1)
            got = assign_regions(net, probes)
            assert np.array_equal(got, expected)
            return got

        # z-band path: more than 256 net points
        net = build_eps_net(3, 0.15, seed=3)
        assert net.size > 256
        check(net)

        # fallback: a ring of 300 points at z = 0 plus the poles leaves most
        # probes farther than eps from the net, many with an empty z-band
        t = 2 * np.pi * np.arange(300) / 300
        ring = np.column_stack([np.cos(t), np.sin(t), np.zeros(300)])
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        sparse = EpsNet(dim=3, eps=0.01, points=np.vstack([ring, poles]), seed=0)
        dist = np.linalg.norm(probes - sparse.points[check(sparse)], axis=1)
        assert np.mean(dist > sparse.eps) > 0.9

        # ties: a duplicated row never wins over its lower-index original
        pts = np.insert(net.points, 6, net.points[5], axis=0)
        dup = EpsNet(dim=3, eps=0.15, points=pts, seed=3)
        got = check(dup)
        assert not np.any(got == 6)
        assert np.any(got == 5)
        # an exact tie between rows at different heights also goes to the
        # lower index, whatever their order in last coordinate
        c = math.sqrt(1.0 - 0.01)
        filler = SphereSampler(3, 23).sample(300)
        filler[:, 0] = -np.abs(filler[:, 0])
        mirror = np.vstack([[[c, 0.0, 0.1], [c, 0.0, -0.1]], filler])
        tied = EpsNet(dim=3, eps=0.15, points=mirror, seed=0)
        assert nearest_point(tied, np.array([1.0, 0.0, 0.0])) == 0


class TestPartialNorm:
    def test_full_norm_is_one(self):
        est, se = partial_norm_expectation(5, 5, 2000, SphereSampler(5, 1))
        assert est == pytest.approx(1.0, abs=1e-12)
        assert se <= 1e-12

    def test_half_circle(self):
        est, se = partial_norm_expectation(2, 1, 200_000, SphereSampler(2, 2))
        assert abs(est - 2 / math.pi) <= 3 * se

    def test_matches_closed_form(self):
        est, se = partial_norm_expectation(8, 3, 200_000, SphereSampler(8, 3))
        assert abs(est - y_closed_form(8, 3)) <= 3 * se

    def test_min_samples(self):
        with pytest.raises(DomainError):
            partial_norm_expectation(3, 2, 999, SphereSampler(3, 0))


class TestDotSquared:
    def test_dim1_exact(self):
        est, se = dot_squared_expectation(1, 2000, SphereSampler(1, 4))
        assert est == 1.0
        assert se == 0.0

    def test_one_over_n(self):
        for n, seed in ((3, 5), (10, 6)):
            est, se = dot_squared_expectation(n, 200_000, SphereSampler(n, seed))
            assert abs(est - 1.0 / n) <= 3 * se


class TestEstimatorCoverage:
    def test_four_sigma_over_fifty_seeds(self):
        # MC absolute error within 4 standard errors in >= 99% of repetitions
        hits = 0
        trials = 0
        for seed in range(50):
            est, se = dot_squared_expectation(3, 20_000, SphereSampler(3, 1000 + seed))
            trials += 1
            hits += abs(est - 1 / 3) <= 4 * se
            est, se = partial_norm_expectation(2, 1, 20_000, SphereSampler(2, 2000 + seed))
            trials += 1
            hits += abs(est - 2 / math.pi) <= 4 * se
        assert hits / trials >= 0.99


class TestRegionMoments:
    def test_dim1_split(self):
        net = EpsNet(dim=1, eps=0.5, points=np.array([[1.0], [-1.0]]), seed=0)
        mom = region_moments(net, 20_000, SphereSampler(1, 21))
        se_half = math.sqrt(0.25 / 20_000)
        assert abs(mom.weights[0] - 0.5) <= 3 * se_half
        assert mom.weights.sum() == pytest.approx(1.0, abs=1e-9)
        # every sample in region 0 is exactly +1, so w = +mu (and -mu below)
        assert mom.moment_vectors[0, 0] == pytest.approx(mom.weights[0], abs=1e-15)
        assert mom.moment_vectors[1, 0] == pytest.approx(-mom.weights[1], abs=1e-15)

    def test_antisymmetric_net_first_moment(self):
        pts = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
        net = EpsNet(dim=2, eps=0.9, points=pts, seed=0)
        mom = region_moments(net, 40_000, SphereSampler(2, 22))
        total = mom.moment_vectors.sum(axis=0)
        se = 3 * math.sqrt(1.0 / 40_000)  # ||a|| = 1 bounds the variance
        assert np.linalg.norm(total) <= se

    def test_moment_norm_vs_weight(self):
        net = build_eps_net(3, 0.3, seed=7)
        mom = region_moments(net, 100 * net.size, SphereSampler(3, 23))
        norms = np.linalg.norm(mom.moment_vectors, axis=1)
        assert np.all(norms <= mom.weights + 1e-15)
        # cap concentration: sampled regions sit within eps of their point
        busy = mom.weights > 0
        ratio = norms[busy] / mom.weights[busy]
        assert np.all(ratio >= 1.0 - 0.3**2 / 2)

    def test_weights_sum_and_errors(self):
        net = build_eps_net(2, 0.3, seed=8)
        mom = region_moments(net, 100 * net.size, SphereSampler(2, 24))
        assert mom.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert mom.samples_used == 100 * net.size
        assert np.all(mom.standard_errors >= 0)
        assert mom.empty_regions.size == 0

    def test_min_samples(self):
        net = build_eps_net(2, 0.3, seed=8)
        with pytest.raises(DomainError):
            region_moments(net, 10, SphereSampler(2, 0))

    def test_determinism(self):
        net = build_eps_net(2, 0.3, seed=8)
        m1 = region_moments(net, 100 * net.size, SphereSampler(2, 25))
        m2 = region_moments(net, 100 * net.size, SphereSampler(2, 25))
        assert np.array_equal(m1.moment_vectors, m2.moment_vectors)
        assert np.array_equal(m1.weights, m2.weights)

    def test_zero_sample_region_flagged(self):
        # a duplicated point loses every tie to the lower index and starves
        pts = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        net = EpsNet(dim=2, eps=0.9, points=pts, seed=0)
        mom = region_moments(net, 1000, SphereSampler(2, 26))
        assert 1 in mom.empty_regions
        assert mom.weights[1] == 0.0
        assert np.all(mom.moment_vectors[1] == 0.0)
