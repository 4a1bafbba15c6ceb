import dataclasses
import hashlib
import json
import math
import re
import tracemalloc

import jsonschema
import numpy as np
import pytest

from dimwitness import (
    DomainError,
    EpsNet,
    NumericalIntegrityError,
    ResourceError,
    SphereSampler,
    bell_value_finite,
    build_eps_net,
    dot_squared_expectation,
    eps_threshold,
    geodesic_net,
    nearest_point,
    partial_norm_expectation,
    region_moments,
    sample_uniform,
    voronoi_moments,
    y_closed_form,
)
from dimwitness import sphere
from dimwitness.embedding_opt import dot_climb, dot_upper_bound, dot_value
from dimwitness.schemas import NET_HEADER_SCHEMA
from dimwitness.seeding import derive_seed, make_rng
from dimwitness.sphere import (
    assign_regions,
    geodesic_frequency,
    geodesic_radius,
    load_net,
    save_net,
)


@pytest.fixture(scope="module")
def net_3_015():
    """A greedy net of more than 256 points."""
    return build_eps_net(3, 0.15)


def min_chord(points):
    gram = points @ points.T
    np.fill_diagonal(gram, -1.0)
    return math.sqrt(max(2.0 - 2.0 * gram.max(), 0.0))


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

    @pytest.mark.parametrize("count", [-1, 2.5, math.nan, None, "3"])
    def test_a_count_that_is_not_a_whole_number_is_refused(self, count):
        sampler = SphereSampler(3, seed=4)
        with pytest.raises(DomainError, match="count"):
            sampler.sample(count)
        # the refusal drew nothing
        assert np.array_equal(sampler.sample(2), SphereSampler(3, seed=4).sample(2))

    def test_whole_counts(self):
        assert SphereSampler(3, seed=4).sample(0).shape == (0, 3)
        assert np.array_equal(SphereSampler(3, seed=4).sample(2.0),
                              SphereSampler(3, seed=4).sample(2))

    def test_single_draw(self):
        v = sample_uniform(SphereSampler(4, seed=5))
        assert v.shape == (4,)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_sample_is_the_normalized_stream(self, dim):
        g = make_rng(17, 2).standard_normal((3000, dim))
        pts = SphereSampler(dim, 17, stream_id=2).sample(3000)
        assert np.array_equal(pts, g / np.linalg.norm(g, axis=1)[:, None])

    def test_rows_of_zero_norm_are_drawn_again(self):
        class Stub:
            def __init__(self, draws):
                self.draws = list(draws)

            def standard_normal(self, shape):
                return np.array(self.draws.pop(0), dtype=float).reshape(shape)

        sampler = SphereSampler(2, seed=0)
        # a zero row, and a row whose squares underflow: both norms compute to 0
        sampler._rng = Stub([[[0.0, 0.0], [3.0, 4.0], [1e-300, -1e-300]],
                             [[1e-200, 1.0], [0.0, 2.0]]])
        redrawn = np.array([[1e-200, 1.0], [3.0, 4.0], [0.0, 2.0]])
        assert np.array_equal(sampler.sample(3), sphere._unit_rows(redrawn))


class TestEpsNet:
    def test_dim1_half(self):
        net = build_eps_net(1, 0.5)
        assert sorted(net.points.ravel().tolist()) == [-1.0, 1.0]

    def test_dim3_size_bound_and_covering(self):
        net = build_eps_net(3, 0.3)
        assert net.size <= 1000  # (3/eps)^dim volume bound
        probes = SphereSampler(3, 11).sample(100_000)
        idx = assign_regions(net, probes)
        dist = np.linalg.norm(probes - net.points[idx], axis=1)
        assert dist.max() <= 0.3

    def test_circle_count(self):
        net = build_eps_net(2, 0.1)
        # packing/covering count on the unit circle
        assert 31 <= net.size <= 63

    def test_packing_exact(self):
        for dim, eps in ((2, 0.1), (3, 0.3), (4, 0.45)):
            net = build_eps_net(dim, eps)
            gram = net.points @ net.points.T
            np.fill_diagonal(gram, -1.0)
            min_dist = math.sqrt(max(2.0 - 2.0 * gram.max(), 0.0))
            assert min_dist >= eps

    def test_determinism(self):
        a = build_eps_net(3, 0.25)
        b = build_eps_net(3, 0.25)
        assert np.array_equal(a.points, b.points)

    def test_resource_limit(self):
        with pytest.raises(ResourceError):
            build_eps_net(3, 0.3, max_points=10)
        for max_points in (0, -1):
            with pytest.raises(ResourceError, match="covering floor"):
                build_eps_net(410, 0.99, max_points=max_points)
            with pytest.raises(ResourceError, match="covering floor"):
                geodesic_frequency(0.5, max_points)
        # past the floor of about 44 points, the insertion stops at the cap
        with pytest.raises(ResourceError, match=r"^net exceeded max_points=50$") as refused:
            build_eps_net(3, 0.3, max_points=50)
        assert refused.value.needed == 51

    def test_projected_refusal(self):
        with pytest.raises(ResourceError):
            build_eps_net(8, 0.01, max_points=1000)

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            build_eps_net(3, 1.5)
        with pytest.raises(DomainError):
            build_eps_net(3, 0.0)

    def test_save_load_roundtrip(self, tmp_path):
        # a dim-1 net is written one entry per line and must load as (size, 1)
        for net in (build_eps_net(3, 0.4), build_eps_net(1, 0.5)):
            csv_path = str(tmp_path / f"net{net.dim}.csv")
            save_net(net, csv_path)
            back = load_net(csv_path)
            assert back.dim == net.dim and back.eps == net.eps
            assert np.array_equal(back.points, net.points)

    def test_save_load_keeps_covering_radius(self, tmp_path):
        geo = geodesic_net(4)
        save_net(geo, str(tmp_path / "geo.csv"))
        back = load_net(str(tmp_path / "geo.csv"))
        assert back.eps == geo.eps and back.covering_radius == geo.covering_radius
        assert np.array_equal(back.points, geo.points)
        assert back.triangles is None  # the CSV holds points only

        greedy = build_eps_net(3, 0.4)
        assert greedy.covering_radius <= greedy.eps
        save_net(greedy, str(tmp_path / "greedy.csv"))
        assert load_net(str(tmp_path / "greedy.csv")).covering_radius == greedy.covering_radius
        # a header written before the key existed still loads
        header = json.loads((tmp_path / "geo.json").read_text())
        del header["covering_radius"]
        (tmp_path / "geo.json").write_text(json.dumps(header))
        assert load_net(str(tmp_path / "geo.csv")).covering_radius is None

    @pytest.mark.parametrize("header_text", [
        '{"dim": 3, "size": 2,',
        '{"dim": 3, "eps": 0.5, "seed": 0}',
        '{"dim": "three", "size": 2, "eps": 0.5, "seed": 0}',
        '[3, 2, 0.5, 0]',
    ], ids=["not_json", "no_size", "non_numeric_dim", "not_an_object"])
    def test_load_refuses_bad_header(self, tmp_path, header_text):
        net = EpsNet(dim=3, eps=0.5, points=np.eye(3)[:2])
        save_net(net, str(tmp_path / "net.csv"))
        (tmp_path / "net.json").write_text(header_text)
        with pytest.raises(DomainError, match="net.json: bad net header"):
            load_net(str(tmp_path / "net.csv"))

    @pytest.mark.parametrize("radius", ['"0.5"', "-1", "true", "NaN", "Infinity", "2.5", "[0.5]"])
    def test_load_refuses_a_bad_covering_radius(self, tmp_path, radius):
        net = EpsNet(dim=3, eps=0.5, points=np.eye(3)[:2])
        save_net(net, str(tmp_path / "net.csv"))
        header = json.loads((tmp_path / "net.json").read_text())
        header["covering_radius"] = "RADIUS"
        (tmp_path / "net.json").write_text(json.dumps(header).replace('"RADIUS"', radius))
        with pytest.raises(DomainError, match="net.json: bad net header: covering_radius"):
            load_net(str(tmp_path / "net.csv"))

    @pytest.mark.parametrize("key, value", [
        ("eps", "NaN"), ("eps", "-0.3"), ("eps", "0"), ("eps", "1.0"), ("eps", "Infinity"),
        ("eps", '"0.5"'), ("eps", "true"), ("dim", "3.9"), ("dim", "true"), ("dim", '"3"'),
        ("seed", "2.5"), ("seed", "true"), ("seed", "null"), ("size", "99.5"), ("size", '"2"'),
    ])
    def test_load_refuses_a_bad_header_value(self, tmp_path, key, value):
        # each loaded once, truncated by int() or mis-assigned probes later
        net = EpsNet(dim=3, eps=0.5, points=np.eye(3)[:2])
        save_net(net, str(tmp_path / "net.csv"))
        header = json.loads((tmp_path / "net.json").read_text())
        header[key] = "VALUE"
        (tmp_path / "net.json").write_text(json.dumps(header).replace('"VALUE"', value))
        with pytest.raises(DomainError, match=f"net.json: bad net header: {key} "):
            load_net(str(tmp_path / "net.csv"))

    def test_headers_with_and_without_a_seed_load(self, tmp_path):
        # save_net writes no seed; a header written when a seed turned each
        # net carries one, which loads and selects nothing
        net = build_eps_net(3, 0.4)
        save_net(net, str(tmp_path / "net.csv"))
        header = json.loads((tmp_path / "net.json").read_text())
        assert "seed" not in header
        for written in (header, {**header, "seed": 7}):
            jsonschema.validate(written, NET_HEADER_SCHEMA)
            (tmp_path / "net.json").write_text(json.dumps(written))
            back = load_net(str(tmp_path / "net.csv"))
            assert np.array_equal(back.points, net.points)
            assert back.covering_radius == net.covering_radius

    def test_load_keeps_a_radius_in_range(self, tmp_path):
        for radius in (0, 0.0, 2, 1.25):
            net = EpsNet(dim=3, eps=0.5, points=np.eye(3)[:2], covering_radius=radius)
            save_net(net, str(tmp_path / "net.csv"))
            assert load_net(str(tmp_path / "net.csv")).covering_radius == radius

    @pytest.mark.parametrize("bad_row", ["nan,0,0", "0,2,0", "inf,0,0"])
    def test_load_refuses_rows_off_the_sphere(self, tmp_path, bad_row):
        net = EpsNet(dim=3, eps=0.5, points=np.eye(3)[:2])
        csv_path = tmp_path / "net.csv"
        save_net(net, str(csv_path))
        csv_path.write_text(f"1.0,0.0,0.0\n{bad_row}\n")
        with pytest.raises(DomainError, match="line 2 is not a unit vector"):
            load_net(str(csv_path))

    def test_off_sphere_row_names_its_file_line(self, tmp_path):
        # the blank line 2 holds no row, so the bad row is row 2 but line 3
        net = EpsNet(dim=3, eps=0.5, points=np.eye(3)[:2])
        csv_path = tmp_path / "net.csv"
        save_net(net, str(csv_path))
        csv_path.write_text("1.0,0.0,0.0\n\n0.0,2.0,0.0\n")
        with pytest.raises(DomainError, match="line 3 is not a unit vector"):
            load_net(str(csv_path))


def hull_oracle(points):
    """scipy's convex hull of unit rows: its facets as sorted index rows, and
    the centre n and chord radius sqrt(2 - 2 h) of each facet's cap, for
    the facet plane n.x = h."""
    from scipy.spatial import ConvexHull

    hull = ConvexHull(points)
    return (np.sort(hull.simplices, axis=1), hull.equations[:, :-1],
            np.sqrt(2.0 - 2.0 * -hull.equations[:, -1]))


GREEDY_CASES = [(1, 0.5), (2, 0.1), (2, 0.9), (3, 0.3), (3, 0.9), (4, 0.5),
                (5, 0.7), (6, 0.8)]


def inserted_hulls(points):
    """The hulls `_fill_caps` keeps, replayed on the net `points`: the hull
    of its start simplex, then of each longer prefix, each point inserted
    in turn."""
    dim = points.shape[1]
    hull = sphere._hull_facets(points[: dim + 1], sphere._ridges(np.arange(dim + 1)[None]))
    yield hull
    for end in range(dim + 2, points.shape[0] + 1):
        hull = sphere._insert_last(points[:end], hull)
        yield hull


class TestCoveringCertificate:
    @pytest.mark.parametrize("dim, eps", GREEDY_CASES)
    def test_packing_with_a_computed_radius(self, dim, eps):
        net = build_eps_net(dim, eps)
        assert net.covering_radius is not None and net.covering_radius <= eps
        assert min_chord(net.points) >= eps, (dim, eps)

    @pytest.mark.parametrize("dim, eps", [(2, 0.2), (3, 0.4), (4, 0.5), (5, 0.7), (6, 0.8)])
    def test_packing_and_covering_over_twenty_seeds(self, dim, eps):
        # one net per (dim, eps); the seeds draw the probes it must cover
        net = build_eps_net(dim, eps)
        assert min_chord(net.points) >= eps
        assert net.covering_radius <= eps
        for seed in range(20):
            probes = SphereSampler(dim, seed).sample(5000)
            dist = np.linalg.norm(probes - net.points[assign_regions(net, probes)], axis=1)
            assert dist.max() <= net.covering_radius, seed

    def test_seeds_give_one_net(self):
        # whole numbers are accepted and select nothing, each net here built
        # afresh (`test_one_object_for_every_seed_and_max_points` serves the
        # kept one)
        first = build_eps_net(5, 0.7)
        for seed in (0, 1, 7, 2**40, -3):
            sphere._BASE_NETS.clear()
            net = build_eps_net(5, 0.7, seed=seed)
            assert net.points is not first.points
            assert np.array_equal(net.points, first.points), seed
            assert net.covering_radius == first.covering_radius, seed

    @pytest.mark.parametrize("dim, eps", [case for case in GREEDY_CASES if case[0] > 1]
                             + [(7, 0.9)])
    def test_hull_equals_scipy(self, dim, eps):
        points, hull = sphere._fill_caps(sphere._simplex(dim), eps, 10**6)
        net = build_eps_net(dim, eps)
        assert np.array_equal(net.points, points)
        radii = sphere._facet_planes(points, hull.facets, hull.planes)[1]
        assert net.covering_radius == radii.max()
        expected, _, radii = hull_oracle(points)
        assert len(hull.facets) == len(expected)
        assert set(map(tuple, hull.facets.tolist())) == set(map(tuple, expected.tolist()))
        assert abs(net.covering_radius - radii.max()) <= 1e-12, (dim, eps)

    @pytest.mark.parametrize("dim, eps, seed", [(2, 0.1, 5), (3, 0.3, 7), (4, 0.5, 1),
                                                (5, 0.7, 1), (5, 0.7, 6), (6, 0.8, 2)])
    def test_uniform_probes_are_covered(self, dim, eps, seed):
        net = build_eps_net(dim, eps)
        probes = SphereSampler(dim, seed).sample(100_000)
        dist = np.linalg.norm(probes - net.points[assign_regions(net, probes)], axis=1)
        assert dist.max() <= net.covering_radius

    def test_dim1_radius_is_zero(self):
        net = build_eps_net(1, 0.5)
        assert sorted(net.points.ravel().tolist()) == [-1.0, 1.0]
        assert net.covering_radius == 0.0

    def test_a_point_above_a_facet_is_refused(self):
        points, hull = sphere._fill_caps(sphere._simplex(3), 0.5, 10**6)
        facet = hull.facets[0]
        # a plane through two vertices of a facet and the point farthest from
        # it cuts the sphere, so net points lie above it
        far = int(np.argmin(points @ points[facet].sum(axis=0)))
        level = np.sort([[facet[0], facet[1], far]])
        with pytest.raises(NumericalIntegrityError, match="above a hull facet"):
            sphere._hull_facets(points, level)

    @pytest.mark.parametrize("size, width", [(10**6, 9), (60, 3), (300, 5), (10**6, 3),
                                             (10**6, 8)])
    def test_distinct_rows_match_numpy(self, size, width):
        # 10^6 indices take 20 bits, so rows of 8 or 9 pack into three keys.
        # Rows of 9 repeat in long runs; the narrower ones are 400 rows and
        # 150 of them again, shuffled, like the ridges of the facets that
        # `_insert_last` deletes, whose horizon is the rows counted once
        if width == 9:
            rows = np.sort(np.random.default_rng(0).integers(size - 4, size, (5000, 9)), axis=1)
        else:
            rng = np.random.default_rng(width)
            rows = np.sort(rng.integers(size - 12, size, (400, width)), axis=1)
            rows = rng.permutation(np.vstack([rows, rows[:150]])).astype(np.int32)
        index, counts = sphere._distinct_rows(rows, size)
        unique, expected_counts = np.unique(rows, axis=0, return_counts=True)
        assert np.array_equal(rows[index], unique)
        assert np.array_equal(counts, expected_counts)

    @pytest.mark.parametrize("k", [2, 3, 6, 9])
    def test_ridges_are_the_facets_less_one_vertex(self, k):
        facets = np.sort(np.random.default_rng(k).integers(0, 100, (50, k)), axis=1)
        expected = np.stack([np.delete(facets, j, axis=1) for j in range(k)], axis=1)
        assert np.array_equal(sphere._ridges(facets), expected.reshape(-1, k - 1))

    def test_a_hull_past_its_bound_is_refused(self, monkeypatch):
        # a (5, 0.7) hull ends with about 1 500 facets, 37 500 facets x dim^2:
        # a bound of 10 000 stops the insertion midway, and the build keeps
        # nothing
        monkeypatch.setattr(sphere, "_HULL_MAX_FACET_DIMS2", 10_000)
        message = r"^the hull of \d+ points has \d+ facets, past its bound of 400 at dim 5"
        with pytest.raises(ResourceError, match=message):
            build_eps_net(5, 0.7)
        assert not sphere._BASE_NETS

    def test_dim_9_net_has_a_radius_within_eps(self):
        # the insertion ends at 137 points with about 413 000 facets, under
        # the hull bound
        net = build_eps_net(9, 0.95)
        assert net.size == 137
        assert net.covering_radius <= 0.95
        base = sphere._base_net(9, 0.95, 10**6).points
        assert np.array_equal(base[:10], sphere._simplex(9))
        assert np.array_equal(net.points, base)
        assert min_chord(net.points) >= 0.95

    def test_the_blocked_ridge_check(self, monkeypatch):
        # blocks of at most 1 000 ridges split the (5, 0.7) hull's 7 480
        # ridges; the true hull passes, a hull short of one facet or with one
        # facet twice is refused
        points, hull = sphere._fill_caps(sphere._simplex(5), 0.7, 10**6)
        facets, size = hull.facets, points.shape[0]
        blocks = []
        distinct_rows = sphere._distinct_rows

        def counted(rows, size):
            blocks.append(rows.shape[0])
            return distinct_rows(rows, size)

        # a ridge of four int32 indices costs 16 bytes, 32 for their uint64
        # copy, 8 for its key and 8 for its sort index
        assert facets.dtype == np.int32
        monkeypatch.setattr(sphere, "_BLOCK_BYTES", 1000 * 64)
        monkeypatch.setattr(sphere, "_distinct_rows", counted)
        sphere._check_ridges(facets, size)
        assert len(blocks) > 4 and max(blocks) <= 1000 and sum(blocks) == 5 * facets.shape[0]
        with pytest.raises(NumericalIntegrityError, match=r"in \[1\] facets, not two"):
            sphere._check_ridges(facets[1:], size)
        with pytest.raises(NumericalIntegrityError, match=r"in \[3\] facets, not two"):
            sphere._check_ridges(np.vstack([facets, facets[-1:]]), size)

    @pytest.mark.parametrize("dim, eps", GREEDY_CASES)
    def test_the_projected_lower_bound_is_at_most_the_size(self, dim, eps):
        assert math.exp(sphere._covering_floor(dim, eps)) <= build_eps_net(dim, eps).size

    def test_the_covering_bound_on_the_circle_and_on_s2(self):
        # N >= pi / theta on S^1 and N >= 4 / theta^2 on S^2, theta = 2 asin(eps/2)
        for eps in (0.05, 0.3, 0.9):
            theta = 2.0 * math.asin(0.5 * eps)
            assert sphere._covering_floor(2, eps) == pytest.approx(math.log(math.pi / theta))
            assert sphere._covering_floor(3, eps) == pytest.approx(math.log(4.0 / theta**2))
            assert sphere._covering_floor(1, eps) == math.log(2.0)
        assert round(math.exp(sphere._covering_floor(4, 0.05))) == 37_687
        assert round(math.exp(sphere._covering_floor(5, 0.1))) == 53_244
        # in logs, far past float range: 4 / theta^2 at theta = 1e-300
        log_floor = math.log(4.0) + 600.0 * math.log(10.0)
        assert sphere._covering_floor(3, 1e-300) == pytest.approx(log_floor)

    def test_a_net_over_the_covering_bound_is_refused_before_insertion(self, monkeypatch):
        def never(*args):
            raise AssertionError("the build started")

        monkeypatch.setattr(sphere, "_fill_caps", never)
        with pytest.raises(ResourceError, match=r"^an eps-covering of S\^4 at eps=0\.1 needs at "
                                                r"least 5\.32e\+04 points \(covering floor\), "
                                                r"which exceeds max_points=50000$") as refused:
            build_eps_net(5, 0.1, max_points=50_000)
        assert refused.value.needed == 53_245

    @pytest.mark.parametrize("dim, eps, printed", [
        (100, 1e-3, "2.50e+298"), (4, 1e-160, "4.71e+480"), (3, 1e-300, "4.00e+600"),
        (1_000_000, 0.5, "6.31e+296401"),
    ])
    def test_a_floor_past_float_range_is_refused_and_printed(self, dim, eps, printed,
                                                              monkeypatch):
        # the volume bound (3/eps)^dim that these overflowed is gone; the
        # floor is printed from its base-10 log
        monkeypatch.setattr(sphere, "_simplex", None)
        with pytest.raises(ResourceError, match=f"needs at least {re.escape(printed)} points "
                                                r"\(covering floor\)") as refused:
            build_eps_net(dim, eps)
        needed = refused.value.needed
        assert needed > 10**6 and (needed == math.inf) == (dim != 100)

    def test_the_start_simplex_past_the_facet_bound_is_refused_before_its_hull(self,
                                                                             monkeypatch):
        # (410, 0.99) has a floor of 3e-5 points, but its start simplex alone
        # has 411 facets x 410^2 > _HULL_MAX_FACET_DIMS2; solving for their
        # planes would take a (411, 410, 410) stack, 527 MiB
        def never(*args):
            raise AssertionError("the start hull was built")

        monkeypatch.setattr(sphere, "_hull_facets", never)
        assert math.exp(sphere._covering_floor(410, 0.99)) < 1e-4
        with pytest.raises(ResourceError, match=r"^the hull of 411 points has 411 facets, "
                                                r"past its bound of 399 at dim 410") as refused:
            build_eps_net(410, 0.99)
        assert refused.value.needed is None
        assert not sphere._BASE_NETS


def reachable_arrays(value):
    """Every ndarray reachable from `value` through tuple items and
    dataclass fields, with repeats."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [array for item in value for array in reachable_arrays(item)]
    if dataclasses.is_dataclass(value):
        return [array for f in dataclasses.fields(value)
                for array in reachable_arrays(getattr(value, f.name))]
    return []


class TestBaseNetCache:
    def test_every_call_serves_the_kept_base_net(self):
        base = sphere._base_net(4, 0.5, 10**6)
        assert isinstance(base, EpsNet)
        for _ in range(3):
            net = build_eps_net(4, 0.5)
            assert net is base
            assert net.triangles is None
        assert sphere._base_net(4, 0.5, 10**6) is base

    @pytest.mark.parametrize("dim, eps", [(3, 0.5), (5, 0.7)])
    def test_one_object_for_every_seed_and_max_points(self, dim, eps):
        first = build_eps_net(dim, eps)
        assert (first.dim, first.eps) == (dim, eps)
        for seed in range(4):
            for max_points in (first.size, first.size + 1, 10**6):
                net = build_eps_net(dim, eps, seed=seed, max_points=max_points)
                assert net is first, (seed, max_points)

    @pytest.mark.parametrize("dim, eps, digest", [
        (3, 0.5, "0bb6e2b8b72a27fb26eb1921a81781de79c79eafde4f49aba134ced877d6956e"),
        (4, 0.5, "8ce81521c38837e18bfd9e7109722f725536b4a7377f1024497b5c3067e398c1"),
        (5, 0.7, "50bdf939e4ceeed9a926e56430840a257889b34bd2963d39a4af8e34c8c572c2"),
        (6, 0.7, "4c83e8dbfe4328d9829f64ba3c4a8538875bb50dbb7d40137edb342040455e65"),
        (3, 0.3, "71710bf0f12d7e6f8a9e0a1f9684200a5f3b012521cd432e01ae978cc259410c"),
        (4, 0.2, "8160b1f39c1b7caabfb0c50554e1fd7b09f44d71f8be6699f4df2b5bcb8c7263"),
        # the net of the CI's greedy net build
        (8, 0.9, "efed731bc4c827e873205cbf954429f6d9d35b414ff102ed5de2c2683d1e7add"),
    ])
    def test_base_nets_keep_their_bits(self, dim, eps, digest):
        # SHA-256 of the points' float64 bytes, as built when a seed still
        # turned each served copy: serving the base net unturned moved none
        points = sphere._base_net(dim, eps, 10**6).points
        assert hashlib.sha256(points.tobytes()).hexdigest() == digest

    def test_kept_arrays_are_read_only(self):
        base = sphere._base_net(3, 0.5, 10**6)
        assert not base.points.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            base.points[0] = 0
        # every net is served the kept points
        assert build_eps_net(3, 0.5).points is base.points

    def test_every_reachable_array_of_a_kept_base_is_read_only(self):
        # a greedy net holds its points alone
        arrays = reachable_arrays(build_eps_net(4, 0.5))
        assert len(arrays) == 1
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0

    @pytest.mark.parametrize("dim, eps, jitter", [(2, 0.3, sphere._START_JITTER),
                                                  (4, 0.5, 2e-3)])
    def test_cold_and_warm_caches_give_one_net(self, dim, eps, jitter, monkeypatch):
        # a patched jitter moves the start simplex of every base net built
        # in the test, this one's and the others'
        monkeypatch.setattr(sphere, "_START_JITTER", jitter)
        cold = build_eps_net(dim, eps)
        warm = build_eps_net(dim, eps)
        # other nets built in between, then enough of them to drop this one
        others = [(3, 0.5), (3, 0.55), (2, 0.2), (6, 0.8), (5, 0.75)]
        build_eps_net(*others[0]), build_eps_net(*others[1])
        kept = build_eps_net(dim, eps)
        for other in others:
            build_eps_net(*other)
        assert (dim, eps) not in sphere._BASE_NETS
        rebuilt = build_eps_net(dim, eps)
        for net in (warm, kept, rebuilt):
            assert np.array_equal(net.points, cold.points)
            assert net.covering_radius == cold.covering_radius

    def test_the_cache_holds_its_entry_limit(self):
        for eps in (0.5, 0.55, 0.6, 0.65, 0.7, 0.75):
            build_eps_net(3, eps)
        assert len(sphere._BASE_NETS) == sphere._BASE_NET_ENTRIES
        assert list(sphere._BASE_NETS)[-1] == (3, 0.75)

    # The cache is keyed on (dim, eps) alone; tests/conftest.py empties it
    # before each test.  These two run in this order in one process: the
    # first keeps a net built from a start simplex under a patched jitter,
    # and the second must not be served it.
    def test_a_net_built_under_a_patched_start_jitter(self, monkeypatch):
        monkeypatch.setattr(sphere, "_START_JITTER", 2e-3)
        jittered = build_eps_net(5, 0.7)
        points = sphere._fill_caps(sphere._simplex(5), 0.7, 10**6)[0]
        assert np.array_equal(jittered.points, points)
        assert (5, 0.7) in sphere._BASE_NETS

    def test_is_not_served_to_the_next_test(self):
        assert not sphere._BASE_NETS
        full = build_eps_net(5, 0.7)
        points, hull = sphere._fill_caps(sphere._simplex(5), 0.7, 10**6)
        assert np.array_equal(full.points, points)
        assert full.covering_radius is not None and full.covering_radius <= 0.7

    def test_a_kept_net_over_max_points_is_refused(self):
        # each refusal carries the least count it established: the kept
        # net's size, or one point past the cap where the insertion stopped
        size = build_eps_net(3, 0.3).size
        message = rf"^net exceeded max_points={size - 1}$"
        with pytest.raises(ResourceError, match=message) as refused:
            build_eps_net(3, 0.3, max_points=size - 1)
        assert refused.value.needed == size
        sphere._BASE_NETS.clear()
        with pytest.raises(ResourceError, match=message) as refused:
            build_eps_net(3, 0.3, max_points=size - 1)
        assert refused.value.needed == size
        assert not sphere._BASE_NETS  # a refused build keeps nothing
        assert build_eps_net(3, 0.3, max_points=size).size == size

    def test_each_base_net_checks_its_packing(self, monkeypatch):
        # a built point moved next to another fails the packing test
        fill_caps = sphere._fill_caps

        def moved(points, eps, max_points):
            points, hull = fill_caps(points, eps, max_points)
            return np.vstack([points[:-1], points[0] * 0.999]), hull

        monkeypatch.setattr(sphere, "_fill_caps", moved)
        with pytest.raises(NumericalIntegrityError, match="less than eps apart"):
            build_eps_net(3, 0.5)
        assert not sphere._BASE_NETS

    def test_each_base_net_checks_its_planes(self, monkeypatch):
        # a final facet that is not a hull facet, with its own plane: the
        # plane through two vertices of a facet and the point farthest from
        # it cuts the sphere, so net points lie above it
        fill_caps = sphere._fill_caps

        def replaced(points, eps, max_points):
            points, hull = fill_caps(points, eps, max_points)
            facet = hull.facets[0]
            far = int(np.argmin(points @ points[facet].sum(axis=0)))
            hull.facets[0] = np.sort([facet[0], facet[1], far])
            hull.planes[0] = np.linalg.solve(points[hull.facets[0]], np.ones(3))
            return points, hull

        monkeypatch.setattr(sphere, "_fill_caps", replaced)
        with pytest.raises(NumericalIntegrityError, match="above a hull facet"):
            build_eps_net(3, 0.5)
        assert not sphere._BASE_NETS

    def test_a_kept_net_is_certified_once(self, monkeypatch):
        first = build_eps_net(3, 0.5)

        def refuse(*args):
            raise AssertionError("a kept net was checked again")

        monkeypatch.setattr(sphere, "_check_packing", refuse)
        monkeypatch.setattr(sphere, "_facet_planes", refuse)
        net = build_eps_net(3, 0.5)
        assert net.points is first.points
        assert net.covering_radius == first.covering_radius


class TestGeodesicNet:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_size_norms_and_separation(self, k):
        net = geodesic_net(k)
        assert net.size == 10 * k * k + 2
        assert net.points.shape == (net.size, 3)
        assert np.abs(np.linalg.norm(net.points, axis=1) - 1.0).max() <= 1e-15
        # every point is built once: no two closer than half the radius
        gram = net.points @ net.points.T
        np.fill_diagonal(gram, -1.0)
        min_dist = math.sqrt(max(2.0 - 2.0 * gram.max(), 0.0))
        assert min_dist >= 0.5 * geodesic_radius(k)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 128])
    def test_face_corners_project_to_the_vertices(self, k):
        # the net's 12 vertices are its faces' grid corners, projected
        corners = sphere._ICO_VERTS[sphere._ICO_FACES]
        i, j = np.array([0, k, 0]), np.array([0, 0, k])
        assert np.array_equal(sphere._project(i, j, k, corners), corners)

    def test_radius_equals_hull_facet_caps(self):
        # Delaunay caps of points on the sphere are empty, so the largest
        # chord from a convex-hull facet's unit normal to its vertices is the
        # exact covering radius
        from scipy.spatial import ConvexHull

        for k in range(1, 17):
            net = geodesic_net(k)
            hull = ConvexHull(net.points)
            normals = hull.equations[:, :3]
            chords = np.linalg.norm(net.points[hull.simplices] - normals[:, None, :], axis=2)
            assert abs(net.covering_radius - chords.max()) <= 1e-12, k

    def test_uniform_probes_are_covered(self):
        net = geodesic_net(10)
        probes = SphereSampler(3, 29).sample(100_000)
        dist = np.linalg.norm(probes - net.points[assign_regions(net, probes)], axis=1)
        assert dist.max() <= net.covering_radius

    def test_frequency_is_the_smallest_covering_one(self):
        radii = [geodesic_radius(k) for k in range(1, 200)]
        assert all(a > b for a, b in zip(radii, radii[1:]))
        for eps in (0.9, 0.6, 0.3, 0.1, 0.02):
            k = geodesic_frequency(eps, 10**6)
            assert geodesic_radius(k) <= eps
            assert k == 1 or geodesic_radius(k - 1) > eps

    def test_certified_regime_sizes(self):
        # eps* ~ 6.47e-3 at n = 3, d = 1 needs k = 119 (141 612 points) and
        # eps 0.006 needs k = 128 (163 842): both fit the --deep cap of 2e5
        assert geodesic_frequency(eps_threshold(3, 1), 200_000) == 119
        assert geodesic_frequency(0.006, 200_000) == 128

    def test_frequency_equals_a_linear_scan(self):
        def scan(eps):
            k = 1
            while geodesic_radius(k) > eps:
                k += 1
            return k

        for eps in np.geomspace(0.005, 0.95, 300):
            k = scan(eps)
            assert geodesic_frequency(eps, 10**6) == k
            # the net of the answer fits exactly, or misses by one point
            assert geodesic_frequency(eps, 10 * k * k + 2) == k
            with pytest.raises(ResourceError, match=f"k = {k}\\)") as refused:
                geodesic_frequency(eps, 10 * k * k + 1)
            assert refused.value.needed == 10 * k * k + 2

    def test_size_guard_builds_nothing(self, monkeypatch):
        def never(*args):
            raise AssertionError("net geometry computed before the size guard")

        monkeypatch.setattr(sphere, "_project", never)
        # the covering floor of S^2, 4 / theta^2 points: eps 1e-160 overflowed
        # a float to int conversion and eps 1e-300 divided by zero
        for eps, max_points, printed, needed in [
            (0.004, 50_000, "2.50e+05", 250_000), (1e-160, 200_000, "4.00e+320", math.inf),
            (1e-300, 200_000, "4.00e+600", math.inf),
        ]:
            message = (rf"^an eps-covering of S\^2 at eps={eps:g} needs at least "
                       rf"{re.escape(printed)} points \(covering floor\), which exceeds "
                       rf"max_points={max_points}$")
            with pytest.raises(ResourceError, match=message) as refused:
                geodesic_frequency(eps, max_points)
            assert refused.value.needed == pytest.approx(needed, rel=1e-6)

    def test_floors_past_int64_are_refused_before_any_grid(self, monkeypatch):
        # these raised OverflowError from exp of the floor, or numpy's
        # ValueError from the face grid of k ~ 6e99
        def never(*args):
            raise AssertionError("a face grid allocated before the refusal")

        monkeypatch.setattr(sphere, "_grid", never)
        for eps, max_points, needed in [
            (1e-300, 10**700, math.inf), (1e-200, 10**500, math.inf),
            (1e-160, 10**400, math.inf), (1e-100, 10**400, 4e200),
        ]:
            message = r"\(covering floor\), which exceeds max_points=9223372036854775807$"
            with pytest.raises(ResourceError, match=message) as refused:
                geodesic_frequency(eps, max_points)
            assert refused.value.needed == pytest.approx(needed, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            geodesic_net(0)
        with pytest.raises(DomainError):
            geodesic_frequency(1.0, 10**6)


def half_edges(triangles):
    """(tail, head) of each triangle's three half-edges, corner e to e + 1."""
    return triangles.ravel(), triangles[:, [1, 2, 0]].ravel()


def reference_geodesic_net(k):
    """Points, triangles and covering radius of `geodesic_net(k)` as an
    earlier construction built them, each with its own point numbering: the
    vertices, each edge projected as side j = 0 of the degenerate face
    (p, q, q), then the face interiors; the triangles rebuilt that order from
    a separate index table, and the radius had its own small-triangle
    enumeration and circumcenter."""
    verts, faces, edges = sphere._ICO_VERTS, sphere._ICO_FACES, sphere._ICO_EDGES

    def grid(lo=0):
        r = np.arange(lo, k + 1)
        i, j = np.nonzero(np.add.outer(r, r) <= k - lo)
        return i + lo, j + lo

    def project(i, j, corners):
        weights = np.stack([k - i - j, i, j], axis=1) / k
        flat = np.einsum("pc,fcx->fpx", weights, corners)
        return flat / np.linalg.norm(flat, axis=2, keepdims=True)

    t = np.arange(1, k)
    i, j = grid(lo=1)
    pts = np.concatenate([
        verts,
        project(t, np.zeros_like(t), verts[np.column_stack([edges, edges[:, 1]])])
        .reshape(-1, 3),
        project(i, j, verts[faces]).reshape(-1, 3),
    ])
    edge_start = np.zeros((12, 12), dtype=np.int64)
    edge_start[edges[:, 0], edges[:, 1]] = 12 + (k - 1) * np.arange(30)
    a, b, c = faces.T
    index = np.zeros((20, k + 1, k + 1), dtype=np.int64)
    index[:, 0, 0], index[:, k, 0], index[:, 0, k] = a, b, c
    index[:, t, 0] = edge_start[a, b][:, None] + t - 1
    index[:, 0, t] = edge_start[a, c][:, None] + t - 1
    index[:, k - t, t] = edge_start[b, c][:, None] + t - 1
    index[:, i, j] = 12 + 30 * (k - 1) + np.arange(20 * i.size).reshape(20, i.size)
    i, j = grid()
    up = i + j < k
    dn = i + j < k - 1
    tri = np.stack([
        np.concatenate([index[:, i[up], j[up]], index[:, i[dn] + 1, j[dn]]], axis=1),
        np.concatenate([index[:, i[up] + 1, j[up]], index[:, i[dn] + 1, j[dn] + 1]],
                       axis=1),
        np.concatenate([index[:, i[up], j[up] + 1], index[:, i[dn], j[dn] + 1]], axis=1),
    ], axis=2)
    tri[sphere._ICO_INWARD] = tri[sphere._ICO_INWARD][:, :, [0, 2, 1]]

    face = np.zeros((k + 1, k + 1, 3))
    face[i, j] = project(i, j, verts[faces[:1]])[0]
    a = np.concatenate([face[i[up], j[up]], face[i[dn] + 1, j[dn]]])
    b = np.concatenate([face[i[up] + 1, j[up]], face[i[dn] + 1, j[dn] + 1]])
    c = np.concatenate([face[i[up], j[up] + 1], face[i[dn], j[dn] + 1]])
    center = np.cross(b - a, c - a)
    center /= np.linalg.norm(center, axis=1)[:, None]
    center *= np.sign(np.einsum("ij,ij->i", center, a))[:, None]
    rho = float(max(np.linalg.norm(v - center, axis=1).max() for v in (a, b, c)))
    return pts, tri.reshape(-1, 3), rho


class TestGeodesicReference:
    @pytest.mark.parametrize("k", [*range(1, 17), 119, 128])
    def test_equals_the_reference_construction(self, k):
        points, triangles, rho = reference_geodesic_net(k)
        net = geodesic_net(k)
        assert np.array_equal(net.points, points), k
        assert np.array_equal(net.triangles, triangles), k
        assert geodesic_radius(k) == rho == net.covering_radius
        ours = voronoi_moments(net)
        ref = voronoi_moments(EpsNet(dim=3, eps=rho, points=points,
                                     covering_radius=rho, triangles=triangles))
        assert np.array_equal(ours.weights, ref.weights), k
        assert np.array_equal(ours.moment_vectors, ref.moment_vectors), k


class TestGeodesicTriangulation:
    @pytest.mark.parametrize("k", range(1, 17))
    def test_closed_outward_surface(self, k):
        net = geodesic_net(k)
        tri = net.triangles
        assert tri.shape == (20 * k * k, 3)
        a, b, c = (net.points[tri[:, e]] for e in range(3))
        assert np.einsum("ij,ij->i", a, np.cross(b - a, c - a)).min() > 0.0
        # every half-edge p -> q once, and its twin q -> p once: each edge
        # lies in exactly two triangles, traversed in opposite directions
        tail, head = half_edges(tri)
        directed = tail * net.size + head
        assert np.unique(directed).size == directed.size
        assert np.array_equal(np.sort(directed), np.sort(head * net.size + tail))
        assert np.array_equal(np.unique(tri), np.arange(net.size))
        edges = directed.size // 2
        assert net.size - edges + tri.shape[0] == 2

    @pytest.mark.parametrize("k", [*range(1, 17), 119, 128])
    def test_every_edge_is_locally_delaunay(self, k):
        # the vertex across an edge lies outside the circumcap of the
        # triangle on this side: s . c_T <= p . c_T, up to rounding
        net = geodesic_net(k)
        pts, tri = net.points, net.triangles
        a, b, c = (pts[tri[:, e]] for e in range(3))
        center = np.cross(b - a, c - a)
        center /= np.linalg.norm(center, axis=1)[:, None]
        tail, head = half_edges(tri)
        opposite = tri[:, [2, 0, 1]].ravel()
        order = np.argsort(np.minimum(tail, head) * net.size + np.maximum(tail, head))
        one, other = order.reshape(-1, 2).T
        for near, far in ((one, other), (other, one)):
            cap = center[near // 3]
            inside = np.einsum("ij,ij->i", pts[opposite[far]] - pts[tail[near]], cap)
            assert inside.max() <= 1e-12, k

    @pytest.mark.parametrize("k", range(1, 17))
    def test_equals_the_convex_hull(self, k):
        from scipy.spatial import ConvexHull

        net = geodesic_net(k)
        ours = {tuple(sorted(t)) for t in net.triangles.tolist()}
        hull = {tuple(sorted(t)) for t in ConvexHull(net.points).simplices.tolist()}
        assert ours == hull


class TestNearestPoint:
    def test_net_point_maps_to_itself(self):
        net = build_eps_net(3, 0.3)
        for idx in (0, 5, net.size - 1):
            assert nearest_point(net, net.points[idx]) == idx

    def test_dim1(self):
        net = EpsNet(dim=1, eps=0.5, points=np.array([[1.0], [-1.0]]))
        assert nearest_point(net, np.array([1.0])) == 0
        assert nearest_point(net, np.array([-1.0])) == 1

    def test_tie_breaks_to_lowest_index(self):
        net = EpsNet(
            dim=2, eps=0.9, points=np.array([[1.0, 0.0], [0.0, 1.0]]))
        bisector = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert nearest_point(net, bisector) == 0

    def test_random_probes_within_eps(self):
        net = build_eps_net(3, 0.3)
        probes = SphereSampler(3, 17).sample(2000)
        idx = assign_regions(net, probes)
        dist = np.linalg.norm(probes - net.points[idx], axis=1)
        assert dist.max() <= 0.3

    def test_every_net_size_equals_the_full_argmax(self):
        # geodesic nets of 12 to 252 points and small greedy nets, probes
        # drawn and probes on the net points
        nets = [geodesic_net(k) for k in range(1, 6)]
        nets += [build_eps_net(5, 0.7), build_eps_net(1, 0.5)]
        for net in nets:
            probes = np.vstack([SphereSampler(net.dim, 31).sample(20_000), net.points])
            expected = np.argmax(probes @ net.points.T, axis=1)
            assert np.array_equal(assign_regions(net, probes), expected), net.size

    @pytest.mark.parametrize("block", [1, 1000])
    def test_blocks_equal_the_full_argmax(self, net_3_015, block, monkeypatch):
        # one probe per block, and blocks that do not divide the 5 003 probes
        monkeypatch.setattr(sphere, "_BLOCK_BYTES", 8 * block)
        probes = SphereSampler(3, 33).sample(5_003)
        dots = probes @ net_3_015.points.T
        expected = np.argmax(dots, axis=1)
        index, dot = sphere._nearest(net_3_015.points, probes)
        assert np.array_equal(index, expected)
        assert np.array_equal(assign_regions(net_3_015, probes), expected)
        assert np.allclose(dot, dots.max(axis=1), rtol=0.0, atol=1e-15)

    def test_assignment_does_not_read_eps(self, net_3_015):
        # a NaN eps, which a loaded header could once carry
        probes = SphereSampler(3, 35).sample(1000)
        net = EpsNet(dim=3, eps=math.nan, points=net_3_015.points)
        expected = np.argmax(probes @ net.points.T, axis=1)
        assert np.array_equal(assign_regions(net, probes), expected)

    @pytest.mark.parametrize("probe", [[math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0]])
    def test_a_probe_that_is_not_finite_is_refused(self, probe):
        # once put in region 0; geodesic points have zero coordinates, where
        # inf * 0 is NaN, and greedy ones have none
        for net in (geodesic_net(2), build_eps_net(3, 0.5)):
            with pytest.raises(DomainError, match="finite"):
                nearest_point(net, probe)
            probes = np.vstack([SphereSampler(3, 37).sample(5), probe])
            with pytest.raises(DomainError, match="finite"):
                assign_regions(net, probes)

    def test_an_empty_net_is_refused(self):
        net = EpsNet(dim=3, eps=0.5, points=np.zeros((0, 3)))
        with pytest.raises(DomainError, match="empty net"):
            assign_regions(net, SphereSampler(3, 36).sample(10))

    def test_matches_brute_force_argmax(self, net_3_015):
        probes = SphereSampler(3, 19).sample(20_000)

        def check(net):
            expected = np.argmax(probes @ net.points.T, axis=1)
            got = assign_regions(net, probes)
            assert np.array_equal(got, expected)
            return got

        # more than 256 net points
        net = net_3_015
        assert net.size > 256
        check(net)

        # a sparse net: a ring of 300 points at z = 0 plus the poles leaves
        # most probes farther than eps from every net point
        t = 2 * np.pi * np.arange(300) / 300
        ring = np.column_stack([np.cos(t), np.sin(t), np.zeros(300)])
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        sparse = EpsNet(dim=3, eps=0.01, points=np.vstack([ring, poles]))
        dist = np.linalg.norm(probes - sparse.points[check(sparse)], axis=1)
        assert np.mean(dist > sparse.eps) > 0.9

        # ties: a duplicated row never wins over its lower-index original
        pts = np.insert(net.points, 6, net.points[5], axis=0)
        dup = EpsNet(dim=3, eps=0.15, points=pts)
        got = check(dup)
        assert not np.any(got == 6)
        assert np.any(got == 5)
        # an exact tie between rows at different heights also goes to the
        # lower index
        c = math.sqrt(1.0 - 0.01)
        filler = SphereSampler(3, 23).sample(300)
        filler[:, 0] = -np.abs(filler[:, 0])
        mirror = np.vstack([[[c, 0.0, 0.1], [c, 0.0, -0.1]], filler])
        tied = EpsNet(dim=3, eps=0.15, points=mirror)
        assert nearest_point(tied, np.array([1.0, 0.0, 0.0])) == 0


@pytest.fixture(scope="module")
def hull_6_06():
    # 403 points and 37 287 facets
    return sphere._fill_caps(sphere._simplex(6), 0.6, 10**6)


def nearest_case(hull_6_06):
    # 100 probes per point of a net as large as build_eps_net(4, 0.2)'s,
    # 1 722 points: the whole product would take 2.4 GB.  Where the points
    # lie does not matter, so they are drawn, not built.  It returns an
    # index and a dot per probe.
    points = SphereSampler(4, 37).sample(1722)
    probes = SphereSampler(4, 34).sample(100 * points.shape[0])
    return (lambda: sphere._nearest(points, probes)), 16 * probes.shape[0]


def facet_planes_case(hull_6_06):
    # it returns an allowance and a radius per facet
    points, hull = hull_6_06
    return (lambda: sphere._facet_planes(points, hull.facets, hull.planes)), 16 * hull.count


def packing_case(hull_6_06):
    points = hull_6_06[0]
    return (lambda: sphere._check_packing(points, 0.6)), 0


def ridges_case(hull_6_06):
    # it holds the facets in order of their first and of their second vertex
    points, hull = hull_6_06
    return (lambda: sphere._check_ridges(hull.facets, points.shape[0])), 16 * hull.count


@pytest.mark.parametrize("case", [nearest_case, facet_planes_case, packing_case, ridges_case],
                         ids=["_nearest", "_facet_planes", "_check_packing", "_check_ridges"])
def test_memory_is_bounded_by_the_block(case, hull_6_06):
    # one block's temporaries within _BLOCK_BYTES, what the pass returns or
    # holds across its blocks, and one more _BLOCK_BYTES for what a row's
    # count leaves out (its arrays of a few numbers, sort buffers)
    call, held = case(hull_6_06)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * sphere._BLOCK_BYTES + held


def test_a_growth_holds_one_old_buffer_at_a_time(hull_6_06):
    # the five buffers of a hull of 37 287 facets, 3.6 MB, made under the
    # trace so that freeing them counts; the largest, the planes, is half.
    # A growth that made every wider buffer before dropping the old ones
    # would peak the sum of the five above what it holds after.
    live = hull_6_06[1]
    tracemalloc.start()
    try:
        hull = sphere._Hull(live.facets.copy(), live.planes.copy(), live.allowances.copy(),
                            live.radii.copy())
        old = [buffer.nbytes for buffer in hull._buffers]
        tracemalloc.reset_peak()
        hull._grow(2 * hull.count)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 64 KiB for the tuple, the list and the views
    assert peak - held <= max(old) + 65536 < sum(old)
    for grown, part in zip((hull.facets, hull.planes, hull.allowances, hull.radii),
                           (live.facets, live.planes, live.allowances, live.radii)):
        assert np.array_equal(grown, part)


class TestDraws:
    @pytest.mark.parametrize("points", [1, 2])
    def test_batches_stacked_are_one_draw_of_the_stream(self, points):
        samples = 2 * sphere._BATCH + 3
        batches = list(sphere._draws(SphereSampler(4, 31), 4, samples, 1, points))
        assert [b.shape for b in batches] == (
            [(points, sphere._BATCH, 4)] * 2 + [(points, 3, 4)])
        stacked = np.concatenate([b.reshape(-1, 4) for b in batches])
        assert np.array_equal(stacked, SphereSampler(4, 31).sample(points * samples))

    @pytest.mark.parametrize("dim, samples", [(3, 1000), (4, 999), (4, 1000.5), (4, None)])
    def test_a_refusal_draws_nothing(self, dim, samples):
        sampler = SphereSampler(4, 32)
        with pytest.raises(DomainError):
            next(sphere._draws(sampler, dim, samples, 1000))
        assert np.array_equal(sampler.sample(5), SphereSampler(4, 32).sample(5))


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
        net = EpsNet(dim=1, eps=0.5, points=np.array([[1.0], [-1.0]]))
        mom = region_moments(net, 20_000, SphereSampler(1, 21))
        se_half = math.sqrt(0.25 / 20_000)
        assert abs(mom.weights[0] - 0.5) <= 3 * se_half
        assert mom.weights.sum() == pytest.approx(1.0, abs=1e-9)
        # every sample in region 0 is exactly +1, so w = +mu (and -mu below)
        assert mom.moment_vectors[0, 0] == pytest.approx(mom.weights[0], abs=1e-15)
        assert mom.moment_vectors[1, 0] == pytest.approx(-mom.weights[1], abs=1e-15)

    def test_antisymmetric_net_first_moment(self):
        pts = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
        net = EpsNet(dim=2, eps=0.9, points=pts)
        mom = region_moments(net, 40_000, SphereSampler(2, 22))
        total = mom.moment_vectors.sum(axis=0)
        se = 3 * math.sqrt(1.0 / 40_000)  # ||a|| = 1 bounds the variance
        assert np.linalg.norm(total) <= se

    def test_moment_norm_vs_weight(self):
        net = build_eps_net(3, 0.3)
        mom = region_moments(net, 100 * net.size, SphereSampler(3, 23))
        norms = np.linalg.norm(mom.moment_vectors, axis=1)
        assert np.all(norms <= mom.weights + 1e-15)
        # cap concentration: sampled regions sit within eps of their point
        busy = mom.weights > 0
        ratio = norms[busy] / mom.weights[busy]
        assert np.all(ratio >= 1.0 - 0.3**2 / 2)

    def test_equals_the_moments_of_per_batch_assignments(self):
        # 400 scattered points, many probes farther than eps from all of them
        pts = SphereSampler(3, 25).sample(400)
        net = EpsNet(dim=3, eps=0.15, points=pts)
        samples = 5 * sphere._BATCH + 123
        mom = region_moments(net, samples, SphereSampler(3, 26))

        # reference: each batch of the stream assigned on its own
        sampler = SphereSampler(3, 26)
        counts = np.zeros(net.size, dtype=np.int64)
        sums = np.zeros((net.size, 3))
        done = 0
        while done < samples:
            b = min(sphere._BATCH, samples - done)
            probes = sampler.sample(b)
            idx = assign_regions(net, probes)
            counts += np.bincount(idx, minlength=net.size)
            for c in range(3):
                sums[:, c] += np.bincount(idx, weights=probes[:, c], minlength=net.size)
            done += b
        weights, moments = counts / float(samples), sums / float(samples)
        norms_sq = np.einsum("ij,ij->i", moments, moments)
        assert np.array_equal(mom.weights, weights)
        assert np.array_equal(mom.moment_vectors, moments)
        assert np.array_equal(
            mom.standard_errors,
            np.sqrt(np.maximum(weights - norms_sq, 0.0) / samples),
        )
        assert np.array_equal(mom.empty_regions, np.nonzero(counts == 0)[0])

    def test_weights_sum_and_errors(self):
        net = build_eps_net(2, 0.3)
        mom = region_moments(net, 100 * net.size, SphereSampler(2, 24))
        assert mom.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert mom.samples_used == 100 * net.size
        assert np.all(mom.standard_errors >= 0)
        assert mom.empty_regions.size == 0

    def test_min_samples(self):
        net = build_eps_net(2, 0.3)
        with pytest.raises(DomainError):
            region_moments(net, 10, SphereSampler(2, 0))

    def test_determinism(self):
        net = build_eps_net(2, 0.3)
        m1 = region_moments(net, 100 * net.size, SphereSampler(2, 25))
        m2 = region_moments(net, 100 * net.size, SphereSampler(2, 25))
        assert np.array_equal(m1.moment_vectors, m2.moment_vectors)
        assert np.array_equal(m1.weights, m2.weights)

    def test_zero_sample_region_flagged(self):
        # a duplicated point loses every tie to the lower index and starves
        pts = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        net = EpsNet(dim=2, eps=0.9, points=pts)
        mom = region_moments(net, 1000, SphereSampler(2, 26))
        assert 1 in mom.empty_regions
        assert mom.weights[1] == 0.0
        assert np.all(mom.moment_vectors[1] == 0.0)


class TestVoronoiMoments:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_within_four_sigma_of_monte_carlo(self, k):
        net = geodesic_net(k)
        exact = voronoi_moments(net)
        mc = region_moments(net, 1_000_000, SphereSampler(3, 70 + k))
        # one SE per region bounds every coordinate's own SE
        se_w = mc.standard_errors[:, None]
        assert np.all(np.abs(exact.moment_vectors - mc.moment_vectors) <= 4.0 * se_w)
        se_mu = np.sqrt(exact.weights * (1.0 - exact.weights) / mc.samples_used)
        assert np.all(np.abs(exact.weights - mc.weights) <= 4.0 * se_mu)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sums_and_cap_concentration(self, k):
        net = geodesic_net(k)
        mom = voronoi_moments(net)
        assert abs(mom.weights.sum() - 1.0) <= 1e-14
        assert np.linalg.norm(mom.moment_vectors.sum(axis=0)) <= 1e-14
        # every point of a region lies within chord rho of its net point
        norms = np.linalg.norm(mom.moment_vectors, axis=1)
        rho = net.covering_radius
        assert np.all(mom.weights * (1.0 - rho * rho / 2.0) <= norms)
        assert np.all(norms <= mom.weights)

    def test_exact_fields(self):
        net = geodesic_net(3)
        mom = voronoi_moments(net)
        assert mom.net is net and mom.samples_used == 0
        assert np.array_equal(mom.standard_errors, np.zeros(net.size))
        assert mom.empty_regions.size == 0
        assert np.array_equal(mom.weights, voronoi_moments(net).weights)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_weights_do_not_depend_on_the_rotation(self, k, turned):
        net = geodesic_net(k)
        base = voronoi_moments(net).weights
        for seed in (1, 2, 3):
            other = voronoi_moments(turned(net, seed)).weights
            assert np.abs(other - base).max() <= 1e-15

    def test_needs_triangles(self):
        with pytest.raises(DomainError, match="triangulated"):
            voronoi_moments(EpsNet(dim=3, eps=0.5, points=np.eye(3)))


class TestGeodesicBase:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_turning_the_net_moves_no_value_beyond_rounding(self, k, turned):
        # every term of the finite Bell value is unchanged when the net and
        # the settings turn together, so the unturned net stands for all
        exact = voronoi_moments(geodesic_net(k))
        net = exact.net
        x = dot_climb(exact.moment_vectors, 2, derive_seed(0, "seesaw")).assignment.row_vectors

        def values(moments, points):
            return (bell_value_finite(moments.net, moments, (points, points)),
                    dot_upper_bound(moments), dot_value(moments.moment_vectors, x, x))

        reference = values(exact, net.points)
        for seed in range(1, 6):
            other = turned(net, seed)
            for value, ref in zip(values(voronoi_moments(other), other.points), reference):
                assert abs(value - ref) <= 2e-15 * abs(ref), (seed, value, ref)


class TestIncrementalFill:
    @pytest.mark.parametrize("dim, eps", [case for case in GREEDY_CASES if case[0] > 1])
    def test_equals_the_rewrapping_reference(self, dim, eps):
        # each point after the simplex is the centre of a widest cap of the
        # hull of the points before it, computed afresh by scipy, and that cap
        # is wider than eps; the whole net's widest cap is its radius.  An
        # insertion often leaves two caps equally wide, up to rounding, so
        # either may come next.
        net = build_eps_net(dim, eps)
        for end in range(dim + 1, net.size):
            _, centers, radii = hull_oracle(net.points[:end])
            assert radii.max() > eps
            widest = centers[radii >= radii.max() - 1e-12]
            miss = np.abs(widest - net.points[end]).max(axis=1).min()
            assert miss <= 1e-12, (dim, eps, end)
        assert abs(hull_oracle(net.points)[2].max() - net.covering_radius) <= 1e-12

    @pytest.mark.parametrize("dim, eps", [case for case in GREEDY_CASES if case[0] > 1])
    def test_one_wrap_and_its_insertions_give_the_fresh_hull(self, dim, eps):
        # the one hull built from scratch is the start simplex's; every hull
        # after it comes from inserting one point, and equals the hull scipy
        # computes afresh for the same points
        net = build_eps_net(dim, eps)
        for end, hull in enumerate(inserted_hulls(net.points), start=dim + 1):
            facets = set(map(tuple, hull.facets.tolist()))
            assert len(facets) == hull.facets.shape[0]
            assert facets == set(map(tuple, hull_oracle(net.points[:end])[0].tolist())), end

    def test_an_added_point_on_a_facet_plane_is_refused(self):
        points, hull = sphere._fill_caps(sphere._simplex(3), 0.5, 10**6)
        m = hull.planes[0]
        # a unit vector on the circle where the plane x.m = 1 cuts the sphere
        u = np.cross(m, points[0] - points[1])
        u /= np.linalg.norm(u)
        p = m / (m @ m) + math.sqrt(1.0 - 1.0 / (m @ m)) * u
        assert abs(1.0 - p @ m) <= hull.allowances[0]
        with pytest.raises(NumericalIntegrityError, match="on a hull facet plane"):
            sphere._insert_last(np.vstack([points, p]), hull)

    def test_a_point_above_a_new_facet_is_refused(self):
        # q, next to the inserted center p but left out of the hull, lies
        # under every kept facet and above some facet joined to p
        points, hull = sphere._fill_caps(sphere._simplex(3), 0.5, 10**6)
        p = sphere._unit_rows(hull.planes[[np.argmax(hull.radii)]])[0]
        q = p + 1e-3 * np.cross(p, points[0])
        q /= np.linalg.norm(q)
        with pytest.raises(NumericalIntegrityError, match="above a hull facet"):
            sphere._insert_last(np.vstack([points, q, p]), hull)

    def test_an_added_point_inside_the_hull_is_refused(self):
        points, hull = sphere._fill_caps(sphere._simplex(3), 0.5, 10**6)
        inside = 0.5 * points[0] + 0.25 * points[1]
        with pytest.raises(NumericalIntegrityError, match="inside the hull"):
            sphere._insert_last(np.vstack([points, inside]), hull)

    def test_an_unperturbed_start_is_refused(self, monkeypatch):
        # the exact regular simplex puts an inserted centre on a facet plane
        monkeypatch.setattr(sphere, "_START_JITTER", 0.0)
        with pytest.raises(NumericalIntegrityError, match="on a hull facet plane"):
            build_eps_net(3, 0.5)

    def test_the_start_is_a_perturbed_regular_simplex(self):
        for dim in range(2, 10):
            start = sphere._simplex(dim)
            assert np.abs(np.linalg.norm(start, axis=1) - 1.0).max() <= 1e-15
            gram = start @ start.T
            off = gram[~np.eye(dim + 1, dtype=bool)]
            # a regular simplex's vertices have dot -1/dim, moved by the jitter
            assert np.abs(off + 1.0 / dim).max() <= 20 * sphere._START_JITTER
            assert np.array_equal(sphere._simplex(dim), start)


def slotted_hull(rows):
    """A `_Hull` over the index rows `rows` whose plane, allowance and
    radius entries name each row by its index, so that a test can tell
    where every row's entries went."""
    count = rows.shape[0]
    return sphere._Hull(rows.astype(np.int32), np.arange(2.0 * count).reshape(count, 2),
                        np.arange(count, dtype=float), np.arange(count, dtype=float))


class TestSlottedHull:
    def test_fewer_new_facets_move_live_facets_into_freed_slots(self):
        # ten facets, four replaced by two: slots 1 and 4 take the new
        # facets, hole 7 takes facet 8 from the end, and hole 9 leaves
        hull = slotted_hull(np.arange(10)[:, None] * [1, 1])
        new = slotted_hull(np.array([[20, 20], [21, 21]]))
        new.radii[:] = [20.0, 21.0]
        hull.replace(np.array([1, 4, 7, 9]), new)
        assert hull.count == 8
        assert hull.facets[:, 0].tolist() == [0, 20, 2, 3, 21, 5, 6, 8]
        assert hull.radii.tolist() == [0.0, 20.0, 2.0, 3.0, 21.0, 5.0, 6.0, 8.0]
        assert hull.allowances.tolist() == [0.0, 0.0, 2.0, 3.0, 1.0, 5.0, 6.0, 8.0]
        assert hull.planes[:, 0].tolist() == [0.0, 0.0, 4.0, 6.0, 2.0, 10.0, 12.0, 16.0]

    def test_more_new_facets_append_and_double_the_capacity(self):
        hull = slotted_hull(np.arange(4)[:, None] * [1, 1])
        new = slotted_hull(np.arange(10, 13)[:, None] * [1, 1])
        new.radii[:] = [10.0, 11.0, 12.0]
        hull.replace(np.array([2]), new)
        assert hull.count == 6
        assert hull.facets[:, 0].tolist() == [0, 1, 10, 3, 11, 12]
        assert hull.radii.tolist() == [0.0, 1.0, 10.0, 3.0, 11.0, 12.0]
        assert all(buffer.shape[0] == 8 for buffer in hull._buffers)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_an_insertion_that_deletes_more_facets_than_it_creates(self, dim):
        # a point far out beyond a vertex sees every facet around it and
        # more: the vertex drops inside, and the seen facets outnumber their
        # horizon, so live facets from the end fill the freed slots
        points, hull = sphere._fill_caps(sphere._simplex(dim), 0.5, 10**6)
        before = hull.count
        far = np.vstack([points, 3.0 * points[0]])
        seen = int(np.count_nonzero(hull.planes @ far[-1] > 1.0))
        sphere._insert_last(far, hull)
        assert hull.count < before and seen > before - hull.count
        facets = set(map(tuple, hull.facets.tolist()))
        assert len(facets) == hull.count
        assert facets == set(map(tuple, hull_oracle(far)[0].tolist()))
        sphere._check_ridges(hull.facets, far.shape[0])
        # every live row keeps its own plane, allowance and radius
        fresh = sphere._hull_facets(far, hull.facets)
        assert np.allclose(hull.planes, fresh.planes, rtol=1e-13, atol=0.0)
        assert np.allclose(hull.allowances, fresh.allowances, rtol=1e-9, atol=0.0)
        assert np.allclose(hull.radii, fresh.radii, rtol=1e-13, atol=0.0)

    def test_one_insertion_allocates_for_its_new_facets_not_the_hull(self):
        # the (4, 0.15) hull holds about 26 000 facets of 4 088 points; an
        # insertion writes a few dozen facets, whose check against every
        # point is its largest array.  A hull rebuilt by concatenation
        # allocates more than its four arrays take.
        points, hull = sphere._fill_caps(sphere._simplex(4), 0.15, 10**6)
        hull_bytes = sum(part.nbytes for part in
                         (hull.facets, hull.planes, hull.allowances, hull.radii))
        plane = hull.planes[int(hull.radii.argmax())]
        points = np.vstack([points, plane / np.linalg.norm(plane)])
        count_before = hull.count
        seen = int(np.count_nonzero(hull.planes @ points[-1] > 1.0))
        tracemalloc.start()
        try:
            sphere._insert_last(points, hull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # twice the new facets' gaps to every point, and 64 KiB
        bound = 2 * 8 * (hull.count - (count_before - seen)) * points.shape[0] + 65536
        assert bound < hull_bytes
        assert peak <= bound, (peak, bound, hull_bytes)
