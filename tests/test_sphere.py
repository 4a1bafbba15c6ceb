import json
import math

import numpy as np
import pytest

from dimwitness import (
    DomainError,
    EpsNet,
    NumericalIntegrityError,
    ResourceError,
    SphereSampler,
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
from dimwitness.seeding import make_rng
from dimwitness.sphere import (
    assign_regions,
    geodesic_frequency,
    geodesic_radius,
    load_net,
    save_net,
)


@pytest.fixture(scope="module")
def net_3_015():
    """A net of more than 256 points: its build runs the float32 screen up to
    256 points and the z-band scan after that."""
    return build_eps_net(3, 0.15, seed=3)


def float64_eps_net(dim, eps, seed):
    """Reference for the random phase of build_eps_net: every candidate batch
    tested in float64, candidates taken one at a time."""
    sampler = SphereSampler(dim, seed)
    thresh = 1.0 - 0.5 * eps * eps
    pts = np.empty((0, dim))
    rejections = 0

    def limit():
        return sphere._REJECTIONS_PER_POINT * max(pts.shape[0], 1)

    while rejections < limit():
        batch = sampler.sample(sphere._BATCH)
        base = pts.shape[0]
        _, maxdot = sphere._band_nearest(pts, eps, batch)
        cursor = 0
        for i in np.nonzero(maxdot <= thresh)[0]:
            gap = int(i) - cursor
            if rejections + gap >= limit():
                rejections = limit()
                break
            rejections += gap
            cursor = int(i) + 1
            if pts.shape[0] > base and np.max(pts[base:] @ batch[i]) > thresh:
                rejections += 1
            else:
                pts = np.vstack([pts, batch[i]])
                rejections = 0
        else:
            rejections += sphere._BATCH - cursor
    return pts


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

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_sample_is_the_normalized_stream(self, dim):
        g = make_rng(17, 2).standard_normal((3000, dim))
        pts = SphereSampler(dim, 17, stream_id=2).sample(3000)
        assert np.array_equal(pts, g / np.linalg.norm(g, axis=1)[:, None])
        # the greedy build normalizes only the candidates it keeps: any subset
        # of rows, normalized alone, equals the same rows of the whole sample
        for subset in (np.arange(0, 3000, 7), np.array([11]), np.array([2999, 0])):
            assert np.array_equal(sphere._unit_rows(g[subset]), pts[subset])

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
        assert np.array_equal(sampler._draw(3), [[1e-200, 1.0], [3.0, 4.0], [0.0, 2.0]])

    def test_draw_is_the_raw_stream(self):
        sampler = SphereSampler(5, seed=4)
        raw = np.vstack([sampler._draw(1000), sampler._draw(24)])
        assert np.array_equal(raw, make_rng(4).standard_normal((1024, 5)))


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

    @pytest.mark.parametrize(
        "dim, eps, seed",
        [(1, 0.5, 0), (2, 0.1, 5), (3, 0.3, 7), (4, 0.5, 1), (5, 0.7, 1), (6, 0.8, 0)],
    )
    def test_equals_float64_reference(self, dim, eps, seed):
        ref = float64_eps_net(dim, eps, seed)
        assert np.array_equal(sphere._greedy_packing(dim, eps, seed, 10**6), ref)
        # the fill appends to the random phase's points
        assert np.array_equal(build_eps_net(dim, eps, seed=seed).points[: len(ref)], ref)

    @pytest.mark.parametrize("tail", [1, 500, 5_000, 12_000])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_equals_float64_reference_with_short_tails(self, dim, tail, monkeypatch):
        # `tail` consecutive rejections per net point: at eps 0.9 the random
        # phase holds 1 to 54 points, so the stop falls inside a batch, for
        # the short budgets inside the first one after thousands of
        # candidates blocked in it.  A build that miscounted the blocked
        # candidates would stop elsewhere or accept a candidate after the stop.
        monkeypatch.setattr(sphere, "_REJECTIONS_PER_POINT", tail)
        for seed in range(4):
            points = sphere._greedy_packing(dim, 0.9, seed, 10**6)
            assert np.array_equal(points, float64_eps_net(dim, 0.9, seed))

    def test_equals_float64_reference_across_band_cut(self):
        # the float32 screen runs up to 256 points and the z-bands after
        points = sphere._greedy_packing(3, 0.15, 3, 10**6)
        assert points.shape[0] > sphere._SCREEN_ROWS
        assert np.array_equal(points, float64_eps_net(3, 0.15, 3))

    def test_save_load_roundtrip(self, tmp_path):
        # a dim-1 net is written one entry per line and must load as (size, 1)
        for net in (build_eps_net(3, 0.4, seed=2), build_eps_net(1, 0.5, seed=0)):
            csv_path = str(tmp_path / f"net{net.dim}.csv")
            save_net(net, csv_path)
            back = load_net(csv_path)
            assert back.dim == net.dim and back.eps == net.eps and back.seed == net.seed
            assert np.array_equal(back.points, net.points)

    def test_save_load_keeps_covering_radius(self, tmp_path):
        geo = geodesic_net(4, seed=1)
        save_net(geo, str(tmp_path / "geo.csv"))
        back = load_net(str(tmp_path / "geo.csv"))
        assert back.eps == geo.eps and back.covering_radius == geo.covering_radius
        assert np.array_equal(back.points, geo.points)
        assert back.triangles is None  # the CSV holds points only

        greedy = build_eps_net(3, 0.4, seed=2)
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
        net = EpsNet(dim=3, eps=0.5, points=np.eye(3)[:2], seed=0)
        save_net(net, str(tmp_path / "net.csv"))
        (tmp_path / "net.json").write_text(header_text)
        with pytest.raises(DomainError, match="net.json: bad net header"):
            load_net(str(tmp_path / "net.csv"))

    @pytest.mark.parametrize("bad_row", ["nan,0,0", "0,2,0", "inf,0,0"])
    def test_load_refuses_rows_off_the_sphere(self, tmp_path, bad_row):
        net = EpsNet(dim=3, eps=0.5, points=np.eye(3)[:2], seed=0)
        csv_path = tmp_path / "net.csv"
        save_net(net, str(csv_path))
        csv_path.write_text(f"1.0,0.0,0.0\n{bad_row}\n")
        with pytest.raises(DomainError, match="line 2 is not a unit vector"):
            load_net(str(csv_path))

    def test_off_sphere_row_names_its_file_line(self, tmp_path):
        # the blank line 2 holds no row, so the bad row is row 2 but line 3
        net = EpsNet(dim=3, eps=0.5, points=np.eye(3)[:2], seed=0)
        csv_path = tmp_path / "net.csv"
        save_net(net, str(csv_path))
        csv_path.write_text("1.0,0.0,0.0\n\n0.0,2.0,0.0\n")
        with pytest.raises(DomainError, match="line 3 is not a unit vector"):
            load_net(str(csv_path))


def hull_oracle(points):
    """scipy's convex hull of unit rows: its facets as sorted index rows, and
    the covering radius sqrt(2 - 2 h) of the facet plane nearest the origin."""
    from scipy.spatial import ConvexHull

    hull = ConvexHull(points)
    offsets = -hull.equations[:, -1]
    return np.sort(hull.simplices, axis=1), math.sqrt(2.0 - 2.0 * offsets.min())


GREEDY_CASES = [(1, 0.5), (2, 0.1), (2, 0.9), (3, 0.3), (3, 0.9), (4, 0.5),
                (5, 0.7), (6, 0.8)]


class TestCoveringCertificate:
    @pytest.mark.parametrize("dim, eps", GREEDY_CASES)
    def test_packing_with_a_computed_radius(self, dim, eps):
        for seed in range(3):
            net = build_eps_net(dim, eps, seed=seed)
            assert net.covering_radius is not None and net.covering_radius <= eps
            gram = net.points @ net.points.T
            np.fill_diagonal(gram, -1.0)
            assert math.sqrt(max(2.0 - 2.0 * gram.max(), 0.0)) >= eps, (dim, eps, seed)

    @pytest.mark.parametrize("dim, eps", [case for case in GREEDY_CASES if case[0] > 1])
    def test_hull_equals_scipy(self, dim, eps):
        for seed in (0, 3):
            for points in (sphere._greedy_packing(dim, eps, seed, 10**6),
                           build_eps_net(dim, eps, seed=seed).points):
                facets, _, radii = sphere._hull_caps(points)
                expected, rho = hull_oracle(points)
                assert len(facets) == len(expected)
                assert set(map(tuple, facets)) == set(map(tuple, expected))
                assert abs(radii.max() - rho) <= 1e-12
        assert build_eps_net(dim, eps, seed=3).covering_radius == radii.max()

    def test_random_phase_leaves_wider_caps(self):
        # at (5, 0.7) the random phase alone covers only within 1.06-1.09 eps
        for seed in range(3):
            _, rho = hull_oracle(sphere._greedy_packing(5, 0.7, seed, 10**6))
            assert rho > 0.7

    @pytest.mark.parametrize("dim, eps, seed", [(2, 0.1, 5), (3, 0.3, 7), (4, 0.5, 1),
                                                (5, 0.7, 1)])
    def test_uniform_probes_are_covered(self, dim, eps, seed):
        net = build_eps_net(dim, eps, seed=seed)
        probes = SphereSampler(dim, 11).sample(100_000)
        dist = np.linalg.norm(probes - net.points[assign_regions(net, probes)], axis=1)
        assert dist.max() <= net.covering_radius

    def test_dim1_radius_is_zero(self):
        assert build_eps_net(1, 0.5, seed=3).covering_radius == 0.0
        points, rho = sphere._fill_caps(np.array([[-1.0]]), 0.5, 10)
        assert points.ravel().tolist() == [-1.0, 1.0] and rho == 0.0

    def test_points_in_a_hemisphere_are_refused(self):
        points = SphereSampler(3, 0).sample(50)
        points[:, 2] = np.abs(points[:, 2])
        points = np.vstack([points, [[0.0, 0.0, 1.0]]])
        with pytest.raises(NumericalIntegrityError, match="hemisphere"):
            sphere._hull_caps(points / np.linalg.norm(points, axis=1)[:, None])

    def test_a_point_above_a_facet_is_refused(self):
        points = build_eps_net(3, 0.5, seed=0).points
        facet = sphere._hull_caps(points)[0][0]
        # a plane through two vertices of a facet and the point farthest from
        # it cuts the sphere, so net points lie above it
        far = int(np.argmin(points @ points[facet].sum(axis=0)))
        level = np.sort([[facet[0], facet[1], far]])
        with pytest.raises(NumericalIntegrityError, match="above a hull facet"):
            sphere._wrap_ridges(points, level)

    def test_distinct_rows_match_numpy(self):
        # 10^6 indices take 20 bits, so rows of 9 pack into three keys
        rng = np.random.default_rng(0)
        rows = np.sort(rng.integers(10**6 - 4, 10**6, (5000, 9)), axis=1)
        first, counts = sphere._distinct_rows(rows, 10**6)
        _, expected_first, expected_counts = np.unique(
            rows, axis=0, return_index=True, return_counts=True)
        assert np.array_equal(first, expected_first)
        assert np.array_equal(counts, expected_counts)

    def test_hull_of_thousands_of_points_in_dim_6(self):
        # the join of a 3 400-gon in the first two coordinates and a regular
        # 4-simplex in the other four: its facets are an edge of the polygon
        # and a facet of the simplex, 3 400 x 5 of them, the widest cap's
        # plane at the height of the polygon's edges times the simplex's
        # facets, 1 / sqrt(1 / cos(pi / 3400)^2 + 4^2)
        angles = 2.0 * np.pi * np.arange(3400) / 3400
        simplex = np.eye(5) - 0.2
        simplex = simplex @ np.linalg.svd(simplex)[2][:4].T
        points = np.zeros((3405, 6))
        points[:3400, 0], points[:3400, 1] = np.cos(angles), np.sin(angles)
        points[3400:, 2:] = simplex / np.linalg.norm(simplex, axis=1)[:, None]
        facets, _, radii = sphere._hull_caps(points)
        polygon = [(i, (i + 1) % 3400) for i in range(3400)]
        assert set(map(tuple, facets)) == {
            tuple(sorted((*edge, *(3400 + np.delete(np.arange(5), j)))))
            for edge in polygon for j in range(5)
        }
        height = 1.0 / math.sqrt(1.0 / math.cos(math.pi / 3400) ** 2 + 16.0)
        assert abs(radii.max() - math.sqrt(2.0 - 2.0 * height)) <= 1e-12

    def test_a_hull_past_its_bound_leaves_the_radius_unknown(self, monkeypatch):
        # a (5, 0.7) hull has about 1 200 facets, 30 000 facets x dim^2
        monkeypatch.setattr(sphere, "_HULL_MAX_FACET_DIMS2", 10_000)
        net = build_eps_net(5, 0.7, seed=1)
        assert net.covering_radius is None
        assert np.array_equal(net.points, sphere._greedy_packing(5, 0.7, 1, 10**6))

    def test_dim_9_net_is_a_packing_without_a_radius(self):
        # the hull of the 96-point random phase passes the bound; the
        # random phase is returned, still an eps-packing, and a witness
        # charges eps for its radius
        net = build_eps_net(9, 0.95, seed=0)
        assert net.covering_radius is None
        assert np.array_equal(net.points, sphere._greedy_packing(9, 0.95, 0, 10**6))
        gram = net.points @ net.points.T
        np.fill_diagonal(gram, -1.0)
        assert math.sqrt(2.0 - 2.0 * gram.max()) >= 0.95


class TestGeodesicNet:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_size_norms_and_separation(self, k):
        net = geodesic_net(k, seed=k)
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

    def test_seed_selects_the_rotation_only(self):
        a, b = geodesic_net(6, seed=4), geodesic_net(6, seed=4)
        c = geodesic_net(6, seed=5)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)
        assert a.covering_radius == c.covering_radius == a.eps == geodesic_radius(6)
        # the rotation preserves every distance
        gram_a, gram_c = a.points @ a.points.T, c.points @ c.points.T
        assert np.allclose(gram_a, gram_c, rtol=0, atol=1e-14)

    def test_radius_equals_hull_facet_caps(self):
        # Delaunay caps of points on the sphere are empty, so the largest
        # chord from a convex-hull facet's unit normal to its vertices is the
        # exact covering radius
        from scipy.spatial import ConvexHull

        for k in range(1, 17):
            for seed in range(3):
                net = geodesic_net(k, seed=seed)
                hull = ConvexHull(net.points)
                normals = hull.equations[:, :3]
                chords = np.linalg.norm(
                    net.points[hull.simplices] - normals[:, None, :], axis=2
                )
                assert abs(net.covering_radius - chords.max()) <= 1e-12, (k, seed)

    def test_uniform_probes_are_covered(self):
        net = geodesic_net(10, seed=2)
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
            k = max(1, math.floor(math.sqrt(max(4.0 / eps**2 - 2.0, 0.0) / 10.0)))
            while geodesic_radius(k) > eps:
                k += 1
            return k

        for eps in np.geomspace(0.005, 0.95, 300):
            k = scan(eps)
            assert geodesic_frequency(eps, 10**6) == k
            # the net of the answer fits exactly, or misses by one point
            assert geodesic_frequency(eps, 10 * k * k + 2) == k
            with pytest.raises(ResourceError, match=f"k = {k}\\)"):
                geodesic_frequency(eps, 10 * k * k + 1)

    def test_size_guard_builds_nothing(self, monkeypatch):
        def never(*args):
            raise AssertionError("net geometry computed before the size guard")

        monkeypatch.setattr(sphere, "_project", never)
        # the area bound alone puts eps 0.004 at k >= 158, 249 642 points
        with pytest.raises(ResourceError, match="exceeds"):
            geodesic_frequency(0.004, 50_000)

    def test_domain(self):
        with pytest.raises(DomainError):
            geodesic_net(0)
        with pytest.raises(DomainError):
            geodesic_frequency(1.0, 10**6)


def half_edges(triangles):
    """(tail, head) of each triangle's three half-edges, corner e to e + 1."""
    return triangles.ravel(), triangles[:, [1, 2, 0]].ravel()


def reference_geodesic_net(k, seed):
    """Points, triangles and covering radius of `geodesic_net(k, seed)` as an
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
    w, x, y, z = SphereSampler(4, seed).sample(1)[0]
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
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
    return pts @ rot.T, tri.reshape(-1, 3), rho


class TestGeodesicReference:
    @pytest.mark.parametrize("k", [*range(1, 17), 119, 128])
    def test_equals_the_reference_construction(self, k):
        for seed in (0, 7):
            points, triangles, rho = reference_geodesic_net(k, seed)
            net = geodesic_net(k, seed)
            assert np.array_equal(net.points, points), (k, seed)
            assert np.array_equal(net.triangles, triangles), (k, seed)
            assert geodesic_radius(k) == rho == net.covering_radius
            ours = voronoi_moments(net)
            ref = voronoi_moments(EpsNet(dim=3, eps=rho, points=points, seed=seed,
                                         covering_radius=rho, triangles=triangles))
            assert np.array_equal(ours.weights, ref.weights), (k, seed)
            assert np.array_equal(ours.moment_vectors, ref.moment_vectors), (k, seed)


class TestGeodesicTriangulation:
    @pytest.mark.parametrize("k", range(1, 17))
    def test_closed_outward_surface(self, k):
        net = geodesic_net(k, seed=k)
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
        net = geodesic_net(k, seed=k)
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

        net = geodesic_net(k, seed=k)
        ours = {tuple(sorted(t)) for t in net.triangles.tolist()}
        hull = {tuple(sorted(t)) for t in ConvexHull(net.points).simplices.tolist()}
        assert ours == hull

    def test_rotation_keeps_the_triangles(self):
        assert np.array_equal(geodesic_net(5, seed=1).triangles,
                              geodesic_net(5, seed=2).triangles)
        assert build_eps_net(3, 0.5, seed=0).triangles is None


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

    def test_every_net_size_takes_the_z_bands(self):
        # geodesic nets of 12 to 252 points and small greedy nets go through
        # the same z-band scan as large nets and must equal the full argmax
        nets = [geodesic_net(k, seed=k) for k in range(1, 6)]
        nets += [build_eps_net(5, 0.7, seed=1), build_eps_net(1, 0.5, seed=0)]
        for net in nets:
            probes = np.vstack([SphereSampler(net.dim, 31).sample(20_000), net.points])
            expected = np.argmax(probes @ net.points.T, axis=1)
            assert np.array_equal(assign_regions(net, probes), expected), net.size

    def test_net_is_sorted_once(self):
        # a ring at z = 0 between the poles: 300 tied last coordinates keep
        # their index order
        t = 2 * np.pi * np.arange(300) / 300
        ring = np.column_stack([np.cos(t), np.sin(t), np.zeros(300)])
        pts = np.vstack([[[0.0, 0.0, 1.0]], ring, [[0.0, 0.0, -1.0]]])
        net = EpsNet(dim=3, eps=0.1, points=pts, seed=0)
        order = net.z_order
        assert net.z_order is order
        assert np.array_equal(order, np.r_[301, 1:301, 0])
        assign_regions(net, SphereSampler(3, 32).sample(100))
        assert net.z_order is order

    def test_matches_brute_force_argmax(self, net_3_015):
        probes = SphereSampler(3, 19).sample(20_000)

        def check(net):
            expected = np.argmax(probes @ net.points.T, axis=1)
            got = assign_regions(net, probes)
            assert np.array_equal(got, expected)
            return got

        # z-band path: more than 256 net points
        net = net_3_015
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


class TestMaxDotScreen:
    @staticmethod
    def screen_and_count(rows, eps, raw, monkeypatch):
        """The screen's mask, and how many rows it re-decided in float64."""
        rechecked = []
        band_nearest = sphere._band_nearest

        def counting(points, eps, batch):
            rechecked.append(batch.shape[0])
            return band_nearest(points, eps, batch)

        monkeypatch.setattr(sphere, "_band_nearest", counting)
        prod = np.empty((rows.shape[0], sphere._SCREEN_BLOCK), dtype=np.float32)
        top = np.empty(raw.shape[0], dtype=np.float32)
        passed = sphere._screen_max_dot(
            rows, rows.astype(np.float32), eps, raw, prod, top)
        return passed, sum(rechecked)

    # on S^0 a normalized candidate's dots are +-1, never near the threshold
    # of eps in (0, 1); test_dim1_threshold_near_one covers dim 1
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_ambiguous_band_matches_float64(self, dim, scale, monkeypatch):
        eps = 0.3
        thresh = 1.0 - 0.5 * eps * eps
        rng = np.random.default_rng(dim)
        target = SphereSampler(dim, 40 + dim).sample(1)[0]
        # the other rows lie in the far hemisphere of the target, far from
        # every probe (in dim 1 that is the opposite point)
        others = SphereSampler(dim, 50 + dim).sample(20)
        others[others @ target > 0] *= -1.0
        rows = np.vstack([others[:10], target, others[10:]])
        # probe dots with the target at thresh + k 1e-9, inside and outside
        # the float32 margin of 2 (dim + 2) 2^-24 <= 8.4e-7
        dots = thresh + 1e-9 * np.arange(-1200, 1201)
        side = rng.standard_normal((dots.size, dim))
        side -= np.outer(side @ target, target)
        side /= np.linalg.norm(side, axis=1)[:, None]
        probes = dots[:, None] * target + np.sqrt(1.0 - dots**2)[:, None] * side
        # the screen sees raw rows, unnormalized, of norm `scale`
        raw = probes * scale
        index, maxdot = sphere._band_nearest(rows, eps, sphere._unit_rows(raw))
        assert np.all(index == 10)
        expected = maxdot <= thresh
        assert expected.any() and not expected.all()

        passed, rechecked = self.screen_and_count(rows, eps, raw, monkeypatch)
        assert np.array_equal(passed, expected)
        # the float64 fallback ran, on part of the probes only
        assert 0 < rechecked < probes.shape[0]

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2])
    def test_dim1_threshold_near_one(self, scale, monkeypatch):
        # eps 5e-4 puts the threshold 1.25e-7 below 1, inside the float32
        # margin 6 2^-24 ~ 3.6e-7: probes on the net point are ambiguous and
        # blocked, probes opposite it are clear and pass
        eps = 5e-4
        rows = np.array([[1.0]])
        signs = np.where(np.random.default_rng(1).random(2401) < 0.5, -1.0, 1.0)
        raw = signs[:, None] * scale * np.geomspace(0.5, 2.0, 2401)[:, None]
        expected = sphere._band_nearest(rows, eps, sphere._unit_rows(raw))[1] <= 1 - eps**2 / 2
        assert np.array_equal(expected, signs < 0)

        passed, rechecked = self.screen_and_count(rows, eps, raw, monkeypatch)
        assert np.array_equal(passed, expected)
        assert rechecked == np.count_nonzero(signs > 0)


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

    def test_net_sorted_once_equals_per_batch_sort(self):
        # 400 scattered points: z-bands, and probes farther than eps rescanned
        pts = SphereSampler(3, 25).sample(400)
        net = EpsNet(dim=3, eps=0.15, points=pts, seed=25)
        samples = 5 * sphere._BATCH + 123
        mom = region_moments(net, samples, SphereSampler(3, 26))

        # reference: every batch sorts the net inside assign_regions
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


class TestVoronoiMoments:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_within_four_sigma_of_monte_carlo(self, k):
        net = geodesic_net(k, seed=k)
        exact = voronoi_moments(net)
        mc = region_moments(net, 1_000_000, SphereSampler(3, 70 + k))
        # one SE per region bounds every coordinate's own SE
        se_w = mc.standard_errors[:, None]
        assert np.all(np.abs(exact.moment_vectors - mc.moment_vectors) <= 4.0 * se_w)
        se_mu = np.sqrt(exact.weights * (1.0 - exact.weights) / mc.samples_used)
        assert np.all(np.abs(exact.weights - mc.weights) <= 4.0 * se_mu)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sums_and_cap_concentration(self, k):
        net = geodesic_net(k, seed=k)
        mom = voronoi_moments(net)
        assert abs(mom.weights.sum() - 1.0) <= 1e-14
        assert np.linalg.norm(mom.moment_vectors.sum(axis=0)) <= 1e-14
        # every point of a region lies within chord rho of its net point
        norms = np.linalg.norm(mom.moment_vectors, axis=1)
        rho = net.covering_radius
        assert np.all(mom.weights * (1.0 - rho * rho / 2.0) <= norms)
        assert np.all(norms <= mom.weights)

    def test_exact_fields(self):
        net = geodesic_net(3, seed=0)
        mom = voronoi_moments(net)
        assert mom.net is net and mom.samples_used == 0
        assert np.array_equal(mom.standard_errors, np.zeros(net.size))
        assert mom.empty_regions.size == 0
        assert np.array_equal(mom.weights, voronoi_moments(net).weights)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_weights_do_not_depend_on_the_rotation(self, k):
        base = voronoi_moments(geodesic_net(k, seed=0)).weights
        for seed in (1, 2, 3):
            other = voronoi_moments(geodesic_net(k, seed=seed)).weights
            assert np.abs(other - base).max() <= 1e-15

    def test_needs_triangles(self):
        with pytest.raises(DomainError, match="triangulated"):
            voronoi_moments(EpsNet(dim=3, eps=0.5, points=np.eye(3), seed=0))
