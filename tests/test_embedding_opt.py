import dataclasses
import json
import math

import numpy as np
import pytest

from dimwitness import (
    DOT_KERNEL,
    DomainError,
    EpsNet,
    KernelMatrix,
    ResourceError,
    SeparableKernel,
    SphereSampler,
    analytic_d,
    brute_force_signs,
    build_eps_net,
    discretize_kernel,
    empirical_ratio,
    kg_lower_bound,
    project_embed,
    region_moments,
    seesaw_maximize,
    y_closed_form,
)
from dimwitness import embedding_opt
from dimwitness.embedding_opt import (
    SEESAW_MAX_ITERS,
    SEESAW_TOL,
    SeesawResult,
    VectorAssignment,
    dot_adversary,
    kernel_value,
    load_kernel_csv,
    save_kernel_csv,
)
from dimwitness.sphere import RegionMoments, load_net

CHSH = np.array([[1.0, 1.0], [1.0, -1.0]])


def serial_runs(kernel, m, restarts, seed, init=None):
    """Reference for seesaw_maximize: each restart alone, on 2-d arrays."""

    def normalize(vecs, fallback):
        norms = np.linalg.norm(vecs, axis=1)
        zero = norms == 0.0
        if np.any(zero):
            vecs = vecs.copy()
            vecs[zero] = fallback[zero]
            norms = np.linalg.norm(vecs, axis=1)
        return vecs / norms[:, None]

    r, s = kernel.rows, kernel.cols
    runs = []
    for restart in range(restarts):
        if restart == 0 and init is not None:
            cols = np.zeros((s, m))
            cols[:, : init.m] = init.col_vectors
            rows = np.zeros((r, m))
            rows[:, : init.m] = init.row_vectors
        else:
            sampler = SphereSampler(m, seed, restart)
            cols = sampler.sample(s)
            rows = sampler.sample(r)
        trace = []
        prev = -math.inf
        converged = False
        for sweeps in range(1, SEESAW_MAX_ITERS + 1):
            new_rows = normalize(embedding_opt._apply_rows(kernel, cols), rows)
            pulled = embedding_opt._apply_cols(kernel, new_rows)
            new_cols = normalize(pulled, cols)
            movement = max(
                float(np.abs(new_rows - rows).max()),
                float(np.abs(new_cols - cols).max()),
            )
            rows, cols = new_rows, new_cols
            val = float(np.sum(cols * pulled))
            if val < prev:
                converged = True
                break
            trace.append(val)
            plateau = math.isfinite(prev) and (
                val - prev <= SEESAW_TOL * max(1.0, abs(prev))
            )
            if plateau and movement <= embedding_opt._STATIONARY_MOVEMENT:
                converged = True
                break
            prev = val
        assignment = VectorAssignment(m=m, row_vectors=rows, col_vectors=cols)
        runs.append(SeesawResult(
            value=kernel_value(kernel, assignment),
            assignment=assignment,
            iterations=sweeps,
            converged=converged,
            value_trace=trace,
        ))
    return runs


def serial_seesaw(kernel, m, restarts, seed, init=None):
    """The best of serial_runs, ties to the lowest restart index."""
    best = None
    for result in serial_runs(kernel, m, restarts, seed, init):
        if best is None or result.value > best.value:
            best = result
    return best


def exact_moments_dim1():
    net = EpsNet(dim=1, eps=0.5, points=np.array([[1.0], [-1.0]]), seed=0)
    return net, RegionMoments(
        net=net,
        weights=np.array([0.5, 0.5]),
        moment_vectors=np.array([[0.5], [-0.5]]),
        samples_used=0,
        standard_errors=np.zeros(2),
        empty_regions=np.array([], dtype=np.int64),
    )


class TestDiscretize:
    def test_dot_kernel_exact_dim1(self):
        net, mom = exact_moments_dim1()
        kernel = discretize_kernel(DOT_KERNEL, net, mom)
        assert isinstance(kernel, SeparableKernel)
        dense = kernel.dense().entries
        assert np.allclose(dense, 0.25 * np.array([[1, -1], [-1, 1]]), atol=1e-15)

    def test_constant_kernel_mc(self):
        net = build_eps_net(2, 0.5, seed=3)
        mom = region_moments(net, 100 * net.size, SphereSampler(2, 31))
        kernel = discretize_kernel(
            lambda a, b: np.ones(a.shape[0]),
            net,
            mom,
            samples=40_000,
            sampler=SphereSampler(2, 32),
        )
        outer = np.outer(mom.weights, mom.weights)
        # product of independent multinomial estimates, 5 sigma-ish slack
        assert np.abs(kernel.entries - outer).max() <= 5 / math.sqrt(40_000)

    def test_antisymmetric_kernel_column_sums(self):
        pts = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
        net = EpsNet(dim=2, eps=0.9, points=pts, seed=0)
        mom = region_moments(net, 40_000, SphereSampler(2, 33))
        kernel = discretize_kernel(
            lambda a, b: np.einsum("ij,ij->i", a, b),
            net,
            mom,
            samples=40_000,
            sampler=SphereSampler(2, 34),
        )
        sums = kernel.entries.sum(axis=0)
        assert np.abs(sums).max() <= 5 / math.sqrt(40_000)

    def test_mismatched_moments_rejected(self):
        net, mom = exact_moments_dim1()
        other = build_eps_net(2, 0.5, seed=4)
        with pytest.raises(DomainError):
            discretize_kernel(DOT_KERNEL, other, mom)


class TestSeesaw:
    def test_chsh_signs(self):
        result = seesaw_maximize(KernelMatrix(entries=CHSH), 1, restarts=16, seed=0)
        assert result.value == pytest.approx(2.0, abs=1e-9)
        assert result.converged

    def test_chsh_vectors(self):
        result = seesaw_maximize(KernelMatrix(entries=CHSH), 2, restarts=16, seed=0)
        # nuclear-norm oracle for this matrix: both singular values sqrt(2)
        oracle = float(np.linalg.svd(CHSH, compute_uv=False).sum())
        assert result.value == pytest.approx(oracle, abs=1e-7)
        assert result.value == pytest.approx(2 * math.sqrt(2), abs=1e-7)

    def test_value_matches_assignment(self):
        rng = np.random.default_rng(5)
        kernel = KernelMatrix(entries=rng.uniform(-1, 1, (4, 6)))
        result = seesaw_maximize(kernel, 3, restarts=8, seed=1)
        recomputed = kernel_value(kernel, result.assignment)
        assert result.value == pytest.approx(recomputed, abs=1e-9)
        assert np.abs(
            np.linalg.norm(result.assignment.row_vectors, axis=1) - 1
        ).max() <= 1e-12

    def test_trace_nondecreasing(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            kernel = KernelMatrix(entries=rng.uniform(-1, 1, (5, 5)))
            result = seesaw_maximize(kernel, 2, restarts=4, seed=trial)
            trace = result.value_trace
            assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_stationarity_at_convergence(self):
        rng = np.random.default_rng(7)
        kernel = KernelMatrix(entries=rng.uniform(-1, 1, (5, 5)))
        result = seesaw_maximize(kernel, 2, restarts=8, seed=2)
        my = kernel.entries @ result.assignment.col_vectors
        norms = np.linalg.norm(my, axis=1)
        ok = norms > 1e-12
        residual = my[ok] / norms[ok, None] - result.assignment.row_vectors[ok]
        assert np.abs(residual).max() <= 1e-6

    def test_extra_dimensions_do_not_help(self):
        rng = np.random.default_rng(8)
        kernel = KernelMatrix(entries=rng.uniform(-1, 1, (3, 4)))
        v3 = seesaw_maximize(kernel, 3, restarts=16, seed=3).value
        v5 = seesaw_maximize(kernel, 5, restarts=16, seed=3).value
        assert v5 == pytest.approx(v3, rel=1e-8)

    def test_dimension_monotonicity_with_warm_start(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            kernel = KernelMatrix(entries=rng.uniform(-1, 1, (5, 5)))
            prev = None
            for m in range(1, 5):
                init = prev.assignment if prev is not None else None
                result = seesaw_maximize(
                    kernel, m, restarts=8, seed=trial, init=init
                )
                if prev is not None:
                    assert result.value >= prev.value - 1e-10
                prev = result

    def test_separable_equals_dense(self):
        net = build_eps_net(3, 0.4, seed=2)
        mom = region_moments(net, 100 * net.size, SphereSampler(3, 35))
        sep = discretize_kernel(DOT_KERNEL, net, mom)
        dense = sep.dense()
        vs = seesaw_maximize(sep, 2, restarts=8, seed=4).value
        vd = seesaw_maximize(dense, 2, restarts=8, seed=4).value
        assert vs == pytest.approx(vd, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            seesaw_maximize(KernelMatrix(entries=CHSH), 0)
        with pytest.raises(DomainError):
            seesaw_maximize(KernelMatrix(entries=CHSH), 1, restarts=0)


def _separable_with_zero_row(rows, seed):
    w = np.random.default_rng(seed).normal(size=(rows, 3))
    w[0] = 0.0  # its row update is zero every sweep: the fallback keeps the start
    return SeparableKernel(left_vectors=w, right_vectors=w)


def _warm_start_case():
    kernel = KernelMatrix(entries=np.random.default_rng(13).uniform(-1, 1, (4, 6)))
    init = serial_seesaw(kernel, 2, restarts=4, seed=2).assignment
    return kernel, 3, 8, 5, init


def _uneven_stops_case():
    # restart 0 starts at a fixed point and stops after 2 sweeps; random
    # starts on this nearly isotropic kernel take 28 to 87
    w = SphereSampler(3, 22).sample(100)
    kernel = SeparableKernel(left_vectors=w, right_vectors=w)
    init = serial_seesaw(kernel, 2, restarts=1, seed=0).assignment
    return kernel, 2, 16, 6, init


def _grouped_case():
    kernel = _separable_with_zero_row(embedding_opt._STACK_ROWS // 3 + 1, seed=15)
    return kernel, 2, 5, 8, None


class TestStackedSeesaw:
    """Every restart of the stacked see-saw equals a lone run bit for bit."""

    @pytest.mark.parametrize(
        "case",
        [
            lambda: (KernelMatrix(entries=CHSH), 1, 16, 0, None),
            lambda: (KernelMatrix(entries=CHSH), 2, 16, 0, None),
            _warm_start_case,
            lambda: (_separable_with_zero_row(40, seed=16), 2, 16, 9, None),
            _uneven_stops_case,
            _grouped_case,
        ],
        ids=["chsh-m1", "chsh-m2", "warm-start", "zero-row", "uneven-stops", "groups"],
    )
    def test_equals_serial_loop(self, case):
        kernel, m, restarts, seed, init = case()
        got = seesaw_maximize(kernel, m, restarts=restarts, seed=seed, init=init)
        want = serial_seesaw(kernel, m, restarts, seed, init)
        assert got.value == want.value
        assert np.array_equal(got.assignment.row_vectors, want.assignment.row_vectors)
        assert np.array_equal(got.assignment.col_vectors, want.assignment.col_vectors)
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert np.array_equal(got.value_trace, want.value_trace)

    def test_cases_exercise_the_stack(self):
        # restarts leave the stack at very different sweeps ...
        kernel, m, restarts, seed, init = _uneven_stops_case()
        runs = serial_runs(kernel, m, restarts, seed, init)
        sweeps = [run.iterations for run in runs]
        assert max(sweeps) >= 4 * min(sweeps)
        # ... and a kernel this tall advances in several groups
        kernel, _, restarts, _, _ = _grouped_case()
        assert 1 < embedding_opt._STACK_ROWS // kernel.rows < restarts


class TestBruteForce:
    def test_single_entry(self):
        assert brute_force_signs(KernelMatrix(entries=np.array([[1.0]]))) == 1.0

    def test_chsh(self):
        assert brute_force_signs(KernelMatrix(entries=CHSH)) == 2.0

    def test_resource_limit(self):
        big = KernelMatrix(entries=np.zeros((14, 13)))
        with pytest.raises(ResourceError):
            brute_force_signs(big)

    def test_rectangular_uses_smaller_side(self):
        rng = np.random.default_rng(10)
        m = rng.uniform(-1, 1, (2, 20))
        val = brute_force_signs(KernelMatrix(entries=m))
        # exact check against full enumeration over the two rows
        best = max(
            np.abs(a1 * m[0] + a2 * m[1]).sum()
            for a1 in (-1, 1)
            for a2 in (-1, 1)
        )
        assert val == pytest.approx(best, rel=1e-14)

    def test_seesaw_agrees_with_oracle(self):
        # see-saw is local: demand >= 95/100 exact hits and no overshoots
        rng = np.random.default_rng(12)
        hits = 0
        for trial in range(100):
            entries = rng.uniform(-1, 1, (4, 4))
            kernel = KernelMatrix(entries=entries)
            exact = brute_force_signs(kernel)
            found = seesaw_maximize(kernel, 1, restarts=64, seed=trial).value
            assert found <= exact + 1e-9
            hits += abs(found - exact) <= 1e-7
        assert hits >= 95


class TestAnalyticD:
    def test_equal_dims(self):
        for n in (1, 2, 5, 9):
            assert analytic_d(n, n) == pytest.approx(1.0 / n, rel=1e-13)

    def test_reproduces_ratio_bound(self):
        d = analytic_d(3, 2)
        assert d == pytest.approx(0.5 * y_closed_form(3, 2) ** 2, rel=1e-15)
        assert (1 / 3) / d == pytest.approx(kg_lower_bound(3, 2).bound, rel=1e-12)

    def test_two_one(self):
        d = analytic_d(2, 1)
        assert d == pytest.approx(4 / math.pi**2, rel=1e-13)
        assert (1 / 2) / d == pytest.approx(math.pi**2 / 8, rel=1e-13)


class TestProjectEmbed:
    def test_identity(self):
        a = np.array([0.6, 0.8])
        assert np.array_equal(project_embed(a, 2), a)

    def test_unit_prefix(self):
        out = project_embed(np.array([0.6, 0.8, 0.0]), 2)
        assert np.allclose(out, [0.6, 0.8], atol=1e-15)

    def test_renormalized(self):
        out = project_embed(np.array([0.6, 0.0, 0.8]), 1)
        assert np.array_equal(out, [1.0])

    def test_zero_prefix(self):
        out = project_embed(np.array([0.0, 0.0, 1.0]), 2)
        assert np.array_equal(out, [1.0, 0.0])

    def test_domain(self):
        with pytest.raises(DomainError):
            project_embed(np.array([1.0, 0.0]), 3)


class TestEmpiricalRatio:
    @staticmethod
    def _net_and_moments(n, eps, seed):
        net = build_eps_net(n, eps, seed=seed)
        mom = region_moments(net, 100 * net.size, SphereSampler(n, seed + 1))
        return net, mom

    def test_equal_dims_is_one(self):
        net, mom = self._net_and_moments(3, 0.3, seed=5)
        ratio, _ = empirical_ratio(3, 3, net, mom, seed=7)
        assert ratio == 1.0

    def test_three_two_bracket(self):
        net, mom = self._net_and_moments(3, 0.1, seed=0)
        ratio, details = empirical_ratio(3, 2, net, mom, seed=2)
        bound = kg_lower_bound(3, 2).bound
        assert 1.0 < ratio <= bound + 4 * details["ratio_std_error"]

    def test_two_one_bracket(self):
        net, mom = self._net_and_moments(2, 0.05, seed=0)
        ratio, details = empirical_ratio(2, 1, net, mom, seed=2)
        bound = kg_lower_bound(2, 1).bound
        assert 1.0 < ratio <= bound + 4 * details["ratio_std_error"]

    def test_aligned_value_consistency(self):
        net, mom = self._net_and_moments(3, 0.3, seed=5)
        w = mom.moment_vectors
        norms = np.linalg.norm(w, axis=1)
        what = w / norms[:, None]
        kernel = SeparableKernel(left_vectors=w, right_vectors=w)
        by_assignment = kernel_value(
            kernel,
            VectorAssignment(m=3, row_vectors=what, col_vectors=what),
        )
        _, _, full_dim, _ = dot_adversary(mom, 2, seed=0)
        assert full_dim == pytest.approx(by_assignment, rel=1e-12)

    def test_empty_region_contributes_nothing(self):
        net, mom = self._net_and_moments(3, 0.3, seed=5)
        w = mom.moment_vectors.copy()
        w[0] = 0.0
        emptied = dataclasses.replace(
            mom, moment_vectors=w, empty_regions=np.array([0], dtype=np.int64)
        )
        rest = w[1:] / np.linalg.norm(w[1:], axis=1)[:, None]
        by_assignment = kernel_value(
            SeparableKernel(left_vectors=w[1:], right_vectors=w[1:]),
            VectorAssignment(m=3, row_vectors=rest, col_vectors=rest),
        )
        _, _, full_dim, full_dim_se = dot_adversary(emptied, 2, seed=0)
        assert full_dim == pytest.approx(by_assignment, rel=1e-12)
        assert math.isfinite(full_dim_se)


def load_two_point_net(csv_path):
    """load_net on csv_path beside a valid header for two points in R^2."""
    header = {"schema": 1, "kind": "eps_net", "dim": 2, "eps": 0.5, "seed": 0, "size": 2}
    with open(csv_path.rsplit(".", 1)[0] + ".json", "w", encoding="utf-8") as fh:
        json.dump(header, fh)
    return load_net(csv_path)


# nets and kernels share one CSV reader; both must name the bad line
CSV_LOADERS = [load_kernel_csv, load_two_point_net]
CSV_LOADER_IDS = ["load_kernel_csv", "load_net"]


class TestKernelCsv:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "kernel.csv")
        save_kernel_csv(KernelMatrix(entries=CHSH), path)
        back = load_kernel_csv(path)
        assert np.array_equal(back.entries, CHSH)

    @pytest.mark.parametrize("load", CSV_LOADERS, ids=CSV_LOADER_IDS)
    def test_parse_error_reports_line(self, tmp_path, load):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nx,3.0\n")
        with pytest.raises(DomainError, match="line 2"):
            load(str(path))

    @pytest.mark.parametrize("load", CSV_LOADERS, ids=CSV_LOADER_IDS)
    def test_undecodable_bytes_report_line(self, tmp_path, load):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"1.0,2.0\n\xff\xfe,3.0\n")
        with pytest.raises(DomainError, match="line 2"):
            load(str(path))

    @pytest.mark.parametrize("load", CSV_LOADERS, ids=CSV_LOADER_IDS)
    def test_ragged_rejected(self, tmp_path, load):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DomainError, match="line 2"):
            load(str(path))
