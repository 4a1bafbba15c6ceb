import dataclasses
import functools
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
    geodesic_net,
    kg_lower_bound,
    project_embed,
    region_moments,
    seesaw_maximize,
    voronoi_moments,
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
from dimwitness.seeding import derive_seed
from dimwitness.sphere import RegionMoments, geodesic_frequency, load_net

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

    @pytest.mark.parametrize("k", [-1000, -600, -520, 0, 520, 600, 1000])
    def test_scaled_chsh(self, k):
        # unscaled row norms underflow from about 2^-512 and overflow from 2^512
        result = seesaw_maximize(KernelMatrix(entries=np.ldexp(CHSH, k)), 2,
                                 restarts=16, seed=0)
        want = math.ldexp(2 * math.sqrt(2), k)
        assert result.value == pytest.approx(want, rel=1e-12, abs=0)
        for vecs in (result.assignment.row_vectors, result.assignment.col_vectors):
            assert np.abs(np.linalg.norm(vecs, axis=1) - 1).max() <= 1e-12

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda: KernelMatrix(entries=np.ldexp(CHSH, 1023)),
            lambda: KernelMatrix(entries=np.array([[1.0, math.nan]])),
            lambda: SeparableKernel(left_vectors=np.ldexp(np.eye(3), 600),
                                    right_vectors=np.ldexp(np.eye(3), 600)),
        ],
        ids=["chsh-2^1023", "nan", "separable-2^1200"],
    )
    def test_value_beyond_float64_refused(self, kernel):
        with pytest.raises(DomainError, match="too large"):
            seesaw_maximize(kernel(), 2)

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
    """seesaw_maximize equals serial_runs bit for bit.  The reference
    normalizes with the unscaled norm, so this also shows that the
    power-of-two row rescale of `_normalize_rows` is exact."""

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


def geodesic_moments(k, seed):
    net = geodesic_net(k, seed)
    return region_moments(net, 100 * net.size, SphereSampler(3, seed + 100))


def witness_moments(eps, seed):
    """(moments, adversary seed) of run_witness(WitnessConfig(3, 1, eps, seed))."""
    net = geodesic_net(geodesic_frequency(eps, 200_000), derive_seed(seed, "net"))
    return voronoi_moments(net), derive_seed(seed, "seesaw")


def greedy_2d_moments():
    """(moments, adversary seed) of acceptance criterion 8's (n, m) = (2, 1)
    input at eps 0.1."""
    net = build_eps_net(2, 0.1, seed=108)
    return region_moments(net, 1600 * net.size, SphereSampler(2, 109)), 110


# (maker of (moments, adversary seed), m)
PARITY_CASES = [
    *[pytest.param(lambda k=k, s=s: (geodesic_moments(k, s), s), 2, id=f"geodesic-k{k}-seed{s}")
      for k in range(1, 5) for s in range(3)],
    *[pytest.param(functools.partial(witness_moments, 0.1, s), 2, id=f"criterion9-seed{s}")
      for s in range(3)],
    pytest.param(greedy_2d_moments, 1, id="n2-m1"),
]


class TestDotAdversary:
    """The Newton adversary against the see-saw it replaced, and its edge cases."""

    @pytest.mark.parametrize("make, m", PARITY_CASES)
    def test_not_below_the_seesaw(self, make, m):
        moments, seed = make()
        w = moments.moment_vectors
        seesaw = seesaw_maximize(SeparableKernel(left_vectors=w, right_vectors=w), m, seed=seed)
        adversary = dot_adversary(moments, m, seed)[0]
        assert adversary.value >= seesaw.value - 1e-9
        assert adversary.converged

    def test_assignment_reproduces_the_value(self):
        moments, seed = witness_moments(0.3, 4)
        adversary = dot_adversary(moments, 2, seed)[0]
        rows = adversary.assignment.row_vectors
        assert np.array_equal(rows, adversary.assignment.col_vectors)
        assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-12
        w = moments.moment_vectors
        dense = SeparableKernel(left_vectors=w, right_vectors=w).dense()
        assert kernel_value(dense, adversary.assignment) == pytest.approx(
            adversary.value, rel=1e-12)
        # a stationary point: each row is the best response to the others
        best = w @ (w.T @ rows)
        best /= np.linalg.norm(best, axis=1, keepdims=True)
        assert np.abs(best - rows).max() <= 1e-9

    def test_zero_moment_row(self):
        moments = geodesic_moments(3, 1)
        w = moments.moment_vectors.copy()
        w[5] = 0.0
        emptied = dataclasses.replace(moments, moment_vectors=w)
        first, second = dot_adversary(emptied, 2, 3), dot_adversary(emptied, 2, 3)
        assert np.isfinite(first[0].value) and np.isfinite(first[1])
        assert np.array_equal(first[0].assignment.row_vectors[5], [1.0, 0.0])
        assert first[0].value == second[0].value
        assert np.array_equal(first[0].assignment.row_vectors,
                              second[0].assignment.row_vectors)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_dimension_reaches_the_sign_optimum(self, seed):
        moments = geodesic_moments(1, seed)  # 12 regions: signs enumerate
        w = moments.moment_vectors
        exact = brute_force_signs(SeparableKernel(left_vectors=w, right_vectors=w).dense())
        first, second = dot_adversary(moments, 1, seed)[0], dot_adversary(moments, 1, seed)[0]
        assert first.value == pytest.approx(exact, rel=1e-14)
        assert first.value == second.value
        assert np.abs(np.abs(first.assignment.row_vectors) - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("m", [4, 6])
    def test_m_at_least_n_is_solved_at_n(self, m):
        moments = geodesic_moments(2, 2)
        at_n = dot_adversary(moments, 3, 7)[0]
        padded = dot_adversary(moments, m, 7)[0]
        assert padded.value == pytest.approx(at_n.value, rel=1e-15)
        assert padded.assignment.m == m
        assert np.array_equal(padded.assignment.row_vectors[:, :3],
                              at_n.assignment.row_vectors)
        assert not padded.assignment.row_vectors[:, 3:].any()

    def test_restarts_equal_lone_runs(self, monkeypatch):
        w = geodesic_moments(8, 0).moment_vectors  # 642 regions: one stack of 16
        stacked = list(embedding_opt._dot_restarts(w, 2, seed=3))
        monkeypatch.setattr(embedding_opt, "_STACK_ROWS", 1)
        alone = list(embedding_opt._dot_restarts(w, 2, seed=3))
        assert len(stacked) == len(alone) == embedding_opt.ADVERSARY_RESTARTS
        for (f, x, iters, conv, trace), (f1, x1, iters1, conv1, trace1) in zip(stacked, alone):
            assert f == f1 and iters == iters1 and conv == conv1 and trace == trace1
            assert np.array_equal(x, x1)

    def test_restarts_start_where_the_seesaw_stands(self):
        # restart r starts at C ∝ W^T Y, Y the see-saw's seeded column draw,
        # so its rows x_u ∝ C^T w_u are the see-saw's first row update
        w = geodesic_moments(2, 1).moment_vectors
        for restart, run in enumerate(embedding_opt._dot_restarts(w, 2, seed=8)):
            pulled = w.T @ SphereSampler(2, 8, restart).sample(len(w))
            f0 = np.linalg.norm(w @ pulled, axis=1).sum() / np.linalg.norm(pulled)
            assert run[4][0] == pytest.approx(f0 * f0, rel=1e-13)

    def test_iteration_count_guard(self):
        # counts repeat exactly.  Measured: largest 46 and total 463; without
        # the damping of failed Newton steps, 153 and 1123
        w = geodesic_moments(16, 0).moment_vectors  # 2 562 regions
        iterations = [run[2] for run in embedding_opt._dot_restarts(w, 2, seed=1)]
        assert max(iterations) <= 300
        assert sum(iterations) <= 800

    @pytest.mark.parametrize("n, k", [(3, 2), (5, 2), (4, 3)])
    def test_newton_step_is_tangent_and_off_the_gauge(self, n, k):
        w = SphereSampler(n, 40 + n).sample(60) / 60
        c = embedding_opt._unit_states(np.random.default_rng(k).normal(size=(2, n, k)))
        y, s, f = embedding_opt._dot_objective(w, c)
        x, grad, step = embedding_opt._DotNewton(w, k).directions(
            c, y, s, f, np.full(2, embedding_opt._DAMPING_MIN))
        assert np.array_equal(grad, np.matmul(w.T, x))
        gauge = [c]
        for i in range(k):
            for j in range(i + 1, k):
                e = np.zeros((k, k))
                e[i, j], e[j, i] = 1.0, -1.0
                gauge.append(c @ e)
        for direction in gauge:  # f is flat along C E, and C is normal
            along = np.einsum("rij,rij->r", step, direction)
            assert np.abs(along).max() <= 1e-12 * np.linalg.norm(step)

    def test_gain_is_the_difference_of_values_above_rounding(self):
        w = SphereSampler(3, 61).sample(50) / 50
        rng = np.random.default_rng(62)
        c = embedding_opt._unit_states(rng.normal(size=(4, 3, 2)))
        moved = embedding_opt._unit_states(c + 1e-3 * rng.normal(size=c.shape))
        y, s, f = embedding_opt._dot_objective(w, c)
        _, new_s, new_f = embedding_opt._dot_objective(w, moved)
        gain = embedding_opt._dot_gain(w, c, y, s, f, moved, new_s)
        assert np.allclose(gain, new_f - f, rtol=1e-9, atol=0.0)
        # staying put gains nothing that rounding could not fake
        assert np.all(embedding_opt._dot_gain(w, c, y, s, f, c, s) <= 0.0)

    def test_converged_states_stop_at_once(self):
        # from each restart's own result no step gains beyond rounding; the
        # gain without its rounding allowance, or without the norm term, let
        # some restarts take more iterations on rounding noise
        moments, seed = witness_moments(0.3, 4)
        w = moments.moment_vectors
        results = [run[1] for run in embedding_opt._dot_restarts(w, 2, seed)]
        states = embedding_opt._unit_states(np.stack([w.T @ x for x in results]))
        assert [run[2] for run in embedding_opt._dot_ascent(w, states)] == [1] * 16

    @pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (5, 1), (5, 2)])
    def test_closed_form_projector_equals_the_pseudoinverse(self, n, k):
        w = SphereSampler(n, 50 + n).sample(40) / 40
        c = embedding_opt._unit_states(np.random.default_rng(k).normal(size=(3, n, k)))
        newton = embedding_opt._DotNewton(w, k)
        v = newton.normal_and_gauge(c)
        reference = np.eye(n * k) - v @ np.linalg.pinv(v)
        assert np.abs(newton.off_gauge(c) - reference).max() <= 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            dot_adversary(geodesic_moments(1, 0), 0, 0)


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
