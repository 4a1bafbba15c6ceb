import dataclasses
import functools
import hashlib
import json
import math

import numpy as np
import pytest

from dimwitness import (
    DomainError,
    EpsNet,
    KernelMatrix,
    ResourceError,
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
    dot_climb,
    dot_upper_bound,
    kernel_value,
    load_kernel_csv,
    moment_value_std_error,
    save_kernel_csv,
)
from dimwitness.seeding import derive_seed
from dimwitness.sphere import geodesic_frequency, load_net

CHSH = np.array([[1.0, 1.0], [1.0, -1.0]])


def serial_runs(kernel, m, restarts, seed):
    """Reference for seesaw_maximize: each restart alone, on 2-d arrays."""

    def normalize(vecs, fallback):
        norms = np.linalg.norm(vecs, axis=1)
        zero = norms == 0.0
        if np.any(zero):
            vecs = vecs.copy()
            vecs[zero] = fallback[zero]
            norms = np.linalg.norm(vecs, axis=1)
        return vecs / norms[:, None]

    runs = []
    for restart in range(restarts):
        sampler = SphereSampler(m, seed, restart)
        cols = sampler.sample(kernel.cols)
        rows = sampler.sample(kernel.rows)
        trace = []
        prev = -math.inf
        converged = False
        for sweeps in range(1, SEESAW_MAX_ITERS + 1):
            new_rows = normalize(kernel.entries @ cols, rows)
            pulled = kernel.entries.T @ new_rows
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


def serial_seesaw(kernel, m, restarts, seed):
    """The best of serial_runs, ties to the lowest restart index."""
    best = None
    for result in serial_runs(kernel, m, restarts, seed):
        if best is None or result.value > best.value:
            best = result
    return best


class TestDiscretize:
    def test_constant_kernel_mc(self):
        net = build_eps_net(2, 0.5)
        mom = region_moments(net, 100 * net.size, SphereSampler(2, 31))
        kernel = discretize_kernel(
            lambda a, b: np.ones(a.shape[0]),
            net,
            samples=40_000,
            sampler=SphereSampler(2, 32),
        )
        outer = np.outer(mom.weights, mom.weights)
        # product of independent multinomial estimates, 5 sigma-ish slack
        assert np.abs(kernel.entries - outer).max() <= 5 / math.sqrt(40_000)

    def test_antisymmetric_kernel_column_sums(self):
        pts = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
        net = EpsNet(dim=2, eps=0.9, points=pts)
        kernel = discretize_kernel(
            lambda a, b: np.einsum("ij,ij->i", a, b),
            net,
            samples=40_000,
            sampler=SphereSampler(2, 34),
        )
        sums = kernel.entries.sum(axis=0)
        assert np.abs(sums).max() <= 5 / math.sqrt(40_000)


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

    def test_chsh_keeps_its_bits(self):
        # SHA-256 of the rows' and then the columns' float64 bytes, -0.0
        # folded into 0.0, as computed with numpy 2.4.6
        result = seesaw_maximize(KernelMatrix(CHSH), 2, restarts=16, seed=0)
        assert result.value == 2.8284271247461903
        both = np.concatenate([result.assignment.row_vectors,
                               result.assignment.col_vectors]) + 0.0
        assert hashlib.sha256(both.tobytes()).hexdigest() == (
            "fdeadb10d88727d3f56b517f6531133b26aa2613e871d80cdbcff97e6ab38ad9")

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
        ],
        ids=["chsh-2^1023", "nan"],
    )
    def test_value_beyond_float64_refused(self, kernel):
        with pytest.raises(DomainError, match="too large"):
            seesaw_maximize(kernel(), 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            seesaw_maximize(KernelMatrix(entries=CHSH), 0)
        with pytest.raises(DomainError):
            seesaw_maximize(KernelMatrix(entries=CHSH), 1, restarts=0)


def dot_kernel(w):
    """The dense inner-product kernel M_uv = w_u . w_v."""
    return KernelMatrix(entries=w @ w.T)


def _dot_kernel_with_zero_row(rows, seed):
    w = np.random.default_rng(seed).normal(size=(rows, 3))
    w[0] = 0.0  # its row update is zero every sweep: the fallback keeps the start
    return dot_kernel(w)


class TestStackedSeesaw:
    """seesaw_maximize equals serial_runs bit for bit.  The reference
    normalizes with the unscaled norm, so this also shows that the
    power-of-two row rescale of `_normalize_rows` is exact."""

    @pytest.mark.parametrize(
        "case",
        [
            lambda: (KernelMatrix(entries=CHSH), 1, 16, 0),
            lambda: (KernelMatrix(entries=CHSH), 2, 16, 0),
            lambda: (_dot_kernel_with_zero_row(40, seed=16), 2, 16, 9),
        ],
        ids=["chsh-m1", "chsh-m2", "zero-row"],
    )
    def test_equals_serial_loop(self, case):
        kernel, m, restarts, seed = case()
        got = seesaw_maximize(kernel, m, restarts=restarts, seed=seed)
        want = serial_seesaw(kernel, m, restarts, seed)
        assert got.value == want.value
        assert np.array_equal(got.assignment.row_vectors, want.assignment.row_vectors)
        assert np.array_equal(got.assignment.col_vectors, want.assignment.col_vectors)
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert np.array_equal(got.value_trace, want.value_trace)


def geodesic_moments(k, seed):
    net = geodesic_net(k)
    return region_moments(net, 100 * net.size, SphereSampler(3, seed + 100))


def witness_moments(eps, seed):
    """(moments, adversary seed): the exact moments of the n = 3 witness net
    at eps and the seed's own restart stream."""
    net = geodesic_net(geodesic_frequency(eps, 200_000))
    return voronoi_moments(net), derive_seed(seed, "seesaw")


def greedy_2d_moments():
    """(moments, adversary seed) of acceptance criterion 8's (n, m) = (2, 1)
    input at eps 0.1."""
    net = build_eps_net(2, 0.1)
    return region_moments(net, 1600 * net.size, SphereSampler(2, 109)), 110


@functools.lru_cache(maxsize=None)
def greedy_net_and_moments(n, eps, seed):
    """A greedy net and its moments at 100 samples per region, built once per
    session: the (3, 0.1) net alone takes seconds."""
    net = build_eps_net(n, eps)
    return net, region_moments(net, 100 * net.size, SphereSampler(n, seed + 1))


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
        seesaw = seesaw_maximize(dot_kernel(moments.moment_vectors), m, seed=seed)
        adversary = dot_climb(moments.moment_vectors, m, seed)
        assert adversary.value >= seesaw.value - 1e-9
        assert adversary.converged

    def test_assignment_reproduces_the_value(self):
        moments, seed = witness_moments(0.3, 4)
        adversary = dot_climb(moments.moment_vectors, 2, seed)
        rows = adversary.assignment.row_vectors
        assert np.array_equal(rows, adversary.assignment.col_vectors)
        assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-12
        w = moments.moment_vectors
        assert kernel_value(dot_kernel(w), adversary.assignment) == pytest.approx(
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
        first, second = dot_climb(w, 2, 3), dot_climb(w, 2, 3)
        assert np.isfinite(first.value)
        assert np.isfinite(moment_value_std_error(emptied, first.assignment.row_vectors))
        assert np.array_equal(first.assignment.row_vectors[5], [1.0, 0.0])
        assert first.value == second.value
        assert np.array_equal(first.assignment.row_vectors, second.assignment.row_vectors)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_dimension_reaches_the_sign_optimum(self, seed):
        moments = geodesic_moments(1, seed)  # 12 regions: signs enumerate
        w = moments.moment_vectors
        exact = brute_force_signs(dot_kernel(w))
        first, second = dot_climb(w, 1, seed), dot_climb(w, 1, seed)
        assert first.value == pytest.approx(exact, rel=1e-14)
        assert first.value == second.value
        assert np.abs(np.abs(first.assignment.row_vectors) - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("m", [4, 6])
    def test_m_at_least_n_is_solved_at_n(self, m):
        moments = geodesic_moments(2, 2)
        at_n = dot_climb(moments.moment_vectors, 3, 7)
        padded = dot_climb(moments.moment_vectors, m, 7)
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

    def test_no_restart_starts_at_f_zero(self):
        # W^T Y is exactly zero for the draws whose two signs agree, and W's
        # first column is zero: a start at e_1 e_1^T would have f = 0, and
        # its Newton step and unit state would divide 0 by 0.  W's second
        # column is the largest, and every restart starts on it
        w = np.array([[0.0, 1.0], [0.0, -1.0]])
        for seed in range(6):
            runs = list(embedding_opt._dot_restarts(w, 1, seed))
            assert [run[0] for run in runs] == [2.0] * len(runs)
            assert dot_climb(w, 1, seed).value == 4.0
        # at W = 0 every state has f = 0: the value 0 needs no climb
        zero = dot_climb(np.zeros((4, 3)), 2, 0)
        assert zero.value == 0.0 and zero.iterations == 0 and zero.converged
        assert np.array_equal(zero.assignment.row_vectors, np.tile([1.0, 0.0], (4, 1)))

    @pytest.mark.parametrize("k", [11, 32])
    def test_one_newton_table_per_climb(self, k, monkeypatch):
        # 1 212 regions (k = 11) split the restarts into 2 stacks, 10 242
        # (k = 32) into 16; every stack climbs on the one `_DotNewton`
        w = voronoi_moments(geodesic_net(k)).moment_vectors
        assert embedding_opt.ADVERSARY_RESTARTS > embedding_opt._STACK_ROWS // len(w)
        builds = []
        init = embedding_opt._DotNewton.__init__

        def counted(self, *args):
            builds.append(args[1:])
            init(self, *args)

        monkeypatch.setattr(embedding_opt._DotNewton, "__init__", counted)
        dot_climb(w, 2, derive_seed(0, "seesaw"))
        assert builds == [(2,)]

    @pytest.mark.parametrize("n, k", [(3, 2), (5, 2), (4, 3)])
    def test_newton_tables_are_read_only(self, n, k):
        # every climb of the shape shares the cached tables
        for table in embedding_opt._newton_tables(n, k):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 0

    def test_iteration_count_guard(self):
        # counts repeat exactly.  Measured: largest 30 and total 322; 46 and
        # 463 while a failed Newton step raised its damping only for the
        # next iteration; without the damping of failed Newton steps, 153
        # and 1123
        w = geodesic_moments(16, 0).moment_vectors  # 2 562 regions
        iterations = [run[2] for run in embedding_opt._dot_restarts(w, 2, seed=1)]
        assert max(iterations) <= 150
        assert sum(iterations) <= 600

    @staticmethod
    def recorded_ascent(w, start, monkeypatch):
        """A lone `_dot_ascent` run from the (n, k) state `start`, and per
        iteration its state, the Newton system and the floors of every
        Newton step scored: the first is the damped step, the others rungs."""
        iterations = []
        directions, step = embedding_opt._DotNewton.directions, embedding_opt._DotNewton.step

        def record_directions(self, c, y, s, f):
            out = directions(self, c, y, s, f)
            iterations.append(dict(c=c, y=y, s=s, f=f, grad=out[1], eig=out[2], floors=[]))
            return out

        def record_step(eig, floor, shape):
            iterations[-1]["floors"].extend(floor.tolist())
            return step(eig, floor, shape)

        monkeypatch.setattr(embedding_opt._DotNewton, "directions", record_directions)
        monkeypatch.setattr(embedding_opt._DotNewton, "step", staticmethod(record_step))
        run = embedding_opt._dot_ascent(embedding_opt._DotNewton(w, 2), start[None])[0]
        monkeypatch.undo()
        return run, iterations

    @staticmethod
    def restart_start(w, seed, restart):
        start = w.T @ SphereSampler(2, seed, restart).sample(len(w))
        return start / np.linalg.norm(start)

    def test_failed_newton_steps_are_redamped_at_once(self, monkeypatch):
        # restart 11 of this input took 24 iterations while its damping
        # climbed by one factor of ten per iteration, over iterations 3-10
        # and 14-16, each ending on a fixed-point step
        moments, seed = witness_moments(0.3, 77)
        w = moments.moment_vectors
        run, iterations = self.recorded_ascent(w, self.restart_start(w, seed, 11), monkeypatch)
        assert run[3] and run[2] <= 16
        # a failed Newton step is followed by a rung, scored in the same
        # iteration; the damping tried first never rises over two
        # consecutive iterations that both failed
        failed = [len(it["floors"]) > 1 for it in iterations]
        damping = [it["floors"][0] / it["f"][0] for it in iterations]
        for i in range(len(iterations) - 1):
            assert not (failed[i] and failed[i + 1] and damping[i + 1] > damping[i] * 1.5)

    def test_accepted_rung_is_the_least_damped_that_raises_f(self, monkeypatch):
        # restart 2 of the second input scores, in its first iteration, the
        # rungs 7, 8 and 9, the top, after its Newton step at 1e-9 failed
        dampings = embedding_opt._DAMPINGS
        top = dampings.size - 1
        rungs = climbs = 0
        for eps_seed in (77, 10):
            moments, seed = witness_moments(0.3, eps_seed)
            w = moments.moment_vectors
            wt = np.ascontiguousarray(w.T)
            newton = embedding_opt._DotNewton(w, 2)
            steps = []
            for restart in range(embedding_opt.ADVERSARY_RESTARTS):
                run = self.recorded_ascent(w, self.restart_start(w, seed, restart), monkeypatch)[1]
                steps += zip(run, run[1:])
            for it, following in steps:
                c, y, s, f = it["c"], it["y"], it["s"], it["f"]
                scored = [int(np.argmin(np.abs(np.log(dampings * f[0] / floor))))
                          for floor in it["floors"]]
                tried = scored.pop(0)

                def raises(cand):
                    cand_y, cand_s, _ = embedding_opt._dot_objective(wt, cand)
                    return embedding_opt._dot_gain(wt, c, y, s, f, cand, cand_y, cand_s)[0] > 0.0

                def newton_state(damping):
                    step = newton.step(it["eig"], damping * f, c.shape)
                    return embedding_opt._unit_states(c + step)

                if raises(newton_state(dampings[tried])):
                    continue
                fixed = embedding_opt._unit_states(it["grad"])
                assert raises(fixed)  # else the state would have stopped
                # every rung above the damping tried, least damped first, with
                # the ones the ascent skipped as giving the failed step again
                up = [d for d in dampings[tried + 1:] if raises(newton_state(d))]
                want = newton_state(up[0]) if up else fixed
                assert np.array_equal(following["c"], want)
                rungs += bool(up)
                # after the first rung, the ones above it in turn, up to the
                # first that raises f or else the top
                first = scored[0]
                last = next((j for j in range(first, top)
                             if raises(newton_state(dampings[j]))), top)
                assert scored == list(range(first, last + 1))
                climbs += len(scored) > 2 and last == top
        assert rungs > 0 and climbs > 0

    @pytest.mark.parametrize("n, k", [(3, 2), (5, 2), (4, 3), (9, 8)])
    def test_newton_step_is_tangent_and_off_the_gauge(self, n, k):
        # states are stored as C^T, (stack, k, n)
        w = SphereSampler(n, 40 + n).sample(60) / 60
        c = embedding_opt._unit_states(np.random.default_rng(k).normal(size=(2, k, n)))
        newton = embedding_opt._DotNewton(w, k)
        y, s, f = embedding_opt._dot_objective(newton.wt, c)
        x, grad, eig = newton.directions(c, y, s, f)
        step = newton.step(eig, embedding_opt._DAMPINGS[0] * f, c.shape)
        assert np.array_equal(grad, np.matmul(x, w))
        gauge = [c]
        for i in range(k):
            for j in range(i + 1, k):
                e = np.zeros((k, k))
                e[i, j], e[j, i] = 1.0, -1.0
                gauge.append(e.T @ c)  # (C E)^T
        for direction in gauge:  # f is flat along C E, and C is normal
            along = np.einsum("rij,rij->r", step, direction)
            assert np.abs(along).max() <= 1e-12 * np.linalg.norm(step)

    def test_gain_is_the_difference_of_values_above_rounding(self):
        w = SphereSampler(3, 61).sample(50) / 50
        wt = np.ascontiguousarray(w.T)
        rng = np.random.default_rng(62)
        c = embedding_opt._unit_states(rng.normal(size=(4, 2, 3)))
        moved = embedding_opt._unit_states(c + 1e-3 * rng.normal(size=c.shape))
        y, s, f = embedding_opt._dot_objective(wt, c)
        new_y, new_s, new_f = embedding_opt._dot_objective(wt, moved)
        gain = embedding_opt._dot_gain(wt, c, y, s, f, moved, new_y, new_s)
        assert np.allclose(gain, new_f - f, rtol=1e-9, atol=0.0)
        # staying put gains nothing that rounding could not fake
        assert np.all(embedding_opt._dot_gain(wt, c, y, s, f, c, y, s) <= 0.0)

    def test_converged_states_stop_at_once(self):
        # from each restart's own result no step gains beyond rounding; the
        # gain without its rounding allowance, or without the norm term, let
        # some restarts take more iterations on rounding noise
        moments, seed = witness_moments(0.3, 4)
        w = moments.moment_vectors
        results = [run[1] for run in embedding_opt._dot_restarts(w, 2, seed)]
        states = embedding_opt._unit_states(np.stack([w.T @ x for x in results]))
        newton = embedding_opt._DotNewton(w, 2)
        assert [run[2] for run in embedding_opt._dot_ascent(newton, states)] == [1] * 16

    @pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (5, 1), (5, 2)])
    def test_closed_form_projector_equals_the_pseudoinverse(self, n, k):
        # at k <= 2 the normal C and the one gauge direction C E are
        # orthonormal, so the projector off them is I - V V^T in closed form;
        # it equals I - V V^+ and the projector B B^T of the Newton basis
        w = SphereSampler(n, 50 + n).sample(40) / 40
        c = embedding_opt._unit_states(np.random.default_rng(k).normal(size=(3, k, n)))
        newton = embedding_opt._DotNewton(w, k)
        v = newton.normal_and_gauge(c)
        closed_form = np.eye(n * k) - v @ v.transpose(0, 2, 1)
        reference = np.eye(n * k) - v @ np.linalg.pinv(v)
        assert np.abs(closed_form - reference).max() <= 1e-14
        y, s, f = embedding_opt._dot_objective(newton.wt, c)
        basis = newton.directions(c, y, s, f)[2][1]
        assert np.abs(basis @ basis.transpose(0, 2, 1) - closed_form).max() <= 1e-14

    @pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (5, 1), (5, 2), (4, 3), (9, 8)])
    def test_newton_directions_are_an_orthonormal_tangent_basis(self, n, k):
        # the eigenvectors B U of `directions` (U orthogonal) span what B
        # does: the complement of the normal and gauge directions V
        w = SphereSampler(n, 50 + n).sample(40) / 40
        c = embedding_opt._unit_states(np.random.default_rng(k).normal(size=(3, k, n)))
        newton = embedding_opt._DotNewton(w, k)
        y, s, f = embedding_opt._dot_objective(newton.wt, c)
        magnitude, basis, _ = newton.directions(c, y, s, f)[2]
        tangent = n * k - 1 - k * (k - 1) // 2
        assert magnitude.shape == (3, tangent) and basis.shape == (3, n * k, tangent)
        gram = basis.transpose(0, 2, 1) @ basis
        assert np.abs(gram - np.eye(tangent)).max() <= 1e-14
        v = newton.normal_and_gauge(c)
        reference = np.eye(n * k) - v @ np.linalg.pinv(v)
        assert np.abs(basis @ basis.transpose(0, 2, 1) - reference).max() <= 1e-14

    @pytest.mark.parametrize("m", [1, 2])
    def test_one_dimensional_moments_climb_nowhere(self, m):
        # at n = 1 the state is C = +-1 and f = sum_u |w_u| everywhere: the
        # tangent space is empty, and the first iteration stops
        w = np.random.default_rng(m).normal(size=(9, 1))
        adversary = dot_climb(w, m, 5)
        want = math.fsum(np.abs(w[:, 0])) ** 2
        assert abs(adversary.value - want) <= math.ulp(want)
        assert adversary.iterations == 1 and adversary.converged

    def test_domain(self):
        with pytest.raises(DomainError):
            dot_climb(geodesic_moments(1, 0).moment_vectors, 0, 0)


class TestDotUpperBound:
    """U = tr(M) lambda_max(M) against the adversary at m = n, the largest
    value it can reach."""

    @pytest.mark.parametrize("n, eps", [(3, 0.1), (4, 0.5), (5, 0.7)])
    def test_not_below_the_adversary_on_greedy_nets(self, n, eps):
        # measured gaps 1.3e-3, 4.5e-3 and 5.3e-3
        _, moments = greedy_net_and_moments(n, eps, 0)
        assert dot_upper_bound(moments) >= dot_climb(moments.moment_vectors, n, 1).value

    @pytest.mark.parametrize("k", range(1, 5))
    def test_tight_on_geodesic_nets(self, k, turned):
        # the net's icosahedral symmetry makes M a multiple of I, so C = I / sqrt 3
        # attains the Cauchy-Schwarz bound: f^2 = (tr M)^2 / 3 = U.  Each side
        # sums at most 3 r float64 terms (r regions); with pairwise or blocked
        # sums and about ten roundings per region before them, each is off by
        # at most (log2(3 r) + 10) 2^-53 relative, about 2e-15 at k = 4.
        # Measured: at most 1.2e-15, either way.
        for seed in range(3):
            moments = voronoi_moments(turned(geodesic_net(k), seed))
            regions = moments.moment_vectors.shape[0]
            allowance = 2 * (math.ceil(math.log2(3 * regions)) + 10) * 2.0 ** -53
            upper = dot_upper_bound(moments)
            adversary = dot_climb(moments.moment_vectors, 3, seed).value
            assert abs(upper - adversary) <= allowance * upper

    def test_empty_regions_count_nothing(self):
        moments = voronoi_moments(geodesic_net(3))
        w = moments.moment_vectors.copy()
        w[[2, 7]] = 0.0
        emptied = dataclasses.replace(moments, moment_vectors=w)
        kept = dataclasses.replace(moments, moment_vectors=np.delete(w, [2, 7], axis=0))
        assert dot_upper_bound(emptied) == dot_upper_bound(kept)


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
    def test_equal_dims_is_one(self):
        net, mom = greedy_net_and_moments(3, 0.3, 5)
        ratio, _ = empirical_ratio(3, 3, net, mom, seed=7)
        assert ratio == 1.0

    def test_three_two_bracket(self):
        net, mom = greedy_net_and_moments(3, 0.1, 0)
        ratio, details = empirical_ratio(3, 2, net, mom, seed=2)
        bound = kg_lower_bound(3, 2).bound
        assert 1.0 < ratio <= bound + 4 * details["ratio_std_error"]

    def test_two_one_bracket(self):
        net, mom = greedy_net_and_moments(2, 0.05, 0)
        ratio, details = empirical_ratio(2, 1, net, mom, seed=2)
        bound = kg_lower_bound(2, 1).bound
        assert 1.0 < ratio <= bound + 4 * details["ratio_std_error"]

    def test_aligned_value_consistency(self):
        net, mom = greedy_net_and_moments(3, 0.3, 5)
        w = mom.moment_vectors
        norms = np.linalg.norm(w, axis=1)
        what = w / norms[:, None]
        by_assignment = kernel_value(
            dot_kernel(w),
            VectorAssignment(m=3, row_vectors=what, col_vectors=what),
        )
        _, details = empirical_ratio(3, 2, net, mom, seed=0)
        assert details["numerator"] == pytest.approx(by_assignment, rel=1e-12)

    def test_empty_region_contributes_nothing(self):
        net, mom = greedy_net_and_moments(3, 0.3, 5)
        w = mom.moment_vectors.copy()
        w[0] = 0.0
        emptied = dataclasses.replace(
            mom, moment_vectors=w, empty_regions=np.array([0], dtype=np.int64)
        )
        rest = w[1:] / np.linalg.norm(w[1:], axis=1)[:, None]
        by_assignment = kernel_value(
            dot_kernel(w[1:]),
            VectorAssignment(m=3, row_vectors=rest, col_vectors=rest),
        )
        _, details = empirical_ratio(3, 2, net, emptied, seed=0)
        assert details["numerator"] == pytest.approx(by_assignment, rel=1e-12)
        assert math.isfinite(details["numerator_std_error"])


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
