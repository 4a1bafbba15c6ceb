"""Bilinear-form maximization over unit-vector assignments.

A dense kernel (a CSV kernel, CHSH) is maximized by see-saw alternation:
with one side fixed, each vector's optimal update is the normalized
kernel-weighted sum of the other side (the inner product with a fixed vector
is maximized by the parallel unit vector), so the objective is nondecreasing
per half-sweep.  The method is local; restarts with independent random
initializations are the standard remedy, and an exact sign-enumeration
oracle covers tiny instances.  The see-saw runs its restarts one at a time.

The inner-product kernel M_uv = w_u . w_v of the witness has its own
optimizer and never goes through the see-saw: its optimum over unit vectors
in R^m is (max f)^2 with f(C) = sum_u ||C^T w_u|| over n x m matrices of
unit Frobenius norm, and the see-saw is the fixed-point iteration
C <- W^T X / ||W^T X||_F of f.  `dot_adversary` climbs f on the n x m state
instead of the regions x m rows: damped Riemannian Newton steps, with that
fixed-point step as the monotone fallback, converge in tens of iterations
where the see-saw took hundreds of sweeps.  Its restarts advance together
in stacks of bounded size; each restart's iterates equal those of a lone
run bit for bit.  `dot_upper_bound` bounds the same optimum from above at
every m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .analytic_bounds import y_closed_form
from .errors import DomainError, ResourceError
from .sphere import (
    EpsNet,
    RegionMoments,
    SphereSampler,
    assign_regions,
    read_matrix_csv,
    require_moments_of,
    write_matrix_csv,
)

__all__ = [
    "KernelMatrix",
    "VectorAssignment",
    "SeesawResult",
    "DOT_KERNEL",
    "discretize_kernel",
    "seesaw_maximize",
    "brute_force_signs",
    "analytic_d",
    "project_embed",
    "empirical_ratio",
    "kernel_value",
    "dot_adversary",
    "dot_upper_bound",
    "moment_value_std_error",
    "save_kernel_csv",
    "load_kernel_csv",
]

DOT_KERNEL = "dot"  # sentinel for the inner-product kernel M'(a, b) = a.b

SEESAW_RESTARTS = 16
SEESAW_MAX_ITERS = 10_000  # sweeps per restart
SEESAW_TOL = 1e-10
# value improvement scales like the squared first-order residual, so a value
# plateau alone leaves vectors ~sqrt(SEESAW_TOL) from stationarity; convergence also
# requires the per-sweep assignment movement to drop below this
_STATIONARY_MOVEMENT = 2.5e-7
# restarts x regions of a dot-adversary stack that advance together
# (`_dot_restarts`): on small nets an iteration costs its numpy calls, which
# the stack shares among restarts; on large ones the stack's arrays leave
# cache and fill memory.  dot_adversary at m = 2 on the deep run's net
# (163 842 regions, one BLAS thread, 2-core x86 VM): 5.2 s and 116 MB peak
# RSS with one restart per stack, against 6.8 s and 563 MB with all 16 in
# one stack
_STACK_ROWS = 2 ** 14

# the dot-kernel adversary (dot_adversary)
ADVERSARY_RESTARTS = 16
ADVERSARY_MAX_ITERS = 1000  # iterations per restart
ADVERSARY_STOP_RULE = "neither the damped Newton step nor the fixed-point step raises f"
# relative eigenvalue floor of the Newton step: 1e-9 f leaves a nondegenerate
# maximum's step undamped; failed steps raise it tenfold, up to f itself
_DAMPING_MIN = 1e-9
_DAMPING_FACTOR = 10.0
# a step raises f only when its gain exceeds this share of the summed
# magnitudes of the gain's terms, about the rounding of their sum; near a
# nondegenerate maximum only steps of about 2^-50 or shorter fall under it
_GAIN_ROUNDING = 2.0 ** -50


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Dense discretized kernel."""

    entries: np.ndarray  # (rows, cols)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True, eq=False)
class VectorAssignment:
    """Unit vectors in R^m attached to the rows and columns of a kernel."""

    m: int
    row_vectors: np.ndarray  # (rows, m)
    col_vectors: np.ndarray  # (cols, m)


@dataclass(frozen=True, eq=False)
class SeesawResult:
    value: float
    assignment: VectorAssignment
    iterations: int
    converged: bool
    value_trace: List[float]

    def to_dict(self, include_trace: bool = False) -> dict:
        out = {
            "schema": 1,
            "kind": "seesaw_result",
            "value": self.value,
            "m": self.assignment.m,
            "iterations": self.iterations,
            "converged": self.converged,
        }
        if include_trace:
            out["value_trace"] = list(self.value_trace)
        return out


def kernel_value(kernel: KernelMatrix, assignment: VectorAssignment) -> float:
    """Bilinear form sum_ij M_ij x_i . y_j at the given assignment."""
    return float(np.sum(assignment.row_vectors * (kernel.entries @ assignment.col_vectors)))


# ----------------------------------------------------------------------
# discretization
# ----------------------------------------------------------------------

def discretize_kernel(
    kernel: Union[str, Callable[[np.ndarray, np.ndarray], np.ndarray]],
    net: EpsNet,
    moments: RegionMoments,
    samples: Optional[int] = None,
    sampler: Optional[SphereSampler] = None,
) -> KernelMatrix:
    """Entries M_ij = integral of M'(a, b) over region pairs R_i x R_j.

    For the inner-product kernel (pass DOT_KERNEL) the vector moments make the
    integral exact: M_ij = w_i . w_j, the entries of W W^T.  The witness
    itself never forms them: `dot_adversary` works on W.  A general kernel
    must be a vectorized callable on (batch, dim) row pairs and is estimated
    by Monte Carlo over `samples` independent (a, b) pairs.
    """
    require_moments_of(net, moments)
    if kernel == DOT_KERNEL:
        w = moments.moment_vectors
        return KernelMatrix(entries=w @ w.T)
    if not callable(kernel):
        raise DomainError("kernel must be DOT_KERNEL or a callable")
    if samples is None or sampler is None:
        raise DomainError("MC discretization needs samples and a sampler")
    if sampler.dim != net.dim:
        raise DomainError("sampler dimension mismatch")
    r = net.size
    acc = np.zeros((r, r))
    done = 0
    batch = 8192
    while done < samples:
        b = min(batch, samples - done)
        pair = sampler.sample(2 * b)
        a_pts, b_pts = pair[:b], pair[b:]
        ia = assign_regions(net, a_pts)
        ib = assign_regions(net, b_pts)
        np.add.at(acc, (ia, ib), np.asarray(kernel(a_pts, b_pts), dtype=float))
        done += b
    return KernelMatrix(entries=acc / float(samples))


# ----------------------------------------------------------------------
# see-saw
# ----------------------------------------------------------------------

def _normalize_rows(vecs: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Normalize each row of a (rows, m) array; zero rows keep the fallback's.

    Each row is scaled by 2^-e before its norm is taken, e the frexp exponent
    of its largest |entry|, so the squares neither overflow nor underflow.
    A power-of-two scale is exact: wherever the unscaled squares and their
    sum stay in float64's normal range, the quotient is the same bit for bit.
    """
    top = np.abs(vecs).max(axis=1)
    zero = top == 0.0
    if np.any(zero):
        vecs = np.where(zero[:, None], fallback, vecs)
        top = np.abs(vecs).max(axis=1)
    scaled = np.ldexp(vecs, -np.frexp(top)[1][:, None])
    return scaled / np.linalg.norm(scaled, axis=1, keepdims=True)


def _start(
    kernel: KernelMatrix, m: int, seed: int, restart: int, init: Optional[VectorAssignment]
) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of one restart: `init` zero-padded to R^m, else seeded draws."""
    if restart == 0 and init is not None:
        rows = np.zeros((kernel.rows, m))
        rows[:, : init.m] = init.row_vectors
        cols = np.zeros((kernel.cols, m))
        cols[:, : init.m] = init.col_vectors
        return rows, cols
    sampler = SphereSampler(m, seed, restart)
    cols = sampler.sample(kernel.cols)
    return sampler.sample(kernel.rows), cols


def seesaw_maximize(
    kernel: KernelMatrix,
    m: int,
    restarts: int = SEESAW_RESTARTS,
    seed: int = 0,
    init: Optional[VectorAssignment] = None,
) -> SeesawResult:
    """Alternating maximization of sum_ij M_ij x_i . y_j over unit vectors in R^m.

    Each half-sweep sets one side to the normalized kernel-weighted sum of the
    other, so the objective is nondecreasing.  A restart stops when a sweep
    lowers the value (a rounding echo), when a full sweep improves it by at
    most SEESAW_TOL (relative) while no vector moves more than
    _STATIONARY_MOVEMENT, or after SEESAW_MAX_ITERS sweeps.  The best result
    over `restarts` independent starts is returned (ties to the lowest
    restart index).  An optional `init` seeds restart 0, which makes the
    value monotone under embedding into a larger m.

    Rows are rescaled by exact powers of two before normalizing, so their
    norms neither overflow nor underflow at any kernel scale.  A kernel
    whose sum_ij |M_ij| exceeds half of float64's maximum is refused
    (DomainError) before the first sweep.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    r, s = kernel.rows, kernel.cols
    if init is not None:
        if init.row_vectors.shape[0] != r or init.col_vectors.shape[0] != s:
            raise DomainError("init assignment shape mismatch")
        if init.m > m:
            raise DomainError("init dimension exceeds target m")
    # |x_i . y_j| <= 1 for unit vectors, so sum_ij |M_ij| bounds every entry
    # of M Y and M^T X and every partial sum of the value.  Rounding moves a
    # sum of k terms by a relative k 2^-52 at most, which half of float64's
    # maximum leaves room for; a NaN entry fails the comparison too, and an
    # overflowing sum gives inf, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        abs_sum = float(np.abs(kernel.entries).sum())
    if not abs_sum <= np.finfo(float).max / 2:
        raise DomainError("kernel too large: sum of |entries| exceeds half of float64's maximum")

    best: Optional[SeesawResult] = None
    for restart in range(restarts):
        rows, cols = _start(kernel, m, seed, restart, init)
        trace: List[float] = []
        prev = -math.inf
        converged = False
        for sweeps in range(1, SEESAW_MAX_ITERS + 1):
            new_rows = _normalize_rows(kernel.entries @ cols, rows)
            pulled = kernel.entries.T @ new_rows
            new_cols = _normalize_rows(pulled, cols)
            movement = max(float(np.abs(new_rows - rows).max()),
                           float(np.abs(new_cols - cols).max()))
            rows, cols = new_rows, new_cols
            val = float(np.sum(cols * pulled))
            # a drop is a rounding echo at the plateau; the exact update is monotone
            if val < prev:
                converged = True
                break
            trace.append(val)
            plateau = math.isfinite(prev) and val - prev <= SEESAW_TOL * max(1.0, abs(prev))
            if plateau and movement <= _STATIONARY_MOVEMENT:
                converged = True
                break
            prev = val
        assignment = VectorAssignment(m=m, row_vectors=rows, col_vectors=cols)
        value = kernel_value(kernel, assignment)
        if best is None or value > best.value:
            best = SeesawResult(value=value, assignment=assignment, iterations=sweeps,
                                converged=converged, value_trace=trace)
    return best


def brute_force_signs(kernel: KernelMatrix) -> float:
    """Exact max of sum_ij M_ij alpha_i beta_j over sign assignments.

    For fixed alpha the optimal beta_j is sign(sum_i M_ij alpha_i), so the
    cost is 2^(min(r,s)-1) evaluations (global sign symmetry halves the
    enumeration).  Refuses instances with r + s > 26.
    """
    entries = kernel.entries
    r, s = entries.shape
    if r + s > 26:
        raise ResourceError("brute_force_signs limited to r + s <= 26")
    if s < r:
        entries = entries.T
        r, s = s, r
    count = 1 << max(r - 1, 0)
    # alpha_1 fixed to +1 by global sign symmetry; the rest enumerate freely
    bits = (np.arange(count, dtype=np.int64)[:, None] >> np.arange(max(r - 1, 0))) & 1
    alphas = np.hstack([np.ones((count, 1)), 2.0 * bits - 1.0])
    scores = np.abs(alphas @ entries).sum(axis=1)
    return float(scores.max())


# ----------------------------------------------------------------------
# analytic optimum and the embedding it comes from
# ----------------------------------------------------------------------

def analytic_d(n: int, m: int) -> float:
    """Optimal embedding value for the inner-product kernel: (1/m) * Yhat_m^2.

    Yhat_m is the expected partial norm over the first m coordinates under the
    normalized uniform measure; at m = n this reduces to 1/n, the value of the
    squared-inner-product integral.
    """
    if not (1 <= m <= n):
        raise DomainError("need 1 <= m <= n")
    y = y_closed_form(n, m)
    return y * y / m


def project_embed(a: np.ndarray, m: int) -> np.ndarray:
    """Normalized projection onto the first m coordinates.

    The measure-zero all-zero prefix maps to e_1.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.shape[0] < m or m < 1:
        raise DomainError("need a vector with dim >= m >= 1")
    head = a[:m]
    norm = np.linalg.norm(head)
    if norm == 0.0:
        out = np.zeros(m)
        out[0] = 1.0
        return out
    return head / norm


def moment_value_std_error(moments: RegionMoments, vectors: np.ndarray) -> float:
    """First-order standard error of sum_uv (w_u . w_v) x_u . x_v in the moments.

    Gradient w.r.t. w_t is 2 sum_v (x_t . x_v) w_v, the rows of 2 X (X^T W);
    the per-region moment errors combine in quadrature (regions are sampled
    from one multinomial draw, so this slightly overstates the error).  Exact
    moments (every standard error 0) have none, and no gradient is formed.
    """
    if not np.any(moments.standard_errors):
        return 0.0
    grad = 2.0 * (vectors @ (vectors.T @ moments.moment_vectors))
    grad_norms = np.linalg.norm(grad, axis=1)
    return float(np.sqrt(np.sum((grad_norms * moments.standard_errors) ** 2)))


@dataclass(frozen=True)
class _Pairs:
    """The pairs a <= b of range(k), for packed symmetric k x k tables:
    full[a, b] = full[b, a] is the position of pair (a, b)."""

    a: np.ndarray
    b: np.ndarray
    full: np.ndarray

    @classmethod
    def of(cls, k: int) -> "_Pairs":
        a, b = np.triu_indices(k)
        full = np.empty((k, k), dtype=np.intp)
        full[a, b] = full[b, a] = np.arange(a.size)
        return cls(a=a, b=b, full=full)

    def table(self, v: np.ndarray) -> np.ndarray:
        """Products v_a v_b, a <= b, along the last axis."""
        return v[..., self.a] * v[..., self.b]


def _dot_objective(
    w: np.ndarray, c: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Y, s, f) of a (stack, n, k) state: Y = W C, s_u = ||C^T w_u||, f = sum_u s_u."""
    y = np.matmul(w, c)
    s = np.sqrt(np.einsum("rnk,rnk->rn", y, y))
    return y, s, s.sum(axis=1)


def _dot_gain(
    w: np.ndarray, c: np.ndarray, y: np.ndarray, s: np.ndarray, f: np.ndarray,
    new_c: np.ndarray, new_s: np.ndarray,
) -> np.ndarray:
    """Gain of f(C) / ||C||_F from c to new_c per state, less its rounding.

    With D = C' - C and d_u = D^T w_u, s'_u^2 - s_u^2 = (2 y_u + d_u) . d_u,
    so f(C') - f(C) = sum_u (2 y_u + d_u) . d_u / (s'_u + s_u), and
    f (||C'||^2 - ||C||^2) / 2 = f <2 C + D, D> / 2 takes out, to first
    order, what the rounding of the states' unit norms adds (f is
    homogeneous of degree 1).  Each term keeps its own relative precision,
    and _GAIN_ROUNDING times their summed magnitudes is subtracted, so the
    result is positive only for a gain that rounding cannot fake.  The
    difference of the two values of f cannot resolve gains below f 2^-52:
    an ascent deciding on it stopped with rows 8e-9 from stationarity.
    """
    delta = new_c - c
    d = np.matmul(w, delta)
    num = np.einsum("rnk,rnk->rn", 2.0 * y + d, d)
    total = s + new_s
    terms = np.divide(num, total, out=np.zeros_like(num), where=total > 0.0)
    norm = 0.5 * f * np.einsum("rnk,rnk->r", 2.0 * c + delta, delta)
    rounding = _GAIN_ROUNDING * (np.abs(terms).sum(axis=1) + np.abs(norm))
    return terms.sum(axis=1) - norm - rounding


def _unit_states(c: np.ndarray) -> np.ndarray:
    return c / np.linalg.norm(c, axis=(1, 2), keepdims=True)


class _DotNewton:
    """Damped Riemannian Newton steps for f(C) = sum_u ||C^T w_u|| on ||C||_F = 1.

    The Euclidean Hessian is H = sum_u (w_u w_u^T / s_u) (x) (I - x_u x_u^T)
    with x_u = C^T w_u / s_u.  It is assembled from the fixed regions x
    n(n+1)/2 table of w_u w_u^T and a regions x k(k+1)/2 table of
    x_u x_u^T / s_u per state, never from a regions x n k array.
    """

    def __init__(self, w: np.ndarray, k: int):
        n = w.shape[1]
        self.w = w
        self.n_pairs, self.k_pairs = _Pairs.of(n), _Pairs.of(k)
        self.w_pairs = self.n_pairs.table(w)
        self.gauge = [(i, j) for i, j in zip(self.k_pairs.a, self.k_pairs.b) if i < j]
        self.eye_k, self.eye_nk = np.eye(k), np.eye(n * k)

    def normal_and_gauge(self, c: np.ndarray) -> np.ndarray:
        """(stack, n k, 1 + k(k-1)/2): C and each C E_ij of a (stack, n, k)
        stack, flattened, with E_ij = e_i e_j^T - e_j e_i^T."""
        directions = [c]
        for i, j in self.gauge:
            ce = np.zeros_like(c)
            ce[:, :, j] = c[:, :, i]
            ce[:, :, i] = -c[:, :, j]
            directions.append(ce)
        stack, n, k = c.shape
        return np.stack(directions, axis=-1).reshape(stack, n * k, -1)

    def off_gauge(self, c: np.ndarray) -> np.ndarray:
        """Projector off the span of `normal_and_gauge(c)`, per unit state.

        At k <= 2 the spanning directions are orthonormal, so the projector
        is I - V V^T: C is a unit vector, and the one C E (k = 2) is C with
        its columns turned by a right angle, a unit vector orthogonal to C
        (<C, C E> = tr(C^T C E) = 0, C^T C symmetric and E antisymmetric).
        From k = 3 the C E_ij are not orthogonal, and the pseudoinverse
        gives I - V V^+.
        """
        v = self.normal_and_gauge(c)
        if c.shape[2] <= 2:
            return self.eye_nk - v @ v.transpose(0, 2, 1)
        return self.eye_nk - v @ np.linalg.pinv(v)

    def directions(
        self, c: np.ndarray, y: np.ndarray, s: np.ndarray, f: np.ndarray, damping: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X, grad, step) of each state of a (stack, n, k) stack.

        X has rows x_u (zero where s_u = 0) and grad = W^T X is the Euclidean
        gradient of f.  The step solves (f I - Pg H Pg) D = Pg grad, with Pg
        the projector off the normal direction C and the gauge directions C E
        (E antisymmetric; f(CQ) = f(C) for orthogonal Q): the Riemannian
        Newton step, with the direction off the sphere and the directions
        along which f is flat taken out.  Each eigenvalue enters as
        max(|lambda|, damping f), so the step ascends, and a larger damping
        shortens it.
        """
        stack, n, k = c.shape
        full_n, full_k = self.n_pairs.full, self.k_pairs.full
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0.0)
        x = y * inv[..., None]
        grad = np.matmul(self.w.T, x)
        # per state (1, regions) @ (regions, pairs): the same product for any stack
        q = np.matmul(inv[:, None, :], self.w_pairs)[:, 0][:, full_n]
        x_pairs = self.k_pairs.table(x) * inv[..., None]
        wx = np.matmul(self.w_pairs.T, x_pairs)[:, full_n][:, :, :, full_k]
        hess = q[..., None, None] * self.eye_k - wx  # (stack, n, n, k, k)
        hess = hess.transpose(0, 1, 3, 2, 4).reshape(stack, n * k, n * k)

        off = self.off_gauge(c)
        # Pg grad = grad - f C, since <grad, C> = f and grad is orthogonal
        # to every gauge direction
        tangent = (grad - f[:, None, None] * c).reshape(stack, n * k)
        lam, vecs = np.linalg.eigh(f[:, None, None] * self.eye_nk - off @ hess @ off)
        coef = np.einsum("rij,ri->rj", vecs, tangent)
        coef /= np.maximum(np.abs(lam), (damping * f)[:, None])
        step = np.einsum("rij,rj->ri", vecs, coef).reshape(stack, n, k)
        return x, grad, step


def _dot_ascent(
    w: np.ndarray, c: np.ndarray
) -> List[Tuple[float, np.ndarray, int, bool, List[float]]]:
    """Maximize f(C) = sum_u ||C^T w_u|| over ||C||_F = 1 from each start.

    All states of the (stack, n, k) stack `c` advance together; a state that
    stops leaves the stack.  Each iteration tries the damped Newton step of
    `_DotNewton` and, where it does not raise f, the fixed-point step
    C <- W^T X / ||W^T X||_F, which never lowers f (it is one see-saw
    sweep).  A Newton step that raises f divides the damping by
    _DAMPING_FACTOR (down to _DAMPING_MIN); one that does not multiplies it
    (up to 1).  Whether a step raises f is decided by the sign of its
    `_dot_gain`, not by comparing two rounded values of f.  A state stops,
    converged, when neither step raises f, or after ADVERSARY_MAX_ITERS
    iterations.  Returns per start
    (f, X, iterations, converged, f^2 at the start of each iteration).
    """
    newton = _DotNewton(w, c.shape[2])
    y, s, f = _dot_objective(w, c)
    damping = np.full(c.shape[0], _DAMPING_MIN)
    live = list(range(c.shape[0]))
    traces: List[List[float]] = [[] for _ in live]
    done: List = [None] * len(live)
    for iteration in range(1, ADVERSARY_MAX_ITERS + 1):
        for start, value in zip(live, f.tolist()):
            traces[start].append(value * value)
        x, grad, step = newton.directions(c, y, s, f, damping)
        new_c = _unit_states(c + step)
        new_y, new_s, new_f = _dot_objective(w, new_c)
        newton_up = _dot_gain(w, c, y, s, f, new_c, new_s) > 0.0
        raised = newton_up.copy()
        fall = np.flatnonzero(~newton_up)
        if fall.size:
            fixed = _unit_states(grad[fall])
            fixed_y, fixed_s, fixed_f = _dot_objective(w, fixed)
            raised[fall] = _dot_gain(w, c[fall], y[fall], s[fall], f[fall],
                                     fixed, fixed_s) > 0.0
            new_c[fall], new_y[fall], new_s[fall] = fixed, fixed_y, fixed_s
            new_f[fall] = fixed_f
        damping = np.where(newton_up, np.maximum(damping / _DAMPING_FACTOR, _DAMPING_MIN),
                           np.minimum(damping * _DAMPING_FACTOR, 1.0))
        leaving = ~raised | (iteration == ADVERSARY_MAX_ITERS)
        for slot in np.flatnonzero(leaving):
            start = live[slot]
            done[start] = (float(f[slot]), x[slot].copy(), iteration, not raised[slot],
                           traces[start])
        keep = ~leaving
        if not np.any(keep):
            break
        live = [start for start, kept in zip(live, keep.tolist()) if kept]
        c, y, s, f = new_c[keep], new_y[keep], new_s[keep], new_f[keep]
        damping = damping[keep]
    return done


def _dot_restarts(
    w: np.ndarray, k: int, seed: int
) -> Iterator[Tuple[float, np.ndarray, int, bool, List[float]]]:
    """`_dot_ascent` runs of every restart, in restart order, from stacks of
    at most max(1, _STACK_ROWS // regions) starts.  Restart r starts at
    C ∝ W^T Y, Y the first draw of SphereSampler(k, seed, r)."""
    regions = w.shape[0]
    group = max(1, _STACK_ROWS // regions)
    for first in range(0, ADVERSARY_RESTARTS, group):
        starts = np.stack([
            w.T @ SphereSampler(k, seed, restart).sample(regions)
            for restart in range(first, min(first + group, ADVERSARY_RESTARTS))
        ])
        yield from _dot_ascent(w, _unit_states(starts))


def dot_adversary(moments: RegionMoments, m: int, seed: int) -> Tuple[SeesawResult, float]:
    """(adversary, its SE) of the kernel M_uv = w_u . w_v.

    The adversary maximizes sum_uv (w_u . w_v) x_u . y_v over unit vectors
    in R^m.  Its optimum is (max f)^2, f(C) = sum_u ||C^T w_u|| over n x m
    matrices C with ||C||_F = 1, attained at x_u = y_u = C^T w_u / ||C^T w_u||;
    as rank C <= n, m >= n is solved at m = n and zero-padded.  Each of the
    ADVERSARY_RESTARTS restarts (`_dot_restarts`) starts where a see-saw run
    from the same seeded draw stands after its first row update, and climbs
    by `_dot_ascent`.  The best f wins, ties to the lowest restart.  The
    result's value is the bilinear form sum_u x_u . (W W^T X)_u at its
    assignment, X for rows and columns (regions with C^T w_u = 0, the empty
    ones among them, get e_1); `converged` is false only when the restart
    hit ADVERSARY_MAX_ITERS.  The SE is first order in the moments.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    w = moments.moment_vectors
    regions, n = w.shape
    k = min(m, n)
    best = None
    for run in _dot_restarts(w, k, seed):
        if best is None or run[0] > best[0]:
            best = run
    _, x, iterations, converged, trace = best
    vectors = np.zeros((regions, m))
    vectors[:, :k] = x
    vectors[~np.any(x != 0.0, axis=1), 0] = 1.0
    assignment = VectorAssignment(m=m, row_vectors=vectors, col_vectors=vectors)
    adversary = SeesawResult(
        value=float(np.sum(vectors * (w @ (w.T @ vectors)))),
        assignment=assignment,
        iterations=iterations,
        converged=converged,
        value_trace=trace,
    )
    return adversary, moment_value_std_error(moments, vectors)


def dot_upper_bound(moments: RegionMoments) -> float:
    """U = tr(M) lambda_max(M), M = sum_u w_u w_u^T / ||w_u|| over the nonzero
    w_u: an upper bound on the optimum of the kernel M_uv = w_u . w_v over
    unit vectors, at every m.

    Any unit vectors x_u give the value ||W^T X||_F^2, and ||W^T X||_F =
    <C, W^T X> = sum_u w_u . C x_u <= f(C) = sum_u ||C^T w_u|| with
    C = W^T X / ||W^T X||_F.  By Cauchy-Schwarz, f(C) <= sqrt(tr M tr(C^T M C)):
    tr M = sum_u ||w_u||, and tr(C^T M C) <= lambda_max(M) at ||C||_F = 1.
    The bound holds for the moments as given, Monte Carlo estimates
    included.  M is formed as V^T V, V = W / sqrt(||w||) row by row, so it
    is symmetric.
    """
    w = moments.moment_vectors
    norms = np.linalg.norm(w, axis=1)
    nonzero = norms > 0.0
    v = w[nonzero] / np.sqrt(norms[nonzero])[:, None]
    gram = v.T @ v
    return float(np.trace(gram) * np.linalg.eigvalsh(gram)[-1])


def empirical_ratio(
    n: int, m: int, net: EpsNet, moments: RegionMoments, seed: int = 0
) -> Tuple[float, dict]:
    """Net-resolution-limited estimate of the bound certified by the dot kernel.

    numerator   = aligned full-dimension value of the discretized kernel, the
                  bilinear form at x_u = y_u = w_u / ||w_u|| (empty regions
                  get zero vectors and contribute nothing), or the adversary
                  value itself when m = n
    denominator = adversary value at embedding dimension m (`dot_adversary`)
    The ratio approaches the analytic bound from below as eps shrinks; a
    finite net only resolves so much.
    """
    if net.dim != n:
        raise DomainError("net dimension does not match n")
    if not (1 <= m <= n):
        raise DomainError("need 1 <= m <= n")
    result, den_se = dot_adversary(moments, m, seed)

    if m == n:
        # the numerator optimization at dimension n is the denominator itself
        numerator, num_se = result.value, den_se
    else:
        w = moments.moment_vectors
        norms = np.linalg.norm(w, axis=1)
        safe = np.where(norms == 0, 1.0, norms)
        what = np.where(norms[:, None] > 0, w / safe[:, None], 0.0)
        t = w.T @ what  # ||W^T What||_F^2 form of the aligned value
        numerator, num_se = float(np.sum(t * t)), moment_value_std_error(moments, what)
    ratio = numerator / result.value
    ratio_se = abs(ratio) * math.sqrt(
        (num_se / numerator) ** 2 + (den_se / result.value) ** 2
    )
    details = {
        "numerator": numerator,
        "numerator_std_error": num_se,
        "denominator": result.value,
        "denominator_std_error": den_se,
        "seesaw": result,
        "ratio_std_error": ratio_se,
    }
    return ratio, details


# ----------------------------------------------------------------------
# CSV I/O for kernel matrices
# ----------------------------------------------------------------------

def save_kernel_csv(kernel: KernelMatrix, path: str) -> None:
    """Write the entries with `sphere.write_matrix_csv`."""
    write_matrix_csv(path, kernel.entries)


def load_kernel_csv(path: str) -> KernelMatrix:
    """Read a kernel with `sphere.read_matrix_csv`, which names a bad line;
    DomainError also for non-finite entries."""
    entries = read_matrix_csv(path)
    if not np.all(np.isfinite(entries)):
        raise DomainError(f"{path}: non-finite entries")
    return KernelMatrix(entries=entries)
