"""Bilinear-form maximization over unit-vector assignments.

General kernels (CSV kernels, CHSH) are maximized by see-saw alternation:
with one side fixed, each vector's optimal update is the normalized
kernel-weighted sum of the other side (the inner product with a fixed vector
is maximized by the parallel unit vector), so the objective is nondecreasing
per half-sweep.  The method is local; restarts with independent random
initializations are the standard remedy, and an exact sign-enumeration
oracle covers tiny instances.

The inner-product kernel M_uv = w_u . w_v of the witness has a reduced
form: its optimum over unit vectors in R^m is (max f)^2 with
f(C) = sum_u ||C^T w_u|| over n x m matrices of unit Frobenius norm, and
the see-saw is the fixed-point iteration C <- W^T X / ||W^T X||_F of f.
`dot_adversary` climbs f on the n x m state instead of the regions x m
rows: damped Riemannian Newton steps, with that fixed-point step as the
monotone fallback, converge in tens of iterations where the see-saw took
hundreds of sweeps.

Restarts of either method advance together as one stack, bounded in size so
that it stays in cache; each restart's iterates equal those of a lone run
bit for bit.
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
    write_matrix_csv,
)

__all__ = [
    "KernelMatrix",
    "SeparableKernel",
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
# restarts x rows of a see-saw or dot-adversary stack that advance together:
# on small kernels a sweep costs its ~20 numpy calls, which the stack shares
# among restarts; on large ones the stack's arrays leave cache.  Median CPU time
# of 16 restarts on geodesic dot kernels at m = 2 (one BLAS thread, 2-core
# x86 VM, 2 MB of L2 per core), against one restart at a time: 4 x 4002
# rows 4.17 s against 4.43 s, 16 x 4002 rows 4.63 s (slower), 6 x 2562
# rows 1.94 s against 2.14 s.  dot_adversary at m = 2, same machine: 16 002
# regions 0.42 s (one restart per stack) against 0.44 s for all 16 in one
# stack, 2 562 regions 0.071 s (6 per stack) against 0.059 s
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


@dataclass(frozen=True)
class KernelMatrix:
    """Dense discretized kernel."""

    entries: np.ndarray  # (rows, cols)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class SeparableKernel:
    """Low-rank factored kernel, entries[i, j] = left_vectors[i] . right_vectors[j]."""

    left_vectors: np.ndarray  # (rows, n)
    right_vectors: np.ndarray  # (cols, n)

    @property
    def rows(self) -> int:
        return self.left_vectors.shape[0]

    @property
    def cols(self) -> int:
        return self.right_vectors.shape[0]

    def dense(self) -> KernelMatrix:
        return KernelMatrix(entries=self.left_vectors @ self.right_vectors.T)


Kernel = Union[KernelMatrix, SeparableKernel]


def _apply_rows(kernel: Kernel, cols: np.ndarray) -> np.ndarray:
    """M @ Y without densifying a separable kernel."""
    if isinstance(kernel, SeparableKernel):
        return kernel.left_vectors @ (kernel.right_vectors.T @ cols)
    return kernel.entries @ cols


def _apply_cols(kernel: Kernel, rows: np.ndarray) -> np.ndarray:
    """M^T @ X without densifying a separable kernel."""
    if isinstance(kernel, SeparableKernel):
        return kernel.right_vectors @ (kernel.left_vectors.T @ rows)
    return kernel.entries.T @ rows


@dataclass(frozen=True)
class VectorAssignment:
    """Unit vectors in R^m attached to the rows and columns of a kernel."""

    m: int
    row_vectors: np.ndarray  # (rows, m)
    col_vectors: np.ndarray  # (cols, m)


@dataclass(frozen=True)
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


def kernel_value(kernel: Kernel, assignment: VectorAssignment) -> float:
    """Bilinear form sum_ij M_ij x_i . y_j at the given assignment."""
    my = _apply_rows(kernel, assignment.col_vectors)
    return float(np.sum(assignment.row_vectors * my))


# ----------------------------------------------------------------------
# discretization
# ----------------------------------------------------------------------

def discretize_kernel(
    kernel: Union[str, Callable[[np.ndarray, np.ndarray], np.ndarray]],
    net: EpsNet,
    moments: RegionMoments,
    samples: Optional[int] = None,
    sampler: Optional[SphereSampler] = None,
) -> Kernel:
    """Entries M_ij = integral of M'(a, b) over region pairs R_i x R_j.

    For the inner-product kernel (pass DOT_KERNEL) the vector moments make the
    integral exact: M_ij = w_i . w_j, kept in factored form.  A general kernel
    must be a vectorized callable on (batch, dim) row pairs and is estimated
    by Monte Carlo over `samples` independent (a, b) pairs.
    """
    if moments.net is not net and not (
        moments.net.dim == net.dim
        and moments.net.size == net.size
        and np.array_equal(moments.net.points, net.points)
    ):
        raise DomainError("moments were built on a different net")
    if kernel == DOT_KERNEL:
        w = moments.moment_vectors
        return SeparableKernel(left_vectors=w.copy(), right_vectors=w.copy())
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
    """Normalize along the last axis; zero updates keep the previous vector."""
    norms = np.linalg.norm(vecs, axis=-1, keepdims=True)
    zero = norms == 0.0
    if np.any(zero):
        vecs = np.where(zero, fallback, vecs)
        norms = np.linalg.norm(vecs, axis=-1, keepdims=True)
    return vecs / norms


def _max_change(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Largest |new - old| entry per restart.

    One temporary, not the two of np.abs(new - old): on kernels of 16 002
    rows the second one page-faulted on every sweep and cost ~10% of the run.
    """
    change = np.subtract(new, old)
    return np.abs(change, out=change).max(axis=(1, 2))


def _start(
    kernel: Kernel, m: int, seed: int, restart: int, init: Optional[VectorAssignment]
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
    kernel: Kernel,
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

    The restarts advance together as one stack of at most
    max(1, _STACK_ROWS // max(rows, cols)) restarts; a restart that stops
    leaves the stack.  Each restart's iterates, trace and result equal those
    of a lone run bit for bit.
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

    best: Optional[SeesawResult] = None
    group = max(1, _STACK_ROWS // max(r, s))
    for first in range(0, restarts, group):
        starts = [_start(kernel, m, seed, restart, init)
                  for restart in range(first, min(first + group, restarts))]
        for result in _seesaw_stack(kernel, m, starts):
            if best is None or result.value > best.value:
                best = result
    return best


def _seesaw_stack(
    kernel: Kernel, m: int, starts: List[Tuple[np.ndarray, np.ndarray]]
) -> List[SeesawResult]:
    """Run the see-saw from each start, all live starts in one (stack, rows, m) array.

    Reductions stay per start and in the order of a lone run: np.sum over
    the trailing axes of a C-contiguous stack adds each start's products in
    the same pairwise order as np.sum of that start alone (einsum does
    not).  For a SeparableKernel, right_vectors.T @ cols is the reduced
    n x m state B = W^T Y of each start.
    """
    rows = np.stack([r for r, _ in starts])
    cols = np.stack([c for _, c in starts])
    live = list(range(len(starts)))  # start index of each stack slot
    traces: List[List[float]] = [[] for _ in starts]
    done: List[Optional[SeesawResult]] = [None] * len(starts)
    prev = np.full(len(starts), -math.inf)
    for sweeps in range(1, SEESAW_MAX_ITERS + 1):
        new_rows = _normalize_rows(_apply_rows(kernel, cols), rows)
        pulled = _apply_cols(kernel, new_rows)
        new_cols = _normalize_rows(pulled, cols)
        movement = np.maximum(_max_change(new_rows, rows), _max_change(new_cols, cols))
        rows, cols = new_rows, new_cols
        vals = np.sum(cols * pulled, axis=(1, 2))
        # a drop is a rounding echo at the plateau; the exact update is monotone
        drop = vals < prev
        plateau = np.isfinite(prev) & (
            vals - prev <= SEESAW_TOL * np.maximum(1.0, np.abs(prev))
        )
        stop = drop | (plateau & (movement <= _STATIONARY_MOVEMENT))
        for start, val, dropped in zip(live, vals.tolist(), drop.tolist()):
            if not dropped:
                traces[start].append(val)
        leaving = stop | (sweeps == SEESAW_MAX_ITERS)
        if not np.any(leaving):
            prev = vals
            continue
        for slot in np.nonzero(leaving)[0]:
            start = live[slot]
            assignment = VectorAssignment(
                m=m, row_vectors=rows[slot].copy(), col_vectors=cols[slot].copy()
            )
            done[start] = SeesawResult(
                value=kernel_value(kernel, assignment),
                assignment=assignment,
                iterations=sweeps,
                converged=bool(stop[slot]),
                value_trace=traces[start],
            )
        keep = ~leaving
        if not np.any(keep):
            break
        live = [start for start, k in zip(live, keep.tolist()) if k]
        rows, cols, prev = rows[keep], cols[keep], vals[keep]
    return done


def brute_force_signs(kernel: KernelMatrix) -> float:
    """Exact max of sum_ij M_ij alpha_i beta_j over sign assignments.

    For fixed alpha the optimal beta_j is sign(sum_i M_ij alpha_i), so the
    cost is 2^(min(r,s)-1) evaluations (global sign symmetry halves the
    enumeration).  Refuses instances with r + s > 26.
    """
    if isinstance(kernel, SeparableKernel):
        kernel = kernel.dense()
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


def moment_value_std_error(
    moments: RegionMoments, rows: np.ndarray, cols: np.ndarray
) -> float:
    """First-order standard error of sum_uv (w_u . w_v) x_u . y_v in the moments.

    Gradient w.r.t. w_t is sum_v (x_t . y_v) w_v + sum_u (x_u . y_t) w_u; the
    per-region moment errors combine in quadrature (regions are sampled from
    one multinomial draw, so this slightly overstates the error).  Exact
    moments (every standard error 0) have none, and no gradient is formed.
    """
    if not np.any(moments.standard_errors):
        return 0.0
    w = moments.moment_vectors
    grad = rows @ (cols.T @ w) + cols @ (rows.T @ w)
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


def dot_adversary(
    moments: RegionMoments, m: int, seed: int
) -> Tuple[SeesawResult, float, float, float]:
    """(adversary, its SE, full-dim value, its SE) of the kernel M_uv = w_u . w_v.

    The adversary maximizes sum_uv (w_u . w_v) x_u . y_v over unit vectors
    in R^m.  Its optimum is (max f)^2, f(C) = sum_u ||C^T w_u|| over n x m
    matrices C with ||C||_F = 1, attained at x_u = y_u = C^T w_u / ||C^T w_u||;
    as rank C <= n, m >= n is solved at m = n and zero-padded.  Each of the
    ADVERSARY_RESTARTS restarts (`_dot_restarts`) starts where a see-saw run
    from the same seeded draw stands after its first row update, and climbs
    by `_dot_ascent`.  The best f wins, ties to the lowest restart.  The
    result's value is `kernel_value` at its assignment, X for rows and
    columns (regions with C^T w_u = 0, the empty ones among them, get e_1);
    `converged` is false only when the restart hit ADVERSARY_MAX_ITERS.

    The full-dimension value is the bilinear form at x_u = y_u = w_u / ||w_u||,
    the identity embedding of the continuous problem: exact given the
    moments, a lower bound on the full-dimension optimum.  Empty regions get
    zero vectors and contribute nothing.  SEs are first order in the moments.
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
        value=kernel_value(SeparableKernel(left_vectors=w, right_vectors=w), assignment),
        assignment=assignment,
        iterations=iterations,
        converged=converged,
        value_trace=trace,
    )
    adversary_se = moment_value_std_error(moments, vectors, vectors)
    norms = np.linalg.norm(w, axis=1)
    safe = np.where(norms == 0, 1.0, norms)
    what = np.where(norms[:, None] > 0, w / safe[:, None], 0.0)
    t = w.T @ what  # ||W^T What||_F^2 form of the aligned value
    full_dim_se = moment_value_std_error(moments, what, what)
    return adversary, adversary_se, float(np.sum(t * t)), full_dim_se


def empirical_ratio(
    n: int, m: int, net: EpsNet, moments: RegionMoments, seed: int = 0
) -> Tuple[float, dict]:
    """Net-resolution-limited estimate of the bound certified by the dot kernel.

    numerator   = aligned full-dimension value of the discretized kernel
                  (the adversary value itself when m = n), see dot_adversary
    denominator = adversary value at embedding dimension m
    The ratio approaches the analytic bound from below as eps shrinks; a
    finite net only resolves so much.
    """
    if net.dim != n:
        raise DomainError("net dimension does not match n")
    if not (1 <= m <= n):
        raise DomainError("need 1 <= m <= n")
    result, den_se, full_dim, full_dim_se = dot_adversary(moments, m, seed)

    if m == n:
        # the numerator optimization at dimension n is the denominator itself
        numerator, num_se = result.value, den_se
    else:
        numerator, num_se = full_dim, full_dim_se
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

def save_kernel_csv(kernel: Kernel, path: str) -> None:
    """Write the dense entries with `sphere.write_matrix_csv`."""
    if isinstance(kernel, SeparableKernel):
        kernel = kernel.dense()
    write_matrix_csv(path, kernel.entries)


def load_kernel_csv(path: str) -> KernelMatrix:
    """Read a kernel with `sphere.read_matrix_csv`, which names a bad line;
    DomainError also for non-finite entries."""
    entries = read_matrix_csv(path)
    if not np.all(np.isfinite(entries)):
        raise DomainError(f"{path}: non-finite entries")
    return KernelMatrix(entries=entries)
