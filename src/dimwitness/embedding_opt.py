"""Bilinear-form maximization over unit-vector assignments.

Kernels discretized over a net are maximized by see-saw alternation: with one
side fixed, each vector's optimal update is the normalized kernel-weighted sum
of the other side (the inner product with a fixed vector is maximized by the
parallel unit vector), so the objective is nondecreasing per half-sweep.  The
method is local; restarts with independent random initializations are the
standard remedy, and an exact sign-enumeration oracle covers tiny instances.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .analytic_bounds import y_closed_form
from .errors import DomainError, ResourceError
from .sphere import EpsNet, RegionMoments, SphereSampler, assign_regions

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
    "aligned_full_dim_value",
    "moment_value_std_error",
    "save_kernel_csv",
    "load_kernel_csv",
]

DOT_KERNEL = "dot"  # sentinel for the inner-product kernel M'(a, b) = a.b

_SEPARABLE_MANDATORY_ABOVE = 1000  # dense r x s storage is the bottleneck past this
# value improvement scales like the squared first-order residual, so a value
# plateau alone leaves vectors ~sqrt(tol) from stationarity; convergence also
# requires the per-sweep assignment movement to drop below this
_STATIONARY_MOVEMENT = 2.5e-7


@dataclass(frozen=True)
class KernelMatrix:
    """Dense discretized kernel with a provenance note."""

    entries: np.ndarray  # (rows, cols)
    provenance: str = ""

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
        return KernelMatrix(
            entries=self.left_vectors @ self.right_vectors.T,
            provenance="densified separable kernel",
        )


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
    force_dense: bool = False,
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
        if force_dense:
            if net.size > _SEPARABLE_MANDATORY_ABOVE:
                raise ResourceError(
                    f"dense form refused above {_SEPARABLE_MANDATORY_ABOVE} net points"
                )
            return KernelMatrix(entries=w @ w.T, provenance="exact dot kernel (dense)")
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
    return KernelMatrix(
        entries=acc / float(samples),
        provenance=f"MC discretization, {samples} pairs, seed {sampler.seed}",
    )


# ----------------------------------------------------------------------
# see-saw
# ----------------------------------------------------------------------

def _normalize_rows(vecs: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Row-normalize; rows with zero update keep the previous vector."""
    norms = np.linalg.norm(vecs, axis=1)
    zero = norms == 0.0
    if np.any(zero):
        vecs = vecs.copy()
        vecs[zero] = fallback[zero]
        norms = np.linalg.norm(vecs, axis=1)
    return vecs / norms[:, None]


def seesaw_maximize(
    kernel: Kernel,
    m: int,
    restarts: int = 16,
    max_iters: int = 10_000,
    tol: float = 1e-10,
    seed: int = 0,
    init: Optional[VectorAssignment] = None,
) -> SeesawResult:
    """Alternating maximization of sum_ij M_ij x_i . y_j over unit vectors in R^m.

    Each half-sweep sets one side to the normalized kernel-weighted sum of the
    other, so the objective is nondecreasing; convergence is declared when a
    full sweep improves by less than tol (relative).  The best result over
    `restarts` independent starts is returned (ties to the lowest restart
    index).  An optional `init` seeds restart 0, which makes the value
    monotone under embedding into a larger m.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    r, s = kernel.rows, kernel.cols

    best: Optional[SeesawResult] = None
    for restart in range(restarts):
        if restart == 0 and init is not None:
            if init.row_vectors.shape[0] != r or init.col_vectors.shape[0] != s:
                raise DomainError("init assignment shape mismatch")
            if init.m > m:
                raise DomainError("init dimension exceeds target m")
            cols = np.zeros((s, m))
            cols[:, : init.m] = init.col_vectors
            rows = np.zeros((r, m))
            rows[:, : init.m] = init.row_vectors
        else:
            sampler = SphereSampler(m, seed, restart)
            cols = sampler.sample(s)
            rows = sampler.sample(r)

        trace: List[float] = []
        prev = -math.inf
        converged = False
        sweeps = 0
        for sweeps in range(1, max_iters + 1):
            new_rows = _normalize_rows(_apply_rows(kernel, cols), rows)
            new_cols = _normalize_rows(_apply_cols(kernel, new_rows), cols)
            movement = max(
                float(np.abs(new_rows - rows).max()),
                float(np.abs(new_cols - cols).max()),
            )
            rows, cols = new_rows, new_cols
            val = float(np.sum(cols * _apply_cols(kernel, rows)))
            if val < prev:
                # rounding echo at the plateau; the exact update is monotone
                converged = True
                break
            trace.append(val)
            plateau = math.isfinite(prev) and val - prev <= tol * max(1.0, abs(prev))
            if plateau and movement <= _STATIONARY_MOVEMENT:
                converged = True
                prev = val
                break
            prev = val

        value = kernel_value(
            kernel, VectorAssignment(m=m, row_vectors=rows, col_vectors=cols)
        )
        result = SeesawResult(
            value=value,
            assignment=VectorAssignment(m=m, row_vectors=rows, col_vectors=cols),
            iterations=sweeps,
            converged=converged,
            value_trace=trace,
        )
        if best is None or result.value > best.value:
            best = result
    return best


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


def aligned_full_dim_value(moments: RegionMoments) -> float:
    """Value of the dot-kernel bilinear form at x_u = y_u = w_u / ||w_u||.

    This mirrors the identity embedding of the continuous problem (each region
    mapped to its own moment direction) and is exact given the moments;
    regions with zero moment contribute nothing.  ||W^T What||_F^2 form.
    """
    w = moments.moment_vectors
    norms = np.linalg.norm(w, axis=1)
    keep = norms > 0.0
    what = w[keep] / norms[keep, None]
    t = w[keep].T @ what
    return float(np.sum(t * t))


def moment_value_std_error(
    moments: RegionMoments, rows: np.ndarray, cols: np.ndarray
) -> float:
    """First-order standard error of sum_uv (w_u . w_v) x_u . y_v in the moments.

    Gradient w.r.t. w_t is sum_v (x_t . y_v) w_v + sum_u (x_u . y_t) w_u; the
    per-region moment errors combine in quadrature (regions are sampled from
    one multinomial draw, so this slightly overstates the error).
    """
    w = moments.moment_vectors
    grad = rows @ (cols.T @ w) + cols @ (rows.T @ w)
    grad_norms = np.linalg.norm(grad, axis=1)
    return float(np.sqrt(np.sum((grad_norms * moments.standard_errors) ** 2)))


def empirical_ratio(
    n: int,
    m: int,
    net: EpsNet,
    moments: RegionMoments,
    restarts: int = 16,
    max_iters: int = 10_000,
    tol: float = 1e-10,
    seed: int = 0,
) -> Tuple[float, dict]:
    """Net-resolution-limited estimate of the bound certified by the dot kernel.

    numerator   = aligned full-dimension value of the discretized kernel
                  (exact given the moments, see aligned_full_dim_value)
    denominator = see-saw value at embedding dimension m
    The ratio approaches the analytic bound from below as eps shrinks; a
    finite net only resolves so much.
    """
    if net.dim != n:
        raise DomainError("net dimension does not match n")
    if not (1 <= m <= n):
        raise DomainError("need 1 <= m <= n")
    w = moments.moment_vectors
    kernel = SeparableKernel(left_vectors=w, right_vectors=w)

    result = seesaw_maximize(
        kernel, m, restarts=restarts, max_iters=max_iters, tol=tol, seed=seed
    )
    den_se = moment_value_std_error(
        moments, result.assignment.row_vectors, result.assignment.col_vectors
    )

    if m == n:
        # the numerator optimization at dimension n is the denominator itself
        numerator, num_se = result.value, den_se
    else:
        numerator = aligned_full_dim_value(moments)
        norms = np.linalg.norm(w, axis=1)
        safe = np.where(norms == 0, 1.0, norms)
        what = np.where(norms[:, None] > 0, w / safe[:, None], 0.0)
        num_se = moment_value_std_error(moments, what, what)
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
    if isinstance(kernel, SeparableKernel):
        kernel = kernel.dense()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in kernel.entries:
        writer.writerow([repr(float(x)) for x in row])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def load_kernel_csv(path: str) -> KernelMatrix:
    rows: List[List[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(csv.reader(fh), start=1):
            if not line:
                continue
            try:
                row = [float(x) for x in line]
            except ValueError as exc:
                raise DomainError(f"{path}: line {lineno}: {exc}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DomainError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise DomainError(f"{path}: empty matrix")
    entries = np.asarray(rows)
    if not np.all(np.isfinite(entries)):
        raise DomainError(f"{path}: non-finite entries")
    return KernelMatrix(entries=entries, provenance=f"loaded from {path}")
