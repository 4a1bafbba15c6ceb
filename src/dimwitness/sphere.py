"""Uniform sphere sampling, greedy eps-nets, Voronoi regions and MC integrals.

The net construction is a randomized greedy eps-packing: candidates are
streamed from a seeded sampler and accepted whenever they sit at distance at
least eps from every accepted point.  Construction stops once a run of
consecutive rejections exceeds the stopping budget.  The result is a packing
by construction, but not a certified eps-covering: its covering radius is
only sampled, and the benchmark measures it at 1.005 eps (n = 3, eps 0.3)
and 1.024 eps (n = 5, eps 0.7).

Every nearest-point query goes through one z-band screen: any point within
eps of a probe has its last coordinate within eps of the probe's, so sorting
the net by last coordinate limits each probe to a band of rows.  Region
assignment rescans the whole net only for probes farther than eps from every
net point.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, ResourceError
from .seeding import make_rng

__all__ = [
    "SphereSampler",
    "EpsNet",
    "RegionMoments",
    "sample_uniform",
    "build_eps_net",
    "nearest_point",
    "assign_regions",
    "partial_norm_expectation",
    "dot_squared_expectation",
    "region_moments",
    "save_net",
    "load_net",
]

_BATCH = 8192
# up to this many rows one matrix product over the whole set beats the
# sort and per-band products of the z-band screen
_SINGLE_BAND_ROWS = 256
# floor on the consecutive-rejection stopping budget: residual uncovered
# slivers of measure g survive with probability ~exp(-g T), and covering is
# validated with 1e5 probes, so T must comfortably exceed 1e5
_MIN_TAIL_REJECTIONS = 2_000_000


@dataclass
class SphereSampler:
    """Seeded stream of uniform points on S^(dim-1).

    Identical (seed, stream_id, dim) reproduce identical sequences; batching
    does not change the stream because the generator is consumed in order.
    """

    dim: int
    seed: int
    stream_id: int = 0
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("SphereSampler requires dim >= 1")
        self._rng = make_rng(self.seed, self.stream_id)

    def sample(self, count: int) -> np.ndarray:
        """(count, dim) array of uniform unit vectors (Gaussian-normalize)."""
        g = self._rng.standard_normal((count, self.dim))
        norms = np.linalg.norm(g, axis=1)
        # exact-zero norm is a measure-zero event; resample defensively
        while np.any(norms == 0.0):
            bad = norms == 0.0
            g[bad] = self._rng.standard_normal((int(bad.sum()), self.dim))
            norms = np.linalg.norm(g, axis=1)
        return g / norms[:, None]


def sample_uniform(sampler: SphereSampler) -> np.ndarray:
    """Next uniform unit vector from the sampler's stream."""
    return sampler.sample(1)[0]


# ----------------------------------------------------------------------
# eps-nets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EpsNet:
    """Greedy eps-packing of S^(dim-1): any two points are at least eps apart.

    The packing is not certified to cover the sphere; its covering radius is
    only sampled and can exceed eps by a few percent.
    """

    dim: int
    eps: float
    points: np.ndarray  # (size, dim)
    seed: int

    @property
    def size(self) -> int:
        return self.points.shape[0]


def _band_nearest(
    points: np.ndarray, eps: float, probes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest row of `points` to each probe within the probe's z-band.

    A probe's band holds the rows whose last coordinate lies within eps of the
    probe's eps-bucket, so it contains every row within distance eps of the
    probe.  Returns (index, dot): the largest dot product with the probe over
    the band, ties to the lowest row index, and dot = -inf where the band is
    empty.  At most _SINGLE_BAND_ROWS rows form a single band.
    """
    count = probes.shape[0]
    index = np.zeros(count, dtype=np.int64)
    dot = np.full(count, -np.inf)
    if points.shape[0] == 0:
        return index, dot
    if points.shape[0] <= _SINGLE_BAND_ROWS:
        # every array is allocated before the (count, rows) product and none
        # after it; a result allocated after it and kept fragmented the heap
        # and raised peak RSS of the n = 3 CLI witness benchmark by 6 MB
        flat = np.arange(0, count * points.shape[0], points.shape[0])
        dots = probes @ points.T
        np.argmax(dots, axis=1, out=index)
        flat += index
        np.take(dots.reshape(-1), flat, out=dot)
        return index, dot
    order = np.argsort(points[:, -1], kind="stable")
    z = points[order, -1]
    buckets = np.floor(probes[:, -1] / eps).astype(np.int64)
    for b in np.unique(buckets):
        sel = np.nonzero(buckets == b)[0]
        lo = np.searchsorted(z, b * eps - eps, side="left")
        hi = np.searchsorted(z, (b + 1) * eps + eps, side="right")
        if lo == hi:
            continue
        band = np.sort(order[lo:hi])  # ascending index: argmax ties go low
        dots = probes[sel] @ points[band].T
        best = np.argmax(dots, axis=1)
        index[sel] = band[best]
        dot[sel] = dots[np.arange(sel.size), best]
    return index, dot


def _projected_size_bounds(dim: int, eps: float) -> Tuple[float, float]:
    # crude covering lower bound and the volume-argument upper bound (3/eps)^dim
    lo = (1.0 / (3.0 * eps)) ** max(dim - 1, 0)
    hi = (3.0 / eps) ** dim
    return lo, hi


def build_eps_net(
    dim: int,
    eps: float,
    seed: int = 0,
    max_points: int = 1_000_000,
) -> EpsNet:
    """Greedy eps-packing of S^(dim-1).

    Streams seeded candidates, accepting any at distance >= eps from all
    accepted points, and stops after max(2e6, 200 x current net size)
    consecutive rejections.  Raises ResourceError when the net would exceed
    max_points; the volume bound (3/eps)^dim caps the attainable size.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    if dim < 1:
        raise DomainError("dim must be >= 1")
    lo_est, hi_est = _projected_size_bounds(dim, eps)
    if lo_est > max_points:
        raise ResourceError(
            f"projected net size >= {lo_est:.3g} (upper bound {hi_est:.3g}) "
            f"exceeds max_points={max_points}"
        )

    sampler = SphereSampler(dim, seed)
    dot_thresh = 1.0 - 0.5 * eps * eps  # ||u-v|| >= eps  <=>  u.v <= 1 - eps^2/2
    cap = 1024
    pts = np.empty((cap, dim))
    size = 0
    rejections = 0

    def limit() -> int:
        return max(_MIN_TAIL_REJECTIONS, 200 * size)

    def accept(c: np.ndarray) -> None:
        nonlocal cap, pts, size, rejections
        if size == cap:
            cap *= 2
            pts = np.vstack([pts, np.empty((cap - size, dim))])
        pts[size] = c
        size += 1
        rejections = 0
        if size > max_points:
            raise ResourceError(
                f"net exceeded max_points={max_points} (volume bound {hi_est:.3g})"
            )

    while rejections < limit():
        batch = sampler.sample(_BATCH)
        base = size
        # vectorized pass/fail against the frozen prefix of the net (exact:
        # every point within eps of a candidate is in its band), then a
        # gap-walk over the passing candidates so the consecutive-rejection
        # accounting matches the sequential semantics exactly
        _, maxdot = _band_nearest(pts[:base], eps, batch)
        pass_idx = np.nonzero(maxdot <= dot_thresh)[0]
        cursor = 0
        stopped = False
        for i in pass_idx:
            gap = int(i) - cursor
            if rejections + gap >= limit():
                rejections = limit()
                stopped = True
                break
            rejections += gap
            cursor = int(i) + 1
            c = batch[i]
            if size > base and np.max(pts[base:size] @ c) > dot_thresh:
                rejections += 1  # blocked by a point accepted in this batch
            else:
                accept(c)
        if not stopped:
            rejections += _BATCH - cursor

    return EpsNet(dim=dim, eps=float(eps), points=pts[:size].copy(), seed=seed)


def assign_regions(net: EpsNet, probes: np.ndarray) -> np.ndarray:
    """Region index (nearest net point, ties to the lowest index) per probe row."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if probes.shape[1] != net.dim:
        raise DomainError("probe dimension does not match net dimension")
    eps2 = net.eps * net.eps
    out = np.empty(probes.shape[0], dtype=np.int64)
    for start in range(0, probes.shape[0], _BATCH):
        block = probes[start : start + _BATCH]
        index, dot = _band_nearest(net.points, net.eps, block)
        # ||p - u||^2 = ||p||^2 + 1 - 2 p.u for unit u; the band is exact only
        # for probes within eps of some net point, so rescan the others
        far = np.einsum("ij,ij->i", block, block) + 1.0 - 2.0 * dot > eps2
        if np.any(far):
            index[far] = np.argmax(block[far] @ net.points.T, axis=1)
        out[start : start + block.shape[0]] = index
    return out


def nearest_point(net: EpsNet, a: np.ndarray) -> int:
    """Index of the net point closest to `a` (ties broken by lowest index)."""
    return int(assign_regions(net, np.asarray(a, dtype=float)[None, :])[0])


# ----------------------------------------------------------------------
# Monte Carlo estimators
# ----------------------------------------------------------------------

def mc_mean_and_sem(
    samples: int, draw: Callable[[int], np.ndarray]
) -> Tuple[float, float]:
    """Mean and standard error of `samples` values, drawn by `draw(b)` in batches."""
    total = total_sq = 0.0
    done = 0
    while done < samples:
        b = min(_BATCH, samples - done)
        vals = draw(b)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def partial_norm_expectation(
    n: int, k: int, samples: int, sampler: SphereSampler
) -> Tuple[float, float]:
    """MC estimate of E[(a_1^2 + ... + a_k^2)^(1/2)] for uniform a on S^(n-1)."""
    if not (1 <= k <= n):
        raise DomainError("need 1 <= k <= n")
    if sampler.dim != n:
        raise DomainError("sampler dimension mismatch")
    if samples < 1000:
        raise DomainError("samples must be >= 1000")
    return mc_mean_and_sem(
        samples, lambda b: np.linalg.norm(sampler.sample(b)[:, :k], axis=1)
    )


def dot_squared_expectation(
    n: int, samples: int, sampler: SphereSampler
) -> Tuple[float, float]:
    """MC estimate of E[(a.b)^2] for independent uniform a, b on S^(n-1)."""
    if sampler.dim != n:
        raise DomainError("sampler dimension mismatch")
    if samples < 1000:
        raise DomainError("samples must be >= 1000")

    def draw(b: int) -> np.ndarray:
        pair = sampler.sample(2 * b)
        return np.einsum("ij,ij->i", pair[:b], pair[b:]) ** 2

    return mc_mean_and_sem(samples, draw)


@dataclass(frozen=True)
class RegionMoments:
    """Per-region weights and first vector moments of the uniform measure.

    weights[u]        ~ mu_u   = measure of the Voronoi region of net point u
    moment_vectors[u] ~ w_u    = integral of the identity map over that region
    standard_errors[u]         = MC standard error of w_u (all coordinates
                                 combined: sqrt((mu_u - ||w_u||^2) / N))
    empty_regions              = indices that received zero samples; their
                                 moment is zero with infinite relative error.
    """

    net: EpsNet
    weights: np.ndarray
    moment_vectors: np.ndarray
    samples_used: int
    standard_errors: np.ndarray
    empty_regions: np.ndarray


def region_moments(net: EpsNet, samples: int, sampler: SphereSampler) -> RegionMoments:
    """Estimate region weights and vector moments from `samples` uniform points."""
    if sampler.dim != net.dim:
        raise DomainError("sampler dimension mismatch")
    if samples < 100 * net.size:
        raise DomainError("samples must be >= 100 * net size")
    counts = np.zeros(net.size, dtype=np.int64)
    sums = np.zeros((net.size, net.dim))
    done = 0
    while done < samples:
        b = min(_BATCH, samples - done)
        pts = sampler.sample(b)
        idx = assign_regions(net, pts)
        counts += np.bincount(idx, minlength=net.size)
        for c in range(net.dim):
            sums[:, c] += np.bincount(idx, weights=pts[:, c], minlength=net.size)
        done += b
    weights = counts / float(samples)
    moments = sums / float(samples)
    norms_sq = np.einsum("ij,ij->i", moments, moments)
    std_err = np.sqrt(np.maximum(weights - norms_sq, 0.0) / samples)
    return RegionMoments(
        net=net,
        weights=weights,
        moment_vectors=moments,
        samples_used=int(samples),
        standard_errors=std_err,
        empty_regions=np.nonzero(counts == 0)[0],
    )


# ----------------------------------------------------------------------
# serialization: CSV points + JSON header
# ----------------------------------------------------------------------

def save_net(net: EpsNet, csv_path: str, header_path: Optional[str] = None,
             extra_header: Optional[dict] = None) -> None:
    """Write points as CSV (full decimal precision) plus a JSON header."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in net.points:
            writer.writerow([repr(float(x)) for x in row])
    header = {
        "schema": 1,
        "kind": "eps_net",
        "dim": net.dim,
        "eps": net.eps,
        "seed": net.seed,
        "size": net.size,
        **(extra_header or {}),
    }
    if header_path is None:
        header_path = csv_path.rsplit(".", 1)[0] + ".json"
    with open(header_path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")


def load_net(csv_path: str, header_path: Optional[str] = None) -> EpsNet:
    if header_path is None:
        header_path = csv_path.rsplit(".", 1)[0] + ".json"
    with open(header_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    pts = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    if pts.shape != (header["size"], header["dim"]):
        raise DomainError("net CSV does not match its header")
    return EpsNet(dim=int(header["dim"]), eps=float(header["eps"]),
                  points=pts, seed=int(header["seed"]))
