"""Uniform sphere sampling, eps-nets, Voronoi regions and their moments.

Two nets are built here.  On S^2 the geodesic net is a certified covering: the
20 faces of an icosahedron are each subdivided k times and projected onto the
sphere, one face-grid table (`_face_index`) numbers its points, and its
covering radius is computed from the small triangles, not sampled.  Those
triangles are its Delaunay triangulation, so the weights and vector moments of
its Voronoi regions have closed forms (`voronoi_moments`); on any other net
they are Monte Carlo estimates (`region_moments`).  It is not built as an
eps-packing: nearest neighbours sit 1.17 to 1.73 covering radii apart
(measured for k up to 191).  In other dimensions the net is a randomized
greedy eps-packing: candidates are streamed from a seeded sampler and accepted
whenever they sit at distance at least eps from every accepted point, until
200 x (net size) consecutive rejections.  The convex hull of those points,
computed once by gift-wrapping, then gives every empty cap: the centers of
the caps wider than eps are inserted into the hull until none is, so the net
is both an eps-packing and a certified eps-covering, and its covering radius
is the widest cap's.  A hull past a fixed memory bound (in practice from dim 9
on) ends the fill, and the net is then an eps-packing whose covering radius is
not known.

Every nearest-point query, on a net of any size, goes through one z-band
scan: any point within eps of a probe has its last coordinate within eps of
the probe's, so sorting the net by last coordinate limits each probe to a
band of rows.  A net is sorted once, on first use (`EpsNet.z_order`).
Region assignment rescans the whole net only for probes farther than eps
from every net point.

The greedy build needs only whether a candidate's largest dot product with the
net exceeds 1 - eps^2/2, not which point attains it.  Up to 256 net points
it answers that with a float32 product on the raw Gaussian draws g, before
they are normalized, in column blocks of 1024 candidates so each block's
product stays in cache: float32 rounding moves p.g by at most about
(dim + 2) 2^-24 ||g||, so every candidate whose float32 maximum lies farther
than 2 (dim + 2) 2^-24 ||g|| from the threshold times ||g|| is decided as
float64 would decide its normalized draw, and only the candidates inside
that margin are normalized and re-decided in float64.  Candidates that pass
are normalized with the sampler's own expression and walked in stream
order: each accepted one drops, with one matrix-vector product, the later
passing candidates it surely blocks, and the survivors are re-checked in
float64 against the points accepted in the batch, so the Python loop runs
once per accepted point.  The random phase stays bit-identical to a float64
build that tests one candidate at a time.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DomainError, NumericalIntegrityError, ResourceError
from .seeding import make_rng

__all__ = [
    "SphereSampler",
    "EpsNet",
    "RegionMoments",
    "sample_uniform",
    "build_eps_net",
    "geodesic_net",
    "geodesic_radius",
    "geodesic_frequency",
    "nearest_point",
    "assign_regions",
    "partial_norm_expectation",
    "dot_squared_expectation",
    "region_moments",
    "voronoi_moments",
    "save_net",
    "load_net",
]

_BATCH = 8192
MIN_SAMPLES_PER_REGION = 100
# the greedy build tests candidates with the float32 max-dot screen while its
# net has at most this many rows: up to here one float32 product over the
# whole net beats the sort and per-band float64 products of the z-band scan
_SCREEN_ROWS = 256
# the screen's float32 product runs over this many candidates at a time, so
# one block's product (at most 256 x 1024 floats, 1 MB) stays in cache
_SCREEN_BLOCK = 1024
# the random phase of the greedy build stops after this many consecutive
# rejections per net point; the hull then fills what it left uncovered
_REJECTIONS_PER_POINT = 200
# the hull's per-chunk products hold at most about this many float64 values
_HULL_CHUNK = 1 << 18
# the hull gives up past this many facets x dim^2, about the entries of its
# ridge rows: the peaks measured at dims 5 to 9 were 11 to 14 bytes per
# facet x dim^2, so it stays under about 240 MB
_HULL_MAX_FACET_DIMS2 = 1 << 24
# float32 screen margin per unit of (dim + 2), relative to the norm of a raw
# candidate g: rounding a unit row p and g to float32 and summing their dim
# products in float32, in any order, errs by at most gamma_(dim+2) sum |p_i g_i|
# <= (dim+2) 2^-24 ||g|| / (1 - (dim+2) 2^-24) (Cauchy-Schwarz), which stays
# below (4/3) (dim+2) 2^-24 ||g|| while dim < 4e6.  The float64 decision on
# u = fl(g / ||g||) errs from p.g / ||g|| by at most about (dim/2 + 2) 2^-53
# (the norm and the division) plus dim 2^-53 (the dot), and the scaled
# thresholds (thresh -+ margin) ||g|| by about (dim/2 + 3) 2^-53 ||g||: all of
# it fits in the remaining (2/3) (dim+2) 2^-24 ||g||.  So a float32 max dot
# farther than 2 (dim+2) 2^-24 ||g|| from thresh ||g|| is on the same side as
# the float64 one.  Float32 underflow adds at most 3 (dim+2) 2^-150 in
# absolute terms; _F32_TINY covers it, and every row shorter than 2^-101
# falls inside the widened margin and is re-decided in float64.
_F32_MARGIN_UNIT = 2.0 ** -23
_F32_TINY = 2.0 ** -100


def _unit_rows(g: np.ndarray) -> np.ndarray:
    """Rows of `g` divided by their norms: the sampler's one normalization."""
    return g / np.linalg.norm(g, axis=1)[:, None]


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
        return _unit_rows(self._draw(count))

    def _draw(self, count: int) -> np.ndarray:
        """(count, dim) standard normal rows; a row whose norm computes to 0
        is drawn again.

        `sample` normalizes these rows; the greedy build screens them raw and
        normalizes only the candidates it needs.
        """
        g = self._rng.standard_normal((count, self.dim))
        # a row's norm rounds to 0 only if every entry squares to 0, which
        # needs |entry| < 2^-537; skip the row norms when no entry is that small
        if np.abs(g).min(initial=np.inf) >= 2.0 ** -500:
            return g
        norms = np.linalg.norm(g, axis=1)
        # exact-zero norm is a measure-zero event; resample defensively
        while np.any(norms == 0.0):
            bad = norms == 0.0
            g[bad] = self._rng.standard_normal((int(bad.sum()), self.dim))
            norms = np.linalg.norm(g, axis=1)
        return g


def sample_uniform(sampler: SphereSampler) -> np.ndarray:
    """Next uniform unit vector from the sampler's stream."""
    return sampler.sample(1)[0]


# ----------------------------------------------------------------------
# eps-nets
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EpsNet:
    """A finite point set on S^(dim-1) that discretizes the sphere.

    Every point of the sphere lies within `covering_radius`, a computed
    chord length, of a net point.  A greedy net (`build_eps_net`) is also an
    eps-packing, any two points at least eps apart, and its covering radius
    is <= eps, or None where its hull passed the memory bound.  A geodesic
    net (`geodesic_net`) is not an eps-packing, and `eps` equals its
    covering radius.  A net loaded from a header without the key has
    `covering_radius` None: it is not known to cover either.

    `triangles` holds a geodesic net's Delaunay triangulation, rows of
    point indices counterclockwise seen from outside the sphere, from which
    `voronoi_moments` integrates exactly; it is None for greedy and loaded
    nets.  `z_order`, the rows by ascending last coordinate, is computed on
    first use and kept, so every nearest-point query on the net shares one
    sort.
    """

    dim: int
    eps: float
    points: np.ndarray  # (size, dim)
    seed: int
    covering_radius: Optional[float] = None
    triangles: Optional[np.ndarray] = field(default=None, repr=False)  # (count, 3)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @functools.cached_property
    def z_order(self) -> np.ndarray:
        return np.argsort(self.points[:, -1], kind="stable")


def _band_nearest(
    points: np.ndarray,
    eps: float,
    probes: np.ndarray,
    order: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest row of `points` to each probe within the probe's z-band.

    A probe's band holds the rows whose last coordinate lies within eps of the
    probe's eps-bucket, so it contains every row within distance eps of the
    probe.  Returns (index, dot): the largest dot product with the probe over
    the band, ties to the lowest row index, and dot = -inf where the band is
    empty.  `order` is the stable argsort of the last coordinate (a net's
    `z_order`); it is computed here when omitted, as for the build's growing
    net and the screen's float64 re-decision.  Probes are grouped by bucket with one stable sort, so each group
    keeps ascending probe order.
    """
    count = probes.shape[0]
    index = np.zeros(count, dtype=np.int64)
    dot = np.full(count, -np.inf)
    if points.shape[0] == 0 or count == 0:
        return index, dot
    if order is None:
        order = np.argsort(points[:, -1], kind="stable")
    z = points[order, -1]
    buckets = np.floor(probes[:, -1] / eps).astype(np.int64)
    by_bucket = np.argsort(buckets, kind="stable")
    starts = np.flatnonzero(np.diff(buckets[by_bucket])) + 1
    for sel in np.split(by_bucket, starts):
        b = buckets[sel[0]]
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


def _screen_max_dot(
    rows: np.ndarray,
    rows32: np.ndarray,
    eps: float,
    raw: np.ndarray,
    prod: np.ndarray,
    top: np.ndarray,
) -> np.ndarray:
    """Mask of the raw candidates g whose normalized largest dot with `rows`
    is <= 1 - eps^2/2.

    `rows` are unit vectors and `rows32` their float32 copy; `raw` holds
    unnormalized candidates with entries far below 2^64 in magnitude, as
    Gaussian draws are.  Their float32 product goes, _SCREEN_BLOCK
    candidates at a time, into `prod` (at least rows x _SCREEN_BLOCK), and
    its column maxima into `top` (one per candidate).  A maximum farther
    than _F32_MARGIN_UNIT (dim + 2) ||g|| + _F32_TINY from thresh ||g||
    decides its candidate; the others are normalized with `_unit_rows` and
    re-decided by `_band_nearest` in float64, so the mask is the float64
    decision on the normalized candidates.
    """
    r, count = rows.shape[0], raw.shape[0]
    if r == 0:
        return np.ones(count, dtype=bool)
    thresh = 1.0 - 0.5 * eps * eps
    margin = _F32_MARGIN_UNIT * (rows.shape[1] + 2)
    cols = np.ascontiguousarray(raw.T)
    norm = np.sqrt(np.einsum("ij,ij->j", cols, cols))
    cols32 = cols.astype(np.float32)
    for start in range(0, count, _SCREEN_BLOCK):
        stop = min(start + _SCREEN_BLOCK, count)
        block = prod[:r, : stop - start]
        np.matmul(rows32, cols32[:, start:stop], out=block)
        np.max(block, axis=0, out=top[start:stop])
    passed = top < norm * (thresh - margin) - _F32_TINY
    unsure = np.nonzero(~passed & (top <= norm * (thresh + margin) + _F32_TINY))[0]
    if unsure.size:
        _, dot = _band_nearest(rows, eps, _unit_rows(raw[unsure]))
        passed[unsure] = dot <= thresh
    return passed


def _projected_size_bounds(dim: int, eps: float) -> Tuple[float, float]:
    # crude covering lower bound and the volume-argument upper bound (3/eps)^dim
    lo = (1.0 / (3.0 * eps)) ** max(dim - 1, 0)
    hi = (3.0 / eps) ** dim
    return lo, hi


def _greedy_packing(dim: int, eps: float, seed: int, max_points: int) -> np.ndarray:
    """The random phase of `build_eps_net`: a greedy eps-packing of
    S^(dim-1) from seeded candidates, stopped after _REJECTIONS_PER_POINT x
    (current size) consecutive rejections.

    Each batch of candidates is tested against the net as it stood before
    the batch: by the float32 screen `_screen_max_dot` on the raw Gaussian
    draws, in blocks of 1024 candidates (float64 re-decision within
    2 (dim + 2) 2^-24 ||g|| of the threshold), while the net has at most 256
    points, by the float64 z-band scan after that; either way the decision
    is the float64 one on the normalized draw.  The passing candidates are
    then taken in stream order: each accepted one drops the later ones
    whose float64 dot with it exceeds the threshold by more than rounding
    can explain, and every survivor is re-checked against the points
    accepted in the batch.  Dropped candidates count as rejections in
    place, so the points and the stopping point equal those of a
    one-candidate-at-a-time build.  Raises ResourceError when the net would
    exceed max_points.
    """
    sampler = SphereSampler(dim, seed)
    dot_thresh = 1.0 - 0.5 * eps * eps  # ||u-v|| >= eps  <=>  u.v <= 1 - eps^2/2
    # a float64 dot of two unit vectors errs by at most about dim 2^-53 however
    # it is summed, so a dot above this exceeds dot_thresh in any evaluation
    drop_thresh = dot_thresh + 4 * (dim + 2) * 2.0 ** -53
    cap = 1024
    pts = np.empty((cap, dim))
    # screen buffers, allocated once: the float32 copy of the net's first
    # _SCREEN_ROWS rows, kept as they are accepted, and one block's product
    pts32 = np.empty((_SCREEN_ROWS, dim), dtype=np.float32)
    prod = np.empty((_SCREEN_ROWS, _SCREEN_BLOCK), dtype=np.float32)
    top = np.empty(_BATCH, dtype=np.float32)
    size = 0
    rejections = 0

    def limit() -> int:
        # max(size, 1): an empty net must still draw its first point
        return _REJECTIONS_PER_POINT * max(size, 1)

    def accept(c: np.ndarray) -> None:
        nonlocal cap, pts, size, rejections
        if size == cap:
            cap *= 2
            pts = np.vstack([pts, np.empty((cap - size, dim))])
        pts[size] = c
        if size < _SCREEN_ROWS:
            pts32[size] = c
        size += 1
        rejections = 0
        if size > max_points:
            raise ResourceError(f"net exceeded max_points={max_points}")

    while rejections < limit():
        raw = sampler._draw(_BATCH)
        base = size
        # vectorized pass/fail against the frozen prefix of the net (exact:
        # the screen re-decides in float64 near the threshold, and every
        # point within eps of a candidate is in its band)
        if base <= _SCREEN_ROWS:
            pass_idx = np.nonzero(
                _screen_max_dot(pts[:base], pts32[:base], eps, raw, prod, top))[0]
            cand = _unit_rows(raw[pass_idx])
        else:
            batch = _unit_rows(raw)
            pass_idx = np.nonzero(_band_nearest(pts[:base], eps, batch)[1] <= dot_thresh)[0]
            cand = batch[pass_idx]
        # in-batch greedy: each accept drops the later passing candidates
        # that it surely blocks, and the survivors are re-checked against the
        # points accepted in this batch as a one-at-a-time build would; a
        # dropped candidate counts as a rejection inside the gap before the
        # next survivor, so the consecutive-rejection accounting (and a stop
        # inside the batch) matches the sequential semantics exactly
        live = np.ones(pass_idx.size, dtype=bool)
        j = 0
        cursor = 0
        stopped = False
        while j < pass_idx.size:
            j += int(np.argmax(live[j:]))
            if not live[j]:
                break
            i = int(pass_idx[j])
            gap = i - cursor
            if rejections + gap >= limit():
                rejections = limit()
                stopped = True
                break
            rejections += gap
            cursor = i + 1
            c = cand[j]
            j += 1
            if size > base and np.max(pts[base:size] @ c) > dot_thresh:
                rejections += 1  # blocked by a point accepted in this batch
            else:
                accept(c)
                if j < pass_idx.size:
                    live[j:] &= cand[j:] @ c <= drop_thresh
        if not stopped:
            rejections += _BATCH - cursor

    return pts[:size].copy()


def _first_facet(points: np.ndarray) -> np.ndarray:
    """Sorted vertex indices of one facet of the convex hull of `points`.

    The tangent plane x.m = 1 at point 0 (m = point 0) supports the hull.
    Each step turns the plane about the points it holds, along a direction
    v orthogonal to them, until it meets the next point q at
    t_q = (1 - q.m) / (q.v), the smallest over q with q.v > 0, and holds q
    too; after dim - 1 steps it holds a facet.  v is the component,
    orthogonal to the held points, of the point with the largest such
    component, so that point moves toward the plane and some q is met.
    """
    held = [0]
    m = points[0]
    basis = np.empty((0, points.shape[1]))  # orthonormal rows spanning the held points
    for _ in range(points.shape[1] - 1):
        w = points[held[-1]] - (basis @ points[held[-1]]) @ basis
        basis = np.vstack([basis, w / np.linalg.norm(w)])
        resid = points - (points @ basis.T) @ basis
        v = resid[int(np.argmax(np.einsum("ij,ij->i", resid, resid)))]
        rate = points @ v
        rate[held] = 0.0
        t = np.full(points.shape[0], np.inf)
        np.divide(1.0 - points @ m, rate, out=t, where=rate > 0.0)
        q = int(np.argmin(t))
        if not np.isfinite(t[q]):
            raise NumericalIntegrityError("the net lies in a hemisphere: its hull misses the origin")
        m = m + t[q] * v
        held.append(q)
    return np.sort(held)


def _facet_planes(
    points: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(inv, m, gap, allowance) of the facets `rows` (sorted vertex indices).

    With V a facet's vertex rows, inv = V^-1 (vertex i . inv[:, j] =
    delta_ij) and m = V^-1 1 is its plane x.m = 1; gap[f, q] = 1 - q.m_f is
    >= 0 for the points q under plane f.  The allowance is a gap's rounding:
    the computed plane misses the vertices by their computed gaps plus the
    dot's rounding, about dim 2^-53 ||m||, so a point that lies on the exact
    plane computes within twice that.  Raises NumericalIntegrityError when
    some point lies above a plane by more than its allowance (the facet is
    not a hull facet).
    """
    dim = points.shape[1]
    inv = np.linalg.inv(points[rows])
    m = inv.sum(axis=2)  # vertex . m = 1 for each vertex
    gap = 1.0 - m @ points.T  # (facets, points)
    resid = np.abs(np.take_along_axis(gap, rows, axis=1)).max(axis=1)
    allowance = 2.0 * resid + 4 * (dim + 2) * 2.0 ** -53 * np.linalg.norm(m, axis=1)
    if np.any(gap < -allowance[:, None]):
        worst = float(np.max(-gap / allowance[:, None]))
        raise NumericalIntegrityError(
            f"a net point lies above a hull facet by {worst:.3g} rounding allowances"
        )
    return inv, m, gap, allowance


def _wrap_ridges(
    points: np.ndarray, level: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planes and neighbours of the facets `level` (rows of vertex indices).

    Returns (m, allowance, met): each facet's plane x.m = 1 and its rounding
    allowance (`_facet_planes`), and for each vertex j the point met by
    turning that plane about the ridge opposite j, away from vertex j.
    With V the facet's vertex rows, column j of V^-1 is orthogonal to every
    vertex but j, so v = -(V^-1)[:, j] turns the plane off vertex j; the
    point met is the one of least t_q = (1 - q.m) / (q.v), q.v > 0.  The t_q
    are laid out as (facets, dim, points), so each least one is taken along
    a contiguous axis, and facets are taken _HULL_CHUNK / (points x dim) at
    a time.
    Raises NumericalIntegrityError when some point lies above a facet plane
    by more than rounding or when no point is met (the points lie in a
    closed hemisphere).
    """
    size, dim = points.shape
    m = np.empty(level.shape)
    allowance = np.empty(level.shape[0])
    met = np.empty(level.shape, dtype=np.int64)
    step = max(1, _HULL_CHUNK // (size * dim))
    for start in range(0, level.shape[0], step):
        part = slice(start, start + step)
        rows = level[part]
        count = rows.shape[0]
        inv, m[part], gap, allowance[part] = _facet_planes(points, rows)
        # rate[f, j, q] = q . (V_f^-1)[:, j] = -q.v, so t_q = -gap / rate
        rate = (inv.transpose(0, 2, 1).reshape(-1, dim) @ points.T).reshape(count, dim, size)
        t = np.full(rate.shape, np.inf)
        np.divide(-gap[:, None, :], rate, out=t, where=rate < 0.0)
        t[np.arange(count)[:, None], :, rows] = np.inf  # the facet's own vertices
        met[part] = np.argmin(t, axis=2)
        if not np.all(np.isfinite(np.take_along_axis(t, met[part][:, :, None], axis=2))):
            raise NumericalIntegrityError(
                "the net lies in a closed hemisphere: its hull misses the origin"
            )
    return m, allowance, met


def _distinct_rows(rows: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """(first, counts) over the distinct rows of `rows`, entries in
    range(size): the index of each one's first occurrence and its number of
    occurrences.  The entries are packed, as many as fit in 64 bits, into
    uint64 keys; one key is argsorted (an unstable sort, several times
    faster than a stable one), several are lexsorted."""
    bits = max(1, (size - 1).bit_length())
    per = 64 // bits
    entries = rows.astype(np.uint64)
    keys = []
    for c in range(0, rows.shape[1], per):
        key = entries[:, c].copy()
        for column in entries[:, c + 1:c + per].T:
            key <<= np.uint64(bits)
            key |= column
        keys.append(key)
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    new = np.zeros(rows.shape[0], dtype=bool)
    new[:1] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new)
    return np.minimum.reduceat(order, starts), np.diff(starts, append=rows.shape[0])


def _ridges(facets: np.ndarray) -> np.ndarray:
    """Every ridge of the facets, as sorted index rows: the rows of `facets`
    less one entry, for each entry in turn."""
    return np.concatenate([np.delete(facets, j, axis=1) for j in range(facets.shape[1])])


class _Hull(NamedTuple):
    """The facets of a convex hull of unit rows: each facet's sorted vertex
    indices, its plane x.m = 1 and that plane's rounding allowance
    (`_facet_planes`)."""

    facets: np.ndarray
    planes: np.ndarray
    allowances: np.ndarray


def _caps(points: np.ndarray, hull: _Hull) -> Tuple[np.ndarray, np.ndarray]:
    """(centers, radii) of the hull's facets: the center m / ||m|| of each
    facet's cap and the cap's chord radius, the largest chord from that
    center to the facet's vertices."""
    centers = _unit_rows(hull.planes)
    radii = np.max([np.linalg.norm(points[v] - centers, axis=1) for v in hull.facets.T], axis=0)
    return centers, radii


def _check_ridges(facets: np.ndarray, size: int) -> None:
    """NumericalIntegrityError unless every ridge lies in exactly two facets."""
    counts = _distinct_rows(_ridges(facets), size)[1]
    if np.any(counts != 2):
        raise NumericalIntegrityError(
            f"hull ridges lie in {sorted(set(counts.tolist()) - {2})} facets, not two"
        )


def _hull_caps(points: np.ndarray) -> Optional[_Hull]:
    """Convex hull of the unit rows `points` (dim >= 2) by gift-wrapping:
    its facets, their planes and the planes' rounding allowances (`_Hull`),
    from which `_caps` gives each facet's empty cap.

    The facets are found breadth-first from `_first_facet`: the neighbours
    across a level's ridges (`_wrap_ridges`), less the facets of that level
    and the one before, form the next level, deduplicated with
    `_distinct_rows` over their sorted index rows.

    Every facet of a convex hull of points on the sphere is an empty cap
    (no point lies above its plane), and the facets' caps cover the
    sphere, so the widest cap's radius is the covering radius of the
    points.  Both
    properties are checked: every point lies under every facet plane up to
    rounding, and every ridge lies in exactly two facets, else
    NumericalIntegrityError.  Returns None, before wrapping the level that
    would take it there, when facets x dim^2 would pass _HULL_MAX_FACET_DIMS2.
    """
    size, dim = points.shape
    prev = np.empty((0, dim), dtype=np.int32)
    level = _first_facet(points).astype(np.int32)[None]
    facets, planes, allowances = [], [], []
    found = 0
    while level.shape[0]:
        found += level.shape[0]
        if found * dim * dim > _HULL_MAX_FACET_DIMS2:
            return None
        m, allowance, met = _wrap_ridges(points, level)
        facets.append(level)
        planes.append(m)
        allowances.append(allowance)
        # the facet across ridge j of each facet of the level: vertex j
        # swapped for met[:, j]; a candidate that is not a row of prev or
        # level, taken once, is a new facet
        across = np.repeat(level[None], dim, axis=0)
        across[np.arange(dim), :, np.arange(dim)] = met.T
        across.sort(axis=2)
        rows = np.concatenate([prev, level, across.reshape(-1, dim)])
        first = _distinct_rows(rows, size)[0]
        prev, level = level, rows[np.sort(first[first >= prev.shape[0] + level.shape[0]])]
    facets = np.concatenate(facets)
    _check_ridges(facets, size)
    return _Hull(facets, np.concatenate(planes), np.concatenate(allowances))


def _insert_last(points: np.ndarray, hull: _Hull) -> _Hull:
    """The hull of `points` from `hull`, the hull of all its rows but the
    last, p, by beneath-beyond insertion.

    The facets whose planes p lies above (p.m > 1) are deleted, and p is
    joined to their horizon, the ridges that lie in exactly one deleted
    facet: each such ridge and p span a new facet, whose plane comes from
    the inverse of its vertex rows and is checked against every point
    (`_facet_planes`).  Raises NumericalIntegrityError when p lies within
    its rounding allowance of some facet's plane, where the side of p is
    not decided, or under every plane.
    """
    size = points.shape[0]
    gap = 1.0 - hull.planes @ points[-1]
    if np.any(np.abs(gap) <= hull.allowances):
        raise NumericalIntegrityError("an added point lies on a hull facet plane up to rounding")
    seen = gap < 0.0
    if not np.any(seen):
        raise NumericalIntegrityError("an added point lies inside the hull")
    ridges = _ridges(hull.facets[seen])
    first, counts = _distinct_rows(ridges, size)
    horizon = ridges[first[counts == 1]]
    rows = np.column_stack([horizon, np.full(horizon.shape[0], size - 1, dtype=horizon.dtype)])
    _, m, _, allowance = _facet_planes(points, rows)
    kept = ~seen
    return _Hull(np.concatenate([hull.facets[kept], rows]),
                 np.concatenate([hull.planes[kept], m]),
                 np.concatenate([hull.allowances[kept], allowance]))


def _fill_caps(
    points: np.ndarray, eps: float, max_points: int
) -> Tuple[np.ndarray, Optional[float]]:
    """Add points to the eps-packing `points` until it is an eps-covering;
    returns the points and their covering radius.

    The hull of the random phase's points is wrapped once (`_hull_caps`).
    Each pass then takes the centers of the caps wider than eps, widest
    first, skipping a center within eps of one taken in the same pass, and
    inserts them into the hull one at a time (`_insert_last`).  A cap is
    empty, so its center lies at least its width, more than eps, from every
    net point: the net stays an eps-packing, which the float64 test of the
    random phase confirms for each added center.  Once no cap is wider than
    eps, the hull's ridges are checked and the widest cap's width is the
    covering radius.  A hull past its memory bound (in practice from dim 9
    on), the random phase's or one after a pass, ends the fill: the points
    added so far are returned, still an eps-packing, with radius None.  On
    S^0 the net holds both points and the radius is 0.
    """
    dim = points.shape[1]
    if dim == 1:
        if points.shape[0] == 1:
            points = np.vstack([points, -points])
        return points, 0.0
    thresh = 1.0 - 0.5 * eps * eps
    hull = _hull_caps(points)
    while hull is not None:
        centers, radii = _caps(points, hull)
        order = np.argsort(-radii, kind="stable")
        wide = centers[order[radii[order] > eps]]
        if wide.shape[0] == 0:
            _check_ridges(hull.facets, points.shape[0])
            return points, float(radii.max())
        live = _band_nearest(points, eps, wide)[1] <= thresh
        added = []
        for j in np.nonzero(live)[0]:
            if live[j]:
                added.append(j)
                live[j + 1:] &= wide[j + 1:] @ wide[j] <= thresh
        if not added:
            raise NumericalIntegrityError(
                f"no center of the {wide.shape[0]} caps wider than eps is eps from the net"
            )
        size = points.shape[0]
        points = np.vstack([points, wide[added]])
        if points.shape[0] > max_points:
            raise ResourceError(f"net exceeded max_points={max_points}")
        for end in range(size + 1, points.shape[0] + 1):
            hull = _insert_last(points[:end], hull)
        if hull.facets.shape[0] * dim * dim > _HULL_MAX_FACET_DIMS2:
            break
    return points, None


def build_eps_net(
    dim: int,
    eps: float,
    seed: int = 0,
    max_points: int = 1_000_000,
) -> EpsNet:
    """Greedy eps-packing of S^(dim-1) that is also a certified eps-covering.

    The random phase (`_greedy_packing`) accepts seeded candidates at
    distance >= eps from every accepted point until 200 x (current size)
    consecutive rejections.  The fill (`_fill_caps`) then wraps the convex
    hull of the points once, whose facets are the empty caps, and inserts
    the centers of the caps wider than eps into it until none is.  The net's
    `covering_radius` is the widest cap's chord radius, computed, and
    <= eps; it is None, the net an eps-packing only, when a hull passes
    its memory bound, which at the usual eps happens from dim 9 on.
    Raises ResourceError when the net would exceed max_points; the
    volume bound (3/eps)^dim caps the attainable size.
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
    points = _greedy_packing(dim, eps, seed, max_points)
    points, rho = _fill_caps(points, eps, max_points)
    return EpsNet(dim=dim, eps=float(eps), points=points, seed=seed, covering_radius=rho)


# icosahedron: the 12 cyclic permutations of (0, +-1, +-phi)
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_RAW = np.array(
    [p for a in (-1.0, 1.0) for b in (-_PHI, _PHI)
     for p in ((0.0, a, b), (a, b, 0.0), (b, 0.0, a))]
)
_ICO_ADJ = ((_ICO_RAW[:, None] - _ICO_RAW[None]) ** 2).sum(axis=2) < 5.0
np.fill_diagonal(_ICO_ADJ, False)  # neighbours at squared distance 4, others >= 10.4
_ICO_VERTS = _ICO_RAW / np.linalg.norm(_ICO_RAW, axis=1)[:, None]
_ICO_EDGES = np.argwhere(np.triu(_ICO_ADJ))  # (30, 2), i < j
# the 20 faces, each as its vertex indices i < j < l
_ICO_FACES = np.array([
    (i, j, l)
    for i, j in _ICO_EDGES
    for l in np.nonzero(_ICO_ADJ[i] & _ICO_ADJ[j])[0]
    if l > j
])
# faces whose vertex order (i, j, l) runs clockwise seen from outside
_ICO_INWARD = np.linalg.det(_ICO_VERTS[_ICO_FACES]) < 0.0


def _grid(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Barycentric grid (i, j), i + j <= k, of a face subdivided k times, in
    row-major order: weight i on the face's second vertex, j on its third
    and k - i - j on its first."""
    r = np.arange(k + 1)
    return np.nonzero(np.add.outer(r, r) <= k)


def _small_triangles(k: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """A face grid's k^2 triangles as three (i, j) corner arrays, each the same
    way round as the face: (i, j), (i+1, j), (i, j+1), then the down
    triangles (i+1, j), (i+1, j+1), (i, j+1)."""
    i, j = _grid(k)
    up, dn = i + j < k, i + j < k - 1
    i, j = np.concatenate([i[up], i[dn]]), np.concatenate([j[up], j[dn]])
    down = np.arange(i.size) >= np.count_nonzero(up)
    return [(i + down, j), (i + 1, j + down), (i, j + 1)]


def _circumcenters(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Spherical circumcenters of the counterclockwise triangles (a, b, c)."""
    return _unit_rows(np.cross(b - a, c - a))


def _project(i: np.ndarray, j: np.ndarray, k: int, corners: np.ndarray) -> np.ndarray:
    """Grid points (i, j) / k of the flat triangles `corners` (F, 3, 3),
    projected onto S^2: an (F, len(i), 3) array."""
    weights = np.stack([k - i - j, i, j], axis=1) / k
    flat = np.einsum("pc,fcx->fpx", weights, corners)
    return flat / np.linalg.norm(flat, axis=2, keepdims=True)


@functools.lru_cache(maxsize=None)
def geodesic_radius(k: int) -> float:
    """Covering radius (chord) of the frequency-k geodesic net.

    Each small triangle lies in the cap around its circumcenter on the
    sphere that passes through its vertices: the flat triangle lies in the
    plane of that circle, and projecting outward onto the sphere moves a
    point deeper into the cap.  The triangles cover the sphere, so the
    largest chord from a circumcenter to its triangle's vertices bounds the
    covering radius; it equals it when the triangulation is Delaunay.  The
    icosahedron's rotations carry face 0 and its subdivision onto every
    face, so face 0's k^2 triangles give the value for all 20 k^2.
    """
    if k < 1:
        raise DomainError("geodesic frequency k must be >= 1")
    i, j = _grid(k)
    grid = np.zeros((k + 1, k + 1, 3))
    grid[i, j] = _project(i, j, k, _ICO_VERTS[_ICO_FACES[:1]])[0]
    a, b, c = (grid[ii, jj] for ii, jj in _small_triangles(k))
    center = _circumcenters(a, b, c) * (-1.0 if _ICO_INWARD[0] else 1.0)  # outward
    return float(max(np.linalg.norm(v - center, axis=1).max() for v in (a, b, c)))


def geodesic_frequency(eps: float, max_points: int) -> int:
    """Smallest frequency k whose geodesic net covers S^2 within chord eps.

    A cap of chord radius r has area pi r^2, so N caps cover the sphere only
    if N r^2 >= 4: no k with 10 k^2 + 2 < 4 / eps^2 can do, and the search
    starts there.  It doubles its step until a radius is <= eps, then
    bisects, since the radius falls strictly with k.  Raises ResourceError,
    before any net point is built, when the answer's net (10 k^2 + 2
    points) would exceed max_points.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    k = max(1, math.floor(math.sqrt(max(4.0 / (eps * eps) - 2.0, 0.0) / 10.0)))
    # the largest k whose net fits: 10 k^2 + 2 <= max_points
    k_max = math.isqrt(max(max_points - 2, 0) // 10)

    def too_large(k: int) -> ResourceError:
        return ResourceError(
            f"a geodesic net of covering radius {eps:g} needs at least "
            f"{10 * k * k + 2} points (k = {k}), which exceeds max_points={max_points}"
        )

    if k > k_max:
        raise too_large(k)
    lo, step = k - 1, 1  # every k <= lo fails the area bound
    while geodesic_radius(k) > eps:
        if k == k_max:
            raise too_large(k + 1)
        lo, k, step = k, min(k + step, k_max), 2 * step
    while k - lo > 1:
        mid = (lo + k) // 2
        if geodesic_radius(mid) <= eps:
            k = mid
        else:
            lo = mid
    return k


def _face_index(k: int) -> np.ndarray:
    """(20, k + 1, k + 1) net index of each face's grid point (i, j): the one
    numbering of `geodesic_net(k)`.  The 12 vertices come first, then k - 1
    points on each edge (p, q), p < q (point t has weight t / k on q), then
    each face's interior points in grid order."""
    # index of the point t = 1 of edge (p, q), p < q
    edge_start = np.zeros((12, 12), dtype=np.int64)
    edge_start[_ICO_EDGES[:, 0], _ICO_EDGES[:, 1]] = 12 + (k - 1) * np.arange(30)
    a, b, c = _ICO_FACES.T
    t = np.arange(1, k)
    i, j = _grid(k)
    inner = (i > 0) & (j > 0) & (i + j < k)
    i, j = i[inner], j[inner]
    index = np.zeros((20, k + 1, k + 1), dtype=np.int64)
    index[:, 0, 0], index[:, k, 0], index[:, 0, k] = a, b, c
    index[:, t, 0] = edge_start[a, b][:, None] + t - 1
    index[:, 0, t] = edge_start[a, c][:, None] + t - 1
    index[:, k - t, t] = edge_start[b, c][:, None] + t - 1
    index[:, i, j] = 12 + 30 * (k - 1) + np.arange(20 * i.size).reshape(20, i.size)
    return index


def geodesic_net(k: int, seed: int = 0) -> EpsNet:
    """Frequency-k icosahedral geodesic net on S^2, at a seeded rotation.

    Each of the 20 icosahedron faces is subdivided k times and its grid
    points are projected onto the sphere: N = 10 k^2 + 2 points, numbered by
    `_face_index`.  Faces sharing an edge project its points equally (their
    barycentric sums differ by exact zeros), and a face's corners project to
    the icosahedron's vertices bit for bit.
    The whole net is turned by the rotation of a uniform unit quaternion
    drawn from SphereSampler(4, seed), a Haar-random rotation, so the seed
    selects the net.  `covering_radius` and `eps` are `geodesic_radius(k)`;
    `triangles`, its Delaunay triangulation, are each face's
    `_small_triangles`, with two columns swapped on clockwise faces.
    """
    rho = geodesic_radius(k)
    index = _face_index(k)
    i, j = _grid(k)
    pts = np.empty((10 * k * k + 2, 3))
    pts[index[:, i, j]] = _project(i, j, k, _ICO_VERTS[_ICO_FACES])
    tri = np.stack([index[:, ii, jj] for ii, jj in _small_triangles(k)], axis=2)
    tri[_ICO_INWARD] = tri[_ICO_INWARD][:, :, [0, 2, 1]]
    w, x, y, z = SphereSampler(4, seed).sample(1)[0]
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    return EpsNet(dim=3, eps=rho, points=pts @ rot.T, seed=seed, covering_radius=rho,
                  triangles=tri.reshape(-1, 3))


def assign_regions(net: EpsNet, probes: np.ndarray) -> np.ndarray:
    """Region index (nearest net point, ties to the lowest index) per probe row.

    Each batch of probes takes the z-band scan over the net's cached
    `z_order`, so the net is sorted once however many batches it serves.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if probes.shape[1] != net.dim:
        raise DomainError("probe dimension does not match net dimension")
    eps2 = net.eps * net.eps
    out = np.empty(probes.shape[0], dtype=np.int64)
    for start in range(0, probes.shape[0], _BATCH):
        block = probes[start : start + _BATCH]
        index, dot = _band_nearest(net.points, net.eps, block, net.z_order)
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


@dataclass(frozen=True, eq=False)
class RegionMoments:
    """Per-region weights and first vector moments of the uniform measure.

    weights[u]        ~ mu_u   = measure of the Voronoi region of net point u
    moment_vectors[u] ~ w_u    = integral of the identity map over that region
    standard_errors[u]         = MC standard error of w_u (all coordinates
                                 combined: sqrt((mu_u - ||w_u||^2) / N))
    empty_regions              = indices that received zero samples; their
                                 moment is zero with infinite relative error.

    `region_moments` estimates them from N = samples_used uniform points.
    `voronoi_moments` computes them in closed form on a triangulated
    (geodesic) net: there samples_used is 0, every standard error is 0 and
    no region is empty.
    """

    net: EpsNet
    weights: np.ndarray
    moment_vectors: np.ndarray
    samples_used: int
    standard_errors: np.ndarray
    empty_regions: np.ndarray


def require_moments_of(net: EpsNet, moments: RegionMoments) -> None:
    """Raise DomainError unless `moments` were built on a net with `net`'s points."""
    if moments.net is not net and not np.array_equal(moments.net.points, net.points):
        raise DomainError("moments were built on a different net")


def region_moments(net: EpsNet, samples: int, sampler: SphereSampler) -> RegionMoments:
    """Estimate region weights and vector moments from `samples` uniform points."""
    if sampler.dim != net.dim:
        raise DomainError("sampler dimension mismatch")
    if samples < MIN_SAMPLES_PER_REGION * net.size:
        raise DomainError(f"samples must be >= {MIN_SAMPLES_PER_REGION} * net size")
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


def voronoi_moments(net: EpsNet) -> RegionMoments:
    """Exact region weights and vector moments of a net with `triangles`.

    The triangulation is Delaunay, so the Voronoi cell of p has a vertex at
    the circumcenter c_T of each triangle T around p, and its edge toward a
    neighbour q is the arc between the circumcenters c_T, c_T' of the two
    triangles on the edge pq.  That arc, of angle theta_pq, lies in the
    bisector plane of p and q, whose unit normal toward p is
    (p - q) / ||p - q||.  Over the normalized measure

        mu_p = (1 / 4 pi) sum_q area(p, c_T', c_T),
        w_p  = (1 / 8 pi) sum_q theta_pq (p - q) / ||p - q||,

    the first by splitting the cell into triangles at p, each area by the
    Van Oosterom-Strackee formula, the second as the integral of x over a
    region bounded by great-circle arcs, half the sum of arc angle times
    the arc plane's inward unit normal.  Both sums reduce with np.bincount
    over the half-edges.  An edge's two half-edges share one theta and
    opposite normals, so the moments sum to zero up to the rounding of
    those reductions.
    """
    if net.triangles is None:
        raise DomainError("exact moments need a triangulated (geodesic) net")
    pts, tri = net.points, net.triangles
    a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    center = _circumcenters(a, b, c)  # outward: the triangles run counterclockwise
    # half-edge 3 t + e runs from corner e of triangle t to corner e + 1; the
    # two half-edges of an edge sort next to each other by their vertex pair
    tail, head = tri.ravel(), tri[:, [1, 2, 0]].ravel()
    edge = np.minimum(tail, head) * net.size + np.maximum(tail, head)
    pairs = np.argsort(edge).reshape(-1, 2)

    def area(apex: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # det(apex, u, v) from the differences, which are nearly tangent at
        # apex, so small cells keep their relative precision
        det = np.einsum("ij,ij->i", apex, np.cross(u - apex, v - apex))
        dots = (np.einsum("ij,ij->i", apex, u) + np.einsum("ij,ij->i", u, v)
                + np.einsum("ij,ij->i", v, apex))
        return 2.0 * np.arctan2(det, 1.0 + dots)

    # edges in batches, so that the temporaries stay small on large nets
    area_sums = np.zeros(net.size)
    arc_sums = np.zeros((net.size, net.dim))
    for start in range(0, pairs.shape[0], _BATCH):
        fwd, back = pairs[start : start + _BATCH].T
        p, q = pts[tail[fwd]], pts[tail[back]]
        # c_T lies left of its half-edge p -> q seen from outside, c_T' right
        left, right = center[fwd // 3], center[back // 3]
        theta = 2.0 * np.arcsin(0.5 * np.linalg.norm(left - right, axis=1))
        arcs = (p - q) * (theta / np.linalg.norm(p - q, axis=1))[:, None]
        owner = np.concatenate([tail[fwd], tail[back]])
        area_sums += np.bincount(
            owner, np.concatenate([area(p, right, left), area(q, left, right)]), net.size
        )
        for i in range(net.dim):
            arc_sums[:, i] += np.bincount(
                owner, np.concatenate([arcs[:, i], -arcs[:, i]]), net.size
            )
    return RegionMoments(
        net=net,
        weights=area_sums / (4.0 * math.pi),
        moment_vectors=arc_sums / (8.0 * math.pi),
        samples_used=0,
        standard_errors=np.zeros(net.size),
        empty_regions=np.zeros(0, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# serialization: CSV matrices (net points, kernels) + JSON net header
# ----------------------------------------------------------------------

def write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    """Write one row per line, each entry as repr(float(x)) (round-trips exactly)."""
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in matrix:
            writer.writerow([repr(float(x)) for x in row])


def read_matrix_csv(path: str) -> np.ndarray:
    """CSV matrix as a 2-D float array, blank lines skipped; DomainError names
    the line of an entry float() rejects or of a row whose length differs
    from the first, and refuses a file with no rows (nan and inf are read).
    Bytes that are not UTF-8 become U+FFFD, so float() names their line."""
    return _read_matrix_lines(path)[0]


def _read_matrix_lines(path: str) -> Tuple[np.ndarray, List[int]]:
    """`read_matrix_csv` and the file line of each row.

    Each row becomes a float64 array as it is read, so the file is never
    held as Python floats (about four times the array's size).
    """
    rows, lines = [], []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(csv.reader(fh), start=1):
            if not line:
                continue
            try:
                row = np.array([float(x) for x in line])
            except ValueError as exc:
                raise DomainError(f"{path}: line {lineno}: {exc}") from None
            if rows and row.size != rows[0].size:
                raise DomainError(f"{path}: line {lineno}: expected "
                                  f"{rows[0].size} columns, got {row.size}")
            rows.append(row)
            lines.append(lineno)
    if not rows:
        raise DomainError(f"{path}: empty matrix")
    return np.stack(rows), lines


def _header_path(csv_path: str) -> str:
    return csv_path.rsplit(".", 1)[0] + ".json"


def save_net(net: EpsNet, csv_path: str, extra_header: Optional[dict] = None) -> None:
    """Write the points with `write_matrix_csv` and, at csv_path with a .json
    extension, a header: dim, eps, seed, size, covering_radius, extra_header."""
    write_matrix_csv(csv_path, net.points)
    header = {
        "schema": 1,
        "kind": "eps_net",
        "dim": net.dim,
        "eps": net.eps,
        "seed": net.seed,
        "size": net.size,
        "covering_radius": net.covering_radius,
        **(extra_header or {}),
    }
    with open(_header_path(csv_path), "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")


def load_net(csv_path: str) -> EpsNet:
    """Read a net written by `save_net`; DomainError names the bad file and line.

    Refused: a header that is not JSON or lacks a numeric dim, size, eps or
    seed; a CSV that `read_matrix_csv` refuses or whose shape differs from
    the header's; a row whose norm is off 1 by more than 1e-12 or not finite.
    A header without `covering_radius` loads with None.
    """
    header_path = _header_path(csv_path)
    with open(header_path, "r", encoding="utf-8") as fh:
        try:
            header = json.load(fh)
            dim, size = int(header["dim"]), int(header["size"])
            eps, seed = float(header["eps"]), int(header["seed"])
            rho = header.get("covering_radius")
            rho = None if rho is None else float(rho)
        except (ValueError, KeyError, TypeError) as exc:
            raise DomainError(f"{header_path}: bad net header: {exc!r}") from None
    pts, lines = _read_matrix_lines(csv_path)
    if pts.shape != (size, dim):
        raise DomainError(f"{csv_path}: shape {pts.shape} differs from the header's "
                          f"{(size, dim)}")
    # a non-finite entry makes the norm NaN or inf, which fails the test too
    bad = ~(np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= 1e-12)
    if bad.any():
        row = int(np.argmax(bad))
        raise DomainError(
            f"{csv_path}: line {lines[row]} is not a unit vector: {pts[row].tolist()}"
        )
    return EpsNet(dim=dim, eps=eps, points=pts, seed=seed, covering_radius=rho)
