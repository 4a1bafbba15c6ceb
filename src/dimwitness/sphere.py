"""Uniform sphere sampling, eps-nets, Voronoi regions and their moments.

Two nets are built here.  On S^2 the geodesic net is a certified covering: the
20 faces of an icosahedron are each subdivided k times and projected onto the
sphere, one face-grid table (`_face_index`) numbers its points, and its
covering radius is computed from the small triangles, not sampled.  Those
triangles are its Delaunay triangulation, so the weights and vector moments of
its Voronoi regions have closed forms (`voronoi_moments`); on any other net
they are Monte Carlo estimates (`region_moments`).  It is not built as an
eps-packing: nearest neighbours sit 1.17 to 1.73 covering radii apart
(measured for k up to 191).  In other dimensions the net is built by
farthest-point insertion.  It starts from one perturbed regular simplex and
keeps the convex hull of its points, whose facets are exactly the empty
caps.  While the widest cap is wider than eps, its centre is inserted into
the hull (beneath-beyond), so the net is an eps-packing and a certified
eps-covering, and its covering radius is the widest cap's.  A build whose
hull passes a fixed memory bound, as (10, 0.95) does, is refused with a
ResourceError, and so, before any point is built, is a net of either kind
whose covering floor passes its max_points (`_check_floor`).  Each net
depends only on its (dim, eps), or on its frequency on S^2: no seed turns
it.  A greedy net is built and certified once per (dim, eps) and process
and kept (`_kept`); callers are served the kept `EpsNet` itself, its
points read-only.  A geodesic net is built afresh on each call.

Every nearest-point query takes the largest dot product over the whole net
(`_nearest`), in blocks of probes that bound the product's memory.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import (DomainError, NumericalIntegrityError, ResourceError, as_integer,
                     check_open_unit)
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
# a build whose hull passes this many facets x dim^2 is refused; at dim 9 that
# is about 830 000 facets, and the (9, 0.95) hull ends at about 413 000
_HULL_MAX_FACET_DIMS2 = 1 << 26
# scale of the Gaussian that moves each vertex of the start simplex
_START_JITTER = 1e-3
# bytes of the temporaries of one block of a blocked pass (`_nearest`,
# `_facet_planes`, `_check_packing`, `_check_ridges`): 256 KiB
_BLOCK_BYTES = 1 << 18
# base results kept per process (`_kept`), the least recently used dropped
_BASE_NET_ENTRIES = 4


def _unit_rows(g: np.ndarray) -> np.ndarray:
    """Rows of `g` divided by their norms."""
    return g / np.linalg.norm(g, axis=1)[:, None]


def _block_rows(row_bytes: int) -> int:
    """Rows per block of a blocked pass whose temporaries take `row_bytes`
    per row: as many as fit in _BLOCK_BYTES, at least one."""
    return max(1, _BLOCK_BYTES // row_bytes)


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
        self.dim = as_integer("dim", self.dim)
        if self.dim < 1:
            raise DomainError("SphereSampler requires dim >= 1")
        self.seed = as_integer("seed", self.seed)
        self.stream_id = as_integer("stream_id", self.stream_id)
        self._rng = make_rng(self.seed, self.stream_id)

    def sample(self, count: int) -> np.ndarray:
        """(count, dim) array of uniform unit vectors (Gaussian-normalize),
        the draws divided by their norms in place.  DomainError unless
        `count` is a whole number >= 0."""
        count = as_integer("count", count)
        if count < 0:
            raise DomainError(f"count must be >= 0, got {count}")
        g = self._rng.standard_normal((count, self.dim))
        norms = np.linalg.norm(g, axis=1)
        _redraw_zero_rows(self._rng, g, norms)
        g /= norms[:, None]
        return g


def _redraw_zero_rows(rng: np.random.Generator, g: np.ndarray, norms: np.ndarray) -> None:
    """Draw each standard normal row of `g` whose norm in `norms` is 0 again
    from `rng`, until none is, updating both in place."""
    # exact-zero norm is a measure-zero event; resample defensively
    while np.any(norms == 0.0):
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), g.shape[1]))
        norms[:] = np.linalg.norm(g, axis=1)


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
    eps-packing, any two points at least eps apart; its covering radius is
    the widest empty cap's, <= eps up to rounding.  It is the kept base net
    of its (dim, eps), both properties checked once on its points.  A
    geodesic net (`geodesic_net`) is not an eps-packing, and `eps` equals
    its covering radius.  A net loaded from a header without the key has
    `covering_radius` None: it is not known to cover either.

    `triangles` holds a geodesic net's Delaunay triangulation, rows of
    point indices counterclockwise seen from outside the sphere, from which
    `voronoi_moments` integrates exactly; it is None for greedy and loaded
    nets.
    """

    dim: int
    eps: float
    points: np.ndarray  # (size, dim)
    covering_radius: Optional[float] = None
    triangles: Optional[np.ndarray] = field(default=None, repr=False)  # (count, 3)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def _nearest(points: np.ndarray, probes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(index, dot) per probe: the row of `points` with the largest dot
    product with the probe, ties to the lowest row index, and that dot
    product.  Probes are taken in blocks whose dot products, 8 bytes per
    point per probe, fit in _BLOCK_BYTES.  Raises DomainError when `points`
    is empty."""
    if points.shape[0] == 0:
        raise DomainError("an empty net has no nearest point")
    index = np.empty(probes.shape[0], dtype=np.int64)
    dot = np.empty(probes.shape[0])
    rows = _block_rows(8 * points.shape[0])
    for start in range(0, probes.shape[0], rows):
        dots = probes[start : start + rows] @ points.T
        best = np.argmax(dots, axis=1)
        index[start : start + rows] = best
        dot[start : start + rows] = np.take_along_axis(dots, best[:, None], axis=1)[:, 0]
        del dots  # so the next block's product does not coexist with this one
    return index, dot


def _covering_floor(dim: int, eps: float) -> float:
    """ln N_min: an eps-covering of S^(dim-1) has at least N_min points.

    The cap of chord radius eps has angular radius theta = 2 asin(eps/2)
    and takes the fraction c_d int_0^theta sin^(d-2)(t) dt <= c_d theta^(d-1)
    / (d-1) of S^(d-1), d = dim, c_d = Gamma(d/2) / (sqrt(pi) Gamma((d-1)/2)),
    so N caps cover the sphere only if N >= (d-1) / (c_d theta^(d-1)).  Every
    product is a sum of logs, so no eps in (0, 1) and no dim overflows.  On
    S^0 the caps are points, and both are needed: ln 2.
    """
    if dim < 2:
        return math.log(2.0)
    theta = 2.0 * math.asin(0.5 * eps)
    log_c = math.lgamma(0.5 * dim) - 0.5 * math.log(math.pi) - math.lgamma(0.5 * (dim - 1))
    return math.log(dim - 1) - log_c - (dim - 1) * math.log(theta)


def _check_floor(dim: int, eps: float, max_points: int) -> float:
    """The covering floor ln N_min of (dim, eps) (`_covering_floor`), or a
    ResourceError, before any net point is built, when N_min exceeds
    max_points.  The refusal prints N_min from its base-10 log, so a floor
    past float range (10^1383 points at eps 1e-300 on S^2) prints too, and
    carries ceil(N_min) as `needed`, math.inf where exp overflows.  A
    max_points below 1 is refused whatever the floor."""
    floor = _covering_floor(dim, eps)
    if max_points < 1 or floor > math.log(max_points):
        log10 = floor / math.log(10.0)
        exponent = math.floor(log10)
        mantissa = round(10.0 ** (log10 - exponent), 2)
        if mantissa >= 10.0:
            mantissa, exponent = 1.0, exponent + 1
        raise ResourceError(
            f"an eps-covering of S^{dim - 1} at eps={eps:g} needs at least "
            f"{mantissa:.2f}e{exponent:+03d} points (covering floor), which exceeds "
            f"max_points={max_points}",
            needed=math.ceil(math.exp(floor)) if floor < 700.0 else math.inf,
        )
    return floor


def _check_facets(size: int, facets: int, dim: int) -> None:
    """ResourceError, with no `needed` count, when a hull of `size` points
    and `facets` facets passes _HULL_MAX_FACET_DIMS2 facets x dim^2."""
    if facets * dim * dim > _HULL_MAX_FACET_DIMS2:
        raise ResourceError(
            f"the hull of {size} points has {facets} facets, past its bound of "
            f"{_HULL_MAX_FACET_DIMS2 // (dim * dim)} at dim {dim} "
            f"(_HULL_MAX_FACET_DIMS2 = {_HULL_MAX_FACET_DIMS2} facets x dim^2)"
        )


def _simplex(dim: int) -> np.ndarray:
    """The start of every base net (`_base_net`): the dim + 1 vertices of a
    regular simplex inscribed in S^(dim-1), each moved by a Gaussian of
    scale _START_JITTER from the fixed stream make_rng(0, 2) and put back on
    the sphere.

    Any two vertices lie about sqrt(2 + 2/dim) > 1 > eps apart.  The
    perturbation makes every later insertion generic: from the exact
    regular simplex, inserted centres soon fall on neighbouring facet
    planes, where `_insert_last` refuses them (measured at dims 3 to 6).
    """
    centred = np.eye(dim + 1) - 1.0 / (dim + 1)
    # the centred unit vectors in an orthonormal basis of their span
    vertices = _unit_rows(centred @ np.linalg.svd(centred)[2][:dim].T)
    return _unit_rows(vertices + _START_JITTER * make_rng(0, 2).standard_normal((dim + 1, dim)))


def _facet_planes(
    points: np.ndarray, rows: np.ndarray, m: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(allowance, radius) of the facets `rows` (sorted vertex indices) with
    planes x.m = 1, checked against every point.

    With V a facet's vertex rows, m solves V m = 1 up to rounding, and gap =
    1 - q.m is >= 0 for the points q under the plane.  The allowance is a
    gap's rounding: the computed plane misses the vertices by their computed
    gaps plus the dot's rounding, about dim 2^-53 ||m||, so a point that
    lies on the exact plane computes within twice that.  The radius is the
    chord radius of the facet's cap: the largest chord from the cap's centre
    m / ||m|| to the facet's vertices.  A facet's least gap is 1 less its
    largest dot, rounding being monotone, so only the dots are held.  The
    facets are taken in blocks that fit in _BLOCK_BYTES, a facet costing its
    dots with every point (8 bytes each) or, after those are freed, its
    vertex rows and chords (16 dim^2 bytes), and its few rows of dim
    numbers.  Raises NumericalIntegrityError when some point lies above a
    plane by more than its allowance (the facet is not a hull facet).
    """
    size, dim = points.shape
    allowance, radii = np.empty((2, rows.shape[0]))
    step = _block_rows(max(8 * size, 16 * dim * dim) + 32 * dim)
    for start in range(0, rows.shape[0], step):
        block = slice(start, start + step)
        plane = m[block]
        dots = plane @ points.T  # (facets, points)
        # each facet's gaps at its own vertices, its dots taken by flat index
        resid = 1.0 - dots.take(rows[block] + size * np.arange(dots.shape[0])[:, None])
        # what np.linalg.norm(plane, axis=1) computes, without its wrapper
        norms = np.sqrt(np.add.reduce(plane * plane, axis=1))
        edge = 2.0 * np.abs(resid, out=resid).max(axis=1) + 4 * (dim + 2) * 2.0 ** -53 * norms
        allowance[block] = edge
        if (1.0 - dots.max(axis=1) < -edge).any():
            worst = float(np.max((dots - 1.0) / edge[:, None]))
            raise NumericalIntegrityError(
                f"a net point lies above a hull facet by {worst:.3g} rounding allowances"
            )
        del dots  # so that neither the chords nor the next block's dots coexist with these
        chords = points.take(rows[block], axis=0) - (plane / norms[:, None])[:, None, :]
        radii[block] = np.sqrt(np.einsum("fvx,fvx->fv", chords, chords).max(axis=1))
        del chords  # so that the next block's dots do not coexist with these
    return allowance, radii


def _sorted_rows(rows: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """(order, new): the permutation that sorts `rows`, entries in
    range(size), and, along it, whether each row differs from the one before
    it, with True for the first row and for one past the last.

    The entries are packed, as many as fit in 64 bits, into uint64 keys that
    order as the rows do; one key is argsorted (an unstable sort, several
    times faster than a stable one), several are lexsorted."""
    bits = max(1, (size - 1).bit_length())
    per = 64 // bits
    entries = rows.astype(np.uint64)
    keys = []
    for c in range(0, rows.shape[1], per):
        block = entries[:, c:c + per]
        # the first entry in the highest bits; the fields are disjoint, so
        # the product with their weights is their bitwise or
        weights = [1 << bits * j for j in range(block.shape[1] - 1, -1, -1)]
        keys.append(block @ np.array(weights, dtype=np.uint64))
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    new = np.ones(rows.shape[0] + 1, dtype=bool)
    new[1:-1] = False
    for key in keys:
        ordered = key[order]
        new[1:-1] |= ordered[1:] != ordered[:-1]
    return order, new


def _distinct_rows(rows: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """(index, counts) over the distinct rows of `rows`, entries in
    range(size): the index of one occurrence of each and its number of
    occurrences, in the order of `_sorted_rows`."""
    order, new = _sorted_rows(rows, size)
    starts = np.flatnonzero(new)
    return order[starts[:-1]], np.diff(starts)


@functools.lru_cache(maxsize=None)
def _ridge_columns(k: int) -> np.ndarray:
    """(k, k - 1) table whose row j is range(k) less j, read-only since
    every caller shares it."""
    columns = np.tile(np.arange(k), (k, 1))[~np.eye(k, dtype=bool)].reshape(k, k - 1)
    columns.flags.writeable = False
    return columns


def _ridges(facets: np.ndarray) -> np.ndarray:
    """Every ridge of the facets, as sorted index rows: each row of `facets`
    less one entry, for each entry in turn."""
    k = facets.shape[1]
    return facets.take(_ridge_columns(k), axis=1).reshape(-1, k - 1)


class _Hull:
    """The facets of a convex hull of unit rows: each facet's sorted vertex
    indices, its plane x.m = 1, that plane's rounding allowance and the
    chord radius of its cap (`_facet_planes`).

    The four are kept in buffers with spare capacity, whose first `count`
    rows are the live facets, in no particular order.  `replace` writes new
    facets into the slots of the facets they replace and appends the rest,
    doubling the capacity when full, so a facet that stays is never copied.
    """

    __slots__ = ("count", "_buffers")

    def __init__(self, facets: np.ndarray, planes: np.ndarray, allowances: np.ndarray,
                 radii: np.ndarray):
        self.count = facets.shape[0]
        self._buffers = (facets, planes, allowances, radii)

    @property
    def facets(self) -> np.ndarray:
        return self._buffers[0][: self.count]

    @property
    def planes(self) -> np.ndarray:
        return self._buffers[1][: self.count]

    @property
    def allowances(self) -> np.ndarray:
        return self._buffers[2][: self.count]

    @property
    def radii(self) -> np.ndarray:
        return self._buffers[3][: self.count]

    def replace(self, slots: np.ndarray, new: "_Hull") -> None:
        """Put the facets of `new`, in their order, in place of the live
        facets at `slots`, ascending indices.  Where fewer facets come
        than go, live facets from the end move into the freed slots below
        the new count, so the live facets stay a prefix of the buffers."""
        added = new.count
        count = self.count + added - slots.size
        if added <= slots.size:
            holes, slots = slots[added:], slots[:added]
            below = int(np.searchsorted(holes, count))
            tail = np.ones(self.count - count, dtype=bool)
            tail[holes[below:] - count] = False
            moved = count + np.flatnonzero(tail)
            for buffer in self._buffers:
                buffer[holes[:below]] = buffer[moved]
        else:
            if count > self._buffers[0].shape[0]:
                self._grow(max(count, 2 * self._buffers[0].shape[0]))
            slots = np.concatenate([slots, np.arange(self.count, count)])
        for buffer, rows in zip(self._buffers, new._buffers):
            buffer[slots] = rows
        self.count = count

    def _grow(self, capacity: int) -> None:
        """Each buffer widened to `capacity` rows, one at a time, each old
        buffer dropped once copied, so that a growth holds at most one old
        buffer beside the grown ones."""
        buffers, self._buffers = list(self._buffers), ()
        for i, buffer in enumerate(buffers):
            buffers[i] = np.empty((capacity,) + buffer.shape[1:], dtype=buffer.dtype)
            buffers[i][: self.count] = buffer[: self.count]
        del buffer
        self._buffers = tuple(buffers)


def _hull_facets(points: np.ndarray, rows: np.ndarray) -> _Hull:
    """The facets `rows` of the hull of `points`, with their planes, solved
    on their vertex rows and checked against every point, and their caps'
    radii (`_facet_planes`)."""
    m = np.linalg.solve(points.take(rows, axis=0), np.ones(rows.shape + (1,)))[..., 0]
    return _Hull(rows, m, *_facet_planes(points, rows, m))


def _check_ridges(facets: np.ndarray, size: int) -> None:
    """NumericalIntegrityError unless every ridge lies in exactly two facets.

    A ridge's least vertex is its facet's first, or its second for the ridge
    that drops the first, so both copies of a ridge share it.  The ridges
    are counted in blocks of consecutive least vertices, each taking as many
    vertices as their ridges fit in _BLOCK_BYTES, and at least one, a ridge
    costing its index row and the uint64 copy, key and sort index that
    `_sorted_rows` makes for it, so that the hull's ridges are never all
    held at once.  The facets are put in order of their first and of their
    second vertex once, so that each block takes only its own."""
    first, second = facets[:, 0], facets[:, 1]
    k = facets.shape[1]
    per_block = _block_rows((facets.itemsize + 8) * (k - 1) + 16)
    first_count = np.bincount(first, minlength=size)
    second_count = np.bincount(second, minlength=size)
    # ridges per least vertex, and their running total in vertex order
    load = (k - 1) * first_count + second_count
    ends = np.cumsum(load)
    # the facets in order of their first and of their second vertex, and
    # where each vertex's facets start in those orders
    first_order = np.argsort(first)
    second_order = np.argsort(second)
    first_at = np.concatenate([[0], np.cumsum(first_count)])
    second_at = np.concatenate([[0], np.cumsum(second_count)])
    columns = _ridge_columns(k)[1:]
    lo = 0
    while lo < size:
        # the block's least vertices range(lo, hi)
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - load[lo] + per_block, "right")))
        own = facets.take(first_order[first_at[lo] : first_at[hi]], axis=0)
        ridges = np.concatenate([
            own.take(columns, axis=1).reshape(-1, k - 1),
            facets[second_order[second_at[lo] : second_at[hi]], 1:],
        ])
        counts = _distinct_rows(ridges, size)[1]
        if np.any(counts != 2):
            raise NumericalIntegrityError(
                f"hull ridges lie in {sorted(set(counts.tolist()) - {2})} facets, not two"
            )
        del own, ridges, counts  # so that the next block's do not coexist with these
        lo = hi


def _insert_last(points: np.ndarray, hull: _Hull) -> _Hull:
    """`hull`, the hull of all rows of `points` but the last, p, made the
    hull of `points` in place by beneath-beyond insertion, and returned.

    The facets whose planes p lies above (p.m > 1) are deleted, and p is
    joined to their horizon, the ridges that `_distinct_rows` counts once
    among the deleted facets: each such ridge and p span a new facet, whose
    plane comes from the inverse of its vertex rows and is checked against
    every point, and whose cap radius is computed (`_hull_facets`).  The new
    facets take the deleted facets' slots (`_Hull.replace`).  Raises
    NumericalIntegrityError, with the hull unchanged, when p lies within its
    rounding allowance of some facet's plane, where the side of p is not
    decided, or under every plane, or when a new facet fails its check.
    """
    size = points.shape[0]
    gap = hull.planes @ points[-1]
    np.subtract(1.0, gap, out=gap)
    seen = (gap < 0.0).nonzero()[0]
    if (np.abs(gap, out=gap) <= hull.allowances).any():
        raise NumericalIntegrityError("an added point lies on a hull facet plane up to rounding")
    if not seen.size:
        raise NumericalIntegrityError("an added point lies inside the hull")
    del gap  # so that it does not coexist with the new facets' gaps
    ridges = _ridges(hull.facets.take(seen, axis=0))
    index, counts = _distinct_rows(ridges, size)
    horizon = ridges.take(index[counts == 1], axis=0)
    rows = np.column_stack([horizon, np.full(horizon.shape[0], size - 1, dtype=horizon.dtype)])
    hull.replace(seen, _hull_facets(points, rows))
    return hull


def _fill_caps(points: np.ndarray, eps: float, max_points: int) -> Tuple[np.ndarray, _Hull]:
    """Farthest-point insertion from the simplex `points`: the points and
    their final hull.

    The simplex's hull has one facet opposite each vertex.  While the
    widest cap (the first argmax of the hull's radii, so ties go to the
    lowest slot) is wider than eps, the cap's centre is inserted into the
    hull (`_insert_last`), which computes the caps of the new facets only.
    A cap is empty, so its centre lies at least its radius, more than eps,
    from every point: the points stay an eps-packing, which a float64 test
    confirms for each centre.  Once no cap is wider than eps, the hull's
    ridges are checked and the widest cap's radius is the covering radius
    of the points.  Raises ResourceError when
    the points would exceed max_points or the hull would hold more than
    _HULL_MAX_FACET_DIMS2 / dim^2 facets.
    """
    size, dim = points.shape
    thresh = 1.0 - 0.5 * eps * eps
    hull = _hull_facets(points, _ridges(np.arange(size, dtype=np.int32)[None]))
    while True:
        widest = int(hull.radii.argmax())
        if hull.radii[widest] <= eps:
            _check_ridges(hull.facets, size)
            return points[:size], hull
        _check_facets(size, hull.count, dim)
        if size >= max_points:
            raise ResourceError(f"net exceeded max_points={max_points}", needed=max_points + 1)
        # the centre m / ||m||, as _facet_planes computes it; no view of the
        # planes buffer outlives this, so _Hull._grow can free it
        center = hull.planes[widest]
        center = center / math.sqrt(np.add.reduce(center * center))
        if (points[:size] @ center).max() > thresh:
            raise NumericalIntegrityError(
                "the centre of a cap wider than eps lies within eps of a net point"
            )
        if size == points.shape[0]:
            points = np.vstack([points, np.empty_like(points)])
        points[size] = center
        size += 1
        _insert_last(points[:size], hull)


# base results kept per process (`_kept`): greedy nets under (dim, eps),
# n = 3 witness reports under ("witness", k, d)
_BASE_NETS: "OrderedDict[tuple, object]" = OrderedDict()


def _kept(key: tuple, build: Callable[[], object]):
    """The base result of `key`, `build()` on a miss, kept in _BASE_NETS:
    at most _BASE_NET_ENTRIES results, the least recently used dropped
    first; a build that raises keeps nothing.  Every caller is served the
    kept object itself, so a build makes its arrays read-only."""
    base = _BASE_NETS.get(key)
    if base is not None:
        _BASE_NETS.move_to_end(key)
        return base
    base = build()
    _BASE_NETS[key] = base
    if len(_BASE_NETS) > _BASE_NET_ENTRIES:
        _BASE_NETS.popitem(last=False)
    return base


def _base_net(dim: int, eps: float, max_points: int) -> EpsNet:
    """The base net of (dim, eps): farthest-point insertion from `_simplex`
    (`_fill_caps`), certified once.

    The float64 packing test runs on its points (`_check_packing`), and
    every plane of its final hull is checked against every point
    (`_facet_planes`), which also computes the caps: the widest is the
    covering radius, 0 on S^0.  Its points are a read-only copy of the
    insertion's buffer, without its spare rows.  Built once and kept
    (`_kept`): every call is served the one `EpsNet`.  A build that would
    exceed max_points or the hull's bound raises ResourceError and keeps
    nothing; a kept net is served whatever the caller's max_points.
    """

    def build() -> EpsNet:
        points, hull = _simplex(dim), None
        if dim > 1:
            points, hull = _fill_caps(points, eps, max_points)
        _check_packing(points, eps)
        rho = 0.0
        if hull is not None:
            rho = float(_facet_planes(points, hull.facets, hull.planes)[1].max())
        # a copy, so that the spare rows of the insertion's buffer are not kept
        points = points.copy()
        points.flags.writeable = False
        return EpsNet(dim=dim, eps=eps, points=points, covering_radius=rho)

    return _kept((dim, eps), build)


def _check_packing(points: np.ndarray, eps: float) -> None:
    """NumericalIntegrityError unless every two rows of `points` lie at
    least eps apart by the float64 test u.v <= 1 - eps^2/2, in blocks of
    rows that fit in _BLOCK_BYTES, a row costing its dot products and their
    comparison mask (9 bytes per point)."""
    size = points.shape[0]
    thresh = 1.0 - 0.5 * eps * eps
    step = _block_rows(9 * size)
    for start in range(0, size, step):
        dots = points[start : start + step] @ points.T
        # each row's dot with itself: row r of the block holds it at column start + r
        dots.reshape(-1)[start :: size + 1] = -1.0
        if (dots > thresh).any():
            raise NumericalIntegrityError("two net points lie less than eps apart")
        del dots  # so the next block's product does not coexist with this one


def build_eps_net(
    dim: int,
    eps: float,
    seed: int = 0,
    max_points: int = 1_000_000,
) -> EpsNet:
    """Eps-packing and certified eps-covering of S^(dim-1) by farthest-point
    insertion: the base net of (dim, eps).

    The base net (`_base_net`) starts from a perturbed regular simplex
    (`_simplex`) and takes, one at a time, the centre of the widest empty
    cap of its convex hull while that cap is wider than eps (`_fill_caps`).
    It is built and certified once per process and kept: the packing test,
    and every plane of its final hull checked against every point.  Every
    call is served that one kept `EpsNet`, its points read-only and its
    `covering_radius` the widest of those planes' caps, computed, and <= eps
    up to their rounding.  The cache saves time only where one process asks
    for the same (dim, eps) again.  On S^0 the net is both points, with
    radius 0.

    `seed` selects nothing: every seed is served the same net.  It is kept
    because callers pass it (the warm-up statement of the witness workloads
    in perfbench/workloads.py does), and it must be a whole number.

    Raises ResourceError when the net would exceed max_points or its hull
    the bound _HULL_MAX_FACET_DIMS2 (facets x dim^2), which (10, 0.95)
    passes.  Two of these refusals come before any geometry is built: a
    covering floor past max_points (`_check_floor`), and a start simplex
    whose dim + 1 facets alone pass the hull's bound, as from dim 407.
    """
    check_open_unit("eps", eps)
    dim = as_integer("dim", dim)
    as_integer("seed", seed)
    max_points = as_integer("max_points", max_points)
    if dim < 1:
        raise DomainError("dim must be >= 1")
    _check_floor(dim, eps, max_points)
    _check_facets(dim + 1, dim + 1, dim)
    net = _base_net(dim, float(eps), max_points)
    if net.size > max_points:
        raise ResourceError(f"net exceeded max_points={max_points}", needed=net.size)
    return net


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
    k = as_integer("k", k)
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

    No net of fewer points than the covering floor N_min of S^2 covers it
    (`_check_floor`, which refuses an N_min past max_points): the search
    starts at the least k with 10 k^2 + 2 >= N_min.  It doubles its step
    until a radius is <= eps, then bisects, since the radius falls strictly
    with k.  Raises ResourceError, before any net point is built, when the
    floor or the answer's net (10 k^2 + 2 points) would exceed max_points;
    the search's refusal carries 10 k^2 + 2 as `needed`.  `_face_index`
    numbers the points in int64, so a max_points past 2^63 - 1 is taken as
    2^63 - 1: a floor past it is refused before any grid is allocated.
    """
    check_open_unit("eps", eps)
    max_points = min(as_integer("max_points", max_points), np.iinfo(np.int64).max)
    # N_min <= max_points < 2^63 here, so its exp does not overflow
    n_min = math.exp(_check_floor(3, eps, max_points))
    k = max(1, math.ceil(math.sqrt(max(n_min - 2.0, 0.0) / 10.0)))
    # the largest k whose net fits: 10 k^2 + 2 <= max_points
    k_max = math.isqrt(max(max_points - 2, 0) // 10)

    def too_large(k: int) -> ResourceError:
        return ResourceError(
            f"a geodesic net of covering radius {eps:g} needs at least "
            f"{10 * k * k + 2} points (k = {k}), which exceeds max_points={max_points}",
            needed=10 * k * k + 2,
        )

    # the start can be k_max + 1 (N_min fits, its least net does not)
    if k > k_max:
        raise too_large(k)
    lo, step = k - 1, 1  # every k <= lo is below the floor
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


def geodesic_net(k: int) -> EpsNet:
    """Frequency-k icosahedral geodesic net on S^2.

    Each of the 20 icosahedron faces is subdivided k times and its grid
    points are projected onto the sphere: N = 10 k^2 + 2 points, numbered by
    `_face_index`.  Faces sharing an edge project its points equally (their
    barycentric sums differ by exact zeros), and a face's corners project to
    the icosahedron's vertices bit for bit.  `covering_radius` and `eps` are
    `geodesic_radius(k)`; `triangles`, its Delaunay triangulation, are each
    face's `_small_triangles`, with two columns swapped on clockwise faces.
    """
    rho = geodesic_radius(k)  # refuses a k that is not a whole number >= 1
    k = int(k)
    index = _face_index(k)
    i, j = _grid(k)
    points = np.empty((10 * k * k + 2, 3))
    points[index[:, i, j]] = _project(i, j, k, _ICO_VERTS[_ICO_FACES])
    tri = np.stack([index[:, ii, jj] for ii, jj in _small_triangles(k)], axis=2)
    tri[_ICO_INWARD] = tri[_ICO_INWARD][:, :, [0, 2, 1]]
    return EpsNet(dim=3, eps=rho, points=points, covering_radius=rho,
                  triangles=tri.reshape(-1, 3))


def assign_regions(net: EpsNet, probes: np.ndarray) -> np.ndarray:
    """Region index (nearest net point, ties to the lowest index) per probe
    row.  DomainError for a probe whose best dot product is not finite,
    which a NaN or infinite coordinate always makes it; the product's own
    warnings about them are silenced."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if probes.shape[1] != net.dim:
        raise DomainError("probe dimension does not match net dimension")
    with np.errstate(invalid="ignore", over="ignore"):
        index, dot = _nearest(net.points, probes)
    if not np.isfinite(dot).all():
        raise DomainError("probes and their dot products with the net must be finite")
    return index


def nearest_point(net: EpsNet, a: np.ndarray) -> int:
    """Index of the net point closest to `a` (ties broken by lowest index)."""
    return int(assign_regions(net, np.asarray(a, dtype=float)[None, :])[0])


# ----------------------------------------------------------------------
# Monte Carlo estimators
# ----------------------------------------------------------------------

def _draws(
    sampler: SphereSampler, dim: int, samples: int, least: int, points: int = 1
) -> Iterator[np.ndarray]:
    """The one sample rule and draw loop of every Monte Carlo estimator:
    DomainError, before any draw, unless the sampler draws in R^dim and
    `samples` is a whole number >= `least`; then the sampler's stream in
    batches of b <= _BATCH samples, each a (points, b, dim) view of one
    `sampler.sample(points * b)`."""
    if sampler.dim != dim:
        raise DomainError("sampler dimension mismatch")
    samples = as_integer("samples", samples)
    if samples < least:
        raise DomainError(f"samples must be >= {least}, got {samples}")
    for done in range(0, samples, _BATCH):
        b = min(_BATCH, samples - done)
        yield sampler.sample(points * b).reshape(points, b, sampler.dim)


def mc_mean_and_sem(batches: Iterable[np.ndarray]) -> Tuple[float, float]:
    """Mean and standard error of the values in `batches`, at least one
    value, summed batch by batch in order."""
    total = total_sq = 0.0
    samples = 0
    for vals in batches:
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        samples += vals.size
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def partial_norm_expectation(
    n: int, k: int, samples: int, sampler: SphereSampler
) -> Tuple[float, float]:
    """MC estimate and standard error of E[(a_1^2 + ... + a_k^2)^(1/2)] for
    uniform a on S^(n-1), from `samples` >= 1000 points (`_draws`)."""
    n, k = as_integer("n", n), as_integer("k", k)
    if not (1 <= k <= n):
        raise DomainError("need 1 <= k <= n")
    return mc_mean_and_sem(
        np.linalg.norm(a[:, :k], axis=1) for (a,) in _draws(sampler, n, samples, 1000)
    )


def dot_squared_expectation(
    n: int, samples: int, sampler: SphereSampler
) -> Tuple[float, float]:
    """MC estimate and standard error of E[(a.b)^2] for independent uniform
    a, b on S^(n-1), from `samples` >= 1000 pairs (`_draws`)."""
    n = as_integer("n", n)
    return mc_mean_and_sem(
        np.einsum("ij,ij->i", a, b) ** 2 for a, b in _draws(sampler, n, samples, 1000, 2)
    )


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
    (geodesic) net: there samples_used is 0, which marks the moments
    exact, every standard error is 0 (one read-only zero broadcast, no
    buffer) and no region is empty.
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
    """Estimate region weights and vector moments from `samples` >=
    MIN_SAMPLES_PER_REGION * net.size uniform points (`_draws`)."""
    counts = np.zeros(net.size, dtype=np.int64)
    sums = np.zeros((net.size, net.dim))
    for (pts,) in _draws(sampler, net.dim, samples, MIN_SAMPLES_PER_REGION * net.size):
        idx = assign_regions(net, pts)
        counts += np.bincount(idx, minlength=net.size)
        for c in range(net.dim):
            sums[:, c] += np.bincount(idx, weights=pts[:, c], minlength=net.size)
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
    weights, vectors = _voronoi_sums(net.points, net.triangles)
    return RegionMoments(
        net=net,
        weights=weights,
        moment_vectors=vectors,
        samples_used=0,
        standard_errors=np.broadcast_to(0.0, (net.size,)),
        empty_regions=np.zeros(0, dtype=np.int64),
    )


def _voronoi_sums(pts: np.ndarray, tri: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(weights, moment vectors) of `voronoi_moments` on the points `pts`
    and their Delaunay triangles `tri`."""
    size, dim = pts.shape
    a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    center = _circumcenters(a, b, c)  # outward: the triangles run counterclockwise
    # half-edge 3 t + e runs from corner e of triangle t to corner e + 1; the
    # two half-edges of an edge sort next to each other by their vertex pair
    tail, head = tri.ravel(), tri[:, [1, 2, 0]].ravel()
    edge = np.minimum(tail, head) * size + np.maximum(tail, head)
    pairs = np.argsort(edge).reshape(-1, 2)

    def area(apex: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # det(apex, u, v) from the differences, which are nearly tangent at
        # apex, so small cells keep their relative precision
        det = np.einsum("ij,ij->i", apex, np.cross(u - apex, v - apex))
        dots = (np.einsum("ij,ij->i", apex, u) + np.einsum("ij,ij->i", u, v)
                + np.einsum("ij,ij->i", v, apex))
        return 2.0 * np.arctan2(det, 1.0 + dots)

    # edges in batches, so that the temporaries stay small on large nets
    area_sums = np.zeros(size)
    arc_sums = np.zeros((size, dim))
    for start in range(0, pairs.shape[0], _BATCH):
        fwd, back = pairs[start : start + _BATCH].T
        p, q = pts[tail[fwd]], pts[tail[back]]
        # c_T lies left of its half-edge p -> q seen from outside, c_T' right
        left, right = center[fwd // 3], center[back // 3]
        theta = 2.0 * np.arcsin(0.5 * np.linalg.norm(left - right, axis=1))
        arcs = (p - q) * (theta / np.linalg.norm(p - q, axis=1))[:, None]
        owner = np.concatenate([tail[fwd], tail[back]])
        area_sums += np.bincount(
            owner, np.concatenate([area(p, right, left), area(q, left, right)]), size
        )
        for i in range(dim):
            arc_sums[:, i] += np.bincount(
                owner, np.concatenate([arcs[:, i], -arcs[:, i]]), size
            )
    return area_sums / (4.0 * math.pi), arc_sums / (8.0 * math.pi)


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
    extension, a header: dim, eps, size, covering_radius, extra_header."""
    write_matrix_csv(csv_path, net.points)
    header = {
        "schema": 1,
        "kind": "eps_net",
        "dim": net.dim,
        "eps": net.eps,
        "size": net.size,
        "covering_radius": net.covering_radius,
        **(extra_header or {}),
    }
    with open(_header_path(csv_path), "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")


def load_net(csv_path: str) -> EpsNet:
    """Read a net written by `save_net`; DomainError names the bad file and line.

    Refused: a header that is not a JSON object with a dim and size that
    are JSON integers and an eps that is a JSON number in (0, 1), or whose
    `covering_radius` is neither null nor a JSON number in [0, 2] (a chord
    on the unit sphere); a CSV that `read_matrix_csv` refuses or whose
    shape differs from the header's; a row whose norm is off 1 by more than
    1e-12 or not finite.  A header without `covering_radius` loads with None.
    A `seed`, which headers of earlier versions carry, selects nothing: a
    header loads with or without one, and one that is not a JSON integer
    is refused.
    """
    header_path = _header_path(csv_path)
    with open(header_path, "r", encoding="utf-8") as fh:
        try:
            header = json.load(fh)
            dim, size, eps = (header[key] for key in ("dim", "size", "eps"))
            seed = header.get("seed", 0)
            rho = header.get("covering_radius")
        except (ValueError, KeyError, TypeError) as exc:
            raise DomainError(f"{header_path}: bad net header: {exc!r}") from None

    def refuse(key: str, value, what: str) -> DomainError:
        return DomainError(f"{header_path}: bad net header: {key} {value!r} is not {what}")

    # exact JSON types: a bool is not an int here; NaN fails every comparison
    for key, value in (("dim", dim), ("size", size), ("seed", seed)):
        if type(value) is not int:
            raise refuse(key, value, "an integer")
    if type(eps) not in (int, float) or not 0.0 < eps < 1.0:
        raise refuse("eps", eps, "a number in (0, 1)")
    if rho is not None and (type(rho) not in (int, float) or not 0.0 <= rho <= 2.0):
        raise refuse("covering_radius", rho, "a number in [0, 2]")
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
    return EpsNet(dim=dim, eps=float(eps), points=pts,
                  covering_radius=None if rho is None else float(rho))
