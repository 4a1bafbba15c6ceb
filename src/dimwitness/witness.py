"""End-to-end dimension-witness pipeline on a finite question set.

A net discretizes the sphere in R^n; the Bell functional weights each pair of
regions by the inner product of their vector moments.  Inner-product
correlations (realizable with local dimension 2^floor(n/2)) score close to
1/n, while any strategy of local dimension d embeds into real unit vectors of
dimension m = 2d^2 and is therefore capped by the analytic ratio bound.  The
chain of inequalities connecting the two is checked explicitly on every run;
a failure beyond the statistical slack is a theory violation and trips the
build.  The Tsirelson strategy that realizes the inner-product correlations
is checked once per n, on its table T: every correlation is u^T T v, so
||T - I||_2 bounds |E(u, v) - u.v| on every pair of every net.

At n = 3 the moments are exact (`voronoi_moments` on the geodesic net, one
kept report per frequency k and d) and there is no statistical slack.  On
greedy nets they are Monte Carlo estimates, and the slack is 4 standard
errors (the inequalities are exact; only the moment estimators fluctuate),
with errors combined in quadrature.
The c4 check compares two functions of the same moments and has none.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import List, Tuple

import numpy as np

from .analytic_bounds import kg_lower_bound
from .embedding_opt import (
    ADVERSARY_MAX_ITERS,
    ADVERSARY_RESTARTS,
    ADVERSARY_STOP_RULE,
    dot_climb,
    dot_upper_bound,
    dot_value,
    moment_value_std_error,
)
from .errors import DomainError, NumericalIntegrityError, as_integer, check_open_unit
from .quantum import tsirelson_deviation
from .seeding import derive_seed
from .sphere import (
    MIN_SAMPLES_PER_REGION,
    RegionMoments,
    SphereSampler,
    _draws,
    _kept,
    build_eps_net,
    geodesic_frequency,
    geodesic_net,
    mc_mean_and_sem,
    region_moments,
    require_moments_of,
    voronoi_moments,
)

__all__ = [
    "WitnessConfig",
    "WitnessReport",
    "ChainCheck",
    "VERDICT_CERTIFIED",
    "VERDICT_CONSISTENT",
    "VERDICT_VIOLATION",
    "bell_value_infinite",
    "bell_value_finite",
    "eps_threshold",
    "run_witness",
]

VERDICT_CERTIFIED = "certified_separation"
VERDICT_CONSISTENT = "consistent_but_uncertified"
VERDICT_VIOLATION = "violation_of_theory"

SLACK_SIGMAS = 4.0


@dataclass(frozen=True)
class WitnessConfig:
    """One (n, d, eps) witness run with seeds and MC budgets.

    The pipeline needs n >= 2 d^2 + 1 for a separation to be possible at all;
    smaller n is allowed only with allow_small_n (useful as a null test).
    moment_samples_per_region acts only on greedy nets (n != 3): the n = 3
    geodesic net takes exact moments and draws no samples, and the seed
    selects nothing.  The integer fields refuse non-integral values and keep
    integral ones as int; eps is kept as a float, and allow_small_n must be
    a bool (a numpy bool is kept as one), so `to_dict` is plain JSON.
    """

    n: int
    d: int
    eps: float
    seed: int = 0
    moment_samples_per_region: int = MIN_SAMPLES_PER_REGION
    max_net_points: int = 200_000
    allow_small_n: bool = False

    @property
    def m(self) -> int:
        return 2 * self.d * self.d

    def __post_init__(self):
        for name in ("n", "d", "seed", "moment_samples_per_region", "max_net_points"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.n < 1 or self.d < 1:
            raise DomainError("n and d must be positive")
        check_open_unit("eps", self.eps)
        object.__setattr__(self, "eps", float(self.eps))
        if not isinstance(self.allow_small_n, (bool, np.bool_)):
            raise DomainError(f"allow_small_n must be a bool, got {self.allow_small_n!r}")
        object.__setattr__(self, "allow_small_n", bool(self.allow_small_n))
        if self.moment_samples_per_region < MIN_SAMPLES_PER_REGION:
            raise DomainError(
                f"need >= {MIN_SAMPLES_PER_REGION} moment samples per region"
            )
        if self.n < self.m + 1 and not self.allow_small_n:
            raise DomainError(
                f"need n >= 2*d^2 + 1 = {self.m + 1} (or allow_small_n=True)"
            )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "eps": self.eps,
            "m": self.m,
            "seed": self.seed,
            "moment_samples_per_region": self.moment_samples_per_region,
            "adversary_restarts": ADVERSARY_RESTARTS,
            "adversary_max_iters": ADVERSARY_MAX_ITERS,
            "adversary_stop_rule": ADVERSARY_STOP_RULE,
            "max_net_points": self.max_net_points,
            "allow_small_n": self.allow_small_n,
        }


@dataclass(frozen=True)
class ChainCheck:
    name: str
    holds: bool
    slack: float  # margin by which the inequality is satisfied (>= 0 iff holds)


@dataclass(frozen=True)
class WitnessReport:
    """All quantities of one witness run, with per-inequality verdicts."""

    config: WitnessConfig
    k_lower: float
    b_infinite_quantum: float
    b_finite_quantum: float
    b_finite_quantum_se: float
    b_finite_seesaw_d: float
    b_finite_seesaw_se: float
    # `dot_upper_bound`: the adversary's optimum lies below it at every m
    adversary_upper_bound: float
    eps_threshold: float
    net_size: int
    covering_radius: float
    # "exact" (`voronoi_moments`, n = 3) or "monte_carlo" (`region_moments`)
    moment_method: str
    empty_regions: int
    # ||T - I||_2 of the Tsirelson strategy's table T, a bound on its
    # deviation from u.v on every pair
    tsirelson_validation_dev: float
    # the best adversary restart stopped because neither the damped Newton
    # step nor the fixed-point step raised f, not at adversary_max_iters
    seesaw_converged: bool
    chain_checks: Tuple[ChainCheck, ...]
    verdict: str

    def to_dict(self) -> dict:
        """`schema` and `kind`, then every field in declaration order, with the
        config as `WitnessConfig.to_dict` and each chain check as a dict."""
        doc = {"schema": 1, "kind": "witness_report"}
        doc.update((f.name, getattr(self, f.name)) for f in fields(self))
        doc["config"] = self.config.to_dict()
        doc["chain_checks"] = [{"name": c.name, "holds": c.holds, "slack": c.slack}
                               for c in self.chain_checks]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# ----------------------------------------------------------------------
# Bell functionals
# ----------------------------------------------------------------------

def bell_value_infinite(
    n: int, correlation_fn, samples: int, sampler: SphereSampler
) -> Tuple[float, float]:
    """MC estimate of the integral of (a.b) E[ab] over independent uniform a, b.

    `correlation_fn` must be vectorized: (batch, n) x (batch, n) -> (batch,)
    with values in [-1, 1].  `samples` >= 1 pairs are drawn (`sphere._draws`).
    """
    n = as_integer("n", n)

    def values(a_pts: np.ndarray, b_pts: np.ndarray) -> np.ndarray:
        corr = np.asarray(correlation_fn(a_pts, b_pts), dtype=float)
        if corr.shape != (a_pts.shape[0],):
            raise DomainError("correlation_fn must return one value per pair")
        if not np.all(np.abs(corr) <= 1.0 + 1e-9):
            raise DomainError("correlations must lie in [-1, 1]")
        return np.einsum("ij,ij->i", a_pts, b_pts) * corr

    return mc_mean_and_sem(values(a, b) for a, b in _draws(sampler, n, samples, 1, 2))


def bell_value_finite(net, moments: RegionMoments, correlations) -> float:
    """sum_uv (w_u . w_v) E[uv] over net regions, E = L R^T given as the
    factored pair `correlations` (L, R): `dot_value(W, L, R)`, as the
    adversary's value is.  DomainError for non-finite factors or value."""
    require_moments_of(net, moments)
    if not (isinstance(correlations, tuple) and len(correlations) == 2):
        raise DomainError("correlations must be a factored pair (L, R) with E = L R^T")
    left, right = (np.asarray(x, dtype=float) for x in correlations)
    if left.ndim != 2 or right.ndim != 2:
        raise DomainError("factored correlations must be matrices")
    if left.shape[0] != net.size or right.shape[0] != net.size:
        raise DomainError("factored correlations do not match the net size")
    if left.shape[1] != right.shape[1]:
        raise DomainError("factored correlations have mismatched inner dimension")
    if not (np.all(np.isfinite(left)) and np.all(np.isfinite(right))):
        raise DomainError("factored correlations must be finite")
    try:
        value = dot_value(moments.moment_vectors, left, right)
    except (ValueError, OverflowError):  # math.fsum met inf - inf or overflowed
        value = math.inf
    if not math.isfinite(value):
        raise DomainError("the finite Bell value of these correlations overflows")
    return value


def eps_threshold(n: int, d: int) -> float:
    """Largest eps for which (1/n - 2 eps) > (1/K) (1/n + 2 eps).

    Solving the strict inequality with K the analytic ratio bound at
    m = 2 d^2 gives eps* = (K - 1) / (2 n (K + 1)); the chain certifies a
    separation only below it.  DomainError unless n and d are whole numbers
    and d >= 1.
    """
    n, d = as_integer("n", n), as_integer("d", d)
    if d < 1:
        raise DomainError("d must satisfy d ≥ 1")
    m = 2 * d * d
    if n <= m:
        raise DomainError("eps_threshold requires n > 2*d^2")
    k = kg_lower_bound(n, m).bound
    if not k > 1.0:
        raise NumericalIntegrityError(f"ratio bound K({n}, {m}) = {k!r} is not above 1")
    return (k - 1.0) / (2.0 * n * (k + 1.0))


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------

def run_witness(config: WitnessConfig) -> WitnessReport:
    """Run net -> moments -> Bell values -> adversary -> inequality chain.

    The net depends only on (n, eps): every term of the finite Bell value
    is unchanged when the net and the settings turn together, so turning
    the net by a seed's rotation would leave the distribution of every
    reported number over seeds as it is.  The seed selects only draws: off
    n = 3, the moment samples and the adversary's restarts; at n = 3,
    nothing.

    At n = 3 the net is the geodesic net of the smallest frequency k whose
    computed covering radius rho is <= eps (`geodesic_net(k)`), and its
    moments are exact (`voronoi_moments`): every standard error is exactly
    0, so c1-c4 have no 4-sigma term.  Only the finished report is kept,
    once per (k, d) and process: the adversary climbed on exactly those
    moments from the fixed restart stream derive_seed(0, "seesaw"), kept
    under ("witness", k, d) beside the greedy nets (`sphere._kept`).  A run
    returns a copy of the kept report with its own config; only a run whose
    (k, d) is not kept builds the net and its moments, climbs and evaluates
    the chain.  In other dimensions the net is built by farthest-point
    insertion (`build_eps_net`): an eps-packing whose hull's widest empty
    cap, its computed covering radius rho, is <= eps, built and certified
    once per (n, eps) and process, every run served that one kept `EpsNet`.
    Its moments are Monte Carlo estimates (`region_moments`,
    moment_samples_per_region per region).  The adversary is `dot_climb` at
    m = 2d^2: the best of ADVERSARY_RESTARTS damped Newton ascents of the
    reduced objective, a lower bound on the true maximum over R^m vectors.
    tsirelson_validation_dev is `quantum.tsirelson_deviation(n)`, the
    ||T - I||_2 of the Tsirelson strategy's table, computed once per n and
    process, which bounds its deviation from u.v on every net pair.  It is
    computed first, so an n past MAX_GENERATORS = 16 is refused with its
    ResourceError before any net is built.  Only
    the moments and the adversary depend on n: at every n, b_fq is
    `bell_value_finite` of the run's moments at the net points and b_fs the
    adversary's value, the same `dot_value` at its assignment X, their SEs
    `moment_value_std_error`.  The chain-check names keep their see-saw
    wording.

    Chain checks (slack is the satisfied margin; c1-c3 add 4 sigma of
    moment error where the moments are Monte Carlo):
      c1: finite quantum value >= 1/n - 2 rho        (discretization loss)
      c2: adversary at m = 2d^2 <= (1/K) (1/n)       (embedding cap)
      c3: adversary <= (1/K) (finite quantum + 2 rho) (combined chain)
      c4: adversary <= U = `dot_upper_bound`         (only for m < n)
    U bounds every assignment's value for the moments as given, so c4 has
    no sigma term.

    The verdict is certified_separation only for rho <= eps*.  A greedy
    net whose hull would pass its memory bound is refused with the
    ResourceError of `build_eps_net`, so every run has a computed rho.
    """
    n, m = config.n, config.m
    tsirelson_dev = tsirelson_deviation(n)
    if n == 3:
        k = geodesic_frequency(config.eps, config.max_net_points)

        def build():
            moments = voronoi_moments(geodesic_net(k))
            adversary = dot_climb(moments.moment_vectors, m, derive_seed(0, "seesaw"))
            return _report(config, moments, adversary, tsirelson_dev)

        return replace(_kept(("witness", k, config.d), build), config=config)

    net = build_eps_net(n, config.eps, max_points=config.max_net_points)
    sampler = SphereSampler(n, derive_seed(config.seed, "moments"))
    moments = region_moments(
        net, samples=config.moment_samples_per_region * net.size, sampler=sampler
    )
    adversary = dot_climb(moments.moment_vectors, m, derive_seed(config.seed, "seesaw"))
    return _report(config, moments, adversary, tsirelson_dev)


def _report(
    config: WitnessConfig, moments: RegionMoments, adversary, tsirelson_dev: float
) -> WitnessReport:
    """The Bell values, bounds, chain checks and verdict of `adversary`
    climbed on `moments`, with the Tsirelson check's `tsirelson_dev` (see
    `run_witness`)."""
    n, m = config.n, config.m
    net = moments.net
    rho = net.covering_radius
    loss = 2.0 * rho

    # E = U U^T for the inner-product correlations; the adversary's value is
    # `dot_value` at its assignment X on these very moments, E = X X^T
    u, x = net.points, adversary.assignment.row_vectors
    b_fq = bell_value_finite(net, moments, (u, u))
    b_fq_se = moment_value_std_error(moments, u)
    b_fs = adversary.value
    b_fs_se = moment_value_std_error(moments, x)
    upper = dot_upper_bound(moments)

    k_lower = kg_lower_bound(n, m).bound if m <= n else 1.0
    b_inf = 1.0 / n
    thr = eps_threshold(n, config.d) if m < n else 0.0

    checks: List[ChainCheck] = []

    slack1 = b_fq - (b_inf - loss - SLACK_SIGMAS * b_fq_se)
    checks.append(ChainCheck("c1_finite_quantum_floor", slack1 >= 0.0, slack1))

    slack2 = (b_inf / k_lower + SLACK_SIGMAS * b_fs_se) - b_fs
    checks.append(ChainCheck("c2_seesaw_embedding_cap", slack2 >= 0.0, slack2))

    se3 = math.sqrt((b_fq_se / k_lower) ** 2 + b_fs_se**2)
    slack3 = ((b_fq + loss) / k_lower + SLACK_SIGMAS * se3) - b_fs
    checks.append(ChainCheck("c3_seesaw_chain_cap", slack3 >= 0.0, slack3))

    if m < n:
        slack4 = upper - b_fs
        checks.append(ChainCheck("c4_seesaw_below_full_dim", slack4 >= 0.0, slack4))

    if not all(c.holds for c in checks):
        verdict = VERDICT_VIOLATION
    else:
        gap = b_fq - b_fs
        gap_se = math.sqrt(b_fq_se**2 + b_fs_se**2)
        if rho <= thr and gap > SLACK_SIGMAS * gap_se:
            verdict = VERDICT_CERTIFIED
        else:
            verdict = VERDICT_CONSISTENT

    return WitnessReport(
        config=config,
        k_lower=k_lower,
        b_infinite_quantum=b_inf,
        b_finite_quantum=b_fq,
        b_finite_quantum_se=b_fq_se,
        b_finite_seesaw_d=b_fs,
        b_finite_seesaw_se=b_fs_se,
        adversary_upper_bound=upper,
        eps_threshold=thr,
        net_size=net.size,
        covering_radius=rho,
        moment_method="exact" if moments.samples_used == 0 else "monte_carlo",
        empty_regions=int(moments.empty_regions.size),
        tsirelson_validation_dev=tsirelson_dev,
        seesaw_converged=adversary.converged,
        chain_checks=tuple(checks),
        verdict=verdict,
    )
