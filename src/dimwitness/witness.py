"""End-to-end dimension-witness pipeline on a finite question set.

A net discretizes the sphere in R^n; the Bell functional weights each pair of
regions by the inner product of their vector moments.  Inner-product
correlations (realizable with local dimension 2^floor(n/2)) score close to
1/n, while any strategy of local dimension d embeds into real unit vectors of
dimension m = 2d^2 and is therefore capped by the analytic ratio bound.  The
chain of inequalities connecting the two is checked explicitly on every run;
a failure beyond the statistical slack is a theory violation and trips the
build.

At n = 3 the moments are exact (`voronoi_moments` on the geodesic net) and
there is no statistical slack.  On greedy nets they are Monte Carlo
estimates, and the slack is 4 standard errors (the inequalities are exact;
only the moment estimators fluctuate), with errors combined in quadrature.
The c4 check compares two functions of the same moments and has none.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from .analytic_bounds import kg_lower_bound
from .embedding_opt import (
    ADVERSARY_MAX_ITERS,
    ADVERSARY_RESTARTS,
    ADVERSARY_STOP_RULE,
    dot_adversary,
    dot_upper_bound,
    moment_value_std_error,
)
from .errors import DomainError, NumericalIntegrityError
from .quantum import MAX_GENERATORS, max_correlation_deviation, tsirelson_strategy
from .seeding import derive_seed, make_rng
from .sphere import (
    MIN_SAMPLES_PER_REGION,
    RegionMoments,
    SphereSampler,
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
VALIDATION_PAIRS = 64  # sampled net pairs on which the Tsirelson strategy is checked


@dataclass(frozen=True)
class WitnessConfig:
    """One (n, d, eps) witness run with seeds and MC budgets.

    The pipeline needs n >= 2 d^2 + 1 for a separation to be possible at all;
    smaller n is allowed only with allow_small_n (useful as a null test).
    moment_samples_per_region acts only on greedy nets (n != 3): the n = 3
    geodesic net takes exact moments and draws no samples.
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
        if self.n < 1 or self.d < 1:
            raise DomainError("n and d must be positive")
        if not (0.0 < self.eps < 1.0):
            raise DomainError("eps must lie in (0, 1)")
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
            "validation_pairs": VALIDATION_PAIRS,
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
    covering_radius: Optional[float]
    # "exact" (`voronoi_moments`, n = 3) or "monte_carlo" (`region_moments`)
    moment_method: str
    empty_regions: int
    tsirelson_validation_dev: Optional[float]
    # the best adversary restart stopped because neither the damped Newton
    # step nor the fixed-point step raised f, not at adversary_max_iters
    seesaw_converged: bool
    chain_checks: List[ChainCheck]
    verdict: str

    def to_dict(self) -> dict:
        """`schema` and `kind`, then every field in declaration order, with the
        config as `WitnessConfig.to_dict` and each chain check as a dict."""
        doc = {"schema": 1, "kind": "witness_report"}
        doc.update((f.name, getattr(self, f.name)) for f in fields(self))
        doc["config"] = self.config.to_dict()
        doc["chain_checks"] = [asdict(c) for c in self.chain_checks]
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
    with values in [-1, 1].
    """
    if sampler.dim != n:
        raise DomainError("sampler dimension mismatch")
    if samples < 1:
        raise DomainError("samples must be positive")

    def draw(b: int) -> np.ndarray:
        pair = sampler.sample(2 * b)
        a_pts, b_pts = pair[:b], pair[b:]
        corr = np.asarray(correlation_fn(a_pts, b_pts), dtype=float)
        if corr.shape != (b,):
            raise DomainError("correlation_fn must return one value per pair")
        if np.any(np.abs(corr) > 1.0 + 1e-9):
            raise DomainError("correlations must lie in [-1, 1]")
        return np.einsum("ij,ij->i", a_pts, b_pts) * corr

    return mc_mean_and_sem(samples, draw)


def bell_value_finite(net, moments: RegionMoments, correlations) -> float:
    """sum_uv (w_u . w_v) E[uv] over net regions.

    `correlations` is the factored pair (L, R) with E = L R^T; the sum runs
    in O(size * n) memory via the coordinate decomposition of w_u . w_v.
    """
    w = moments.moment_vectors
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
    return float(np.sum((w.T @ left) * (w.T @ right)))


def eps_threshold(n: int, d: int) -> float:
    """Largest eps for which (1/n - 2 eps) > (1/K) (1/n + 2 eps).

    Solving the strict inequality with K the analytic ratio bound at
    m = 2 d^2 gives eps* = (K - 1) / (2 n (K + 1)); the chain certifies a
    separation only below it.
    """
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

def _validate_tsirelson_on_net(net, pairs: int, seed: int) -> Optional[float]:
    """Max |<A u x B v> - u.v| over sampled net pairs; None when n is too large
    to simulate densely."""
    if net.dim > MAX_GENERATORS or net.size < 1:
        return None
    pair_index = make_rng(seed, 0).integers(net.size, size=(pairs, 2))
    u, v = net.points[pair_index.T]
    worst = max_correlation_deviation(tsirelson_strategy(net.dim), u, v)
    if worst > 1e-10:
        raise NumericalIntegrityError(
            f"inner-product strategy deviated by {worst:.3e} on net points"
        )
    return worst


def run_witness(config: WitnessConfig) -> WitnessReport:
    """Run net -> moments -> Bell values -> adversary -> inequality chain.

    At n = 3 the net is the geodesic net of the smallest frequency whose
    computed covering radius rho is <= eps, and its moments are exact
    (`voronoi_moments`): every standard error is exactly 0, so c1-c4 have no
    4-sigma term.  In other dimensions the net is the greedy eps-packing,
    filled until its hull's widest empty cap, its computed covering radius
    rho, is <= eps, and its moments are Monte Carlo estimates
    (`region_moments`, moment_samples_per_region per region).  The adversary is `dot_adversary` at
    m = 2d^2: the best of ADVERSARY_RESTARTS damped Newton ascents of the
    reduced objective, a lower bound on the true maximum over R^m vectors.
    The chain-check names keep their see-saw wording.

    Chain checks (slack is the satisfied margin; c1-c3 add 4 sigma of
    moment error where the moments are Monte Carlo):
      c1: finite quantum value >= 1/n - 2 rho        (discretization loss)
      c2: adversary at m = 2d^2 <= (1/K) (1/n)       (embedding cap)
      c3: adversary <= (1/K) (finite quantum + 2 rho) (combined chain)
      c4: adversary <= U = `dot_upper_bound`         (only for m < n)
    U bounds every assignment's value for the moments as given, so c4 has
    no sigma term.

    The verdict is certified_separation only for a computed rho <= eps*; a
    net without a computed radius (covering_radius None: a greedy net whose
    hull passed its memory bound, in practice at n >= 9) charges eps for
    rho and never certifies.
    """
    n, eps, m = config.n, config.eps, config.m

    net_seed = derive_seed(config.seed, "net")
    if n == 3:
        net = geodesic_net(geodesic_frequency(eps, config.max_net_points), net_seed)
        moments = voronoi_moments(net)
        moment_method = "exact"
    else:
        net = build_eps_net(n, eps, seed=net_seed, max_points=config.max_net_points)
        sampler = SphereSampler(n, derive_seed(config.seed, "moments"))
        moments = region_moments(
            net, samples=config.moment_samples_per_region * net.size, sampler=sampler
        )
        moment_method = "monte_carlo"
    rho = net.covering_radius
    loss = 2.0 * (eps if rho is None else rho)

    validation_dev = _validate_tsirelson_on_net(
        net, VALIDATION_PAIRS, derive_seed(config.seed, "validation")
    )

    u = net.points

    # finite Bell value of the inner-product correlations, E = U U^T factored
    b_fq = bell_value_finite(net, moments, (u, u))
    b_fq_se = moment_value_std_error(moments, u)

    adversary, b_fs_se = dot_adversary(moments, m, derive_seed(config.seed, "seesaw"))
    b_fs = adversary.value
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
        if rho is not None and rho <= thr and gap > SLACK_SIGMAS * gap_se:
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
        moment_method=moment_method,
        empty_regions=int(moments.empty_regions.size),
        tsirelson_validation_dev=validation_dev,
        seesaw_converged=adversary.converged,
        chain_checks=checks,
        verdict=verdict,
    )
