"""Closed-form evaluation of the dimension-reduction lower bound.

Everything here is exact Gamma-function arithmetic carried out in the log
domain, so the bound stays finite at ambient dimensions up to 10^6 where a
direct Gamma evaluation would overflow.  The module also provides the
verification machinery for the supporting inequalities: the factorial
bracket of Robbins, four-term log(1+1/n) brackets, the asymptotic series for
Gamma(k+1/2)/Gamma(k), and the strict monotonicity of the normalized Gamma
ratio f(n) = Gamma((n+1)/2) / (sqrt(n) Gamma(n/2)).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import DomainError, NumericalIntegrityError, as_integer

__all__ = [
    "LowerBoundReport",
    "log_gamma",
    "kg_lower_bound",
    "asymptotic_estimate",
    "gamma_ratio_series",
    "f",
    "log_f",
    "monotonicity_check",
    "robbins_bounds",
    "log1p_bounds",
    "y_closed_form",
]

HALF_LOG_TWO_PI = 0.9189385332046727  # ln(2*pi)/2
HALF_LOG_TWO = 0.34657359027997264  # ln(2)/2
_LOG_F_SERIES_FROM = 50  # log_f switches to its asymptotic series here
# decimal digits that a bracket's certification carries beyond its margin's
_HEADROOM_DIGITS = 10
# steps f(k) -> f(k+1) that `monotonicity_check` tests per block
_MONOTONE_BLOCK = 1 << 16


def log_gamma(x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """ln Gamma(x) for x > 0, scalar or array.

    `math.lgamma`, mapped over a memoryview of the array's elements
    straight into a float64 array (no intermediate list or object array,
    which for 1e6 elements would hold 1e6 boxed floats).  Its relative
    error is about 1e-15 (so the absolute error is ~1e-9 at x ~ 1e6), and
    it stays finite far beyond the x = 1e6 this package needs.

    The tests pin arrays to `math.lgamma` bit for bit, which no vectorized
    path keeps: a numpy port of CPython's Lanczos sum matched it on every
    argument tried with its logs from `math.log`, but with `np.log` (numpy
    2.4.6, AVX-512) it differed on 58 of 1e6 arguments in [0.01, 1e6],
    about 400 of 1e6 in (0, 10] and 102 of the 2e6 multiples of 1/2 to 1e6.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("log_gamma requires x > 0")
    if np.ndim(x) == 0:
        return math.lgamma(float(arr))
    # a 1-D memoryview yields each element as a Python float
    values = map(math.lgamma, memoryview(arr.ravel()))
    return np.fromiter(values, float, arr.size).reshape(arr.shape)


def _log_f_series(n):
    """The asymptotic series of log_f at n >= 50, for a number or an array.
    An int divides exactly (1 / n), so an n past float range gives t = 0."""
    t = 1 / n
    t2 = t * t
    series = -0.25 + t2 * (1.0 / 24.0 + t2 * (-0.05 + t2 * (17.0 / 112.0)))
    return t * series - HALF_LOG_TWO


def log_f(n: Union[int, float, np.ndarray]) -> Union[float, np.ndarray]:
    """ln of the normalized Gamma ratio: ln Gamma((n+1)/2) - ln Gamma(n/2) - ln(n)/2.

    From n = 50 on this is the asymptotic series of ln(Gamma(k+1/2)/Gamma(k))
    at k = n/2, -ln(2)/2 - 1/(4n) + 1/(24n^3) - 1/(20n^5) + 17/(112n^7), which
    is within 5e-16 of the exact value there.  The difference of two ln Gamma
    values near n/2 grows with their size: off by up to ~1e-14 at n ~ 60 and
    ~1e-9 at n ~ 1e6, more than the true K(n, n-1) - 1 ~ 1/(2n^2), so it
    would put K at or below 1.

    A scalar takes `math.lgamma` and `math.log` directly, with no array
    machinery; on integers it equals the array path bit for bit.  It is
    compared as given, not as a float, so an int past float range (10^400)
    takes the series.
    """
    if np.ndim(n) == 0:
        if not n >= 1:  # NaN too
            raise DomainError("f requires n >= 1")
        if n >= _LOG_F_SERIES_FROM:
            return float(_log_f_series(n))
        x = float(n)
        return math.lgamma((x + 1.0) / 2.0) - math.lgamma(x / 2.0) - 0.5 * math.log(x)
    arr = np.asarray(n, dtype=float)
    if not (arr >= 1).all():  # NaN too
        raise DomainError("f requires n >= 1")
    val = np.empty_like(arr)
    big = arr >= _LOG_F_SERIES_FROM
    small = arr[~big]
    val[~big] = (
        log_gamma((small + 1.0) / 2.0) - log_gamma(small / 2.0) - 0.5 * np.log(small)
    )
    val[big] = _log_f_series(arr[big])
    return val


def f(n: int) -> float:
    """Gamma((n+1)/2) / (sqrt(n) Gamma(n/2)), evaluated in the log domain.

    Strictly increasing on the integers, with limit 1/sqrt(2).
    """
    return math.exp(log_f(n))


@dataclass(frozen=True)
class LowerBoundReport:
    """One evaluation of the dimension-reduction lower bound."""

    n: int
    m: int
    bound: float
    log_bound: float
    asymptotic_estimate: float
    f_n: float
    f_m: float

    def to_dict(self) -> dict:
        return asdict(self)


def _check_nm(n: int, m: int, name: str = "m") -> Tuple[int, int]:
    """(n, m) as ints, refused unless they are whole numbers with 1 <= m <= n;
    the refusals call m `name`."""
    n, m = as_integer("n", n), as_integer(name, m)
    if m < 1:
        raise DomainError(f"{name} must satisfy {name} ≥ 1")
    if m > n:
        raise DomainError(f"{name} must satisfy {name} ≤ n")
    return n, m


def kg_lower_bound(n: int, m: int) -> LowerBoundReport:
    """Lower bound on the vector-to-vector bilinear form ratio for R^n vs R^m.

    Value: (m/n) * (Gamma(m/2) Gamma((n+1)/2) / (Gamma((m+1)/2) Gamma(n/2)))^2,
    equal to (f(n)/f(m))^2.  Strictly greater than 1 for m < n; exactly 1 at
    m = n (permitted as a trivial anchor even though the interesting regime
    is m < n).
    """
    n, m = _check_nm(n, m)
    log_f_n = log_f(n)
    log_f_m = log_f(m)
    log_bound = 2.0 * (log_f_n - log_f_m)
    return LowerBoundReport(
        n=n,
        m=m,
        bound=math.exp(log_bound),
        log_bound=log_bound,
        asymptotic_estimate=asymptotic_estimate(n, m),
        f_n=math.exp(log_f_n),
        f_m=math.exp(log_f_m),
    )


def asymptotic_estimate(n: int, m: int) -> float:
    """Two-term large-dimension estimate 1 + 1/(2m) - 1/(2n).  The ints
    divide exactly, so an n past float range gives 1 + 1/(2m)."""
    n, m = _check_nm(n, m)
    return 1.0 + 1 / (2 * m) - 1 / (2 * n)


def gamma_ratio_series(k: float, terms: int) -> float:
    """Truncated asymptotic series for Gamma(k + 1/2) / Gamma(k).

    sqrt(k) * (1 - 1/(8k) + 1/(128 k^2)), keeping `terms` factors in {1,2,3}.
    The first omitted term after three is (5/1024) sqrt(k)/k^3, which sets the
    accuracy floor of the 3-term truncation.
    """
    if not k >= 1:  # NaN too
        raise DomainError("gamma_ratio_series requires k >= 1")
    if terms not in (1, 2, 3):
        raise DomainError("terms must be 1, 2 or 3")
    acc = 1.0
    if terms >= 2:
        acc -= 1.0 / (8.0 * k)
    if terms >= 3:
        acc += 1.0 / (128.0 * k * k)
    return math.sqrt(k) * acc


def monotonicity_check(n_max: int) -> Tuple[bool, Optional[int]]:
    """Check f(k+1) > f(k) strictly for all 1 <= k < n_max.

    Works entirely on log f and compares differences, so the check does not
    lose resolution when f saturates toward 1/sqrt(2) at large n.  The
    values are computed in blocks of _MONOTONE_BLOCK steps, each block
    starting at the last k of the one before, so memory stays fixed
    whatever n_max and every step is tested once.  Returns (True, None) or
    (False, first_violating_k).
    """
    n_max = as_integer("n_max", n_max)
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    for first in range(1, n_max, _MONOTONE_BLOCK):
        ns = np.arange(first, min(first + _MONOTONE_BLOCK, n_max) + 1, dtype=float)
        bad = np.flatnonzero(~(np.diff(log_f(ns)) > 0.0))
        if bad.size:
            return False, first + int(bad[0])
    return True, None


def robbins_bounds(x: float) -> Tuple[float, float]:
    """Two-sided factorial bracket, returned in the log domain.

    ln lo = ln sqrt(2 pi) + (x + 1/2) ln x - x + 1/(12x + 1)
    ln hi = same with exponent correction 1/(12x)
    and ln lo < ln Gamma(x+1) < ln hi for all real x >= 2.

    The strict bracket is certified on every call in mpmath.  The upper
    margin shrinks like 1/(360 x^3), a fraction 1/(360 x^4 ln x) of ln
    Gamma(x+1), so telling it apart takes log10(360 x^4 ln x) digits (19.5
    at x = 1e4, 41.8 at 3e9); the comparison runs at that plus
    _HEADROOM_DIGITS = 10, and at no fewer than 40.  The margin falls below
    the float64 resolution of ln Gamma near x ~ 4000, so the returned
    doubles bracket only up to ulp noise beyond.  A NaN or infinite x is
    refused.
    """
    if not 2 <= x < math.inf:
        raise DomainError("robbins_bounds requires a finite x >= 2")
    from mpmath import mp  # 20-30 ms to import; only the brackets need it

    x = float(x)
    base = HALF_LOG_TWO_PI + (x + 0.5) * math.log(x) - x
    lo = base + 1.0 / (12.0 * x + 1.0)
    hi = base + 1.0 / (12.0 * x)
    margin_digits = 4 * math.log10(x) + math.log10(360 * math.log(x))
    with mp.workdps(max(40, math.ceil(margin_digits) + _HEADROOM_DIGITS)):
        xm = mp.mpf(x)
        base_m = 0.5 * mp.log(2 * mp.pi) + (xm + 0.5) * mp.log(xm) - xm
        val = mp.loggamma(xm + 1)
        if not (base_m + 1 / (12 * xm + 1) < val < base_m + 1 / (12 * xm)):
            raise NumericalIntegrityError(f"factorial bracket failed at x={x}")
    return lo, hi


def log1p_bounds(n: int) -> Tuple[float, float]:
    """Four/three-term alternating-series bracket of ln(1 + 1/n).

    lo = 1/n - 1/(2n^2) + 1/(3n^3) - 1/(4n^4), hi drops the last term.  The
    bracket is certified on every call in mpmath, since in double precision
    the interval width 1/(4n^4) falls below the ulp of 1/n for n beyond
    ~1e4.  The lower margin, about 1/(5n^5), is a fraction 1/(5n^4) of
    ln(1 + 1/n), so telling it apart takes log10(5n^4) digits (24.7 at n =
    1e6, 64.7 at 1e16); the comparison runs at that plus _HEADROOM_DIGITS =
    10, and at no fewer than 60.
    """
    n = as_integer("n", n)
    if n < 1:
        raise DomainError("log1p_bounds requires n >= 1")
    from mpmath import mp  # 20-30 ms to import; only the brackets need it

    margin_digits = math.log10(5) + 4 * math.log10(n)
    with mp.workdps(max(60, math.ceil(margin_digits) + _HEADROOM_DIGITS)):
        inv = mp.mpf(1) / n
        hi = inv - mp.mpf(1) / (2 * n**2) + mp.mpf(1) / (3 * n**3)
        lo = hi - mp.mpf(1) / (4 * n**4)
        val = mp.log1p(inv)
        if not (lo <= val <= hi):
            raise NumericalIntegrityError(f"log1p bracket failed at n={n}")
        return float(lo), float(hi)


def y_closed_form(n: int, k: int) -> float:
    """Expected partial norm E[(a_1^2 + ... + a_k^2)^(1/2)] on the unit sphere in R^n.

    Normalized-measure closed form:
    Gamma((k+1)/2) Gamma(n/2) / (Gamma(k/2) Gamma((n+1)/2)) = sqrt(k/n) f(k)/f(n).
    Under the unnormalized surface measure every value picks up the same
    factor (the sphere area), so only this ratio is ever reported.
    """
    _check_nm(n, k, "k")
    return math.sqrt(k / n) * math.exp(log_f(k) - log_f(n))
