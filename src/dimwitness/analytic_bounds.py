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
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
from mpmath import mp

from .errors import DomainError

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
_LOG_F_SERIES_FROM = 100  # log_f switches to its asymptotic series here

# Lanczos coefficients, g = 7, 9 terms (Godfrey's set).  Relative accuracy of
# the resulting ln Gamma is a few ulp over the whole positive real axis.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos(x):
    # main branch, valid for x >= 0.5
    z = x - 1.0
    series = np.full_like(z, _LANCZOS_C[0])
    for k in range(1, 9):
        series = series + _LANCZOS_C[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    return HALF_LOG_TWO_PI + (z + 0.5) * np.log(t) - t + np.log(series)


def log_gamma(x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """ln Gamma(x) for x > 0, scalar or array.

    Lanczos approximation on x >= 0.5, reflection below.  Accuracy is a few
    ulp relative; in particular the absolute error is below 1e-13 wherever
    |ln Gamma| <= ~50 and the relative error stays below 1e-13 up to x = 1e6.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("log_gamma requires x > 0")
    out = np.empty_like(arr)
    small = arr < 0.5
    if np.any(~small):
        out[~small] = _lanczos(arr[~small])
    if np.any(small):
        xs = arr[small]
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        out[small] = np.log(np.pi / np.sin(np.pi * xs)) - _lanczos(1.0 - xs)
    if np.ndim(x) == 0:
        return float(out)
    return out


def log_f(n: Union[int, float, np.ndarray]) -> Union[float, np.ndarray]:
    """ln of the normalized Gamma ratio: ln Gamma((n+1)/2) - ln Gamma(n/2) - ln(n)/2.

    From n = 100 on this is the asymptotic series of ln(Gamma(k+1/2)/Gamma(k))
    at k = n/2, -ln(2)/2 - 1/(4n) + 1/(24n^3) - 1/(20n^5) + 17/(112n^7), which
    is within 1e-16 of the exact value there.  The difference of two ln Gamma
    values near n/2 is off by up to ~3e-9 at n ~ 1e6, more than the true
    K(n, n-1) - 1 ~ 1/(2n^2), so it would put K at or below 1.
    """
    arr = np.asarray(n, dtype=float)
    if arr.size and np.any(arr < 1):
        raise DomainError("f requires n >= 1")
    val = np.empty_like(arr)
    big = arr >= _LOG_F_SERIES_FROM
    small = arr[~big]
    val[~big] = (
        log_gamma((small + 1.0) / 2.0) - log_gamma(small / 2.0) - 0.5 * np.log(small)
    )
    t = 1.0 / arr[big]
    t2 = t * t
    series = -0.25 + t2 * (1.0 / 24.0 + t2 * (-0.05 + t2 * (17.0 / 112.0)))
    val[big] = t * series - HALF_LOG_TWO
    return val[()]


def f(n: int) -> float:
    """Gamma((n+1)/2) / (sqrt(n) Gamma(n/2)), evaluated in the log domain.

    Strictly increasing on the integers, with limit 1/sqrt(2).
    """
    if n < 1:
        raise DomainError("f requires n >= 1")
    return float(math.exp(log_f(n)))


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
        return {
            "n": self.n,
            "m": self.m,
            "bound": self.bound,
            "log_bound": self.log_bound,
            "asymptotic_estimate": self.asymptotic_estimate,
            "f_n": self.f_n,
            "f_m": self.f_m,
        }


def _check_nm(n: int, m: int) -> None:
    if int(n) != n or int(m) != m:
        raise DomainError("n and m must be integers")
    if m < 1:
        raise DomainError("m must satisfy m ≥ 1")
    if m > n:
        raise DomainError("m must satisfy m ≤ n")


def kg_lower_bound(n: int, m: int) -> LowerBoundReport:
    """Lower bound on the vector-to-vector bilinear form ratio for R^n vs R^m.

    Value: (m/n) * (Gamma(m/2) Gamma((n+1)/2) / (Gamma((m+1)/2) Gamma(n/2)))^2,
    equal to (f(n)/f(m))^2.  Strictly greater than 1 for m < n; exactly 1 at
    m = n (permitted as a trivial anchor even though the interesting regime
    is m < n).
    """
    _check_nm(n, m)
    n = int(n)
    m = int(m)
    log_bound = 2.0 * float(log_f(float(n)) - log_f(float(m)))
    bound = math.exp(log_bound)
    return LowerBoundReport(
        n=n,
        m=m,
        bound=bound,
        log_bound=log_bound,
        asymptotic_estimate=asymptotic_estimate(n, m),
        f_n=f(n),
        f_m=f(m),
    )


def asymptotic_estimate(n: int, m: int) -> float:
    """Two-term large-dimension estimate 1 + 1/(2m) - 1/(2n)."""
    _check_nm(n, m)
    return 1.0 + 1.0 / (2.0 * m) - 1.0 / (2.0 * n)


def gamma_ratio_series(k: float, terms: int) -> float:
    """Truncated asymptotic series for Gamma(k + 1/2) / Gamma(k).

    sqrt(k) * (1 - 1/(8k) + 1/(128 k^2)), keeping `terms` factors in {1,2,3}.
    The first omitted term after three is (5/1024) sqrt(k)/k^3, which sets the
    accuracy floor of the 3-term truncation.
    """
    if k < 1:
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
    lose resolution when f saturates toward 1/sqrt(2) at large n.  Returns
    (True, None) or (False, first_violating_k).
    """
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    ns = np.arange(1, n_max + 1, dtype=float)
    lf = log_f(ns)
    diffs = np.diff(lf)
    bad = np.nonzero(~(diffs > 0.0))[0]
    if bad.size:
        return False, int(bad[0]) + 1
    return True, None


def robbins_bounds(x: float) -> Tuple[float, float]:
    """Two-sided factorial bracket, returned in the log domain.

    ln lo = ln sqrt(2 pi) + (x + 1/2) ln x - x + 1/(12x + 1)
    ln hi = same with exponent correction 1/(12x)
    and ln lo < ln Gamma(x+1) < ln hi for all real x >= 2.

    The strict bracket is certified on every call at 40 digits: the upper
    margin shrinks like 1/(360 x^3) and falls below the float64 resolution of
    ln Gamma near x ~ 4000, so the returned doubles bracket only up to ulp
    noise at the top of the range.
    """
    if x < 2:
        raise DomainError("robbins_bounds requires x >= 2")
    x = float(x)
    base = HALF_LOG_TWO_PI + (x + 0.5) * math.log(x) - x
    lo = base + 1.0 / (12.0 * x + 1.0)
    hi = base + 1.0 / (12.0 * x)
    with mp.workdps(40):
        xm = mp.mpf(x)
        base_m = 0.5 * mp.log(2 * mp.pi) + (xm + 0.5) * mp.log(xm) - xm
        val = mp.loggamma(xm + 1)
        if not (base_m + 1 / (12 * xm + 1) < val < base_m + 1 / (12 * xm)):
            raise AssertionError(f"factorial bracket failed at x={x}")
    return lo, hi


def log1p_bounds(n: int) -> Tuple[float, float]:
    """Four/three-term alternating-series bracket of ln(1 + 1/n).

    lo = 1/n - 1/(2n^2) + 1/(3n^3) - 1/(4n^4), hi drops the last term.  The
    bracket is certified on every call by a 60-digit comparison, since in
    double precision the interval width 1/(4n^4) falls below the ulp of 1/n
    for n beyond ~1e4.
    """
    if n < 1:
        raise DomainError("log1p_bounds requires n >= 1")
    n = int(n)
    with mp.workdps(60):
        inv = mp.mpf(1) / n
        hi = inv - mp.mpf(1) / (2 * n**2) + mp.mpf(1) / (3 * n**3)
        lo = hi - mp.mpf(1) / (4 * n**4)
        val = mp.log1p(inv)
        if not (lo <= val <= hi):
            raise AssertionError(f"log1p bracket failed at n={n}")
        return float(lo), float(hi)


def y_closed_form(n: int, k: int) -> float:
    """Expected partial norm E[(a_1^2 + ... + a_k^2)^(1/2)] on the unit sphere in R^n.

    Normalized-measure closed form:
    Gamma((k+1)/2) Gamma(n/2) / (Gamma(k/2) Gamma((n+1)/2)).
    Under the unnormalized surface measure every value picks up the same
    factor (the sphere area), so only this ratio is ever reported.
    """
    _check_nm(n, k)
    # paired so both differences vanish exactly at k = n
    lg = (log_gamma((k + 1.0) / 2.0) - log_gamma((n + 1.0) / 2.0)) + (
        log_gamma(n / 2.0) - log_gamma(k / 2.0)
    )
    return math.exp(lg)
