"""Closed-form constants, centering transforms and limiting laws.

Everything here is exact arithmetic on the parameters of a coverage
experiment; no randomness.  Gamma functions are evaluated through
``lgamma`` so the constants stay finite-precision-exact up to d ~ 50.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

_E = math.e


class LimitsError(ValueError):
    pass


class Regime(str, Enum):
    WEAK_BOUNDARY = "weak_boundary"
    WEAK_INTERIOR = "weak_interior"
    SLLN = "slln"


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d; equals 1 at d=0 by convention."""
    if d < 0 or int(d) != d:
        raise LimitsError(f"dimension must be a nonnegative integer, got {d}")
    if d == 0:
        return 1.0
    return math.exp(0.5 * d * math.log(math.pi) - math.lgamma(1.0 + d / 2.0))


def interior_coefficient(d: int) -> float:
    """Coefficient of the interior Gumbel-type law.

    Equals (1/d!) * (sqrt(pi) Gamma(1+d/2) / Gamma((d+1)/2))^(d-1);
    1 for d=1,2 and 3 pi^2/32 for d=3.
    """
    if d < 1 or int(d) != d:
        raise LimitsError(f"dimension must be a positive integer, got {d}")
    log_ratio = (0.5 * math.log(math.pi) + math.lgamma(1.0 + d / 2.0)
                 - math.lgamma((d + 1.0) / 2.0))
    return math.exp(-math.lgamma(d + 1.0) + (d - 1.0) * log_ratio)


def boundary_coefficient(d: int, k: int) -> float:
    """Coefficient of the boundary Gumbel-type law for k-coverage in dim d.

    Closed forms worth remembering: for d=2 it is 2^(1-k) pi^(-1/2)/(k-1)!
    and for d=3 it is 2^(k-5) 3^(1-k) pi^(5/3)/(k-1)!.
    """
    if d < 2:
        raise LimitsError(f"boundary coefficient needs d >= 2, got {d}")
    if k < 1:
        raise LimitsError(f"k must be >= 1, got {k}")
    log_c = (math.log(interior_coefficient(d - 1)) - math.lgamma(k)
             + (2.0 - d - 1.0 / d) * math.log(unit_ball_volume(d))
             + (2.0 * d - 3.0) * math.log(unit_ball_volume(d - 1))
             + (1.0 - d) * math.log(unit_ball_volume(d - 2))
             + (d + k - 3.0 + 1.0 / d) * math.log(1.0 - 1.0 / d)
             + (-1.0 + 1.0 / d) * math.log(2.0))
    return math.exp(log_c)


def rate_function(t) -> float | np.ndarray:
    """Poisson large-deviation rate 1 - t + t*log(t), with value 1 at t=0."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise LimitsError("rate_function is only defined for t >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(arr > 0.0, 1.0 - arr + arr * np.log(np.where(arr > 0, arr, 1.0)), 1.0)
    if np.ndim(t) == 0:
        return float(out)
    return out


def rate_inverse(a: float, x: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Unique y >= a with y * rate_function(a/y) = x.

    The map y -> y - a - a*log(y/a) is 0 at y=a and strictly increasing,
    so the root is pinned down by bisection.  rate_inverse(0, x) = x.
    """
    if a < 0.0 or x < 0.0:
        raise LimitsError("rate_inverse needs a >= 0 and x >= 0")
    if a == 0.0:
        return x
    if x == 0.0:
        return a

    def g(y: float) -> float:
        return y - a - a * math.log(y / a)

    hi = a + x + 1.0
    while g(hi) < x:
        hi *= 2.0
    lo = a
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if g(mid) < x:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
    raise LimitsError(f"rate_inverse failed to converge for a={a}, x={x}")


# ---------------------------------------------------------------------------
# centering/scaling transforms


def _check_size(n_or_t: float) -> None:
    if n_or_t <= _E:
        raise LimitsError(f"sample size must exceed e, got {n_or_t}")


def boundary_centering(r, n_or_t: float, d: int, k: int, f0: float):
    """Centered/scaled statistic whose limit is the boundary Gumbel law.

    Maps a coverage radius r to
    (n theta_d f0 r^d)/2 - ((d-1)/d) log(n f0) - (d+k-3+1/d) log log n.
    Accepts scalar or array r.
    """
    _check_size(n_or_t)
    r = np.asarray(r, dtype=float)
    theta = unit_ball_volume(d)
    out = (0.5 * n_or_t * theta * f0 * r ** d
           - ((d - 1.0) / d) * math.log(n_or_t * f0)
           - (d + k - 3.0 + 1.0 / d) * math.log(math.log(n_or_t)))
    return float(out) if out.ndim == 0 else out


def interior_centering(r, n_or_t: float, d: int, k: int, f0: float):
    """Centered/scaled statistic whose limit is the interior Gumbel law.

    Maps r to n theta_d f0 r^d - log(n f0) - (d+k-2) log log n.
    """
    _check_size(n_or_t)
    r = np.asarray(r, dtype=float)
    theta = unit_ball_volume(d)
    out = (n_or_t * theta * f0 * r ** d
           - math.log(n_or_t * f0)
           - (d + k - 2.0) * math.log(math.log(n_or_t)))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# limit laws


@dataclass(frozen=True)
class LimitLaw:
    """Parameter bundle sufficient to evaluate a limiting CDF or SLLN constant.

    ``volume`` is v(B), ``boundary_area`` the surface measure of the part of
    B on the boundary of A.  ``f1`` is the density infimum over that part
    (None when B never touches the boundary).  ``beta`` is the growth rate
    of k(n)/log(n) in the SLLN regime; None encodes the super-logarithmic
    (k >> log n) regime, never a float infinity.
    """

    regime: Regime
    d: int
    k: int
    f0: float
    volume: float
    boundary_area: float = 0.0
    f1: float | None = None
    beta: float | None = 0.0

    def __post_init__(self):
        if self.d < 2:
            raise LimitsError("limit laws require d >= 2")
        if self.k < 1:
            raise LimitsError("k must be >= 1")
        if self.f0 <= 0.0 or self.volume <= 0.0 or self.boundary_area < 0.0:
            raise LimitsError("need f0 > 0, volume > 0, boundary_area >= 0")
        if self.beta is not None and (math.isinf(self.beta) or self.beta < 0.0):
            raise LimitsError("beta must be a finite value >= 0, or None for "
                              "the super-logarithmic regime")

    def to_json(self) -> dict:
        return {"regime": self.regime.value, "d": self.d, "k": self.k,
                "f0": self.f0, "vB": self.volume, "svB": self.boundary_area,
                "f1": self.f1,
                "beta": "infinity" if self.beta is None else self.beta}


def boundary_law_cdf(law: LimitLaw, zeta):
    """CDF of the boundary Gumbel-type limit at zeta.

    For d=2, k=1 the exponent has both an interior and a boundary term;
    otherwise only the boundary term survives (so the law is degenerate,
    identically 1, when B carries no boundary mass).
    """
    if law.regime is not Regime.WEAK_BOUNDARY:
        raise LimitsError(f"law regime is {law.regime}, expected weak_boundary")
    z = np.asarray(zeta, dtype=float)
    if law.d == 2 and law.k == 1:
        expo = (law.volume * np.exp(-2.0 * z)
                + boundary_coefficient(2, 1) * law.boundary_area * np.exp(-z))
    else:
        expo = boundary_coefficient(law.d, law.k) * law.boundary_area * np.exp(-z)
    out = np.exp(-expo)
    return float(out) if out.ndim == 0 else out


def interior_law_cdf(law: LimitLaw, beta_stat):
    """CDF exp(-(c_d/(k-1)!) v(B) e^-b) of the interior Gumbel-type limit."""
    if law.regime is not Regime.WEAK_INTERIOR:
        raise LimitsError(f"law regime is {law.regime}, expected weak_interior")
    b = np.asarray(beta_stat, dtype=float)
    coef = interior_coefficient(law.d) / math.factorial(law.k - 1) * law.volume
    out = np.exp(-coef * np.exp(-b))
    return float(out) if out.ndim == 0 else out


def strong_law_limit(d: int, beta: float | None, f0: float,
                     f1: float | None = None) -> float:
    """Almost-sure limit of n theta_d R^d over k(n) (beta=None) or log n.

    ``beta`` is lim k(n)/log n; pass None for the k >> log n regime (the
    two regimes have genuinely different formulas, so no float infinity).
    ``f1=None`` encodes "B never meets the boundary": its reciprocal is
    taken to be zero, which drops the boundary term.
    """
    if d < 2:
        raise LimitsError("strong laws require d >= 2")
    if f0 <= 0.0:
        raise LimitsError("need f0 > 0")
    if beta is not None and math.isinf(beta):
        raise LimitsError("use beta=None for the super-logarithmic regime")
    if f1 is not None and f1 <= 0.0:
        raise LimitsError("f1 must be positive when supplied")
    inv_f1 = 0.0 if f1 is None else 1.0 / f1
    if beta is None:
        return max(1.0 / f0, 2.0 * inv_f1)
    return max(rate_inverse(beta, 1.0) / f0,
               2.0 * rate_inverse(beta, 1.0 - 1.0 / d) * inv_f1)
