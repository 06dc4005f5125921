"""Bessel functions of integer and half-integer order, log-Gamma, and the
first local maximum of the weighted radial profile r^{1-d/2} J_nu(r).

Orders are carried around as exact integers (twice the order), which covers
every order nu = d/2 - 1 + k arising from a dimension d >= 2 and a degree
k >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

__all__ = [
    "BesselOrder",
    "MAX_ARGUMENT",
    "MAX_TWICE_NU",
    "check_admissible",
    "bessel_j",
    "log_gamma",
    "landau_constant",
    "sup_critical_point",
    "first_zero_lower_bound",
    "first_zero_estimate",
    "SpecfunDomainError",
    "RootBracketError",
]

# evaluation limits of bessel_j; they cover every computation in this package
MAX_ARGUMENT = 1000.0
MAX_TWICE_NU = 120

# sup over nu > 0, r > 0 of |r^(1/3) J_nu(r)| = 0.78574687... (Landau,
# J. London Math. Soc. 61, 2000), rounded up because it enters the bound U.
_LANDAU_CONSTANT = 0.7857469


class SpecfunDomainError(ValueError):
    """Argument outside the supported domain."""


class RootBracketError(RuntimeError):
    """No first-lobe sign change of the critical-point residual was found."""


def check_admissible(d: int, k: int = 0, p: float = math.inf) -> None:
    """Admitted parameters: dimension d >= 2, degree k >= 0, exponent p > 2d/(d-1)."""
    if d < 2 or k < 0:
        raise SpecfunDomainError(f"need d >= 2 and k >= 0, got d={d}, k={k}")
    if not p > 2.0 * d / (d - 1):
        raise SpecfunDomainError(f"inadmissible exponent p={p} for d={d} (need p > {2.0*d/(d-1)})")


@dataclass(frozen=True)
class BesselOrder:
    """Order nu stored exactly as the integer 2*nu."""

    twice_nu: int

    def __post_init__(self):
        if not isinstance(self.twice_nu, int) or self.twice_nu < 0:
            raise SpecfunDomainError(f"twice_nu must be a non-negative integer, got {self.twice_nu!r}")

    @property
    def nu(self) -> float:
        return self.twice_nu / 2.0

    @classmethod
    def from_dim_degree(cls, d: int, k: int) -> "BesselOrder":
        """Order nu = d/2 - 1 + k for dimension d >= 2 and degree k >= 0."""
        check_admissible(d, k)
        return cls(d - 2 + 2 * k)

    def shifted(self, by: int) -> "BesselOrder":
        return BesselOrder(self.twice_nu + 2 * by)


def bessel_j(nu: BesselOrder, r):
    """J_nu(r) for r >= 0, r a float or an array.

    The order and the largest argument are checked against MAX_TWICE_NU and
    MAX_ARGUMENT once per call.  A float r gives a float, exact at r = 0
    (1 for nu = 0, 0 otherwise); elsewhere the value is scipy's jv, which is
    well within 1e-12 relative for the moderate orders and arguments admitted.
    """
    if nu.twice_nu > MAX_TWICE_NU:
        raise SpecfunDomainError(f"order 2nu={nu.twice_nu} exceeds MAX_TWICE_NU={MAX_TWICE_NU}")
    scalar = np.ndim(r) == 0
    lo, hi = (r, r) if scalar else (np.min(r), np.max(r))
    if lo < 0:
        raise SpecfunDomainError(f"negative argument r={lo}")
    if hi > MAX_ARGUMENT:
        raise SpecfunDomainError(f"argument r={hi} exceeds MAX_ARGUMENT={MAX_ARGUMENT}")
    if not scalar:
        return jv(nu.nu, r)
    if r == 0.0:
        return 1.0 if nu.twice_nu == 0 else 0.0
    return float(jv(nu.nu, r))


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise SpecfunDomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def landau_constant() -> float:
    """L = sup_{nu>0, r>0} |r^(1/3) J_nu(r)| = 0.78574687..., rounded up."""
    return _LANDAU_CONSTANT


def first_zero_lower_bound(nu: float) -> float:
    """Lower bound nu + 1.8557571 nu^(1/3) < j_{nu,1} for nu > 0.

    The constant is -a_1 / 2^(1/3) = 1.85575708..., a_1 the first zero of the
    Airy function (Qu and Wong, Trans. AMS 351, 1999), rounded to 8 digits;
    the gap to j_{nu,1} is at least 0.26 for 2 nu <= 122, far above the
    rounding.
    """
    return nu + 1.8557571 * nu ** (1.0 / 3.0)


def first_zero_estimate(nu: float) -> float:
    """Upper estimate for the first positive zero j_{nu,1} of J_nu.

    For nu > 0, j_{nu,1} exceeds first_zero_lower_bound(nu) by less than
    1.0332 nu^(-1/3) (Qu and Wong, Trans. AMS 351, 1999).  So for nu >= 1 the
    estimate is above j_{nu,1} and less than pi above it, hence below j_{nu,2}:
    zeros of J_nu are more than pi apart for nu > 1/2.
    """
    # the small-order floor keeps the estimate above j_{0,1} ~ 2.4048
    return first_zero_lower_bound(max(nu, 1.0)) + 2.5


def sup_critical_point(d: int, k: int) -> float:
    """Smallest r* > 0 where r^(1-d/2) J_nu(r), nu = d/2 - 1 + k, peaks.

    Critical points solve k*J_nu(r) = r*J_{nu+1}(r).  The residual is positive
    at r = 1e-3 and negative at first_zero_lower_bound(nu) < j_{nu,1}, so the
    sign change lies in the first lobe, where it is unique (see lambda_sup);
    it is bisected to 1e-12.
    """
    if k < 1:
        raise SpecfunDomainError(f"need k >= 1, got k={k}")
    order = BesselOrder.from_dim_degree(d, k)
    above = order.shifted(1)

    def residual(r: float) -> float:
        return k * bessel_j(order, r) - r * bessel_j(above, r)

    lo, hi = 1e-3, first_zero_lower_bound(order.nu)
    if not residual(lo) > 0.0 > residual(hi):
        raise RootBracketError(f"residual does not change sign on [{lo}, {hi}] for d={d}, k={k}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
