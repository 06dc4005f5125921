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
    "EvalAccuracy",
    "DEFAULT_ACCURACY",
    "bessel_j",
    "log_gamma",
    "landau_constant",
    "sup_critical_point",
    "first_zero_estimate",
    "SpecfunDomainError",
    "RootBracketError",
]

# sup over nu > 0, r > 0 of |r^(1/3) J_nu(r)| = 0.78574687... (Landau,
# J. London Math. Soc. 61, 2000), rounded up because it enters the bound U.
_LANDAU_CONSTANT = 0.7857469


class SpecfunDomainError(ValueError):
    """Argument outside the supported domain."""


class RootBracketError(RuntimeError):
    """No first-lobe sign change of the critical-point residual was found."""


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
        if d < 2 or k < 0:
            raise SpecfunDomainError(f"need d >= 2 and k >= 0, got d={d}, k={k}")
        return cls(d - 2 + 2 * k)

    def shifted(self, by: int) -> "BesselOrder":
        return BesselOrder(self.twice_nu + 2 * by)


@dataclass(frozen=True)
class EvalAccuracy:
    """Evaluation limits; defaults cover every computation in this package."""

    target_rel_error: float = 1e-12
    max_argument: float = 1000.0
    max_twice_nu: int = 120

    def __post_init__(self):
        if self.target_rel_error <= 0 or self.max_argument <= 0:
            raise SpecfunDomainError("target_rel_error and max_argument must be positive")


DEFAULT_ACCURACY = EvalAccuracy()


def bessel_j(nu: BesselOrder, r: float, accuracy: EvalAccuracy = DEFAULT_ACCURACY) -> float:
    """J_nu(r) for r >= 0.

    Exact at r = 0 (1 for nu = 0, 0 otherwise); elsewhere delegated to
    scipy's jv, which is well within the target accuracy for the moderate
    orders and arguments admitted here.
    """
    if r < 0:
        raise SpecfunDomainError(f"negative argument r={r}")
    if r > accuracy.max_argument:
        raise SpecfunDomainError(f"argument r={r} exceeds max_argument={accuracy.max_argument}")
    if nu.twice_nu > accuracy.max_twice_nu:
        raise SpecfunDomainError(f"order 2nu={nu.twice_nu} exceeds max_twice_nu={accuracy.max_twice_nu}")
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


def first_zero_estimate(nu: float) -> float:
    """Upper estimate for the first positive zero j_{nu,1} of J_nu.

    For nu > 0, j_{nu,1} exceeds nu + 1.8557571 nu^(1/3) by less than
    1.0332 nu^(-1/3) (Qu and Wong, Trans. AMS 351, 1999).  So for nu >= 1 the
    estimate is above j_{nu,1} and less than pi above it, hence below j_{nu,2}:
    zeros of J_nu are more than pi apart for nu > 1/2.
    """
    # the small-order floor keeps the estimate above j_{0,1} ~ 2.4048
    return nu + 1.8557571 * max(nu, 1.0) ** (1.0 / 3.0) + 2.5


def sup_critical_point(d: int, k: int) -> float:
    """Smallest r* > 0 where r^(1-d/2) J_nu(r), nu = d/2 - 1 + k, peaks.

    Critical points solve k*J_nu(r) = r*J_{nu+1}(r); the first sign change of
    that residual is bracketed on a scan grid and then bisected to 1e-12.
    """
    if d < 2 or k < 1:
        raise SpecfunDomainError(f"need d >= 2 and k >= 1, got d={d}, k={k}")
    order = BesselOrder.from_dim_degree(d, k)
    nu = order.nu
    cap = first_zero_estimate(nu) + 2.0

    def residual(r: np.ndarray) -> np.ndarray:
        return k * jv(nu, r) - r * jv(nu + 1.0, r)

    grid = np.linspace(1e-3, cap, 4096)
    vals = residual(grid)
    sign = np.sign(vals)
    # residual is positive near 0 for k >= 1; find the first strict sign flip
    flips = np.nonzero((sign[:-1] > 0) & (sign[1:] < 0))[0]
    if flips.size == 0:
        raise RootBracketError(f"no sign change below r={cap} for d={d}, k={k}")
    lo, hi = float(grid[flips[0]]), float(grid[flips[0] + 1])
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if residual(np.array([mid]))[0] > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
