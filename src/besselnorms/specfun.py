"""Bessel functions of integer and half-integer order and their zeros, the
value of the weighted radial profile r^{1-d/2} J_nu(r) at the origin, and its
first local maximum.

An order is the exact integer 2 nu, formed from a dimension d >= 2 and a
degree k >= 0 by twice_nu(d, k): nu = d/2 - 1 + k is the order of the
degree-k spherical harmonics on S^(d-1).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import jv

__all__ = [
    "LANDAU_CONSTANT",
    "MAX_ARGUMENT",
    "MAX_TWICE_NU",
    "JV_ABS_ERROR",
    "check_admissible",
    "twice_nu",
    "bessel_j",
    "bessel_zeros",
    "log_c0",
    "lambda_sup_zero_closed",
    "sup_critical_point",
    "first_zero_lower_bound",
    "first_zero_estimate",
    "SpecfunDomainError",
    "RootBracketError",
]

# evaluation limits of bessel_j; they cover every computation in this package
MAX_ARGUMENT = 1000.0
MAX_TWICE_NU = 120

# eps_J: bessel_j's absolute error is taken to be at most
# JV_ABS_ERROR * min(1, r^(-1/2)) on those limits.  It is measured, not
# proven: the largest error seen against 30-digit mpmath (see bessel_j) was
# 6.9e-13 min(1, r^(-1/2)), rounded up here.
JV_ABS_ERROR = 1e-12

# sup over nu > 0, r > 0 of |r^(1/3) J_nu(r)| = 0.78574687... (Landau,
# J. London Math. Soc. 61, 2000), rounded up because it enters the bound U.
LANDAU_CONSTANT = 0.7857469


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


def twice_nu(d: int, k: int) -> int:
    """The order nu = d/2 - 1 + k of degree k in dimension d, as the integer
    2 nu; the pair is checked first (d >= 2, k >= 0)."""
    check_admissible(d, k)
    return d - 2 + 2 * k


def bessel_j(order, r):
    """J_nu(r) for r >= 0, the order given as the integer 2 nu: an int, or
    an integer array that broadcasts against r, so that one call evaluates
    several orders; r is a float or an array.

    The largest order and the smallest and largest argument are checked
    against MAX_TWICE_NU and MAX_ARGUMENT once per call, before any
    evaluation.  The value is scipy's jv, evaluated point by point, so an
    array call equals the float calls element by element, and exact at
    r = 0 (1 for nu = 0, 0 otherwise).  Against 30-digit mpmath at 10,000
    points drawn uniformly (numpy default_rng(0)) from 2 nu in
    {0, ..., 120} and r in [0, 1000], its absolute error was at most
    6.9e-13 min(1, r^(-1/2)), and its relative error at most 4.4e-12 where
    |J_nu(r)| >= 0.1 min(1, r^(-1/2)); both peak at large order and argument
    (2 nu = 89, r = 974 for the former).  JV_ABS_ERROR rounds the former up;
    tests/test_specfun.py checks it on a seeded sample.
    """
    if isinstance(order, int):
        # an int skips numpy's 0-d array min and max
        lowest = top = order
    else:
        order = np.asarray(order)
        if order.dtype.kind not in "iu":
            raise SpecfunDomainError(f"orders 2nu must be integers, got {order!r}")
        lowest, top = order.min(), order.max()
    if lowest < 0:
        raise SpecfunDomainError(f"orders 2nu must be non-negative, got 2nu={lowest}")
    if top > MAX_TWICE_NU:
        raise SpecfunDomainError(f"order 2nu={top} exceeds MAX_TWICE_NU={MAX_TWICE_NU}")
    lo, hi = (r, r) if np.ndim(r) == 0 else (np.asarray(r).min(), np.asarray(r).max())
    if lo < 0:
        raise SpecfunDomainError(f"negative argument r={lo}")
    if hi > MAX_ARGUMENT:
        raise SpecfunDomainError(f"argument r={hi} exceeds MAX_ARGUMENT={MAX_ARGUMENT}")
    return jv(order / 2.0, r)


def _newton_roots(evaluate, lo, hi, start, width):
    """Roots of one function per bracket by safeguarded Newton, all brackets
    together; returns the closed brackets (lo, hi).

    Bracket i holds a sign change: its function is positive at lo[i] and not
    positive at hi[i], and start[i] lies in [lo[i], hi[i]].  evaluate(i, r)
    gives the values and derivatives of the brackets i at the points r, from
    one bessel_j call.  Each round evaluates every open bracket at its
    iterate, which replaces the bracket end of the same sign; a bracket no
    wider than width[i] is closed.  The next iterate is the Newton step, or
    the midpoint where that step leaves the bracket.  A step below width/2
    is pushed width/4 on, so that this probe and the iterate bracket the
    root; the push is at least one float.  Every iterate depends on its own
    bracket's values only.
    """
    lo, hi, x = (np.array(a, dtype=float) for a in (lo, hi, start))
    i = np.arange(x.size)
    while i.size:
        f, df = evaluate(i, x)
        up = f > 0.0
        lo[i] = np.where(up, x, lo[i])
        hi[i] = np.where(up, hi[i], x)
        keep = hi[i] - lo[i] > width[i]
        i, x, f, df, up = i[keep], x[keep], f[keep], df[keep], up[keep]
        a, b, w = lo[i], hi[i], width[i]
        # a zero derivative gives a step that is not finite, hence the midpoint
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -f / df
        # x is the end a if up, else b: the root lies on the side of toward
        toward = np.where(up, 1.0, -1.0)
        probe = x + toward * (np.maximum(toward * step, 0.0) + np.maximum(0.25 * w, np.spacing(x)))
        x = np.where(np.abs(step) <= 0.5 * w, probe, x + step)
        x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
    return lo, hi


def bessel_zeros(order: int, upto: float) -> np.ndarray:
    """The zeros of J_nu, 2 nu = order, in (0, upto), ascending, each the midpoint of a
    sign-change bracket at most 4 ulp wide.

    Consecutive zeros of J_nu, nu >= 0, lie more than 3 apart (the gap tends
    to pi, from below for nu < 1/2 and from above for nu > 1/2, and
    j_{0,1} ~ 2.405), so each cell of a grid with step at most pi/2 holds at
    most one zero, which shows as a sign change unless it falls on a grid
    point.  Each cell's zero is found by safeguarded Newton from its
    regula-falsi point, all cells together, with
    J_nu' = (nu/r) J_nu - J_{nu+1}, or J_{nu-1} - (nu/r) J_nu where the
    order nu + 1 is past MAX_TWICE_NU; every value comes from bessel_j.
    """
    grid = np.linspace(0.0, upto, max(1, math.ceil(upto / (math.pi / 2.0))) + 1)
    values = bessel_j(order, grid)
    cells = np.flatnonzero(values[:-1] * values[1:] < 0.0)
    lo, hi = grid[cells], grid[cells + 1]
    f_lo, f_hi = values[cells], values[cells + 1]
    sign = np.sign(f_lo)
    nu = order / 2.0
    shift = 1 if order + 2 <= MAX_TWICE_NU else -1
    orders = np.array([[order], [order + 2 * shift]])

    def evaluate(i, r):
        """sign * J_nu and sign * J_nu' at the points r of the cells i."""
        # r once per order, so that the argument holds every evaluated point
        j = bessel_j(orders, np.array([r, r]))
        return sign[i] * j[0], sign[i] * shift * (nu / r * j[0] - j[1])

    start = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    lo, hi = _newton_roots(evaluate, lo, hi, start, 4.0 * np.spacing(lo))
    return 0.5 * (lo + hi)


def log_c0(d: int) -> float:
    """log c0 = (1 - d/2) log 2 - log Gamma(d/2); see lambda_sup_zero_closed."""
    return (1.0 - d / 2.0) * math.log(2.0) - math.lgamma(d / 2.0)


def lambda_sup_zero_closed(d: int) -> float:
    """c0 = 1 / (2^(d/2-1) Gamma(d/2)), the value of r^(1-d/2) J_{d/2-1}(r)
    at r = 0: the leading coefficient of its series there, and the sup norm
    of degree zero, which that profile takes at the origin."""
    check_admissible(d)
    return math.exp(log_c0(d))


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


def sup_critical_point(d: int, k):
    """Smallest r* > 0 where r^(1-d/2) J_nu(r), nu = d/2 - 1 + k, peaks, for
    one degree k (a float out) or a sequence of degrees (an array out).

    Critical points solve f(r) = k J_nu(r) - r J_{nu+1}(r) = 0.  The residual
    is positive at r = 1e-3 and negative at first_zero_lower_bound(nu) <
    j_{nu,1}, so the sign change lies in the first lobe, where it is unique
    (see lambda_sup).  Safeguarded Newton, with
    f'(r) = (k nu / r - r) J_nu(r) + (nu - k) J_{nu+1}(r) and starting at the
    small-r root sqrt(2k(nu+1)) clipped into the bracket, narrows it until
    f > 0 at lo, f <= 0 at hi and hi - lo <= 1e-12; r* is the midpoint.  All
    the brackets are searched together, one bessel_j call for both orders of
    every open bracket per round, and each bracket's iterates depend on its
    own values only, so a batch gives bit for bit the values of its degrees
    one by one.  Every order is checked before any evaluation.
    """
    degrees = np.atleast_1d(np.asarray(k))
    if degrees.size == 0 or np.min(degrees) < 1:
        raise SpecfunDomainError(f"need degrees k >= 1, got k={k}")
    orders = np.array([twice_nu(d, kk) for kk in degrees.tolist()])
    nus = orders / 2.0
    # the orders nu and nu + 1 of each degree, as 2 nu, one row each
    pair = np.array([orders, orders + 2])

    def evaluate(i, r):
        """The residual and its derivative for the degrees degrees[i] at the points r."""
        # r once per order, so that the argument holds every evaluated point
        j = bessel_j(pair[:, i], np.array([r, r]))
        kk, nu = degrees[i], nus[i]
        return kk * j[0] - r * j[1], (kk * nu / r - r) * j[0] + (nu - kk) * j[1]

    n = len(orders)
    lo = np.full(n, 1e-3)
    hi = np.array([first_zero_lower_bound(nu) for nu in nus.tolist()])
    ends, _ = evaluate(np.tile(np.arange(n), 2), np.concatenate([lo, hi]))
    bad = np.flatnonzero(~((ends[:n] > 0.0) & (ends[n:] < 0.0)))
    if bad.size:
        i = bad[0]
        raise RootBracketError(f"residual does not change sign on [{lo[i]}, {hi[i]}] for d={d}, k={degrees[i]}")
    start = np.clip(np.sqrt(2.0 * degrees * (nus + 1.0)), lo, hi)
    lo, hi = _newton_roots(evaluate, lo, hi, start, np.full(n, 1e-12))
    r_star = 0.5 * (lo + hi)
    return float(r_star[0]) if np.ndim(k) == 0 else r_star
