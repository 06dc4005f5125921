"""Panel-based Gauss-Legendre integration of weighted Bessel integrands on
[0, R], with analytic tail bounds on [R, infinity).

Each integral is reported as an Enclosure: a truncated value bracketed by a
summed per-panel error estimate (difference of two Gauss orders), plus a
separately tracked tail contribution.  Panels are at most a fraction of the
Bessel oscillation period wide and are halved where the estimate is large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .specfun import BesselOrder, SpecfunDomainError, bessel_j, check_admissible, log_gamma

__all__ = [
    "Enclosure",
    "QuadConfig",
    "DEFAULT_QUAD_CONFIG",
    "QuadratureError",
    "integrate_weighted_power",
    "integrate_cross_term",
    "tail_bound",
    "zero_order_tail_bound",
    "cross_tail_bound",
    "weighted_power_integrand",
    "cross_term_integrand",
]

# |J_0(r)| <= sqrt(2/(pi r)) for r > 0; the factor absorbs the asymptotic
# tightness of that envelope (it is approached to within O(1/r)).
_J0_ENVELOPE_SAFETY = 1.0 + 1e-6


class QuadratureError(RuntimeError):
    """Error estimate still above tolerance after the refinement cap."""


@dataclass(frozen=True)
class Enclosure:
    """Certified interval [lower, upper] for a computed quantity."""

    lower: float
    upper: float
    truncation_bound: float = 0.0
    quad_error_bound: float = 0.0

    def __post_init__(self):
        if self.truncation_bound < 0 or self.quad_error_bound < 0:
            raise ValueError("error bounds must be non-negative")
        if self.lower > self.upper:
            raise ValueError(f"empty enclosure [{self.lower}, {self.upper}]")
        budget = 2.0 * (self.truncation_bound + self.quad_error_bound)
        # ulp-sized slack: endpoint rounding can exceed a sub-resolution budget
        slack = 8.0 * np.finfo(float).eps * max(abs(self.lower), abs(self.upper), 1e-300)
        if self.upper - self.lower > budget * (1.0 + 1e-12) + slack:
            raise ValueError("enclosure wider than its declared error budget")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def with_tail(self, tail: float) -> "Enclosure":
        """Extend the upper end by a tail bound on the dropped [R, inf) part."""
        return Enclosure(
            lower=self.lower,
            upper=self.upper + tail,
            truncation_bound=self.truncation_bound + tail,
            quad_error_bound=self.quad_error_bound,
        )

    def powered(self, exponent: float) -> "Enclosure":
        """Monotone image under x -> x**exponent (exponent > 0, lower >= 0)."""
        if exponent <= 0 or self.lower < 0:
            raise ValueError("powered() needs exponent > 0 and a non-negative enclosure")
        lo, up = self.lower**exponent, self.upper**exponent
        half = 0.5 * (up - lo)
        return Enclosure(lo, up, truncation_bound=half, quad_error_bound=0.0)

    def scaled(self, factor: float) -> "Enclosure":
        if factor <= 0:
            raise ValueError("scaled() needs a positive factor")
        return Enclosure(
            self.lower * factor,
            self.upper * factor,
            truncation_bound=self.truncation_bound * factor,
            quad_error_bound=self.quad_error_bound * factor,
        )

    @classmethod
    def point(cls, value: float) -> "Enclosure":
        return cls(value, value)


@dataclass(frozen=True)
class QuadConfig:
    panel_length: float = math.pi / 2.0
    gauss_order_high: int = 16
    gauss_order_low: int = 8
    abs_tol: float = 1e-11
    max_refinements: int = 12

    def __post_init__(self):
        if self.panel_length <= 0:
            raise ValueError("panel_length must be positive")
        if not self.gauss_order_high > self.gauss_order_low >= 2:
            raise ValueError("need gauss_order_high > gauss_order_low >= 2")

    def key(self) -> tuple:
        return (
            self.panel_length,
            self.gauss_order_high,
            self.gauss_order_low,
            self.abs_tol,
            self.max_refinements,
        )


DEFAULT_QUAD_CONFIG = QuadConfig()


def _check_weighted_preconditions(d: int, p: float, k: int, R: float) -> None:
    check_admissible(d, k, p)
    if R <= 0:
        raise SpecfunDomainError(f"truncation radius must be positive, got {R}")


def _zero_degree_amplitude(d: int, r: np.ndarray) -> np.ndarray:
    """Leading series of J_{d/2-1}(r) r^(1-d/2) for r below 1e-3.

    Avoids the floating-point 0 * inf ambiguity of the direct product at the
    origin; three series terms leave a relative error below 1e-20 there.
    """
    nu = d / 2.0 - 1.0
    q = 0.25 * r * r
    c0 = math.exp((1.0 - d / 2.0) * math.log(2.0) - log_gamma(d / 2.0))
    return c0 * (1.0 - q / (nu + 1.0) + 0.5 * q * q / ((nu + 1.0) * (nu + 2.0)))


def _amplitude(d: int, k: int, r: np.ndarray) -> np.ndarray:
    """|J_{d/2-1+k}(r) r^(1-d/2)| evaluated stably down to r = 0+."""
    out = np.abs(bessel_j(BesselOrder.from_dim_degree(d, k), r) * r ** (1.0 - d / 2.0))
    if k == 0:
        small = r < 1e-3
        if np.any(small):
            out[small] = np.abs(_zero_degree_amplitude(d, r[small]))
    return out


def weighted_power_integrand(d: int, p: float, k: int) -> Callable[[np.ndarray], np.ndarray]:
    """|J_{d/2-1+k}(r) r^(1-d/2)|^p r^(d-1) as a vectorized callable."""

    def f(r: np.ndarray) -> np.ndarray:
        return _amplitude(d, k, r) ** p * r ** (d - 1.0)

    return f


def cross_term_integrand(d: int, p: float, k: int) -> Callable[[np.ndarray], np.ndarray]:
    """|J_{d/2-1}|^(p-2) |J_{d/2-1+k}|^2 r^(d-1+p(1-d/2)) as a callable."""

    def f(r: np.ndarray) -> np.ndarray:
        base = _amplitude(d, 0, r) ** (p - 2.0)
        return base * _amplitude(d, k, r) ** 2 * r ** (d - 1.0)

    return f


def panel_integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadConfig = DEFAULT_QUAD_CONFIG,
) -> tuple[float, float]:
    """Integrate f on [a, b]; returns (value, error estimate).

    Starts from equal panels no wider than cfg.panel_length; per-panel error
    is |high-order - low-order| and panels above their share of the budget
    are halved, up to cfg.max_refinements rounds.  Summation is in panel
    order, so results are run-to-run identical.
    """
    if b <= a:
        raise ValueError(f"empty interval [{a}, {b}]")
    n0 = max(1, math.ceil((b - a) / cfg.panel_length))
    edges = np.linspace(a, b, n0 + 1)
    panels = np.column_stack([edges[:-1], edges[1:]])
    xh, wh = leggauss(cfg.gauss_order_high)
    xl, wl = leggauss(cfg.gauss_order_low)

    hi = err = None
    for round_idx in range(cfg.max_refinements + 1):
        half = 0.5 * (panels[:, 1] - panels[:, 0])
        mid = 0.5 * (panels[:, 0] + panels[:, 1])
        nodes_h = mid[:, None] + half[:, None] * xh[None, :]
        nodes_l = mid[:, None] + half[:, None] * xl[None, :]
        hi = (f(nodes_h) * wh[None, :]).sum(axis=1) * half
        lo = (f(nodes_l) * wl[None, :]).sum(axis=1) * half
        err = np.abs(hi - lo)
        total_err = float(err.sum())
        if total_err <= cfg.abs_tol or round_idx == cfg.max_refinements:
            break
        share = cfg.abs_tol / (2.0 * len(panels))
        bad = err > share
        if not np.any(bad):
            bad = err == err.max()
        keep = panels[~bad]
        split = panels[bad]
        mids = 0.5 * (split[:, 0] + split[:, 1])
        children = np.concatenate(
            [
                np.column_stack([split[:, 0], mids]),
                np.column_stack([mids, split[:, 1]]),
            ]
        )
        panels = np.concatenate([keep, children])
        panels = panels[np.argsort(panels[:, 0])]

    value = float(hi.sum())
    total_err = float(err.sum())
    if total_err > cfg.abs_tol:
        raise QuadratureError(
            f"error estimate {total_err:.3e} above tolerance {cfg.abs_tol:.3e} "
            f"after {cfg.max_refinements} refinements ({len(panels)} panels)"
        )
    return value, total_err


def integrate_weighted_power(
    d: int, p: float, k: int, R: float, cfg: QuadConfig = DEFAULT_QUAD_CONFIG
) -> Enclosure:
    """Enclosure of the truncated weighted power integral on [0, R]."""
    _check_weighted_preconditions(d, p, k, R)
    value, err = panel_integrate(weighted_power_integrand(d, p, k), 0.0, R, cfg)
    return Enclosure(max(value - err, 0.0), value + err, quad_error_bound=err)


def integrate_cross_term(
    d: int, p: float, k: int, R: float, cfg: QuadConfig = DEFAULT_QUAD_CONFIG
) -> Enclosure:
    """Enclosure of the truncated cross integral on [0, R]."""
    _check_weighted_preconditions(d, p, k, R)
    value, err = panel_integrate(cross_term_integrand(d, p, k), 0.0, R, cfg)
    return Enclosure(max(value - err, 0.0), value + err, quad_error_bound=err)


def _tail_exponent(d: int, p: float) -> float:
    """Decay exponent p(d-1)/2 - d of the tail bound; must be positive."""
    return p * (d - 1) / 2.0 - d


def tail_bound(d: int, p: float, k: int, R: float) -> float:
    """Upper bound on the weighted power integral over [R, infinity).

    Uses |J_nu(r)| <= r^(-1/2), valid for nu >= 1/2 and r >= 1.5*nu; hence
    requires the order d/2 - 1 + k to be at least 1/2 and R >= 1.5*nu.
    """
    nu = d / 2.0 - 1.0 + k
    if 2 * nu < 1:
        raise SpecfunDomainError(
            f"tail bound needs order >= 1/2 (d={d}, k={k} gives nu={nu}); "
            "use zero_order_tail_bound for d=2, k=0"
        )
    if R < 1.5 * nu:
        raise SpecfunDomainError(f"tail bound needs R >= 1.5*nu = {1.5*nu}, got R={R}")
    expo = _tail_exponent(d, p)
    if expo <= 0:
        raise SpecfunDomainError(f"tail not integrable by this bound (p(d-1)/2 - d = {expo})")
    return R**-expo / expo


def zero_order_tail_bound(p: float, R: float) -> float:
    """Tail bound for the d=2, k=0 integrand via |J_0(r)| <= sqrt(2/(pi r)).

    Valid for p > 4 (d=2 admissibility) and R >= 1.
    """
    if p <= 4:
        raise SpecfunDomainError(f"need p > 4 for the d=2 tail, got {p}")
    if R < 1:
        raise SpecfunDomainError(f"need R >= 1, got {R}")
    expo = _tail_exponent(2, p)
    return _J0_ENVELOPE_SAFETY ** p * (2.0 / math.pi) ** (p / 2.0) * R**-expo / expo


def cross_tail_bound(d: int, p: float, k: int, R: float) -> float:
    """Tail bound for the cross integrand over [R, infinity).

    Applies |J| <= r^(-1/2) to both factors; same decay as tail_bound.  For
    d = 2 the degree-zero factor uses the sqrt(2/(pi r)) envelope instead.
    """
    nu_high = d / 2.0 - 1.0 + k
    if R < 1.5 * max(nu_high, 1.0):
        raise SpecfunDomainError(f"cross tail needs R >= {1.5*max(nu_high,1.0)}, got R={R}")
    expo = _tail_exponent(d, p)
    if expo <= 0:
        raise SpecfunDomainError(f"tail not integrable by this bound (p(d-1)/2 - d = {expo})")
    coeff = 1.0
    if d == 2:
        if k == 0:
            return zero_order_tail_bound(p, R)
        coeff = (_J0_ENVELOPE_SAFETY * math.sqrt(2.0 / math.pi)) ** (p - 2.0)
    return coeff * R**-expo / expo
