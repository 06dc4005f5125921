"""Panel-based Gaussian integration of weighted Bessel integrands on [0, R],
with analytic tail bounds on [R, infinity).

Each integral is reported as an Enclosure: a truncated value bracketed by a
summed per-panel error estimate (difference of two Gauss orders), plus a
separately tracked tail contribution.  Where the exponent on |J_nu| is even,
the integrand is smooth and the starting panels are equal steps no wider than
a fraction of the Bessel oscillation period, integrated by Gauss-Legendre.
Where it is not, the integrand behaves like |r - z|^alpha at each zero z of
J_nu, so the starting panels run from zero to zero and a panel end at a zero
carries the Gauss-Jacobi weight (1 -+ x)^alpha: the rule then takes that
endpoint behaviour exactly and integrates an analytic factor.  Panels are
halved where the estimate is large, and each panel is evaluated once.  The
error stays an estimate, |high-order - low-order|, not a proven bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .specfun import MAX_ARGUMENT, BesselOrder, SpecfunDomainError, bessel_j, bessel_zeros, check_admissible, log_gamma

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
    if not 0 < R <= MAX_ARGUMENT:
        raise SpecfunDomainError(f"truncation radius must lie in (0, MAX_ARGUMENT={MAX_ARGUMENT}], got {R}")


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


@functools.cache
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights of order n on [-1, 1]."""
    nodes, weights = leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _jacobi_rule(n: int, left: float, right: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Jacobi nodes and weights of order n on [-1, 1] for the
    weight (1 + x)^left (1 - x)^right, left, right >= 0.

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    symmetric tridiagonal Jacobi matrix of the recurrence, polished by one
    Newton step on the orthonormal polynomial q_n; each weight is
    mu_0 / sum_j q_j(x)^2 over j < n, a sum of positive terms that keeps the
    small weights near the ends accurate to about 2e-14 relative.
    Gauss-Legendre, left = right = 0, comes from _gauss_rule, so that smooth
    integrands see no change.
    """
    if left == right == 0.0:
        return _gauss_rule(n)
    a, b = right, left
    j = np.arange(n + 1, dtype=float)
    s = 2.0 * j + a + b
    diag = (b * b - a * a) / (s * (s + 2.0))
    j, s = j[1:], s[1:]
    # off[i] couples q_i and q_(i+1); off[-1] = 0 stands for q_(-1) = 0
    off = np.append(np.sqrt(4.0 * j * (j + a) * (j + b) * (j + a + b) / (s * s * (s + 1.0) * (s - 1.0))), 0.0)

    def orthonormal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """q_n(x), q_n'(x) and sum_{j<n} q_j(x)^2."""
        q_prev, q, dq_prev, dq = np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n)
        total = np.zeros(n)
        for i in range(n):
            total += q * q
            q_next = ((x - diag[i]) * q - off[i - 1] * q_prev) / off[i]
            dq_next = (q + (x - diag[i]) * dq - off[i - 1] * dq_prev) / off[i]
            q_prev, q, dq_prev, dq = q, q_next, dq, dq_next
        return q, dq, total

    nodes = np.linalg.eigvalsh(np.diag(diag[:n]) + np.diag(off[: n - 1], 1) + np.diag(off[: n - 1], -1))
    q, dq, _ = orthonormal(nodes)
    nodes = nodes - q / dq
    mu0 = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    weights = mu0 / orthonormal(nodes)[2]
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _panel_rules(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Order-n nodes and weights per panel end code, as read-only (4, n) arrays.

    Code 2*left + right flags the panel ends at a zero, where the integrand
    behaves like |r - z|^alpha.  Row c is the Gauss-Jacobi rule for that
    weight with its weights divided by the weight at the nodes, so that
    sum_i w_i f(x_i) applies the rule to f / weight; row 0 is Gauss-Legendre.
    """
    nodes, weights = [], []
    for left, right in ((0.0, 0.0), (0.0, alpha), (alpha, 0.0), (alpha, alpha)):
        x, w = _jacobi_rule(n, left, right)
        nodes.append(x)
        weights.append(w / ((1.0 + x) ** left * (1.0 - x) ** right))
    nodes, weights = np.array(nodes), np.array(weights)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def panel_integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadConfig = DEFAULT_QUAD_CONFIG,
    zeros: Sequence[float] = (),
    alpha: float = 0.0,
) -> tuple[float, float]:
    """Integrate f on [a, b]; returns (value, error estimate).

    Without zeros inside (a, b), the starting edges are equal steps no wider
    than cfg.panel_length and every panel takes Gauss-Legendre.  With them,
    f is taken to behave like |r - z|^alpha times an analytic factor at each
    zero z: the starting panels run from zero to zero (plus a and b), and a
    panel end at a zero takes the Gauss-Jacobi weight (1 + x)^alpha or
    (1 - x)^alpha, so the rule integrates f divided by that weight.  A halved
    panel hands each end's exponent to the child that keeps that end, with 0
    at the new midpoint.  Per-panel error is the estimate |high-order -
    low-order|; panels above their share of the budget are halved, up to
    cfg.max_refinements rounds.  Each panel is evaluated once, in the round
    that creates it: a round calls f on the new children only, at the
    high-order nodes and then at the low-order nodes.  Panels stay sorted by
    start, so results are run-to-run identical.
    """
    if b <= a:
        raise ValueError(f"empty interval [{a}, {b}]")
    zeros = np.asarray(zeros, dtype=float)
    zeros = np.unique(zeros[(zeros > a) & (zeros < b)])
    if zeros.size:
        edges = np.concatenate([[a], zeros, [b]])
        codes = np.full(zeros.size + 1, 3)
        codes[0], codes[-1] = 1, 2
    else:
        edges = np.linspace(a, b, max(1, math.ceil((b - a) / cfg.panel_length)) + 1)
        codes = np.zeros(edges.size - 1, dtype=int)
    xh, wh = _panel_rules(cfg.gauss_order_high, alpha)
    xl, wl = _panel_rules(cfg.gauss_order_low, alpha)

    def evaluate(panels: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        half = 0.5 * (panels[:, 1] - panels[:, 0])
        mid = 0.5 * (panels[:, 0] + panels[:, 1])
        hi = (f(mid[:, None] + half[:, None] * xh[codes]) * wh[codes]).sum(axis=1) * half
        lo = (f(mid[:, None] + half[:, None] * xl[codes]) * wl[codes]).sum(axis=1) * half
        return hi, np.abs(hi - lo)

    panels = np.column_stack([edges[:-1], edges[1:]])
    hi, err = evaluate(panels, codes)
    for _ in range(cfg.max_refinements):
        if float(err.sum()) <= cfg.abs_tol:
            break
        share = cfg.abs_tol / (2.0 * len(panels))
        bad = err > share
        if not np.any(bad):
            bad = err == err.max()
        split = panels[bad]
        mids = 0.5 * (split[:, 0] + split[:, 1])
        children = np.concatenate(
            [
                np.column_stack([split[:, 0], mids]),
                np.column_stack([mids, split[:, 1]]),
            ]
        )
        child_codes = np.concatenate([codes[bad] & 2, codes[bad] & 1])
        child_hi, child_err = evaluate(children, child_codes)
        panels = np.concatenate([panels[~bad], children])
        codes = np.concatenate([codes[~bad], child_codes])
        hi = np.concatenate([hi[~bad], child_hi])
        err = np.concatenate([err[~bad], child_err])
        order = np.argsort(panels[:, 0])
        panels, codes, hi, err = panels[order], codes[order], hi[order], err[order]

    value = float(hi.sum())
    total_err = float(err.sum())
    if total_err > cfg.abs_tol:
        raise QuadratureError(
            f"error estimate {total_err:.3e} above tolerance {cfg.abs_tol:.3e} "
            f"after {cfg.max_refinements} refinements ({len(panels)} panels)"
        )
    return value, total_err


def _kinks(order: BesselOrder, exponent: float, R: float) -> tuple[np.ndarray, float]:
    """Zeros of J_order in (0, R) and the exponent of |J_order|^exponent there.

    An even exponent gives a smooth power: no zeros, and exponent 0.
    """
    if exponent % 2.0 == 0.0:
        return np.empty(0), 0.0
    return bessel_zeros(order, R), exponent


def integrate_weighted_power(
    d: int, p: float, k: int, R: float, cfg: QuadConfig = DEFAULT_QUAD_CONFIG
) -> Enclosure:
    """Enclosure of the truncated weighted power integral on [0, R].

    Unless p is even, the panels run between the zeros of J_{d/2-1+k}, with
    end exponent p there.
    """
    _check_weighted_preconditions(d, p, k, R)
    zeros, alpha = _kinks(BesselOrder.from_dim_degree(d, k), p, R)
    value, err = panel_integrate(weighted_power_integrand(d, p, k), 0.0, R, cfg, zeros, alpha)
    return Enclosure(max(value - err, 0.0), value + err, quad_error_bound=err)


def integrate_cross_term(
    d: int, p: float, k: int, R: float, cfg: QuadConfig = DEFAULT_QUAD_CONFIG
) -> Enclosure:
    """Enclosure of the truncated cross integral on [0, R].

    Unless p - 2 is even, the panels run between the zeros of J_{d/2-1}, with
    end exponent p - 2 there; the factor |J_{d/2-1+k}|^2 is smooth and adds
    none.
    """
    _check_weighted_preconditions(d, p, k, R)
    zeros, alpha = _kinks(BesselOrder.from_dim_degree(d, 0), p - 2.0, R)
    value, err = panel_integrate(cross_term_integrand(d, p, k), 0.0, R, cfg, zeros, alpha)
    return Enclosure(max(value - err, 0.0), value + err, quad_error_bound=err)


def _tail_exponent(d: int, p: float) -> float:
    """Decay exponent p(d-1)/2 - d of the tail bound; must be positive."""
    return p * (d - 1) / 2.0 - d


def tail_bound(d: int, p: float, k: int, R: float) -> float:
    """Upper bound on the weighted power integral over [R, infinity).

    Uses |J_nu(r)| <= r^(-1/2), valid for nu >= 1/2 and r >= 1.5*nu; hence
    requires the order d/2 - 1 + k to be at least 1/2 and R >= 1.5*nu.  The
    premise is checked, for every admitted order, by
    tests/test_quadrature.py::TestTailBounds::test_premise_sqrt_r_j_at_most_one.
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
    The premise is that of tail_bound, checked by
    tests/test_quadrature.py::TestTailBounds::test_premise_sqrt_r_j_at_most_one.
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
