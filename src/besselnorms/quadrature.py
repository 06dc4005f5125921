"""Panel-based Gaussian integration of weighted Bessel integrands on [0, R],
with analytic tail bounds on [R, infinity).

Every integral is a product of factors |A_j|^e times r^(d-1), where
A_j(r) = J_{d/2-1+j}(r) r^(1-d/2); _factors holds the one table of (j, e):
kind "power" is |A_k|^p, the p-th power of the degree-k norm, and kind
"cross" is |A_0|^(p-2) |A_k|^2, the cross integral M(k) of the local checks.
The integrand, the kink rule and the tail bound all read that table.

Each integral is reported as an Enclosure: a truncated value bracketed by a
summed per-panel error, plus a separately tracked tail contribution.  Where
every exponent is even, the integrand is entire and takes one fixed plan:
starting panels EVEN_PANEL_LENGTH = 2 pi wide (one Bessel oscillation
period), each integrated once by EVEN_GAUSS_ORDER = 32-point Gauss-Legendre,
and the error is a proven Bernstein-ellipse remainder (_gauss_remainder)
plus a bound on the evaluation error (_even_integrand), which rests on the
measured jv error JV_ABS_ERROR.
Where one exponent is not even, the integrand behaves like |r - z|^e at each
zero z of that factor's J_nu (exponent 2 is smooth, so at most one factor
kinks), so the starting panels run from zero to zero and a panel end at a
zero carries the Gauss-Jacobi weight (1 -+ x)^e: the rule then takes that
endpoint behaviour exactly and integrates an analytic factor.  There the
error stays an estimate, |high-order - low-order| of the kinked plan's
KINKED_GAUSS_ORDER_HIGH = 16 and KINKED_GAUSS_ORDER_LOW = 8 points against
KINKED_ABS_TOL, not a proven bound.  Each path's plan is its module
constants; QuadConfig holds only the refinement cap.  On either path panels
are halved where the error is large, and each panel is evaluated once.
Even-exponent integrals given one J-value memo share their J values at a
common node array, so those of one command at one radius evaluate each
order there once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .specfun import JV_ABS_ERROR, MAX_ARGUMENT, SpecfunDomainError, bessel_j, bessel_zeros, check_admissible, lambda_sup_zero_closed, twice_nu

__all__ = [
    "Enclosure",
    "QuadConfig",
    "DEFAULT_QUAD_CONFIG",
    "QuadratureError",
    "integrate_weighted_power",
    "tail_bound",
]

# |J_0(r)| <= sqrt(2/(pi r)) for r > 0; the factor absorbs the asymptotic
# tightness of that envelope (it is approached to within O(1/r)).
_J0_ENVELOPE_SAFETY = 1.0 + 1e-6

# unit roundoff of a float
_U = 2.0**-53
# the Bernstein-ellipse parameters rho each panel's remainder tries, sqrt(2)
# to 64, and the semi-axes (rho +- 1/rho)/2 of their ellipses
_RHOS = 2.0 ** (np.arange(1, 13) / 2.0)
_SEMI_MAJOR = 0.5 * (_RHOS + 1.0 / _RHOS)
_SEMI_MINOR = 0.5 * (_RHOS - 1.0 / _RHOS)


# The even-exponent plan: starting panels 2 pi wide, each taking 32-point
# Gauss-Legendre; a panel whose proven remainder exceeds its share is still
# halved.  Against pi/2 panels with G16 it takes a perfbench paper-session
# pass at seed 1 from 158,921 jv points to 99,145 (12 of its 97 even
# integrals halve once), and local-maximizer from 188,742 to 154,950 (none
# of its 34 halves).  4 pi with G48 halves every d = 2, p = 6 power integral
# with k >= 3, and past 2 pi the saving flattens (8 pi with G80: 79,113
# paper-session points).
EVEN_PANEL_LENGTH = 2.0 * math.pi
EVEN_GAUSS_ORDER = 32

# The kinked plan, for an integral with an exponent that is not even (and
# for panel_integrate without remainder): starting panels from zero to zero,
# or pi/2 wide where (a, b) holds no zero, each taking Gauss-Legendre or
# Gauss-Jacobi of both orders; a panel whose estimate |high - low| exceeds
# its share of KINKED_ABS_TOL is halved.
KINKED_PANEL_LENGTH = math.pi / 2.0
KINKED_GAUSS_ORDER_HIGH = 16
KINKED_GAUSS_ORDER_LOW = 8
KINKED_ABS_TOL = 1e-11


def plan() -> tuple:
    """Every plan constant of both paths, as they stand when called; the
    result store stamps its files with it."""
    return (
        EVEN_PANEL_LENGTH, EVEN_GAUSS_ORDER,
        KINKED_PANEL_LENGTH, KINKED_GAUSS_ORDER_HIGH, KINKED_GAUSS_ORDER_LOW, KINKED_ABS_TOL,
    )


class QuadratureError(RuntimeError):
    """Error estimate, or proven remainder, still above its target after the
    refinement cap."""


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
    """The refinement cap of panel_integrate, the one setting either plan
    leaves open; the plans themselves are the module constants above.

    It decides only when an integral raises QuadratureError, never its
    value, so the result store leaves it out of its keys.  The class
    survives because the benchmark tracer (perfbench/tracing.py) binds
    panel_integrate's cfg by name to read max_refinements, and keys cross
    integrals by local.cross_norm's cfg.key(); it goes with the next change
    to the benchmark (ROADMAP item 1).
    """

    max_refinements: int = 12

    def key(self) -> tuple:
        return (self.max_refinements,)


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
    nu = twice_nu(d, 0) / 2.0
    q = 0.25 * r * r
    return lambda_sup_zero_closed(d) * (1.0 - q / (nu + 1.0) + 0.5 * q * q / ((nu + 1.0) * (nu + 2.0)))


def _amplitude(d: int, k: int, r: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """|J_{d/2-1+k}(r) r^(1-d/2)| evaluated stably down to r = 0+.

    memo maps (2 nu, shape, node bytes) to read-only J values: the integrals
    of one command at one radius share their starting nodes, so each order
    is evaluated there once.
    """
    order = twice_nu(d, k)
    if memo is None:
        j = bessel_j(order, r)
    else:
        key = (order, r.shape, r.tobytes())
        j = memo.get(key)
        if j is None:
            j = memo[key] = bessel_j(order, r)
            j.flags.writeable = False
    out = np.abs(j * r ** (1.0 - d / 2.0))
    if k == 0:
        small = r < 1e-3
        if np.any(small):
            out[small] = np.abs(_zero_degree_amplitude(d, r[small]))
    return out


def _factors(d: int, p: float, k: int, kind: str) -> tuple[tuple[int, float], ...]:
    """The integrand's factors (degree j, exponent e), each |A_j|^e; the
    exponents sum to p in both kinds."""
    if kind == "power":
        return ((k, p),)
    if kind == "cross":
        return ((0, p - 2.0), (k, 2))
    raise ValueError(f"unknown integral kind {kind!r}")


def _integrand(d: int, factors: tuple[tuple[int, float], ...]) -> Callable[[np.ndarray], np.ndarray]:
    """The product of |A_j|^e over the factors, in table order, times r^(d-1)."""

    def f(r: np.ndarray) -> np.ndarray:
        amplitudes = (_amplitude(d, degree, r) ** exponent for degree, exponent in factors)
        return functools.reduce(np.multiply, amplitudes) * r ** (d - 1.0)

    return f


def _even_integrand(d: int, factors: tuple[tuple[int, float], ...], memo: dict) -> Callable:
    """The integrand of _integrand, for even exponents, returning (values,
    deviations): per node, a bound on |computed f - f(exact node)|.

    f is a product of factors a_j^e_j, a_j being |A_j| or r (e = d - 1).  If
    each computed a_j is within delta_j of the exact one, the mean-value
    theorem on the segment between the two, where |a_j| <= a_j + delta_j =
    t_j, bounds the product's change by
    prod_l t_l^e_l * sum_j e_j delta_j / t_j.  delta_j adds:
    - the jv error, JV_ABS_ERROR min(1, r^(-1/2)) r^(1-d/2), measured not
      proven (specfun.JV_ABS_ERROR);
    - the node's rounding, eta = 5u times the largest node of its panel, the
      last of its row of r (u the unit roundoff: mid + half x, with x itself
      within 2u and half below that node), times
      |A_j'| <= (j/r + 1) r^(1-d/2), from
      A_j' = ((j/r) J_nu - J_{nu+1}) r^(1-d/2) and |J_mu| <= 1 (DLMF 10.14.1),
      taken at r - eta; eta alone for the factor r;
    - 4u |a_j| for forming r^(1-d/2) and the product with J.
    Both r-dependent terms take (r - eta)^(1-d/2) >= r^(1-d/2).  The powers
    and the products of the m factors and r^(d-1) add 2(m + 1) u |f|.
    """

    def f(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        amplitudes = [_amplitude(d, degree, r, memo) for degree, _ in factors]
        values = functools.reduce(np.multiply, (a**e for a, (_, e) in zip(amplitudes, factors))) * r ** (d - 1.0)
        eta = 5.0 * _U * r[..., -1:]
        low = r - eta
        scale = low ** (1.0 - d / 2.0)
        common = (JV_ABS_ERROR / np.sqrt(np.maximum(r, 1.0)) + eta) * scale
        per_degree = eta * scale / low
        terms = [(r + eta, d - 1.0, eta)]
        for amplitude, (degree, exponent) in zip(amplitudes, factors):
            delta = common + degree * per_degree + 4.0 * _U * amplitude
            terms.append((amplitude + delta, exponent, delta))
        bound = functools.reduce(np.multiply, (t**e for t, e, _ in terms))
        slope = sum(e * delta / t for t, e, delta in terms)
        return values, bound * slope + 2.0 * (len(factors) + 1) * _U * values

    return f


def _log_integrand_bound(d: int, factors: tuple[tuple[int, float], ...], modulus, re_min, im_max):
    """log of a bound on |f(z)| = prod_j |A_j(z)|^e_j |z|^(d-1) over a region
    of the plane where |z| <= modulus, Re z >= re_min and |Im z| <= im_max.

    A_j(z) = z^j z^(-nu) J_nu(z) is entire.  Each factor takes the smaller of
    two bounds:
    - |z^(-nu) J_nu(z)| <= e^|Im z| / (2^nu Gamma(nu + 1)) (DLMF 10.14.4),
      for every z;
    - where Re z > 0 on the whole region, Schlafli's integral (DLMF 10.9.6)
      J_nu(z) = (1/pi) int_0^pi cos(z sin t - nu t) dt
                - (sin(nu pi)/pi) int_0^inf e^(-z sinh t - nu t) dt,
      with |cos w| <= cosh(Im w) and |e^(-z sinh t)| <= 1, gives
      |J_nu(z)| <= cosh(Im z) + |sin(nu pi)| / (pi nu); the second term is 0
      at integer nu (Bessel's integral, DLMF 10.9.2).  Then
      |A_j(z)| <= |z|^(1-d/2) (cosh(Im z) + |sin(nu pi)| / (pi nu)), and
      |z|^(1-d/2) <= re_min^(1-d/2) for d >= 2.
    log cosh x is x + log1p(e^(-2x)) - log 2, which does not overflow.
    """
    log_modulus = np.log(modulus)
    log_cosh = im_max + (np.log1p(np.exp(-2.0 * im_max)) - math.log(2.0))
    inside = re_min > 0.0
    schlafli = np.where(inside, (1.0 - d / 2.0) * np.log(np.where(inside, re_min, 1.0)) + log_cosh, np.inf)
    total = (d - 1.0) * log_modulus
    for degree, exponent in factors:
        order = twice_nu(d, degree)
        nu = order / 2.0
        series = degree * log_modulus + (im_max - (nu * math.log(2.0) + math.lgamma(nu + 1.0)))
        bound = schlafli + np.log1p(np.exp(-log_cosh) / (math.pi * nu)) if order % 2 else schlafli
        total = total + exponent * np.minimum(series, bound)
    return total


def _gauss_remainder(d: int, factors: tuple[tuple[int, float], ...], n: int, mid: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Proven bound on |integral - n-point Gauss-Legendre| of the even-
    exponent integrand on each panel [mid - half, mid + half].

    With every exponent even, f = prod_j A_j^e_j z^(d-1) is entire and equals
    the integrand on r > 0.  g(x) = f(mid + half x) is then analytic in the
    Bernstein ellipse E_rho, |x + sqrt(x^2 - 1)| < rho, whose image under
    z = mid + half x lies in |z| <= |mid| + half a, Re z >= mid - half a and
    |Im z| <= half b, a = (rho + 1/rho)/2, b = (rho - 1/rho)/2; there
    |g| <= M, the bound of _log_integrand_bound.  The Chebyshev coefficients
    of g obey |c_k| <= 2 M rho^(-k) (Trefethen, Approximation Theory and
    Approximation Practice, Thm 8.1).  The n-point rule is exact up to
    degree 2n - 1, and both it and the integral vanish on odd T_k, so the
    error is at most sum over even k >= 2n of |c_k| (2 + 2/(k^2 - 1))
    <= (32/15) sum 2 M rho^(-k) = (64/15) M rho^(2-2n) / (rho^2 - 1) for
    n >= 2.  This is Trefethen's bound (SIAM Rev. 50, 2008, Thm 4.5; ATAP
    Thm 19.3), which counts n + 1 nodes and so reads rho^(-2n) there.  Times
    half for the panel width; the best rho of _RHOS is taken, and a bound
    past e^700 is capped there.
    """
    mid, half = mid[:, None], half[:, None]
    reach = half * _SEMI_MAJOR
    log_m = _log_integrand_bound(d, factors, np.abs(mid) + reach, mid - reach, half * _SEMI_MINOR)
    log_bound = (log_m + _log_gauss_factor(n)).min(axis=1) + np.log(64.0 / 15.0 * half[:, 0])
    return np.exp(np.minimum(log_bound, 700.0))


@functools.cache
def _log_gauss_factor(n: int) -> np.ndarray:
    """log(rho^(2-2n) / (rho^2 - 1)) over _RHOS."""
    return (2.0 - 2.0 * n) * np.log(_RHOS) - np.log(_RHOS**2 - 1.0)


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
    try:
        mu0 = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    except OverflowError:
        raise SpecfunDomainError(f"Gauss-Jacobi weight exponents ({left}, {right}) too large: mu_0 overflows") from None
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
    remainder: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> tuple[float, float]:
    """Integrate f on [a, b]; returns (value, error).

    Without zeros inside (a, b), the starting edges are equal steps no wider
    than KINKED_PANEL_LENGTH, or EVEN_PANEL_LENGTH with remainder, and every
    panel takes Gauss-Legendre.  With them, f is taken to behave like
    |r - z|^alpha times an analytic factor at each zero z: the starting
    panels run from zero to zero (plus a and b), and a panel end at a zero
    takes the Gauss-Jacobi weight (1 + x)^alpha or (1 - x)^alpha, so the
    rule integrates f divided by that weight.  A halved panel hands each
    end's exponent to the child that keeps that end, with 0 at the new
    midpoint.

    Without remainder, the per-panel error is the estimate |high-order -
    low-order| of KINKED_GAUSS_ORDER_HIGH and KINKED_GAUSS_ORDER_LOW, and the
    target is KINKED_ABS_TOL.  With it, f returns (values, deviations), the
    latter bounding each node's evaluation error, and only the nodes of the
    even plan's one rule, n = EVEN_GAUSS_ORDER points, are evaluated: a
    panel's error is the proven remainder(mid, half), which must be the
    bound for that n, plus its evaluation term, the weighted deviations plus
    (n + 4) u times its value for the weights and the sum.  The target is
    then the summed evaluation term, and the returned error adds (number of
    panels) u times the value for the sum over panels.  Panels whose
    remainder or estimate exceeds their share of the target are halved, up
    to cfg.max_refinements rounds; a zero target, where the integrand
    underflows at every node, raises at once.  Each panel is evaluated once,
    in the round that creates it: a round calls f on the new children only.
    Panels stay sorted by start, so results are run-to-run identical.
    """
    if b <= a:
        raise ValueError(f"empty interval [{a}, {b}]")
    zeros = np.asarray(zeros, dtype=float)
    zeros = np.unique(zeros[(zeros > a) & (zeros < b)])
    if remainder is None:
        step, n = KINKED_PANEL_LENGTH, KINKED_GAUSS_ORDER_HIGH
        xl, wl = _panel_rules(KINKED_GAUSS_ORDER_LOW, alpha)
    else:
        step, n = EVEN_PANEL_LENGTH, EVEN_GAUSS_ORDER
    xh, wh = _panel_rules(n, alpha)
    if zeros.size:
        edges = np.concatenate([[a], zeros, [b]])
        codes = np.full(zeros.size + 1, 3)
        codes[0], codes[-1] = 1, 2
    else:
        edges = np.linspace(a, b, max(1, math.ceil((b - a) / step)) + 1)
        codes = np.zeros(edges.size - 1, dtype=int)

    def evaluate(panels: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per panel: the high-order value, the error that decides halving,
        and the evaluation term (0 without remainder)."""
        half = 0.5 * (panels[:, 1] - panels[:, 0])
        mid = 0.5 * (panels[:, 0] + panels[:, 1])
        if remainder is not None:
            values, deviations = f(mid[:, None] + half[:, None] * xh[codes])
            hi = (values * wh[codes]).sum(axis=1) * half
            rounding = (deviations * wh[codes]).sum(axis=1) * half + (n + 4) * _U * hi
            return hi, remainder(mid, half), rounding
        hi = (f(mid[:, None] + half[:, None] * xh[codes]) * wh[codes]).sum(axis=1) * half
        lo = (f(mid[:, None] + half[:, None] * xl[codes]) * wl[codes]).sum(axis=1) * half
        return hi, np.abs(hi - lo), np.zeros_like(hi)

    def target(rounding: np.ndarray) -> float:
        return KINKED_ABS_TOL if remainder is None else float(rounding.sum())

    panels = np.column_stack([edges[:-1], edges[1:]])
    hi, err, rounding = evaluate(panels, codes)
    if remainder is not None and target(rounding) == 0.0:
        # every node underflowed to 0, so no halving can meet the zero target
        raise QuadratureError(
            f"integrand underflows to 0 at every node of {len(panels)} panels: "
            f"remainder {float(err.sum()):.3e} above tolerance 0"
        )
    for _ in range(cfg.max_refinements):
        tol = target(rounding)
        if float(err.sum()) <= tol:
            break
        share = tol / (2.0 * len(panels))
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
        child_hi, child_err, child_rounding = evaluate(children, child_codes)
        panels = np.concatenate([panels[~bad], children])
        codes = np.concatenate([codes[~bad], child_codes])
        hi = np.concatenate([hi[~bad], child_hi])
        err = np.concatenate([err[~bad], child_err])
        rounding = np.concatenate([rounding[~bad], child_rounding])
        order = np.argsort(panels[:, 0])
        panels, codes, hi, err, rounding = panels[order], codes[order], hi[order], err[order], rounding[order]

    value = float(hi.sum())
    total_err = float(err.sum())
    tol = target(rounding)
    if total_err > tol:
        kind = "error estimate" if remainder is None else "remainder"
        raise QuadratureError(
            f"{kind} {total_err:.3e} above tolerance {tol:.3e} "
            f"after {cfg.max_refinements} refinements ({len(panels)} panels)"
        )
    if remainder is None:
        return value, total_err
    return value, total_err + tol + len(panels) * _U * value


def integrate_weighted_power(
    d: int, p: float, k: int, R: float, cfg: QuadConfig = DEFAULT_QUAD_CONFIG, kind: str = "power",
    memo: dict | None = None,
) -> Enclosure:
    """Enclosure of the truncated integral of the given kind on [0, R].

    Unless every exponent is even, the panels run between the zeros of the
    one factor whose exponent is not, with that end exponent there, and the
    error is the |G_high - G_low| estimate of the kinked plan's orders.
    With every exponent even, panels EVEN_PANEL_LENGTH wide take
    EVEN_GAUSS_ORDER-point Gauss-Legendre, the error is _gauss_remainder for
    that order plus the evaluation term of _even_integrand, and J values
    come from memo (see _amplitude), a fresh one when None.
    Kinked integrals do not share: their nodes follow the zeros and the
    halving of each integral, so a memo would only hold arrays.
    """
    _check_weighted_preconditions(d, p, k, R)
    factors = _factors(d, p, k, kind)
    zeros, alpha = (), 0.0
    for degree, exponent in factors:
        if exponent % 2.0 != 0.0:
            zeros, alpha = bessel_zeros(twice_nu(d, degree), R), exponent
    if alpha:
        value, err = panel_integrate(_integrand(d, factors), 0.0, R, cfg, zeros, alpha)
    else:
        memo = {} if memo is None else memo
        remainder = functools.partial(_gauss_remainder, d, factors, EVEN_GAUSS_ORDER)
        value, err = panel_integrate(_even_integrand(d, factors, memo), 0.0, R, cfg, remainder=remainder)
    return Enclosure(max(value - err, 0.0), value + err, quad_error_bound=err)


def tail_bound(d: int, p: float, k: int, R: float, kind: str = "power") -> float:
    """Upper bound on the integral of the given kind over [R, infinity).

    Each factor takes |J_nu(r)| <= r^(-1/2), valid for nu >= 1/2 and
    r >= 1.5*nu, or, at nu = 0, |J_0(r)| <= sqrt(2/(pi r)) times
    _J0_ENVELOPE_SAFETY; as the exponents sum to p, the integrand is at most
    a constant times r^(-1-expo), expo = p(d-1)/2 - d, which must be
    positive.  R must reach 1.5*nu of the largest order, or 1 when that is
    0.  The premise is checked, for every admitted order, by
    tests/test_quadrature.py::TestTailBounds::test_premise_sqrt_r_j_at_most_one.
    """
    factors = _factors(d, p, k, kind)
    nu = max(twice_nu(d, degree) for degree, _ in factors) / 2.0
    if R < (least := 1.5 * nu if nu else 1.0):
        raise SpecfunDomainError(f"tail bound needs R >= {least} (1.5*nu, or 1 at nu = 0), got R={R}")
    expo = p * (d - 1) / 2.0 - d
    if expo <= 0:
        raise SpecfunDomainError(f"tail not integrable by this bound (p(d-1)/2 - d = {expo})")
    # the total exponent on J_0 factors, which take the sqrt(2/(pi r)) envelope
    a = sum(exponent for degree, exponent in factors if twice_nu(d, degree) == 0)
    return _J0_ENVELOPE_SAFETY**a * (2.0 / math.pi) ** (a / 2.0) * R**-expo / expo
