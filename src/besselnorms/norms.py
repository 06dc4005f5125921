"""The named weighted-norm quantities: finite-p norms with enclosures, the
sup norms, closed forms, the Gamma-function upper bound U, the lower bound
on the degree-zero norm, and the certificate that one degree dominates all
higher ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from . import store
from .quadrature import Enclosure, integrate_weighted_power, tail_bound, zero_order_tail_bound
from .specfun import (
    MAX_TWICE_NU,
    BesselOrder,
    RootBracketError,
    SpecfunDomainError,
    bessel_j,
    check_admissible,
    first_zero_estimate,
    landau_constant,
    log_gamma,
    sup_critical_point,
)

__all__ = [
    "INFINITY",
    "NormKey",
    "NormValue",
    "Method",
    "Status",
    "BestKResult",
    "lambda_finite",
    "lambda_power",
    "truncated_power",
    "lambda_sup",
    "lambda_sup_zero_closed",
    "lambda4_zero",
    "weighted_l2_identity",
    "upper_bound_U",
    "lower_bound_L0",
    "validity_strip",
    "stein_tomas_exponent",
    "best_k",
    "default_radius",
    "clear_memo_cache",
]

INFINITY = math.inf


class Method(str, Enum):
    QUADRATURE_TAIL = "QUADRATURE_TAIL"
    CLOSED_FORM = "CLOSED_FORM"
    CRITICAL_POINT = "CRITICAL_POINT"


class Status(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class NormKey:
    """Identifies the weighted norm of order d/2 - 1 + k at exponent p."""

    d: int
    p: float
    k: int

    def __post_init__(self):
        check_admissible(self.d, self.k, self.p)

    @property
    def nu(self) -> float:
        return self.d / 2.0 - 1.0 + self.k

    @property
    def is_sup(self) -> bool:
        return math.isinf(self.p)


@dataclass(frozen=True)
class NormValue:
    key: NormKey
    enclosure: Enclosure
    R_used: float
    method: Method

    def __post_init__(self):
        if self.enclosure.lower <= 0:
            raise ValueError("norm enclosures must be strictly positive")
        if self.method is Method.CLOSED_FORM:
            if self.enclosure.width > 1e-12 * self.enclosure.upper:
                raise ValueError("closed-form enclosure wider than 1e-12 relative")


def stein_tomas_exponent(d: int) -> float:
    """The endpoint exponent 2(d+1)/(d-1)."""
    return 2.0 * (d + 1) / (d - 1)


def default_radius(d: int, k: int) -> float:
    """Default truncation radius: max(200, 3*nu)."""
    return max(200.0, 3.0 * (d / 2.0 - 1.0 + k))


def clear_memo_cache() -> None:
    """Drop the in-memory entries of the current result store; files are untouched."""
    store.current().data.clear()


def _tail_for(key: NormKey, R: float) -> float:
    if key.d == 2 and key.k == 0:
        return zero_order_tail_bound(key.p, R)
    return tail_bound(key.d, key.p, key.k, R)


def truncated_power(key: NormKey, R: float) -> Enclosure:
    """The stored integral of the p-th power on [0, R], without its tail."""
    return store.current().enclosure("power", integrate_weighted_power, key.d, key.p, key.k, R)


def lambda_power(key: NormKey, R: float | None = None) -> Enclosure:
    """Enclosure of the p-th power of the norm: truncated integral plus tail."""
    if key.is_sup:
        raise SpecfunDomainError("lambda_power needs a finite exponent")
    R = default_radius(key.d, key.k) if R is None else R
    return truncated_power(key, R).with_tail(_tail_for(key, R))


def lambda_finite(key: NormKey, R: float | None = None) -> NormValue:
    """The finite-p norm as an enclosure (p-th root of the power enclosure)."""
    R = default_radius(key.d, key.k) if R is None else R
    power = lambda_power(key, R)
    return NormValue(key=key, enclosure=power.powered(1.0 / key.p), R_used=R, method=Method.QUADRATURE_TAIL)


def lambda_sup_zero_closed(d: int) -> float:
    """Closed form 1 / (2^(d/2-1) Gamma(d/2)) for the degree-zero sup norm."""
    if d < 2:
        raise SpecfunDomainError(f"need d >= 2, got {d}")
    return math.exp((1.0 - d / 2.0) * math.log(2.0) - log_gamma(d / 2.0))


def lambda_sup(d: int, k: int) -> NormValue:
    """The sup norm: closed form for degree zero, critical point otherwise.

    For k >= 1, f(r) = r^(1-d/2) J_nu(r), nu = d/2 - 1 + k, peaks at the first
    critical point r* (first sign change of k J_nu - r J_{nu+1}), because:
    1. On the first lobe (0, j_{nu,1}), log f = k log r + log(r^-nu J_nu) is
       concave (product formula; Watson, Treatise, 15.41), so r* is its only
       critical point there.
    2. Each later lobe peaks lower: the maxima of |J_nu| decrease (Sonine;
       Watson, 15.31) and r^(1-d/2) does not increase for d >= 2.
    Only the premise is checked at runtime: J_nu(r*) > 0 and r* below
    first_zero_estimate(nu) < j_{nu,2}, so r* lies in the first lobe.
    """
    key = NormKey(d, INFINITY, k)
    if k == 0:
        value = lambda_sup_zero_closed(d)
        return NormValue(key=key, enclosure=Enclosure.point(value), R_used=0.0, method=Method.CLOSED_FORM)
    r_star = sup_critical_point(d, k)
    order = BesselOrder.from_dim_degree(d, k)
    j_star = bessel_j(order, r_star)
    if not (j_star > 0.0 and r_star < first_zero_estimate(order.nu)):
        raise RootBracketError(f"critical point r*={r_star} is not in the first lobe of J_{order.nu}")
    value = j_star * r_star ** (1.0 - d / 2.0)
    slack = 1e-11 * value
    enc = Enclosure(value - slack, value + slack, truncation_bound=slack)
    return NormValue(key=key, enclosure=enc, R_used=r_star, method=Method.CRITICAL_POINT)


def lambda4_zero(d: int) -> float:
    """Closed form of the degree-zero norm at p = 4, for d >= 3.

    The fourth power equals Gamma(nu) Gamma(2 nu) / (2 pi Gamma(nu+1/2)^2
    Gamma(3 nu)) with nu = d/2 - 1.
    """
    if d < 3:
        raise SpecfunDomainError(f"need d >= 3 (the p=4, d=2 case is inadmissible), got {d}")
    nu = d / 2.0 - 1.0
    log_val = (
        log_gamma(nu)
        + log_gamma(2.0 * nu)
        - math.log(2.0 * math.pi)
        - 2.0 * log_gamma(nu + 0.5)
        - log_gamma(3.0 * nu)
    )
    return math.exp(0.25 * log_val)


def weighted_l2_identity(nu: BesselOrder, lam: float) -> float:
    """Closed form of the integral of J_nu(r)^2 r^(-lam) over (0, infinity).

    Valid for 0 < lam < 2 nu + 1.
    """
    v = nu.nu
    if not 0.0 < lam < 2.0 * v + 1.0:
        raise SpecfunDomainError(f"need 0 < lam < 2nu+1, got lam={lam}, nu={v}")
    log_val = (
        log_gamma(lam)
        + log_gamma(v + (1.0 - lam) / 2.0)
        - lam * math.log(2.0)
        - 2.0 * log_gamma((1.0 + lam) / 2.0)
        - log_gamma(v + (1.0 + lam) / 2.0)
    )
    return math.exp(log_val)


def validity_strip(d: int) -> tuple[float, float]:
    """Exponent range on which the upper bound U is valid for every k >= 1."""
    return (6.0 * d - 2.0) / (3.0 * d - 4.0), (12.0 * d + 4.0) / (3.0 * d - 4.0)


def upper_bound_U(d: int, p: float, k: int) -> float:
    """Gamma-function upper bound for the p-th power of the degree-k norm.

    Valid on the open exponent strip given by validity_strip(d), where it is
    positive, strictly decreasing in k and tends to 0.  Proof: with
    lam = p(3d-4)/6 - (3d-1)/3, increasing in p, lam is 0 at the lower strip
    end (6d-2)/(3d-4) and d+1 at the upper end (12d+4)/(3d-4); so 0 < lam < d+1
    inside.  Only the factor G(nu+(1-lam)/2) / G(nu+(1+lam)/2),
    nu = d/2 - 1 + k >= d/2, depends on k; both arguments are positive since
    nu + (1-lam)/2 > d/2 - d/2 = 0.  Its log has nu-derivative
    psi(nu+(1-lam)/2) - psi(nu+(1+lam)/2) < 0, psi being increasing, and the
    ratio behaves like nu^(-lam) -> 0.  Hence U(d, p, k_dom) below a bar
    settles every k >= k_dom (tests/test_properties.py checks the decrease on
    a grid and the rejected strip ends).
    """
    if k < 1:
        raise SpecfunDomainError(f"need k >= 1, got {k}")
    lo, hi = validity_strip(d)
    if not lo < p < hi:
        raise SpecfunDomainError(f"p={p} outside the validity strip ({lo}, {hi}) for d={d}")
    lam = p * (d / 2.0 - 2.0 / 3.0) - d + 1.0 / 3.0
    nu = d / 2.0 - 1.0 + k
    return landau_constant() ** (p - 2.0) * math.exp(
        log_gamma(lam)
        + log_gamma(nu + (1.0 - lam) / 2.0)
        - lam * math.log(2.0)
        - 2.0 * log_gamma((1.0 + lam) / 2.0)
        - log_gamma(nu + (1.0 + lam) / 2.0)
    )


def lower_bound_L0(d: int, p: float) -> float:
    """Strict lower bound on the degree-zero norm at exponent p."""
    check_admissible(d, p=p)
    log_prefactor = ((d - 1) * math.log(2.0) + (d / 2.0) * math.log(d / 2.0)) / p
    log_prefactor -= (d / 2.0 - 1.0) * math.log(2.0) + log_gamma(d / 2.0)
    log_ratio = (log_gamma(p + 1.0) + log_gamma(d / 2.0) - log_gamma(p + d / 2.0 + 1.0)) / p
    return math.exp(log_prefactor + log_ratio)


@dataclass
class BestKResult:
    """One degree against every higher degree: the enclosure of its p-th
    power, the first degree the U bound settles, the U value there, and the
    explicit enclosures (k, power) of the degrees strictly between."""

    d: int
    p: float
    top_power: Enclosure
    dominated_from: int
    u_dominated: float
    status: Status = Status.PASS
    explicit: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def best_k(d: int, p: float, top: int, R_top: float | None = None, R: float | None = None) -> BestKResult:
    """Certify that degree `top` has the largest norm among all degrees k >= top.

    1. Enclose the p-th power of degree `top` on [0, R_top] plus tail; its
       lower end is the bar.
    2. k_dom is the first degree above `top` where U(d, p, k_dom) falls below
       the bar.  U strictly decreases in k and tends to 0 (see upper_bound_U),
       so this settles every k >= k_dom at once.  A degree below k_dom whose
       order exceeds MAX_TWICE_NU cannot be enclosed: SpecfunDomainError.
    3. Enclose each degree strictly between on [0, R] plus tail; an upper end
       not strictly below the bar gives INCONCLUSIVE, never a forced PASS.
    """
    lo_strip, hi_strip = validity_strip(d)
    if not lo_strip < p < hi_strip:
        raise SpecfunDomainError(f"best_k needs p inside the U-bound strip ({lo_strip}, {hi_strip})")
    top_power = lambda_power(NormKey(d, p, top), R_top)
    bar = top_power.lower
    k_dom = top + 1
    while (u_dom := upper_bound_U(d, p, k_dom)) >= bar:
        # degree k_dom joins the explicit ones, which bessel_j must reach
        if (twice_nu := BesselOrder.from_dim_degree(d, k_dom).twice_nu) > MAX_TWICE_NU:
            raise SpecfunDomainError(
                f"no domination degree for d={d}, p={p}: degree {k_dom} would need order 2nu={twice_nu} > MAX_TWICE_NU={MAX_TWICE_NU}"
            )
        k_dom += 1
    result = BestKResult(d=d, p=p, top_power=top_power, dominated_from=k_dom, u_dominated=u_dom)
    for k in range(top + 1, k_dom):
        power = lambda_power(NormKey(d, p, k), R)
        result.explicit.append((k, power))
        if not power.upper < bar:
            result.status = Status.INCONCLUSIVE
            result.notes.append(f"degree {k} vs degree {top}: {power.upper} not strictly below {bar}")
    return result
