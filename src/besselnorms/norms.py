"""The named weighted-norm quantities: finite-p norms with enclosures, the
sup norms, closed forms, the Gamma-function upper bound U, the lower bound
on the degree-zero norm, and the certificate that one degree dominates all
higher ones; and Claim, the one record of a report entry and its verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import store
from .quadrature import DEFAULT_QUAD_CONFIG, Enclosure, QuadConfig, integrate_weighted_power, tail_bound
from .specfun import (
    LANDAU_CONSTANT,
    MAX_TWICE_NU,
    RootBracketError,
    SpecfunDomainError,
    bessel_j,
    check_admissible,
    first_zero_estimate,
    lambda_sup_zero_closed,
    log_c0,
    sup_critical_point,
    twice_nu,
)

__all__ = [
    "INFINITY",
    "NormKey",
    "NormValue",
    "Method",
    "Status",
    "SEPARATION_RTOL",
    "worst",
    "strictly_below",
    "Claim",
    "BestKResult",
    "lambda_finite",
    "lambda_power",
    "radial_integral",
    "truncated_power",
    "lambda_sup",
    "lambda4_zero",
    "upper_bound_U",
    "lower_bound_L0",
    "validity_strip",
    "stein_tomas_exponent",
    "best_k",
    "P4_ANCHOR_RADIUS",
    "PST_ANCHOR_RADIUS",
    "default_radius",
    "clear_memo_cache",
]

INFINITY = math.inf

# The radii of the two degree-one anchors, each read as one stored entry by a
# verifier and a sweep: the fourth power on [0, P4_ANCHOR_RADIUS] by verify p4
# and the step-1 sweep, the p_st power on [0, PST_ANCHOR_RADIUS] by verify
# pst and the step-2 sweep.
P4_ANCHOR_RADIUS = 40.0
PST_ANCHOR_RADIUS = 50.0


class Method(str, Enum):
    QUADRATURE_TAIL = "QUADRATURE_TAIL"
    CLOSED_FORM = "CLOSED_FORM"
    CRITICAL_POINT = "CRITICAL_POINT"


class Status(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


# Every verdict compares two positive computed bounds, the smaller side's
# upper end against the larger side's lower end, both moved outward by this
# relative allowance.  It covers their rounding: U and L0 are within 6e-14 of
# exact, powers of enclosure ends are off by a few ulp, and the sup norms
# carry 1e-11 slack.
SEPARATION_RTOL = 1e-9


def worst(*statuses: Status) -> Status:
    """The status of a claim from its verdicts: FAIL over INCONCLUSIVE over PASS."""
    return max(statuses, key=(Status.PASS, Status.INCONCLUSIVE, Status.FAIL).index)


def strictly_below(smaller, larger):
    """smaller < larger for positive values, both first moved outward by
    SEPARATION_RTOL; arrays compare element by element."""
    return smaller * (1.0 + SEPARATION_RTOL) < larger * (1.0 - SEPARATION_RTOL)


@dataclass
class Claim:
    """One report entry: an id ("P4_HIERARCHY", "norm", "sweep-STEP1_FOUR_INF",
    ...), its parameters, the worst of its verdicts, the notes of the
    verdicts that did not pass, the value ends (None when absent) and the
    report fields of its kind (cli._entry puts witness values in report
    form)."""

    id: str
    params: dict
    status: Status = Status.PASS
    notes: list = field(default_factory=list)
    lower: float | None = None
    upper: float | None = None
    fields: dict = field(default_factory=dict)

    def separate(self, what: str, smaller: Enclosure, larger: Enclosure) -> Status:
        """The one verdict rule between two enclosures (a closed form is
        Enclosure.point): PASS when smaller's upper end is strictly below
        larger's lower end; FAIL, a refutation, only when larger's upper end
        is strictly below smaller's lower end; INCONCLUSIVE when they
        overlap.  A note when not PASS.  The verdict is folded into the
        status."""
        if strictly_below(smaller.upper, larger.lower):
            return Status.PASS
        self.notes.append(f"{what}: {smaller.upper} not strictly below {larger.lower}")
        verdict = Status.FAIL if strictly_below(larger.upper, smaller.lower) else Status.INCONCLUSIVE
        self.status = worst(self.status, verdict)
        return verdict


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
        return twice_nu(self.d, self.k) / 2.0

    @property
    def is_sup(self) -> bool:
        return math.isinf(self.p)


@dataclass(frozen=True)
class NormValue:
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
    return max(200.0, 3.0 * (twice_nu(d, k) / 2.0))


def clear_memo_cache() -> None:
    """Drop the in-memory entries and J values of the current result store;
    files are untouched."""
    store.current().clear()


def truncated_power(key: NormKey, R: float) -> Enclosure:
    """The stored integral of the p-th power on [0, R], without its tail."""
    return store.current().enclosure("power", integrate_weighted_power, key.d, key.p, key.k, R)


def radial_integral(
    kind: str, d: int, p: float, k: int, R: float | None = None, cfg: QuadConfig = DEFAULT_QUAD_CONFIG
) -> Enclosure:
    """Enclosure of the integral of the given kind (quadrature._factors) on
    [0, infinity): the stored integral on [0, R] plus its tail bound, R
    defaulting to default_radius(d, k)."""
    if math.isinf(p):
        raise SpecfunDomainError("a radial integral needs a finite exponent")
    R = default_radius(d, k) if R is None else R
    truncated = store.current().enclosure(kind, integrate_weighted_power, d, p, k, R, cfg)
    return truncated.with_tail(tail_bound(d, p, k, R, kind))


def lambda_power(key: NormKey, R: float | None = None) -> Enclosure:
    """Enclosure of the p-th power of the norm: truncated integral plus tail."""
    return radial_integral("power", key.d, key.p, key.k, R)


def lambda_finite(key: NormKey, R: float | None = None) -> NormValue:
    """The finite-p norm as an enclosure (p-th root of the power enclosure)."""
    R = default_radius(key.d, key.k) if R is None else R
    power = lambda_power(key, R)
    return NormValue(enclosure=power.powered(1.0 / key.p), R_used=R, method=Method.QUADRATURE_TAIL)


def lambda_sup(d: int, k):
    """The sup norm of one degree k (a NormValue out) or of a sequence of
    degrees (a list out): closed form for degree zero, critical point
    otherwise, all positive degrees in one sup_critical_point batch.

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
    keys = [NormKey(d, INFINITY, kk) for kk in ([k] if np.ndim(k) == 0 else k)]
    positive = [key.k for key in keys if key.k > 0]
    if positive:
        r_stars = sup_critical_point(d, positive)
        j_stars = bessel_j(np.array([twice_nu(d, kk) for kk in positive]), r_stars)
        peaks = zip(r_stars.tolist(), j_stars.tolist())
    values = []
    for key in keys:
        if key.k == 0:
            value = lambda_sup_zero_closed(d)
            values.append(NormValue(enclosure=Enclosure.point(value), R_used=0.0, method=Method.CLOSED_FORM))
            continue
        r_star, j_star = next(peaks)
        if not (j_star > 0.0 and r_star < first_zero_estimate(key.nu)):
            raise RootBracketError(f"critical point r*={r_star} is not in the first lobe of J_{key.nu}")
        value = j_star * r_star ** (1.0 - d / 2.0)
        slack = 1e-11 * value
        enc = Enclosure(value - slack, value + slack, truncation_bound=slack)
        values.append(NormValue(enclosure=enc, R_used=r_star, method=Method.CRITICAL_POINT))
    return values[0] if np.ndim(k) == 0 else values


def lambda4_zero(d: int) -> float:
    """Closed form of the degree-zero norm at p = 4, for d >= 3.

    The fourth power equals Gamma(nu) Gamma(2 nu) / (2 pi Gamma(nu+1/2)^2
    Gamma(3 nu)) with nu = d/2 - 1.
    """
    if d < 3:
        raise SpecfunDomainError(f"need d >= 3 (the p=4, d=2 case is inadmissible), got {d}")
    nu = twice_nu(d, 0) / 2.0
    log_val = (
        math.lgamma(nu)
        + math.lgamma(2.0 * nu)
        - math.log(2.0 * math.pi)
        - 2.0 * math.lgamma(nu + 0.5)
        - math.lgamma(3.0 * nu)
    )
    return math.exp(0.25 * log_val)


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
    nu = twice_nu(d, k) / 2.0
    return LANDAU_CONSTANT ** (p - 2.0) * math.exp(
        math.lgamma(lam)
        + math.lgamma(nu + (1.0 - lam) / 2.0)
        - lam * math.log(2.0)
        - 2.0 * math.lgamma((1.0 + lam) / 2.0)
        - math.lgamma(nu + (1.0 + lam) / 2.0)
    )


def lower_bound_L0(d: int, p):
    """Strict lower bound on the degree-zero norm at exponent p, a float (a
    float out) or an array (an array out; every exponent must be admissible).

    numpy has no lgamma, so math.lgamma runs per point; the rest is one
    array expression.
    """
    exps = np.atleast_1d(np.asarray(p, dtype=float))
    check_admissible(d, p=float(np.min(exps)))
    lg_half = math.lgamma(d / 2.0)
    log_prefactor = ((d - 1) * math.log(2.0) + (d / 2.0) * math.log(d / 2.0)) / exps
    log_prefactor += log_c0(d)
    log_ratio = np.array([math.lgamma(x + 1.0) + lg_half - math.lgamma(x + d / 2.0 + 1.0) for x in exps.tolist()])
    log_ratio /= exps
    bound = np.exp(log_prefactor + log_ratio)
    return float(bound[0]) if np.ndim(p) == 0 else bound


@dataclass
class BestKResult:
    """One degree against every higher degree: the enclosure of its p-th
    power, the first degree the U bound settles, the U value there, and the
    explicit enclosures (k, power) of the degrees strictly between."""

    top_power: Enclosure
    dominated_from: int
    u_dominated: float
    explicit: list = field(default_factory=list)


def best_k(claim: Claim, d: int, p: float, top: int, R_top: float | None = None, R: float | None = None) -> BestKResult:
    """Certify that degree `top` has the largest norm among all degrees k >= top.

    1. Enclose the p-th power of degree `top` on [0, R_top] plus tail; its
       lower end is the bar.
    2. k_dom is the first degree above `top` with U(d, p, k_dom)
       strictly_below the bar; U decreases strictly to 0 in k (upper_bound_U),
       so this settles every k >= k_dom at once.  A degree below k_dom whose
       order exceeds MAX_TWICE_NU cannot be enclosed: SpecfunDomainError.
    3. Enclose each degree strictly between on [0, R] plus tail and separate
       it from degree `top`'s enclosure: PASS when its upper end is below
       the bar, each verdict folded into claim.
    """
    lo_strip, hi_strip = validity_strip(d)
    if not lo_strip < p < hi_strip:
        raise SpecfunDomainError(f"best_k needs p inside the U-bound strip ({lo_strip}, {hi_strip})")
    top_power = lambda_power(NormKey(d, p, top), R_top)
    bar = top_power.lower
    k_dom = top + 1
    while not strictly_below(u_dom := upper_bound_U(d, p, k_dom), bar):
        # degree k_dom joins the explicit ones, which bessel_j must reach
        if (order := twice_nu(d, k_dom)) > MAX_TWICE_NU:
            raise SpecfunDomainError(
                f"no domination degree for d={d}, p={p}: degree {k_dom} would need order 2nu={order} > MAX_TWICE_NU={MAX_TWICE_NU}"
            )
        k_dom += 1
    result = BestKResult(top_power=top_power, dominated_from=k_dom, u_dominated=u_dom)
    for k in range(top + 1, k_dom):
        power = lambda_power(NormKey(d, p, k), R)
        result.explicit.append((k, power))
        claim.separate(f"degree {k} vs degree {top}", power, top_power)
    return result
