"""Second-order local-maximality checks: the cross-norm integrals, the
Hölder chain bounding them by the degree-zero power, and the positivity of
the quadratic-form coefficients in the spherical-harmonic expansion of the
deficit.

Both checks first certify, through norms.best_k with top degree zero, that
degree zero has the largest norm: L0 > Lk for every k >= 1.  Hölder then
gives M(k) <= L0^(p-2) Lk^2 < L0^p for every k >= 1, which keeps both
coefficient groups positive in every degree; the explicit M(k) are
witnesses.  Every verdict is one Claim.separate.

The common (2 pi)^(p d / 2) prefactor cancels in every comparison made
here, so all quantities are the normalized radial integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hierarchy import verify_claim
from .norms import Claim, NormKey, Status, best_k, lambda_finite, lambda_power, radial_integral
from .quadrature import DEFAULT_QUAD_CONFIG, Enclosure, QuadConfig

__all__ = [
    "DeficitCoefficients",
    "cross_norm",
    "deficit_coefficients",
    "verify_holder_chain",
    "verify_second_order_positivity",
]


@dataclass(frozen=True)
class DeficitCoefficients:
    """Worst-case-rounded quadratic coefficients for one degree k."""

    cross_norm: Enclosure
    lambda0_p: Enclosure
    coeff_real_part: float
    coeff_modulus: float


def cross_norm(
    d: int, p: float, k: int, R: float | None = None, cfg: QuadConfig = DEFAULT_QUAD_CONFIG
) -> Enclosure:
    """Enclosure of the cross integral M(k): truncated part plus tail bound.

    The checks here never vary cfg; it stays a parameter because the
    benchmark tracer (perfbench/tracing.py) reads it by name to tell cross
    integrals apart.
    """
    return radial_integral("cross", d, p, k, R, cfg)


def deficit_coefficients(d: int, p: float, k: int, R: float | None = None) -> DeficitCoefficients:
    """Quadratic deficit coefficients for degree k >= 1 under worst-case ends.

    The real-part group L0^p - (-1)^k M(k) carries the sign flip of the
    degree; the modulus group L0^p - M(k) does not.  Both are taken at the
    enclosure ends that minimize them.  As M(k) >= 0, M(k) < L0^p makes both
    positive, and (p - 2) times the first plus the second when p > 2.
    """
    if k < 1:
        raise ValueError(f"deficit coefficients are defined for k >= 1, got {k}")
    m = cross_norm(d, p, k, R)
    lam0p = lambda_power(NormKey(d, p, 0), R)
    signed_group = lam0p.lower - (m.upper if k % 2 == 0 else -m.lower)
    return DeficitCoefficients(
        cross_norm=m, lambda0_p=lam0p,
        coeff_real_part=(p * (p - 2.0) / 4.0) * signed_group,
        coeff_modulus=(p / 4.0) * (lam0p.lower - m.upper),
    )


def _degree_zero_dominates(claim: Claim, R: float | None) -> bool:
    """Certify L0 > Lk for every k >= 1 (norms.best_k with top degree zero),
    recording the split; when that premise fails the claim turns
    INCONCLUSIVE, with the premise's notes after its own."""
    d, p = claim.params["d"], claim.params["p"]
    premise = Claim("degree-zero premise", claim.params)
    result = best_k(premise, d, p, 0, R, R)
    claim.fields["k_dominated_from"] = result.dominated_from
    if premise.status is not Status.PASS:
        claim.status = Status.INCONCLUSIVE
        claim.notes.append("hypothesis not certified: argmax over degrees is not settled at 0")
        claim.notes.extend(premise.notes)
        return False
    claim.notes.append("hypothesis certified: degree 0 maximizes the norm")
    k_dom = result.dominated_from
    explicit = ", explicit enclosures below it" if k_dom > 1 else ""
    claim.notes.append(f"degree 0 dominates every k >= 1: the decreasing U bound from k={k_dom} on{explicit}")
    return True


def verify_holder_chain(d: int, p: float, k: int, R: float | None = None) -> Claim:
    """Check M(k) < L0^(p-2) Lk^2 < L0^p with enclosure-separated strictness,
    where L0, Lk are the degree-0 and degree-k norms.  For k = 0 the chain
    reads L0^p < L0^p < L0^p and cannot separate, so k >= 1."""
    if k < 1:
        raise ValueError(f"the Holder chain needs a degree k >= 1, got k={k}")
    claim = verify_claim("HOLDER_CHAIN", {"d": d, "p": p, "k": k})
    if not _degree_zero_dominates(claim, R):
        return claim

    m = cross_norm(d, p, k, R)
    lam0 = lambda_finite(NormKey(d, p, 0), R).enclosure
    lamk = lambda_finite(NormKey(d, p, k), R).enclosure
    lam0p = lambda_power(NormKey(d, p, 0), R)
    lower = lam0.lower ** (p - 2.0) * lamk.lower**2
    upper = lam0.upper ** (p - 2.0) * lamk.upper**2
    product = Enclosure(lower, upper, truncation_bound=0.5 * (upper - lower))
    claim.fields["witnesses"] += [
        ("cross norm M(k)", m),
        ("Holder product L0^(p-2) Lk^2", product),
        ("degree-0 power L0^p", lam0p),
    ]
    claim.separate("M(k) vs L0^(p-2) Lk^2", m.upper, product.lower)
    claim.separate("L0^(p-2) Lk^2 vs L0^p", product.upper, lam0p.lower)
    return claim


def verify_second_order_positivity(d: int, p: float, K: int, R: float | None = None) -> Claim:
    """Check positivity of both quadratic coefficient groups for k = 1..K,
    one separation M(k) < L0^p per degree (see deficit_coefficients).

    Degree zero is excluded: there the perturbation renormalizes the constant
    itself and the coefficient question degenerates; so K >= 1.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got K={K}")
    claim = verify_claim("SECOND_ORDER_POSITIVITY", {"d": d, "p": p, "K": K}, k_explicit=K)
    if not _degree_zero_dominates(claim, R):
        return claim
    claim.notes.append("first-order vanishing assumed (constants are critical points)")
    claim.notes.append(
        "Holder: M(k) <= L0^(p-2) Lk^2 < L0^p for every k >= 1, so both coefficient "
        "groups are positive in every degree; the explicit k <= K are witnesses"
    )

    for k in range(1, K + 1):
        coeffs = deficit_coefficients(d, p, k, R)
        claim.fields["witnesses"].append((f"coefficients at k={k}", coeffs))
        claim.separate(f"M({k}) vs L0^p", coeffs.cross_norm.upper, coeffs.lambda0_p.lower)
    return claim
