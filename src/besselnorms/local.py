"""Second-order local-maximality checks: the cross-norm integrals, the
Hölder chain bounding them by the degree-zero power, and the positivity of
the quadratic-form coefficients in the spherical-harmonic expansion of the
deficit.

Both checks first certify, through norms.best_k with top degree zero, that
degree zero has the largest norm: L0 > Lk for every k >= 1.  Hölder then
gives M(k) <= L0^(p-2) Lk^2 < L0^p for every k >= 1, which keeps both
coefficient groups positive in every degree; the explicit M(k) are
witnesses.

The common (2 pi)^(p d / 2) prefactor cancels in every comparison made
here, so all quantities are the normalized radial integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import store
from .hierarchy import ClaimId, VerificationRecord
from .norms import (
    NormKey,
    Status,
    best_k,
    default_radius,
    lambda_finite,
    lambda_power,
)
from .quadrature import (
    DEFAULT_QUAD_CONFIG,
    Enclosure,
    QuadConfig,
    cross_tail_bound,
    integrate_cross_term,
)

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

    d: int
    p: float
    k: int
    cross_norm: Enclosure
    lambda0_p: Enclosure
    coeff_real_part: float
    coeff_modulus: float
    modulus_group: float
    combined_group: float


def cross_norm(
    d: int, p: float, k: int, R: float | None = None, cfg: QuadConfig = DEFAULT_QUAD_CONFIG
) -> Enclosure:
    """Enclosure of the cross integral M(k): truncated part plus tail bound.

    The checks here never vary cfg; it stays a parameter because the
    benchmark tracer (perfbench/tracing.py) reads it by name to tell cross
    integrals apart.
    """
    R = default_radius(d, k) if R is None else R
    truncated = store.current().enclosure("cross", integrate_cross_term, d, p, k, R, cfg)
    return truncated.with_tail(cross_tail_bound(d, p, k, R))


def deficit_coefficients(d: int, p: float, k: int, R: float | None = None) -> DeficitCoefficients:
    """Quadratic deficit coefficients for degree k >= 1 under worst-case ends.

    The real-part group carries the sign flip (-1)^k of the degree; the
    modulus group does not.  Both are evaluated at the enclosure ends that
    minimize them, so positivity survives the rounding.  The combined group
    is (p - 2) times the signed group plus the modulus group.
    """
    if k < 1:
        raise ValueError(f"deficit coefficients are defined for k >= 1, got {k}")
    m = cross_norm(d, p, k, R)
    lam0p = lambda_power(NormKey(d, p, 0), R)
    signed_group = lam0p.lower - (m.upper if k % 2 == 0 else -m.lower)
    modulus_group = lam0p.lower - m.upper
    return DeficitCoefficients(
        d=d, p=p, k=k, cross_norm=m, lambda0_p=lam0p,
        coeff_real_part=(p * (p - 2.0) / 4.0) * signed_group,
        coeff_modulus=(p / 4.0) * modulus_group,
        modulus_group=modulus_group,
        combined_group=(p - 2.0) * signed_group + modulus_group,
    )


def _degree_zero_dominates(record: VerificationRecord, R: float | None) -> bool:
    """Certify L0 > Lk for every k >= 1 (norms.best_k with top degree zero),
    recording the split; on failure the record turns INCONCLUSIVE."""
    d, p = record.params["d"], record.params["p"]
    result = best_k(d, p, 0, R, R)
    record.k_dominated_from = result.dominated_from
    if result.status is not Status.PASS:
        record.status = Status.INCONCLUSIVE
        record.notes.append("hypothesis not certified: argmax over degrees is not settled at 0")
        record.notes.extend(result.notes)
        return False
    record.notes.append("hypothesis certified: degree 0 maximizes the norm")
    k_dom = result.dominated_from
    explicit = ", explicit enclosures below it" if k_dom > 1 else ""
    record.notes.append(f"degree 0 dominates every k >= 1: the decreasing U bound from k={k_dom} on{explicit}")
    return True


def verify_holder_chain(d: int, p: float, k: int, R: float | None = None) -> VerificationRecord:
    """Check M(k) < L0^(p-2) Lk^2 < L0^p with enclosure-separated strictness,
    where L0, Lk are the degree-0 and degree-k norms."""
    record = VerificationRecord(
        claim_id=ClaimId.HOLDER_CHAIN, params={"d": d, "p": p, "k": k}, status=Status.PASS
    )
    if not _degree_zero_dominates(record, R):
        return record

    m = cross_norm(d, p, k, R)
    lam0 = lambda_finite(NormKey(d, p, 0), R).enclosure
    lamk = lambda_finite(NormKey(d, p, k), R).enclosure
    lam0p = lambda_power(NormKey(d, p, 0), R)
    product = Enclosure(
        lam0.lower ** (p - 2.0) * lamk.lower**2,
        lam0.upper ** (p - 2.0) * lamk.upper**2,
        truncation_bound=0.5
        * (lam0.upper ** (p - 2.0) * lamk.upper**2 - lam0.lower ** (p - 2.0) * lamk.lower**2),
    )
    record.add("cross norm M(k)", m)
    record.add("Holder product L0^(p-2) Lk^2", product)
    record.add("degree-0 power L0^p", lam0p)
    if not m.upper < product.lower:
        record.status = Status.INCONCLUSIVE
        record.notes.append(f"first link not separated: {m.upper} vs {product.lower}")
    if not product.upper < lam0p.lower:
        record.status = Status.INCONCLUSIVE
        record.notes.append(f"second link not separated: {product.upper} vs {lam0p.lower}")
    return record


def verify_second_order_positivity(d: int, p: float, K: int, R: float | None = None) -> VerificationRecord:
    """Check positivity of both quadratic coefficient groups for k = 1..K.

    Degree zero is excluded: there the perturbation renormalizes the constant
    itself and the coefficient question degenerates.
    """
    record = VerificationRecord(
        claim_id=ClaimId.SECOND_ORDER_POSITIVITY,
        params={"d": d, "p": p, "K": K},
        status=Status.PASS,
        k_explicit=K,
    )
    if not _degree_zero_dominates(record, R):
        return record
    record.notes.append("first-order vanishing assumed (constants are critical points)")
    record.notes.append(
        "Holder: M(k) <= L0^(p-2) Lk^2 < L0^p for every k >= 1, so both coefficient "
        "groups are positive in every degree; the explicit k <= K are witnesses"
    )

    for k in range(1, K + 1):
        coeffs = deficit_coefficients(d, p, k, R)
        record.add(f"coefficients at k={k}", coeffs)
        if not (coeffs.modulus_group > 0.0 and coeffs.combined_group > 0.0):
            record.status = Status.INCONCLUSIVE
            record.notes.append(
                f"k={k}: modulus group {coeffs.modulus_group}, combined group {coeffs.combined_group}"
            )
    return record
