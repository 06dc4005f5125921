"""Machine verification of the three weighted-norm hierarchy claims:
strict decrease of the sup norms, and domination of every positive degree
by degree one at p = 4 and at the Stein-Tomas endpoint.

The two degree hierarchies share one body, norms.best_k with top degree
one: the decreasing Gamma-function bound U dominates all large degrees at
once and explicit enclosures the small ones; each keeps only its own
degree-one versus degree-zero step.  Every PASS rests on strictly separated
enclosures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .norms import (
    NormKey,
    Status,
    best_k,
    lambda4_zero,
    lambda_power,
    lambda_sup,
    stein_tomas_exponent,
)
from .quadrature import Enclosure

__all__ = [
    "ClaimId",
    "VerificationRecord",
    "verify_sup_monotone",
    "verify_p4",
    "verify_pst",
]

# a sup-norm gap must exceed this fraction of the larger value's upper end
_SUP_GAP_FLOOR = 1e-9


class ClaimId(str, Enum):
    SUP_MONOTONE = "SUP_MONOTONE"
    P4_HIERARCHY = "P4_HIERARCHY"
    PST_HIERARCHY = "PST_HIERARCHY"
    HOLDER_CHAIN = "HOLDER_CHAIN"
    SECOND_ORDER_POSITIVITY = "SECOND_ORDER_POSITIVITY"


@dataclass
class VerificationRecord:
    claim_id: ClaimId
    params: dict
    status: Status
    witnesses: list = field(default_factory=list)
    k_explicit: int | None = None
    k_dominated_from: int | None = None
    notes: list = field(default_factory=list)

    def add(self, description: str, value) -> None:
        self.witnesses.append((description, value))


def verify_sup_monotone(d: int, K: int) -> VerificationRecord:
    """Check that the sup norms strictly decrease in the degree, 0..K."""
    record = VerificationRecord(
        claim_id=ClaimId.SUP_MONOTONE, params={"d": d, "K": K}, status=Status.PASS, k_explicit=K
    )
    if K < 2:
        raise ValueError(f"need K >= 2, got {K}")
    values = [lambda_sup(d, k) for k in range(K + 1)]
    for k, nv in enumerate(values):
        record.add(f"sup norm (d={d}, k={k})", nv)
    for k in range(1, K + 1):
        gap = values[k - 1].enclosure.lower - values[k].enclosure.upper
        floor = _SUP_GAP_FLOOR * values[k - 1].enclosure.upper
        if gap <= floor:
            record.status = Status.INCONCLUSIVE if gap > -floor else Status.FAIL
            record.notes.append(f"gap at k={k} is {gap}")
    if record.status is Status.PASS:
        record.notes.append(f"first gap {values[0].enclosure.lower - values[1].enclosure.upper}")
    return record


def _require_strict(record: VerificationRecord, smaller_upper: float, larger_lower: float, what: str) -> None:
    if smaller_upper < larger_lower:
        return
    record.status = Status.INCONCLUSIVE
    record.notes.append(f"{what}: {smaller_upper} not strictly below {larger_lower}")


def _degree_one_dominates(record: VerificationRecord, R1: float, p_name: str, power_name: str) -> Enclosure:
    """Degree one against every degree k >= 2, through norms.best_k: the
    degree-one power on [0, R1] plus tail, the first degree U settles, and the
    degrees below it on [0, 200] plus tail.  Returns the degree-one enclosure
    for the degree-zero step.
    """
    d, p = record.params["d"], record.params["p"]
    result = best_k(d, p, 1, R1, 200.0)
    record.add(f"degree-1 {power_name} on [0,{R1:g}] + tail", result.top_power)
    record.k_dominated_from = result.dominated_from
    record.k_explicit = result.dominated_from - 1
    record.add(f"U(d,{p_name},{result.dominated_from})", result.u_dominated)
    for k, power in result.explicit:
        record.add(f"degree-{k} {power_name} on [0,200] + tail", power)
    if result.status is not Status.PASS:
        record.status = result.status
        record.notes.extend(result.notes)
    return result.top_power


def verify_p4(d: int) -> VerificationRecord:
    """Verify that at p = 4 every degree k >= 1 is dominated by degree one,
    and degree one by degree zero, for 3 <= d <= 10."""
    if not 3 <= d <= 10:
        raise ValueError(f"need 3 <= d <= 10, got {d}")
    record = VerificationRecord(claim_id=ClaimId.P4_HIERARCHY, params={"d": d, "p": 4.0}, status=Status.PASS)
    power1 = _degree_one_dominates(record, 40.0, "4", "fourth power")

    # (d) degree one below degree zero (closed form)
    zero4 = lambda4_zero(d) ** 4
    record.add("degree-0 fourth power (closed form)", zero4)
    _require_strict(record, power1.upper, zero4, "degree 1 vs degree 0")
    return record


def verify_pst(d: int) -> VerificationRecord:
    """Verify the degree hierarchy at the Stein-Tomas endpoint, 4 <= d <= 10."""
    if not 4 <= d <= 10:
        raise ValueError(f"need 4 <= d <= 10, got {d}")
    p = stein_tomas_exponent(d)
    record = VerificationRecord(claim_id=ClaimId.PST_HIERARCHY, params={"d": d, "p": p}, status=Status.PASS)
    power1 = _degree_one_dominates(record, 50.0, "p_st", "power")

    # (d) degree one below degree zero; both estimated from [0, 50]
    power0 = lambda_power(NormKey(d, p, 0), R=50.0)
    record.add("degree-0 power on [0,50] + tail", power0)
    _require_strict(record, power1.upper, power0.lower, "degree 1 vs degree 0")
    return record
