"""Machine verification of the three weighted-norm hierarchy claims:
strict decrease of the sup norms, and domination of every positive degree
by degree one at p = 4 and at the Stein-Tomas endpoint.

The two degree hierarchies share one body, norms.best_k with top degree
one: the decreasing Gamma-function bound U dominates all large degrees at
once and explicit enclosures the small ones; each keeps only its own
degree-one versus degree-zero step.  Every verdict is one Claim.separate,
and a claim's status is the worst of its verdicts.
"""

from __future__ import annotations

from .norms import Claim, NormKey, Status, best_k, lambda4_zero, lambda_power, lambda_sup, stein_tomas_exponent
from .quadrature import Enclosure

__all__ = [
    "verify_claim",
    "verify_sup_monotone",
    "verify_p4",
    "verify_pst",
]


def verify_claim(id: str, params: dict, k_explicit: int | None = None) -> Claim:
    """A verify claim: its report fields are the witnesses, a list of
    (description, value), and the degree split k_explicit, k_dominated_from."""
    return Claim(id, params, fields={"witnesses": [], "k_explicit": k_explicit, "k_dominated_from": None})


def verify_sup_monotone(d: int, K: int) -> Claim:
    """Check that the sup norms strictly decrease in the degree, 0..K, all
    computed by one lambda_sup batch; d > 10 is an engine extension."""
    claim = verify_claim("SUP_MONOTONE", {"d": d, "K": K}, k_explicit=K)
    if K < 2:
        raise ValueError(f"need K >= 2, got {K}")
    values = lambda_sup(d, range(K + 1))
    claim.fields["witnesses"] += [(f"sup norm (d={d}, k={k})", nv) for k, nv in enumerate(values)]
    for k in range(1, K + 1):
        claim.separate(f"degree {k} vs degree {k - 1}", values[k].enclosure.upper, values[k - 1].enclosure.lower)
    if claim.status is Status.PASS:
        claim.notes.append(f"first gap {values[0].enclosure.lower - values[1].enclosure.upper}")
    if d > 10:
        claim.notes.append("dimension beyond the published tables; engine extension")
    return claim


def _degree_one_dominates(claim: Claim, R1: float, p_name: str, power_name: str) -> Enclosure:
    """Degree one against every degree k >= 2, through norms.best_k: the
    degree-one power on [0, R1] plus tail, the first degree U settles, and the
    degrees below it on [0, 200] plus tail.  Returns the degree-one enclosure
    for the degree-zero step.
    """
    d, p = claim.params["d"], claim.params["p"]
    result = best_k(claim, d, p, 1, R1, 200.0)
    claim.fields["k_dominated_from"] = result.dominated_from
    claim.fields["k_explicit"] = result.dominated_from - 1
    witnesses = claim.fields["witnesses"]
    witnesses.append((f"degree-1 {power_name} on [0,{R1:g}] + tail", result.top_power))
    witnesses.append((f"U(d,{p_name},{result.dominated_from})", result.u_dominated))
    witnesses += [(f"degree-{k} {power_name} on [0,200] + tail", power) for k, power in result.explicit]
    return result.top_power


def verify_p4(d: int) -> Claim:
    """Verify that at p = 4 every degree k >= 1 is dominated by degree one,
    and degree one by degree zero, for 3 <= d <= 10."""
    if not 3 <= d <= 10:
        raise ValueError(f"need 3 <= d <= 10, got {d}")
    claim = verify_claim("P4_HIERARCHY", {"d": d, "p": 4.0})
    power1 = _degree_one_dominates(claim, 40.0, "4", "fourth power")

    # (d) degree one below degree zero (closed form)
    zero4 = lambda4_zero(d) ** 4
    claim.fields["witnesses"].append(("degree-0 fourth power (closed form)", zero4))
    claim.separate("degree 1 vs degree 0", power1.upper, zero4)
    return claim


def verify_pst(d: int) -> Claim:
    """Verify the degree hierarchy at the Stein-Tomas endpoint, 4 <= d <= 10."""
    if not 4 <= d <= 10:
        raise ValueError(f"need 4 <= d <= 10, got {d}")
    p = stein_tomas_exponent(d)
    claim = verify_claim("PST_HIERARCHY", {"d": d, "p": p})
    power1 = _degree_one_dominates(claim, 50.0, "p_st", "power")

    # (d) degree one below degree zero; both estimated from [0, 50]
    power0 = lambda_power(NormKey(d, p, 0), R=50.0)
    claim.fields["witnesses"].append(("degree-0 power on [0,50] + tail", power0))
    claim.separate("degree 1 vs degree 0", power1.upper, power0.lower)
    return claim
