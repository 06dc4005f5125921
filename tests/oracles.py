"""Independent oracles: Simpson evaluation of the truncated integrals on a
fine grid, a dense scan of the sup-norm profile, and the closed form of the
weighted L2 integral of J_nu.

Deliberately shares no code with the package's panel quadrature or its
critical-point search: plain uniform-grid Simpson on [a, R] with a tiny
analytic bound for [0, a], and plain sampling with a decay envelope, so
they can serve as soundness oracles for the enclosures.
"""

import math

import numpy as np
from scipy.integrate import simpson
from scipy.special import jv

ORIGIN_CUT = 1e-6

# sup over nu > 0, r > 0 of |r^(1/3) J_nu(r)| (Landau, 2000), rounded up
LANDAU_UPPER = 0.7857469


def simpson_weighted_power(d: int, p: float, k: int, R: float, h: float = 1e-3):
    """(value, error_allowance) for the truncated weighted power integral."""
    nu = d / 2.0 - 1.0 + k
    n = max(2, int(round((R - ORIGIN_CUT) / h)))
    if n % 2:
        n += 1
    r = np.linspace(ORIGIN_CUT, R, n + 1)
    y = np.abs(jv(nu, r) * r ** (1.0 - d / 2.0)) ** p * r ** (d - 1.0)
    value = float(simpson(y, x=r))
    # the weighted amplitude never exceeds 1, so [0, a] contributes < a^d / d
    origin = ORIGIN_CUT**d / d
    allowance = origin + 1e-9 * (1.0 + abs(value))
    return value, allowance


def simpson_cross_term(d: int, p: float, k: int, R: float, h: float = 1e-3):
    """(value, error_allowance) for the truncated cross integral."""
    n = max(2, int(round((R - ORIGIN_CUT) / h)))
    if n % 2:
        n += 1
    r = np.linspace(ORIGIN_CUT, R, n + 1)
    amp0 = np.abs(jv(d / 2.0 - 1.0, r) * r ** (1.0 - d / 2.0))
    ampk = np.abs(jv(d / 2.0 - 1.0 + k, r) * r ** (1.0 - d / 2.0))
    y = amp0 ** (p - 2.0) * ampk**2 * r ** (d - 1.0)
    value = float(simpson(y, x=r))
    origin = ORIGIN_CUT**d / d
    allowance = origin + 1e-9 * (1.0 + abs(value))
    return value, allowance


def sup_scan_max(d: int, k: int, h: float = 0.01) -> float:
    """Upper estimate of sup_r |r^(1-d/2) J_nu(r)|, nu = d/2 - 1 + k.

    The larger of the sampled maximum on an h-step grid up to r_end =
    3 nu + 20 and the decreasing envelope r^(1-d/2) min(r^(-1/2), L r^(-1/3))
    at r_end, which dominates the profile beyond the grid.
    """
    nu = d / 2.0 - 1.0 + k
    r_end = 3.0 * nu + 20.0
    r = np.arange(h, r_end + h / 2, h)
    sampled = float(np.max(np.abs(jv(nu, r) * r ** (1.0 - d / 2.0))))
    decay = r_end ** (1.0 - d / 2.0) * min(r_end**-0.5, LANDAU_UPPER * r_end ** (-1.0 / 3.0))
    return max(sampled, decay)


def weighted_l2_identity(order: int, lam: float) -> float:
    """Closed form of the integral of J_nu(r)^2 r^(-lam) over (0, infinity),
    2 nu = order, valid for 0 < lam < 2 nu + 1 (Watson, Treatise, 13.41)."""
    nu = order / 2.0
    if not 0.0 < lam < 2.0 * nu + 1.0:
        raise ValueError(f"need 0 < lam < 2nu+1, got lam={lam}, nu={nu}")
    log_val = (
        math.lgamma(lam)
        + math.lgamma(nu + (1.0 - lam) / 2.0)
        - lam * math.log(2.0)
        - 2.0 * math.lgamma((1.0 + lam) / 2.0)
        - math.lgamma(nu + (1.0 + lam) / 2.0)
    )
    return math.exp(log_val)
