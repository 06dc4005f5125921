"""Verified weighted Bessel norms: certified enclosures, degree hierarchies,
exponent-threshold sweeps, and second-order local-maximality checks."""

# defined before the submodules load: the result store stamps its files with it
__version__ = "0.1.0"

from .norms import (
    INFINITY,
    BestKResult,
    Method,
    NormKey,
    NormValue,
    Status,
    best_k,
    lambda4_zero,
    lambda_finite,
    lambda_power,
    lambda_sup,
    lambda_sup_zero_closed,
    lower_bound_L0,
    stein_tomas_exponent,
    upper_bound_U,
    weighted_l2_identity,
)
from .quadrature import Enclosure, QuadConfig
from .specfun import BesselOrder, bessel_j, landau_constant, log_gamma, sup_critical_point
