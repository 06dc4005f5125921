"""Verified weighted Bessel norms: certified enclosures, degree hierarchies,
exponent-threshold sweeps, and second-order local-maximality checks."""

# defined before the submodules load: the result store stamps its files with it
__version__ = "0.7.0"

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
    lower_bound_L0,
    stein_tomas_exponent,
    upper_bound_U,
)
from .quadrature import Enclosure, QuadConfig
from .specfun import LANDAU_CONSTANT, bessel_j, lambda_sup_zero_closed, sup_critical_point, twice_nu
