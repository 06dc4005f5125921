import math

import mpmath
import numpy as np
import pytest
from scipy.special import jv

from besselnorms.specfun import (
    MAX_TWICE_NU,
    BesselOrder,
    SpecfunDomainError,
    bessel_j,
    first_zero_lower_bound,
    landau_constant,
    log_gamma,
    sup_critical_point,
)

# ln Gamma(10.3), 50-digit series evaluation (mpmath), frozen
LOG_GAMMA_10_3 = 13.482036786138357

# first local max of r^(-1/2) J_{3/2}(r); root of the half-integer critical
# equation computed with a 40-digit closed-form root finder, frozen
CRITICAL_POINT_D3_K1 = 2.0815759778181006

J1_PRIME_FIRST_ZERO = 1.8411837813406593


class TestBesselOrder:
    def test_nu(self):
        assert BesselOrder(3).nu == 1.5
        assert BesselOrder.from_dim_degree(3, 1).twice_nu == 3
        assert BesselOrder.from_dim_degree(2, 0).nu == 0.0

    def test_rejects_negative(self):
        with pytest.raises(SpecfunDomainError):
            BesselOrder(-1)
        with pytest.raises(SpecfunDomainError):
            BesselOrder.from_dim_degree(1, 0)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(BesselOrder(0), 0.0) == 1.0
        assert bessel_j(BesselOrder(1), 0.0) == 0.0
        assert bessel_j(BesselOrder(4), 0.0) == 0.0

    def test_half_order_closed_form(self):
        # J_{1/2}(r) = sqrt(2/(pi r)) sin r
        r = math.pi / 2
        assert bessel_j(BesselOrder(1), r) == pytest.approx(2 / math.pi, rel=1e-12)

    def test_peak_of_j1(self):
        assert bessel_j(BesselOrder(2), 1.8411838) == pytest.approx(0.581865, abs=5e-7)

    def test_domain_errors(self):
        with pytest.raises(SpecfunDomainError):
            bessel_j(BesselOrder(0), -1.0)
        with pytest.raises(SpecfunDomainError):
            bessel_j(BesselOrder(0), 1500.0)
        with pytest.raises(SpecfunDomainError):
            bessel_j(BesselOrder(130), 1.0)

    def test_array_matches_scalar_and_is_checked(self):
        r = np.array([0.5, 3.0, 40.0, 999.0])
        got = bessel_j(BesselOrder(3), r)
        assert list(got) == [bessel_j(BesselOrder(3), float(x)) for x in r]
        with pytest.raises(SpecfunDomainError):
            bessel_j(BesselOrder(3), np.array([1.0, 1500.0]))
        with pytest.raises(SpecfunDomainError):
            bessel_j(BesselOrder(3), np.array([-1.0, 1.0]))
        with pytest.raises(SpecfunDomainError):
            bessel_j(BesselOrder(MAX_TWICE_NU + 1), r)

    @pytest.mark.parametrize("twice_nu", [1, 3])
    def test_half_integer_closed_forms_on_range(self, twice_nu):
        r = np.linspace(0.1, 500.0, 2000)
        if twice_nu == 1:
            exact = np.sqrt(2 / (np.pi * r)) * np.sin(r)
        else:
            exact = np.sqrt(2 / (np.pi * r)) * (np.sin(r) / r - np.cos(r))
        got = jv(twice_nu / 2, r)
        scale = np.maximum(np.abs(exact), 1e-3)
        assert np.max(np.abs(got - exact) / scale) < 1e-12

    def test_recurrence_residual(self):
        # (2 nu / r) J_nu = J_{nu-1} + J_{nu+1}
        rng = np.random.default_rng(7)
        for twice_nu in range(2, 21):
            nu = twice_nu / 2
            r = rng.uniform(0.05, 200.0, size=200)
            lhs = (2 * nu / r) * jv(nu, r)
            jm, jp = jv(nu - 1, r), jv(nu + 1, r)
            tol = 1e-10 * (1 + np.abs(jm) + np.abs(jp))
            assert np.all(np.abs(lhs - jm - jp) <= tol)

    def test_derivative_relation_residual(self):
        # 2 J'_nu = J_{nu-1} - J_{nu+1}, J' by centered differences
        rng = np.random.default_rng(8)
        h = 1e-6
        for twice_nu in range(2, 13):
            nu = twice_nu / 2
            r = rng.uniform(0.5, 100.0, size=100)
            deriv = (jv(nu, r + h) - jv(nu, r - h)) / (2 * h)
            jm, jp = jv(nu - 1, r), jv(nu + 1, r)
            tol = 1e-9 * (1 + np.abs(jm) + np.abs(jp))
            assert np.all(np.abs(2 * deriv - jm + jp) <= tol)

    @pytest.mark.parametrize("r", [1.0, 10.0, 100.0])
    def test_normalization_identity(self, r):
        # J_0^2 + 2 sum_m J_m^2 = 1
        total = jv(0, r) ** 2 + 2 * sum(jv(m, r) ** 2 for m in range(1, int(2 * r) + 40))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestLogGamma:
    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    def test_integer(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    def test_frozen_oracle(self):
        assert log_gamma(10.3) == pytest.approx(LOG_GAMMA_10_3, rel=1e-13)

    def test_domain(self):
        with pytest.raises(SpecfunDomainError):
            log_gamma(0.0)
        with pytest.raises(SpecfunDomainError):
            log_gamma(-2.5)


class TestLandauConstant:
    def test_value(self):
        # rounded up from 0.78574687... so that U stays an upper bound
        assert 0.78574687 < landau_constant() <= 0.7857469

    def test_dominates_scaled_profiles(self):
        # sampled max of |r^(1/3) J_nu(r)| over moderate orders
        r = np.arange(0.01, 60.0, 0.01)
        worst = 0.0
        for twice_nu in range(2, 21):
            worst = max(worst, float(np.max(r ** (1 / 3) * np.abs(jv(twice_nu / 2, r)))))
        assert worst <= landau_constant() + 1e-6

    def test_strict_at_j1_peak(self):
        r = J1_PRIME_FIRST_ZERO
        assert r ** (1 / 3) * abs(jv(1, r)) < landau_constant()


class TestSupCriticalPoint:
    def test_d2_reduces_to_j1_derivative_zero(self):
        r_star = sup_critical_point(2, 1)
        assert r_star == pytest.approx(J1_PRIME_FIRST_ZERO, abs=1e-11)
        # derivative sign-change oracle around the located point
        h = 1e-6
        deriv = lambda r: (jv(1, r + h) - jv(1, r - h)) / (2 * h)
        assert deriv(r_star - 1e-4) > 0 > deriv(r_star + 1e-4)

    def test_d3_k1_against_closed_form_root(self):
        assert sup_critical_point(3, 1) == pytest.approx(CRITICAL_POINT_D3_K1, abs=1e-11)

    @pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (5, 2), (8, 3)])
    def test_local_maximality(self, d, k):
        nu = d / 2 - 1 + k
        r_star = sup_critical_point(d, k)
        profile = lambda r: r ** (1 - d / 2) * jv(nu, r)
        assert profile(r_star) > profile(r_star - 0.01)
        assert profile(r_star) > profile(r_star + 0.01)

    def test_domain(self):
        with pytest.raises(SpecfunDomainError):
            sup_critical_point(1, 1)
        with pytest.raises(SpecfunDomainError):
            sup_critical_point(3, 0)

    def test_bracket_signs_on_every_admitted_pair(self):
        # d >= 2, k >= 1 and J_{nu+1} within the order limit: 2 nu + 2 = d + 2k
        pairs = np.array([(d, k) for k in range(1, MAX_TWICE_NU) for d in range(2, MAX_TWICE_NU + 1 - 2 * k)])
        assert len(pairs) == 3481
        d, k = pairs[:, 0], pairs[:, 1]
        nu = d / 2.0 - 1.0 + k
        residual = lambda r: k * jv(nu, r) - r * jv(nu + 1.0, r)
        assert np.all(residual(np.full(len(nu), 1e-3)) > 0.0)
        assert np.all(residual(first_zero_lower_bound(nu)) < 0.0)

    def test_upper_bracket_end_below_first_zero(self):
        for twice_nu in (2, 3, 4, 7, 12, 25, 50, 90, 118, 120):
            nu = twice_nu / 2.0
            first_zero = float(mpmath.besseljzero(mpmath.mpf(twice_nu) / 2, 1))
            assert first_zero - first_zero_lower_bound(nu) > 0.26, twice_nu
