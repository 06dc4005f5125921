import math

import numpy as np
import pytest

from besselnorms.quadrature import (
    DEFAULT_QUAD_CONFIG,
    Enclosure,
    QuadConfig,
    QuadratureError,
    cross_tail_bound,
    cross_term_integrand,
    integrate_cross_term,
    integrate_weighted_power,
    panel_integrate,
    tail_bound,
    weighted_power_integrand,
    zero_order_tail_bound,
)
from besselnorms.specfun import SpecfunDomainError

from oracles import simpson_weighted_power


class TestEnclosure:
    def test_basic_properties(self):
        enc = Enclosure(1.0, 1.2, truncation_bound=0.1, quad_error_bound=0.0)
        assert enc.width == pytest.approx(0.2)
        assert enc.midpoint == pytest.approx(1.1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Enclosure(2.0, 1.0)

    def test_rejects_negative_bounds(self):
        with pytest.raises(ValueError):
            Enclosure(1.0, 1.0, truncation_bound=-1e-3)

    def test_rejects_width_beyond_budget(self):
        with pytest.raises(ValueError):
            Enclosure(1.0, 2.0, truncation_bound=0.1, quad_error_bound=0.1)

    def test_with_tail_extends_upper_only(self):
        enc = Enclosure(1.0, 1.0 + 2e-3, quad_error_bound=1e-3)
        out = enc.with_tail(0.05)
        assert out.lower == enc.lower
        assert out.upper == pytest.approx(enc.upper + 0.05)
        assert out.truncation_bound == pytest.approx(0.05)

    def test_powered_is_sound(self):
        enc = Enclosure(0.9, 1.1, truncation_bound=0.1)
        out = enc.powered(0.25)
        for x in np.linspace(0.9, 1.1, 11):
            assert out.lower <= x**0.25 <= out.upper

    def test_powered_rejects_bad_args(self):
        enc = Enclosure(0.9, 1.1, truncation_bound=0.1)
        with pytest.raises(ValueError):
            enc.powered(0.0)

    def test_scaled(self):
        enc = Enclosure(1.0, 1.2, truncation_bound=0.1)
        out = enc.scaled(3.0)
        assert (out.lower, out.upper) == (3.0, pytest.approx(3.6))
        with pytest.raises(ValueError):
            enc.scaled(-1.0)

    def test_point(self):
        enc = Enclosure.point(2.5)
        assert enc.lower == enc.upper == 2.5
        assert enc.width == 0.0


class TestPanelIntegrate:
    def test_sine(self):
        value, err = panel_integrate(np.sin, 0.0, math.pi)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert err <= DEFAULT_QUAD_CONFIG.abs_tol

    def test_exponential(self):
        value, _ = panel_integrate(np.exp, 0.0, 1.0)
        assert value == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            panel_integrate(np.sin, 1.0, 1.0)

    def test_refinement_brings_chirp_in_tolerance(self):
        f = lambda r: np.cos(8.0 * r * r)
        cfg = QuadConfig(panel_length=4.0)
        value, err = panel_integrate(f, 0.0, 8.0, cfg)
        ref, _ = panel_integrate(f, 0.0, 8.0, DEFAULT_QUAD_CONFIG)
        assert err <= cfg.abs_tol
        assert value == pytest.approx(ref, abs=1e-10)

    def test_error_raised_when_refinement_capped(self):
        f = lambda r: np.cos(40.0 * r * r)
        cfg = QuadConfig(panel_length=10.0, max_refinements=0, abs_tol=1e-13)
        with pytest.raises(QuadratureError):
            panel_integrate(f, 0.0, 10.0, cfg)

    def test_deterministic(self):
        f = weighted_power_integrand(3, 4.0, 1)
        first = panel_integrate(f, 0.0, 40.0)
        second = panel_integrate(f, 0.0, 40.0)
        assert first == second


class TestQuadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadConfig(panel_length=0.0)
        with pytest.raises(ValueError):
            QuadConfig(gauss_order_high=8, gauss_order_low=8)

    def test_key_distinguishes_profiles(self):
        assert QuadConfig().key() != QuadConfig(abs_tol=1e-8).key()


class TestIntegrands:
    def test_weighted_power_finite_near_origin(self):
        for d, k in [(2, 0), (3, 0), (4, 0), (2, 1), (5, 2)]:
            f = weighted_power_integrand(d, 4.5 if d == 2 else 4.0, k)
            vals = f(np.array([1e-9, 1e-6, 1e-4, 0.5]))
            assert np.all(np.isfinite(vals)) and np.all(vals >= 0)

    def test_cross_reduces_to_power_at_degree_zero(self):
        r = np.linspace(1e-5, 30.0, 500)
        for d, p in [(2, 6.0), (3, 4.0), (5, 3.0)]:
            f_cross = cross_term_integrand(d, p, 0)
            f_power = weighted_power_integrand(d, p, 0)
            np.testing.assert_allclose(f_cross(r), f_power(r), rtol=1e-12)

    def test_small_argument_series_matches_direct(self):
        # the series branch (r < 1e-3) must agree with the direct product
        from scipy.special import jv

        r = np.array([5e-4])
        for d in (2, 3, 4, 7):
            p = 6.0 if d == 2 else 4.0
            f = weighted_power_integrand(d, p, 0)
            nu = d / 2.0 - 1.0
            direct = np.abs(jv(nu, r) * r ** (1.0 - d / 2.0)) ** p * r ** (d - 1.0)
            assert f(r)[0] == pytest.approx(direct[0], rel=1e-12)


class TestIntegrateWeightedPower:
    def test_reference_value(self):
        enc = integrate_weighted_power(3, 4.0, 1, 40.0)
        assert enc.midpoint == pytest.approx(0.144681, abs=5e-7)

    def test_against_simpson_oracle(self):
        for d, p, k, R in [(2, 6.0, 0, 30.0), (3, 4.0, 2, 50.0), (5, 3.0, 1, 40.0)]:
            enc = integrate_weighted_power(d, p, k, R)
            value, allowance = simpson_weighted_power(d, p, k, R)
            assert enc.lower - allowance <= value <= enc.upper + allowance

    def test_preconditions(self):
        with pytest.raises(SpecfunDomainError):
            integrate_weighted_power(3, 2.9, 0, 40.0)  # p <= 2d/(d-1)
        with pytest.raises(SpecfunDomainError):
            integrate_weighted_power(3, 4.0, 0, -1.0)
        with pytest.raises(SpecfunDomainError):
            integrate_weighted_power(1, 4.0, 0, 40.0)
        with pytest.raises(SpecfunDomainError):
            integrate_weighted_power(3, 4.0, 1, 1500.0)  # beyond MAX_ARGUMENT

    def test_cross_term_degree_zero_equals_power(self):
        a = integrate_weighted_power(3, 4.0, 0, 60.0)
        b = integrate_cross_term(3, 4.0, 0, 60.0)
        assert a.midpoint == pytest.approx(b.midpoint, rel=1e-12)


class TestTailBounds:
    def test_decreasing_in_radius(self):
        bounds = [tail_bound(3, 4.0, 1, R) for R in (40.0, 80.0, 200.0, 400.0)]
        assert bounds == sorted(bounds, reverse=True)
        assert bounds[-1] > 0

    def test_closed_form(self):
        # exponent p(d-1)/2 - d = 1 at d=3, p=4 gives exactly 1/R
        assert tail_bound(3, 4.0, 1, 200.0) == pytest.approx(1.0 / 200.0, rel=1e-14)

    def test_actually_bounds_the_tail(self):
        # tail over [R, 2R] computed explicitly must sit below the bound
        R = 40.0
        inner = integrate_weighted_power(3, 4.0, 1, 2 * R).midpoint - integrate_weighted_power(
            3, 4.0, 1, R
        ).midpoint
        assert 0 < inner < tail_bound(3, 4.0, 1, R)

    def test_domain_errors(self):
        with pytest.raises(SpecfunDomainError):
            tail_bound(2, 6.0, 0, 40.0)  # order below 1/2
        with pytest.raises(SpecfunDomainError):
            tail_bound(3, 4.0, 10, 10.0)  # R below 1.5 nu

    def test_zero_order_variant(self):
        assert zero_order_tail_bound(6.0, 200.0) < zero_order_tail_bound(6.0, 100.0)
        with pytest.raises(SpecfunDomainError):
            zero_order_tail_bound(4.0, 200.0)
        with pytest.raises(SpecfunDomainError):
            zero_order_tail_bound(6.0, 0.5)

    def test_zero_order_actually_bounds(self):
        R = 50.0
        inner = (
            integrate_weighted_power(2, 6.0, 0, 2 * R).midpoint
            - integrate_weighted_power(2, 6.0, 0, R).midpoint
        )
        assert 0 < inner < zero_order_tail_bound(6.0, R)

    def test_cross_tail(self):
        assert cross_tail_bound(3, 4.0, 1, 200.0) == pytest.approx(1.0 / 200.0, rel=1e-14)
        # d=2 uses the sharper degree-zero envelope on the base factor
        assert cross_tail_bound(2, 6.0, 1, 200.0) < tail_bound(2, 6.0, 1, 200.0)
        assert cross_tail_bound(2, 6.0, 0, 200.0) == zero_order_tail_bound(6.0, 200.0)
        with pytest.raises(SpecfunDomainError):
            cross_tail_bound(3, 4.0, 10, 10.0)
