import math

import mpmath
import numpy as np
import pytest

from besselnorms import golden, quadrature
from besselnorms.local import verify_holder_chain, verify_second_order_positivity
from besselnorms.norms import clear_memo_cache, stein_tomas_exponent
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
from besselnorms.specfun import (
    MAX_ARGUMENT,
    MAX_TWICE_NU,
    BesselOrder,
    SpecfunDomainError,
    bessel_j,
    bessel_zeros,
)

from oracles import simpson_weighted_power

# Truncated integrals at (d=5, p=3), where |J_{3/2}|^(p-2) and |J_{d/2-1+k}|^p
# have kinks at the zeros, frozen from 20-digit mpmath.quad split there:
#   mp.dps = 20; w = 1 - mpf(5)/2; nu0 = mpf(3)/2
#   zeros = lambda nu, R: [z for z in (besseljzero(nu, n) for n in range(1, 80)) if z < R]
#   cross = lambda k: lambda r: abs(besselj(nu0, r)*r**w) * (besselj(nu0 + k, r)*r**w)**2 * r**4
#   quad(cross(k), [0] + zeros(nu0, 200) + [200])                    # k = 1, 4, 8
#   power = lambda r: abs(besselj(nu0 + 2, r)*r**w)**3 * r**4
#   quad(power, [0] + zeros(nu0 + 2, 50) + [50])
CROSS_5_3_R200 = {1: 0.10531175757985376, 4: 0.045489211209227405, 8: 0.025736200347072221}
POWER_5_3_K2_R50 = 0.096552573263792616

# even exponents add no panel edges; these enclosures predate the edges at zeros
EVEN_P_ENCLOSURES = {
    (3, 4.0, 1): "Enclosure(lower=0.1477828104211968, upper=0.14778281042249342, "
    "truncation_bound=0.0, quad_error_bound=6.483196147749111e-13)",
    (2, 6.0, 0): "Enclosure(lower=0.33642538345613776, upper=0.33642538345801737, "
    "truncation_bound=0.0, quad_error_bound=9.397851201144548e-13)",
}

LOCAL_MAXIMIZER_PAIRS = [(2, 6.0), (3, 4.0), (4, 10.0 / 3.0), (5, 3.0)]


def _counting(f, calls):
    """f, recording every node array it is called with."""

    def g(r):
        calls.append(np.array(r))
        return f(r)

    return g


@pytest.fixture
def integrand_calls(monkeypatch):
    """Node arrays of every integrand call, one list per panel_integrate call."""
    per_integral = []
    real = quadrature.panel_integrate

    def recording(f, *args, **kwargs):
        per_integral.append([])
        return real(_counting(f, per_integral[-1]), *args, **kwargs)

    monkeypatch.setattr(quadrature, "panel_integrate", recording)
    clear_memo_cache()
    yield per_integral
    clear_memo_cache()


@pytest.fixture
def breakpoints_passed(monkeypatch):
    """Breakpoints handed to panel_integrate; the integral itself is skipped."""
    passed = []

    def capture(f, a, b, cfg, breakpoints=()):
        passed.append(np.asarray(breakpoints, dtype=float))
        return 0.0, 0.0

    monkeypatch.setattr(quadrature, "panel_integrate", capture)
    return passed


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

    def test_breakpoints_outside_the_interval_are_ignored(self):
        f = weighted_power_integrand(3, 4.0, 1)
        plain = panel_integrate(f, 0.0, 40.0)
        assert panel_integrate(f, 0.0, 40.0, DEFAULT_QUAD_CONFIG, [-1.0, 0.0, 40.0, 41.0]) == plain


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

    def test_premise_sqrt_r_j_at_most_one(self):
        """sqrt(r) |J_nu(r)| <= 1 on r >= 1.5 nu for every admitted 1 <= 2 nu <= 120.

        u = sqrt(r) J_nu solves u'' = -(1 - (nu^2 - 1/4) / r^2) u, and the
        bracket lies in (0, 1] for r >= 1.5 nu, so |u''| <= max |u| there and a
        grid of step h sees the maximum to within a factor 1 - h^2/8.  Beyond
        MAX_ARGUMENT the maxima of |u| decrease, since the bracket increases in
        r (Sonine-Polya; Watson, Treatise, 15.31).
        """
        h = 0.5
        for twice_nu in range(1, MAX_TWICE_NU + 1):
            order = BesselOrder(twice_nu)
            start = 1.5 * order.nu
            r = np.linspace(start, MAX_ARGUMENT, math.ceil((MAX_ARGUMENT - start) / h) + 1)
            u = np.sqrt(r) * np.abs(bessel_j(order, r))
            i = int(np.argmax(u))
            exact = float(mpmath.sqrt(r[i]) * abs(mpmath.besselj(order.nu, r[i])))
            assert u[i] == pytest.approx(exact, rel=1e-12), twice_nu
            assert exact / (1.0 - h * h / 8.0) < 1.0, twice_nu


class TestKinkedExponents:
    """Non-even exponents: panel edges at the zeros keep |G16 - G8| honest."""

    @pytest.mark.parametrize("k", sorted(CROSS_5_3_R200))
    def test_cross_term_encloses_mpmath_value(self, k):
        enc = integrate_cross_term(5, 3.0, k, 200.0)
        assert enc.lower <= CROSS_5_3_R200[k] <= enc.upper

    def test_stein_tomas_power_encloses_mpmath_value(self):
        enc = integrate_weighted_power(5, 3.0, 2, 50.0)
        assert enc.lower <= POWER_5_3_K2_R50 <= enc.upper

    # orders nu = d/2 - 1 + k = 0, 1/2, 1, 3/2, 30 at admissible non-even p
    @pytest.mark.parametrize("d, k, p", [(2, 0, 5.0), (3, 0, 3.5), (4, 0, 10.0 / 3.0), (5, 0, 3.0), (2, 30, 5.0)])
    def test_inserted_edges_are_the_zeros(self, breakpoints_passed, d, k, p):
        R = 100.0
        integrate_weighted_power(d, p, k, R)
        (edges,) = breakpoints_passed
        nu = mpmath.mpf(d - 2 + 2 * k) / 2
        expected = [float(mpmath.besseljzero(nu, n)) for n in range(1, len(edges) + 1)]
        np.testing.assert_allclose(edges, expected, rtol=1e-13, atol=0.0)
        assert mpmath.besseljzero(nu, len(edges) + 1) > R

    def test_cross_term_edges_come_from_degree_zero(self, breakpoints_passed):
        integrate_cross_term(5, 3.0, 4, 200.0)
        (edges,) = breakpoints_passed
        np.testing.assert_array_equal(edges, bessel_zeros(BesselOrder(3), 200.0))

    def test_even_exponents_add_no_edges(self, breakpoints_passed):
        integrate_weighted_power(3, 4.0, 1, 200.0)
        integrate_weighted_power(2, 6.0, 0, 200.0)
        integrate_cross_term(3, 4.0, 2, 200.0)  # p - 2 = 2
        integrate_cross_term(2, 6.0, 1, 200.0)  # p - 2 = 4
        assert [edges.size for edges in breakpoints_passed] == [0, 0, 0, 0]

    @pytest.mark.parametrize("key", sorted(EVEN_P_ENCLOSURES))
    def test_even_exponent_enclosures_unchanged(self, key):
        d, p, k = key
        assert repr(integrate_weighted_power(d, p, k, 200.0)) == EVEN_P_ENCLOSURES[key]

    def test_long_panels_holding_several_zeros(self):
        cfg = QuadConfig(panel_length=10.0)
        for d, p, k, R in [(5, 3.0, 2, 50.0), (4, 10.0 / 3.0, 1, 50.0)]:
            enc = integrate_weighted_power(d, p, k, R, cfg)
            value, allowance = simpson_weighted_power(d, p, k, R)
            assert enc.lower - allowance <= value <= enc.upper + allowance


class TestNodeCounts:
    """Each panel is evaluated once, and no production integral nears the cap."""

    def test_each_panel_evaluated_once(self, integrand_calls):
        integrate_cross_term(5, 3.0, 1, 200.0)
        (calls,) = integrand_calls
        high, low = calls[0::2], calls[1::2]
        assert [c.shape[1] for c in high] == [16] * len(high)
        assert [c.shape for c in low] == [(c.shape[0], 8) for c in high]
        # starting panels: 128 equal steps of at most pi/2 plus the zeros of J_{3/2}
        start = np.union1d(np.linspace(0.0, 200.0, 129), bessel_zeros(BesselOrder(3), 200.0)).size - 1
        assert high[0].shape[0] == start
        panels = np.concatenate(high)
        assert len(np.unique(panels, axis=0)) == len(panels)
        assert sum(c.size for c in calls) == 24 * len(panels)

    def _refinements(self, integrand_calls):
        return [len(calls) // 2 - 1 for calls in integrand_calls]

    def test_local_maximizer_integrals_stay_clear_of_the_cap(self, integrand_calls):
        for d, p in LOCAL_MAXIMIZER_PAIRS:
            for k in range(1, 9):
                verify_holder_chain(d, p, k)
            verify_second_order_positivity(d, p, 8)
        rounds = self._refinements(integrand_calls)
        assert len(rounds) == 68
        assert max(rounds) <= DEFAULT_QUAD_CONFIG.max_refinements - 2

    def test_stein_tomas_table_stays_clear_of_the_cap(self, integrand_calls):
        parts = [
            (50.0, {(d, 1) for d in golden.PST_TRUNCATED_50_K1}),
            (200.0, set(golden.PST_TRUNCATED_200)),
            (50.0, {(d, 0) for d in golden.PST_TRUNCATED_50_K0}),
        ]
        for R, keys in parts:
            for d, k in sorted(keys):
                integrate_weighted_power(d, stein_tomas_exponent(d), k, R)
        rounds = self._refinements(integrand_calls)
        assert len(rounds) == 20
        assert max(rounds) <= DEFAULT_QUAD_CONFIG.max_refinements - 2

    @pytest.mark.parametrize("k", range(1, 9))
    def test_cross_terms_at_p3_are_cheap(self, integrand_calls, k):
        integrate_cross_term(5, 3.0, k, 200.0)
        (calls,) = integrand_calls
        assert sum(c.size for c in calls) <= 5000
