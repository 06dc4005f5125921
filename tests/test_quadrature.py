import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from besselnorms import golden, quadrature
from besselnorms.local import verify_holder_chain, verify_second_order_positivity
from besselnorms.norms import clear_memo_cache, stein_tomas_exponent
from besselnorms.quadrature import (
    DEFAULT_QUAD_CONFIG,
    EVEN_GAUSS_ORDER,
    EVEN_PANEL_LENGTH,
    KINKED_ABS_TOL,
    KINKED_GAUSS_ORDER_HIGH,
    KINKED_GAUSS_ORDER_LOW,
    KINKED_PANEL_LENGTH,
    Enclosure,
    QuadConfig,
    QuadratureError,
    integrate_weighted_power,
    panel_integrate,
    tail_bound,
)
from besselnorms.specfun import (
    MAX_ARGUMENT,
    MAX_TWICE_NU,
    SpecfunDomainError,
    bessel_j,
    bessel_zeros,
)

from oracles import simpson_weighted_power

SRC = Path(__file__).resolve().parents[1] / "src"

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

# By the same recipe with d = 4 and p = 10/3 as the float the engine uses,
# mpf(3.3333333333333335): |J_1|^(4/3) has a kink at each zero of J_1.
CROSS_4_10_3_R200 = {1: 0.1102204273242194807, 4: 0.042166731527753343013, 8: 0.022924014630928997603}

# Every golden PST_TRUNCATED_* entry, keyed by (d, k, R), by the power recipe
# above at p = mpf(stein_tomas_exponent(d)), split at the zeros of J_{d/2-1+k}.
PST_TRUNCATED_MPMATH = {
    (4, 1, 50.0): 0.14339131583231575646,
    (5, 1, 50.0): 0.13169264255574558381,
    (6, 1, 50.0): 0.11894058673782427275,
    (7, 1, 50.0): 0.1071896772064605133,
    (8, 1, 50.0): 0.096975308237575982739,
    (9, 1, 50.0): 0.088278981156060820485,
    (10, 1, 50.0): 0.080794349406219362545,
    (4, 2, 200.0): 0.10349215258968959088,
    (4, 3, 200.0): 0.080521972235597050382,
    (5, 2, 200.0): 0.099806554326949033987,
    (6, 2, 200.0): 0.09385624794463681161,
    (7, 2, 200.0): 0.087532220062604257862,
    (8, 2, 200.0): 0.081490743834460087986,
    (9, 2, 200.0): 0.075951969688924944257,
    (10, 2, 200.0): 0.070956898965355110491,
    (6, 0, 50.0): 0.17320104816059784907,
    (7, 0, 50.0): 0.14792633177547134693,
    (8, 0, 50.0): 0.12860001925402097313,
    (9, 0, 50.0): 0.11333114673844855164,
    (10, 0, 50.0): 0.10108610146278561955,
}

# Every golden P4_TRUNCATED_* entry, keyed by (d, k, R), frozen from 20-digit
# mpmath.quad of (J_nu(r) r^(1-d/2))^4 r^(d-1), nu = d/2 - 1 + k, on [0, R]
# split into subintervals 2 wide.  The (3, 4, 200) value confirms the
# recomputed 0.0615959 against the published 0.0615859.
P4_TRUNCATED_MPMATH = {
    (3, 1, 40.0): 0.14468137099596960862,
    (4, 1, 40.0): 0.033726253783873014299,
    (5, 1, 40.0): 0.0066134775028318634161,
    (6, 1, 40.0): 0.0010721670093763286394,
    (7, 1, 40.0): 0.00014631751469747139101,
    (8, 1, 40.0): 0.000017154903087424043316,
    (9, 1, 40.0): 1.758668401462028783e-6,
    (10, 1, 40.0): 1.5995253245250283515e-7,
    (3, 2, 200.0): 0.099282765990475741208,
    (3, 3, 200.0): 0.075704504321160033318,
    (3, 4, 200.0): 0.061595918080458191623,
    (4, 2, 200.0): 0.017260219992317990122,
    (9, 2, 200.0): 4.7078203500727037443e-7,
    (10, 2, 200.0): 4.0018359145755902865e-8,
}

# Non-even exponents the engine meets at a zero: p_st(d) for d = 4..10 (10/3,
# 3, 2.8, 8/3, 18/7, 5/2, 22/9) and their p - 2 values (4/3, 1, 0.8, ...).
JACOBI_EXPONENTS = sorted(
    {stein_tomas_exponent(d) for d in range(4, 11)} | {stein_tomas_exponent(d) - 2.0 for d in range(4, 11)}
)

# even exponents add no panel edges; the enclosures on [0, 200] of the proven
# remainder plus evaluation term on the even plan's 2 pi panels with G32
# (each midpoint inside the enclosure of pi/2 panels with G16 it replaced),
# and the (lower, upper) of the |G16 - G8| estimate before either, which must
# hold the midpoints
EVEN_P_ENCLOSURES = {
    (3, 4.0, 1): "Enclosure(lower=0.1477828104209837, upper=0.14778281042270633, "
    "truncation_bound=0.0, quad_error_bound=8.613166310743915e-13)",
    (2, 6.0, 0): "Enclosure(lower=0.336425383454684, upper=0.33642538345947104, "
    "truncation_bound=0.0, quad_error_bound=2.3935189937227306e-12)",
}
EVEN_P_ESTIMATE_ENCLOSURES = {
    (3, 4.0, 1): (0.1477828104211968, 0.14778281042249342),
    (2, 6.0, 0): (0.33642538345613776, 0.33642538345801737),
}

LOCAL_MAXIMIZER_PAIRS = [(2, 6.0), (3, 4.0), (4, 10.0 / 3.0), (5, 3.0)]

# The d = 2 tails the local-maximizer checks read at the default radius 200:
# the power tail of degree 0 and the cross tails of M(1)..M(8), as computed
# before power and cross integrals shared one tail bound.
D2_TAILS_R200 = {
    ("power", 0): "0.001290069117715594",
    **{("cross", k): "0.0020264317785536052" for k in range(1, 9)},
}


def integrand(d, p, k, kind="power"):
    """The integrand integrate_weighted_power hands to panel_integrate."""
    return quadrature._integrand(d, quadrature._factors(d, p, k, kind))


def tail_slice(d, p, k, R, kind="power"):
    """The integral of the given kind over [R, 2R], from two truncated ones."""
    outer = integrate_weighted_power(d, p, k, 2 * R, kind=kind)
    return outer.midpoint - integrate_weighted_power(d, p, k, R, kind=kind).midpoint


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
    """Zeros handed to panel_integrate; the integral itself is skipped."""
    passed = []

    def capture(f, a, b, cfg, zeros=(), alpha=0.0, remainder=None):
        passed.append(np.asarray(zeros, dtype=float))
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

    def test_point(self):
        enc = Enclosure.point(2.5)
        assert enc.lower == enc.upper == 2.5
        assert enc.width == 0.0


class TestPanelIntegrate:
    def test_sine(self):
        value, err = panel_integrate(np.sin, 0.0, math.pi)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert err <= KINKED_ABS_TOL

    def test_exponential(self):
        value, _ = panel_integrate(np.exp, 0.0, 1.0)
        assert value == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            panel_integrate(np.sin, 1.0, 1.0)

    def test_refinement_brings_chirp_in_tolerance(self, monkeypatch):
        f = lambda r: np.cos(8.0 * r * r)
        ref, _ = panel_integrate(f, 0.0, 8.0, DEFAULT_QUAD_CONFIG)
        monkeypatch.setattr(quadrature, "KINKED_PANEL_LENGTH", 4.0)
        value, err = panel_integrate(f, 0.0, 8.0)
        assert err <= KINKED_ABS_TOL
        assert value == pytest.approx(ref, abs=1e-10)

    def test_error_raised_when_refinement_capped(self, monkeypatch):
        f = lambda r: np.cos(40.0 * r * r)
        monkeypatch.setattr(quadrature, "KINKED_PANEL_LENGTH", 10.0)
        monkeypatch.setattr(quadrature, "KINKED_ABS_TOL", 1e-13)
        with pytest.raises(QuadratureError):
            panel_integrate(f, 0.0, 10.0, QuadConfig(max_refinements=0))

    def test_deterministic(self):
        f = integrand(3, 4.0, 1)
        first = panel_integrate(f, 0.0, 40.0)
        second = panel_integrate(f, 0.0, 40.0)
        assert first == second

    def test_breakpoints_outside_the_interval_are_ignored(self):
        f = integrand(3, 4.0, 1)
        plain = panel_integrate(f, 0.0, 40.0)
        assert panel_integrate(f, 0.0, 40.0, DEFAULT_QUAD_CONFIG, [-1.0, 0.0, 40.0, 41.0]) == plain

    def test_jacobi_panels_take_the_kink_exactly(self):
        # |sin r|^(4/3) on [pi/2, 5pi/2]: panels [pi/2, pi], [pi, 2pi], [2pi, 5pi/2]
        # carry the weight at their zero ends, and one round suffices
        f = lambda r: np.abs(np.sin(r)) ** (4.0 / 3.0)
        calls = []
        value, err = panel_integrate(_counting(f, calls), math.pi / 2, 2.5 * math.pi, DEFAULT_QUAD_CONFIG,
                                     [math.pi, 2 * math.pi], 4.0 / 3.0)
        exact = 2 * mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(7) / 6) / mpmath.gamma(mpmath.mpf(5) / 3)
        assert value == pytest.approx(float(exact), rel=1e-14)
        assert err <= KINKED_ABS_TOL
        assert [c.shape for c in calls] == [(3, 16), (3, 8)]

    def test_halved_panels_keep_their_end_exponents(self):
        # a fast factor forces halving; the children must keep the zero-end weights
        f = lambda r: np.abs(np.sin(r)) ** 2.5 * np.exp(np.cos(12.0 * r))
        calls = []
        value, err = panel_integrate(_counting(f, calls), math.pi / 2, 2.5 * math.pi, DEFAULT_QUAD_CONFIG,
                                     [math.pi, 2 * math.pi], 2.5)
        with mpmath.workdps(20):
            g = lambda r: abs(mpmath.sin(r)) ** 2.5 * mpmath.exp(mpmath.cos(12 * r))
            exact = mpmath.quad(g, mpmath.linspace(mpmath.pi / 2, 5 * mpmath.pi / 2, 17))
        assert len(calls) > 2
        assert err <= KINKED_ABS_TOL
        assert abs(value - float(exact)) <= err


class TestQuadConfig:
    def test_validation(self):
        # what the removed fields were checked for now holds of the constants
        assert KINKED_PANEL_LENGTH > 0 and EVEN_PANEL_LENGTH > 0
        assert KINKED_GAUSS_ORDER_HIGH > KINKED_GAUSS_ORDER_LOW >= 2
        with pytest.raises(TypeError):
            QuadConfig(panel_length=1.0)

    def test_key_distinguishes_profiles(self):
        assert QuadConfig().key() == (12,)
        assert QuadConfig().key() != QuadConfig(max_refinements=3).key()


def _jacobi_polynomial(n, a, b, x):
    """P_n^(a,b)(x) in mpmath by the three-term recurrence (DLMF 18.9.2)."""
    prev, cur = mpmath.mpf(1), (a + b + 2) / 2 * x + (a - b) / 2
    for m in range(1, n):
        s = 2 * m + a + b
        prev, cur = cur, (
            (s + 1) * ((s + 2) * s * x + a * a - b * b) * cur - 2 * (m + a) * (m + b) * (s + 2) * prev
        ) / (2 * (m + 1) * (m + a + b + 1) * s)
    return cur


def _jacobi_rule_mpmath(n, left, right, start):
    """Gauss-Jacobi rule to 25 digits, a = right, b = left: two Newton steps
    on P_n from each start node, with P_n' = (n+a+b+1)/2 P_(n-1)^(a+1,b+1)
    (DLMF 18.9.15), then the closed-form weight
    2^(a+b+1) G(n+a+1) G(n+b+1) / (G(n+a+b+1) n! (1-x^2) P_n'(x)^2)."""
    with mpmath.workdps(25):
        a, b = mpmath.mpf(right), mpmath.mpf(left)
        scale = (
            2 ** (a + b + 1) * mpmath.gamma(n + a + 1) * mpmath.gamma(n + b + 1)
            / (mpmath.gamma(n + a + b + 1) * mpmath.factorial(n))
        )
        nodes, weights = [], []
        for x in map(mpmath.mpf, start):
            for _ in range(2):
                x -= _jacobi_polynomial(n, a, b, x) / ((n + a + b + 1) / 2 * _jacobi_polynomial(n - 1, a + 1, b + 1, x))
            slope = (n + a + b + 1) / 2 * _jacobi_polynomial(n - 1, a + 1, b + 1, x)
            nodes.append(float(x))
            weights.append(float(scale / ((1 - x * x) * slope**2)))
    return np.array(nodes), np.array(weights)


def _end_exponents(alpha):
    return [(alpha, 0.0), (0.0, alpha), (alpha, alpha)]


class TestGaussJacobiRule:
    """Golub-Welsch rules for the weight (1 + x)^left (1 - x)^right."""

    @pytest.mark.parametrize("alpha", JACOBI_EXPONENTS)
    def test_matches_scipy(self, alpha):
        from scipy.special import roots_jacobi

        for n in (8, 16):
            for left, right in _end_exponents(alpha):
                nodes, weights = quadrature._jacobi_rule(n, left, right)
                ref_nodes, ref_weights = roots_jacobi(n, right, left)
                np.testing.assert_allclose(nodes, ref_nodes, rtol=0.0, atol=1e-13)
                # scipy's own weights are off by up to 2.9e-13 relative (n = 16,
                # right = 10/3) against _jacobi_rule_mpmath
                np.testing.assert_allclose(weights, ref_weights, rtol=5e-13, atol=0.0)

    @pytest.mark.parametrize("alpha", JACOBI_EXPONENTS)
    def test_matches_mpmath(self, alpha):
        for n in (8, 16):
            for left, right in _end_exponents(alpha):
                nodes, weights = quadrature._jacobi_rule(n, left, right)
                ref_nodes, ref_weights = _jacobi_rule_mpmath(n, left, right, nodes)
                np.testing.assert_allclose(nodes, ref_nodes, rtol=0.0, atol=1e-13)
                np.testing.assert_allclose(weights, ref_weights, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("alpha", JACOBI_EXPONENTS)
    def test_exact_on_polynomials_of_degree_below_2n(self, alpha):
        # int (1+x)^a (1-x)^b x^j dx = 2^(a+b+1) sum_i C(j,i) 2^i (-1)^(j-i) B(a+i+1, b+1)
        for n in (8, 16):
            for left, right in _end_exponents(alpha):
                nodes, weights = quadrature._jacobi_rule(n, left, right)
                with mpmath.workdps(40):
                    a, b = mpmath.mpf(left), mpmath.mpf(right)
                    for j in range(2 * n):
                        moment = 2 ** (a + b + 1) * mpmath.fsum(
                            mpmath.binomial(j, i) * 2**i * (-1) ** (j - i) * mpmath.beta(a + i + 1, b + 1)
                            for i in range(j + 1)
                        )
                        scale = float(np.sum(weights * np.abs(nodes) ** j))
                        assert float(np.sum(weights * nodes**j)) == pytest.approx(float(moment), abs=2e-14 * scale)

    def test_legendre_is_unchanged(self):
        assert quadrature._jacobi_rule(16, 0.0, 0.0) is quadrature._gauss_rule(16)

    def test_cold_cli_leaves_scipy_linalg_unimported(self, tmp_path):
        # scipy.special.roots_jacobi would import scipy.linalg, tens of ms per process
        script = (
            "import sys\n"
            "from besselnorms.cli import main\n"
            "code = main(['verify', 'holder-chain', '--d', '4', '--p', '3.3333333333333335', '--k', '1',"
            f" '--cache', {str(tmp_path / 'c.json')!r}])\n"
            "print(code, 'scipy.linalg' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0 False"


class TestIntegrands:
    def test_weighted_power_finite_near_origin(self):
        for d, k in [(2, 0), (3, 0), (4, 0), (2, 1), (5, 2)]:
            f = integrand(d, 4.5 if d == 2 else 4.0, k)
            vals = f(np.array([1e-9, 1e-6, 1e-4, 0.5]))
            assert np.all(np.isfinite(vals)) and np.all(vals >= 0)

    def test_cross_reduces_to_power_at_degree_zero(self):
        r = np.linspace(1e-5, 30.0, 500)
        for d, p in [(2, 6.0), (3, 4.0), (5, 3.0)]:
            f_cross = integrand(d, p, 0, "cross")
            f_power = integrand(d, p, 0)
            np.testing.assert_allclose(f_cross(r), f_power(r), rtol=1e-12)

    def test_small_argument_series_matches_direct(self):
        # the series branch (r < 1e-3) must agree with the direct product
        from scipy.special import jv

        r = np.array([5e-4])
        for d in (2, 3, 4, 7):
            p = 6.0 if d == 2 else 4.0
            f = integrand(d, p, 0)
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

    @pytest.mark.parametrize("kind", ["power", "cross"], ids=lambda kind: f"integrate_weighted_power-{kind}")
    @pytest.mark.parametrize("R", [math.inf, math.nan, 1e300, MAX_ARGUMENT + 1.0])
    def test_radius_checked_before_zeros_or_panels(self, monkeypatch, kind, R):
        # p = 3 at d = 5 is not even, so a valid radius would start a zero search
        def unreachable(*args, **kwargs):
            raise AssertionError("reached past the radius check")

        monkeypatch.setattr(quadrature, "bessel_zeros", unreachable)
        monkeypatch.setattr(quadrature, "panel_integrate", unreachable)
        with pytest.raises(SpecfunDomainError, match=r"truncation radius must lie in \(0, MAX_ARGUMENT"):
            integrate_weighted_power(5, 3.0, 1, R, kind=kind)

    def test_every_p4_golden_entry_is_frozen(self):
        keys = {(d, 1, 40.0) for d in golden.P4_TRUNCATED_40_K1}
        keys |= {(d, k, 200.0) for d, k in golden.P4_TRUNCATED_200}
        assert keys == set(P4_TRUNCATED_MPMATH)

    @pytest.mark.parametrize("key", sorted(P4_TRUNCATED_MPMATH))
    def test_p4_truncated_encloses_mpmath_value(self, key):
        d, k, R = key
        enc = integrate_weighted_power(d, 4.0, k, R)
        assert enc.lower <= P4_TRUNCATED_MPMATH[key] <= enc.upper

    def test_cross_term_degree_zero_equals_power(self):
        a = integrate_weighted_power(3, 4.0, 0, 60.0)
        b = integrate_weighted_power(3, 4.0, 0, 60.0, kind="cross")
        assert a.midpoint == pytest.approx(b.midpoint, rel=1e-12)


class TestTailBounds:
    def test_decreasing_in_radius(self):
        for kind in ("power", "cross"):
            bounds = [tail_bound(3, 4.0, 1, R, kind) for R in (40.0, 80.0, 200.0, 400.0)]
            assert bounds == sorted(bounds, reverse=True)
            assert bounds[-1] > 0

    def test_closed_form(self):
        # exponent p(d-1)/2 - d = 1 at d=3, p=4 gives exactly 1/R
        assert tail_bound(3, 4.0, 1, 200.0) == pytest.approx(1.0 / 200.0, rel=1e-14)

    def test_actually_bounds_the_tail(self):
        # tail over [R, 2R] computed explicitly must sit below the bound
        R = 40.0
        assert 0 < tail_slice(3, 4.0, 1, R) < tail_bound(3, 4.0, 1, R)

    def test_domain_errors(self):
        for kind in ("power", "cross"):
            with pytest.raises(SpecfunDomainError, match="tail bound needs R >= 15.75"):
                tail_bound(3, 4.0, 10, 10.0, kind)  # R below 1.5 nu
            with pytest.raises(SpecfunDomainError, match="tail bound needs R >= 1.0"):
                tail_bound(2, 6.0, 0, 0.5, kind)  # nu = 0 and R below 1
            with pytest.raises(SpecfunDomainError, match="not integrable"):
                tail_bound(3, 3.0, 1, 200.0, kind)  # p(d-1)/2 - d = 0
        with pytest.raises(ValueError, match="unknown integral kind"):
            tail_bound(3, 4.0, 1, 200.0, "square")

    def test_zero_order_variant(self):
        # d = 2, k = 0: order 0 takes the sqrt(2/(pi r)) envelope of J_0
        assert tail_bound(2, 6.0, 0, 200.0) < tail_bound(2, 6.0, 0, 100.0)
        with pytest.raises(SpecfunDomainError):
            tail_bound(2, 4.0, 0, 200.0)  # p(d-1)/2 - d = 0
        with pytest.raises(SpecfunDomainError):
            tail_bound(2, 6.0, 0, 0.5)

    def test_zero_order_actually_bounds(self):
        R = 50.0
        assert 0 < tail_slice(2, 6.0, 0, R) < tail_bound(2, 6.0, 0, R)

    def test_cross_tail(self):
        assert tail_bound(3, 4.0, 1, 200.0, "cross") == pytest.approx(1.0 / 200.0, rel=1e-14)
        # d=2 uses the sharper degree-zero envelope on the base factor
        assert tail_bound(2, 6.0, 1, 200.0, "cross") < tail_bound(2, 6.0, 1, 200.0)
        # at degree zero both factors are |A_0|: the cross tail is the power tail
        assert tail_bound(2, 6.0, 0, 200.0, "cross") == tail_bound(2, 6.0, 0, 200.0)

    @pytest.mark.parametrize("d, p, k", [(2, 6.0, 1), (2, 6.0, 4), (3, 4.0, 1), (3, 4.0, 3)])
    def test_cross_tail_actually_bounds(self, d, p, k):
        R = 40.0
        assert 0 < tail_slice(d, p, k, R, "cross") < tail_bound(d, p, k, R, "cross")

    @pytest.mark.parametrize("kind, k", sorted(D2_TAILS_R200))
    def test_d2_tails_read_by_the_local_checks_are_pinned(self, kind, k):
        assert repr(tail_bound(2, 6.0, k, 200.0, kind)) == D2_TAILS_R200[kind, k]

    def test_premise_sqrt_r_j_at_most_one(self):
        """sqrt(r) |J_nu(r)| <= 1 on r >= 1.5 nu for every admitted 1 <= 2 nu <= 120.

        u = sqrt(r) J_nu solves u'' = -(1 - (nu^2 - 1/4) / r^2) u, and the
        bracket lies in (0, 1] for r >= 1.5 nu, so |u''| <= max |u| there and a
        grid of step h sees the maximum to within a factor 1 - h^2/8.  Beyond
        MAX_ARGUMENT the maxima of |u| decrease, since the bracket increases in
        r (Sonine-Polya; Watson, Treatise, 15.31).
        """
        h = 0.5
        for order in range(1, MAX_TWICE_NU + 1):
            start = 1.5 * (order / 2)
            r = np.linspace(start, MAX_ARGUMENT, math.ceil((MAX_ARGUMENT - start) / h) + 1)
            u = np.sqrt(r) * np.abs(bessel_j(order, r))
            i = int(np.argmax(u))
            exact = float(mpmath.sqrt(r[i]) * abs(mpmath.besselj(order / 2, r[i])))
            assert u[i] == pytest.approx(exact, rel=1e-12), order
            assert exact / (1.0 - h * h / 8.0) < 1.0, order


class TestKinkedExponents:
    """Non-even exponents: panel edges at the zeros keep |G16 - G8| honest."""

    @pytest.mark.parametrize("k", sorted(CROSS_5_3_R200))
    def test_cross_term_encloses_mpmath_value(self, k):
        enc = integrate_weighted_power(5, 3.0, k, 200.0, kind="cross")
        assert enc.lower <= CROSS_5_3_R200[k] <= enc.upper

    def test_stein_tomas_power_encloses_mpmath_value(self):
        enc = integrate_weighted_power(5, 3.0, 2, 50.0)
        assert enc.lower <= POWER_5_3_K2_R50 <= enc.upper

    @pytest.mark.parametrize("k", sorted(CROSS_4_10_3_R200))
    def test_cross_term_at_p_10_3_encloses_mpmath_value(self, k):
        enc = integrate_weighted_power(4, 10.0 / 3.0, k, 200.0, kind="cross")
        assert enc.lower <= CROSS_4_10_3_R200[k] <= enc.upper

    def test_every_pst_golden_entry_is_frozen(self):
        keys = {(d, 1, 50.0) for d in golden.PST_TRUNCATED_50_K1}
        keys |= {(d, k, 200.0) for d, k in golden.PST_TRUNCATED_200}
        keys |= {(d, 0, 50.0) for d in golden.PST_TRUNCATED_50_K0}
        assert keys == set(PST_TRUNCATED_MPMATH)

    @pytest.mark.parametrize("key", sorted(PST_TRUNCATED_MPMATH))
    def test_pst_truncated_encloses_mpmath_value(self, key):
        d, k, R = key
        enc = integrate_weighted_power(d, stein_tomas_exponent(d), k, R)
        assert enc.lower <= PST_TRUNCATED_MPMATH[key] <= enc.upper

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
        integrate_weighted_power(5, 3.0, 4, 200.0, kind="cross")
        (edges,) = breakpoints_passed
        np.testing.assert_array_equal(edges, bessel_zeros(3, 200.0))

    def test_even_exponents_add_no_edges(self, breakpoints_passed):
        integrate_weighted_power(3, 4.0, 1, 200.0)
        integrate_weighted_power(2, 6.0, 0, 200.0)
        integrate_weighted_power(3, 4.0, 2, 200.0, kind="cross")  # p - 2 = 2
        integrate_weighted_power(2, 6.0, 1, 200.0, kind="cross")  # p - 2 = 4
        assert [edges.size for edges in breakpoints_passed] == [0, 0, 0, 0]

    @pytest.mark.parametrize("key", sorted(EVEN_P_ENCLOSURES))
    def test_even_exponent_enclosures_unchanged(self, key):
        d, p, k = key
        enc = integrate_weighted_power(d, p, k, 200.0)
        assert repr(enc) == EVEN_P_ENCLOSURES[key]
        lower, upper = EVEN_P_ESTIMATE_ENCLOSURES[key]
        assert lower <= enc.midpoint <= upper

    def test_kinked_enclosures_contain_the_simpson_value(self):
        for d, p, k, R in [(5, 3.0, 2, 50.0), (4, 10.0 / 3.0, 1, 50.0)]:
            enc = integrate_weighted_power(d, p, k, R)
            value, allowance = simpson_weighted_power(d, p, k, R)
            assert enc.lower - allowance <= value <= enc.upper + allowance

    def test_plan_constants_set_every_order_on_the_kinked_path(self, monkeypatch, integrand_calls):
        # another plan reaches the starting panels, both orders and the
        # target alike, so none is read from anywhere else: (3, 3.5) on
        # [0, 2.3] holds no zero of J_{3/2} and reads the panel length,
        # (5, 3) on [0, 20] runs from zero to zero
        planned = [integrate_weighted_power(3, 3.5, 1, 2.3), integrate_weighted_power(5, 3.0, 1, 20.0)]
        monkeypatch.setattr(quadrature, "KINKED_PANEL_LENGTH", math.pi / 4.0)
        monkeypatch.setattr(quadrature, "KINKED_GAUSS_ORDER_HIGH", 20)
        monkeypatch.setattr(quadrature, "KINKED_GAUSS_ORDER_LOW", 10)
        replanned = [integrate_weighted_power(3, 3.5, 1, 2.3), integrate_weighted_power(5, 3.0, 1, 20.0)]
        starts = [(2, 16), (bessel_zeros(3, 20.0).size + 1, 16), (3, 20), (bessel_zeros(3, 20.0).size + 1, 20)]
        assert [calls[0].shape for calls in integrand_calls] == starts
        for calls, orders in zip(integrand_calls, [(16, 8), (16, 8), (20, 10), (20, 10)]):
            assert [c.shape[-1] for c in calls] == list(orders) * (len(calls) // 2)
        for old, new in zip(planned, replanned):
            assert new.midpoint == pytest.approx(old.midpoint, rel=1e-12)
        # no estimate meets a zero target, so the cap raises
        monkeypatch.setattr(quadrature, "KINKED_ABS_TOL", 0.0)
        with pytest.raises(QuadratureError, match="above tolerance 0.000e\\+00 after 1 refinements"):
            integrate_weighted_power(3, 3.5, 1, 2.3, QuadConfig(max_refinements=1))


class TestNodeCounts:
    """Each panel is evaluated once, and no production integral nears the cap."""

    def test_each_panel_evaluated_once(self, integrand_calls):
        integrate_weighted_power(5, 3.0, 1, 200.0, kind="cross")
        (calls,) = integrand_calls
        high, low = calls[0::2], calls[1::2]
        assert [c.shape[1] for c in high] == [16] * len(high)
        assert [c.shape for c in low] == [(c.shape[0], 8) for c in high]
        # starting panels: from 0 to R through the zeros of J_{3/2}
        assert high[0].shape[0] == bessel_zeros(3, 200.0).size + 1
        panels = np.concatenate(high)
        assert len(np.unique(panels, axis=0)) == len(panels)
        assert sum(c.size for c in calls) == 24 * len(panels)

    def _refinements(self, integrand_calls):
        """Rounds after the first: one high-order call per round on either
        path, G16 between zeros and the even plan's order elsewhere."""
        high = (KINKED_GAUSS_ORDER_HIGH, EVEN_GAUSS_ORDER)
        return [sum(c.shape[-1] in high for c in calls) - 1 for calls in integrand_calls]

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
        # (5, 3) and (4, 10/3): |J|^(p-2) is |r - z| and |r - z|^(4/3) at each
        # zero, taken by the Jacobi weight at the panel ends
        integrate_weighted_power(5, 3.0, k, 200.0, kind="cross")
        integrate_weighted_power(4, 10.0 / 3.0, k, 200.0, kind="cross")
        at_3, at_10_3 = [sum(c.size for c in calls) for calls in integrand_calls]
        assert at_3 <= 5000
        assert at_10_3 <= 3000


@functools.cache
def _panel_integral_mpmath(d, p, k, kind, mid, half):
    """30-digit mpmath integral of the even-exponent integrand on one panel."""
    with mpmath.workdps(30):
        scale = 1 - mpmath.mpf(d) / 2
        amplitude = lambda j, r: mpmath.besselj(mpmath.mpf(d - 2 + 2 * j) / 2, r) * r**scale
        factors = quadrature._factors(d, p, k, kind)
        f = lambda r: mpmath.fprod(amplitude(j, r) ** int(e) for j, e in factors) * r ** (d - 1)
        return float(mpmath.quad(f, mpmath.linspace(mid - half, mid + half, 5)))


class TestGaussRemainder:
    """The proven remainder of the even-exponent path against the actual
    Gauss error of rules coarse enough for that error to show."""

    CASES = [(2, 6.0, 0, "power"), (2, 6.0, 1, "power"), (2, 6.0, 2, "cross"), (3, 4.0, 1, "power"), (3, 4.0, 2, "cross")]
    # (order n, half-width, panel midpoints): G4 and G6 on pi/2 panels, G16
    # on panels about 2.5 periods wide; the panels at 20 and 24 keep the
    # ellipse in Re z > 0, where d = 3 takes Schlafli's bound
    RULES = [(4, math.pi / 4, (math.pi / 4, 3 * math.pi / 4, 20.0)), (6, math.pi / 4, (math.pi / 4, 3 * math.pi / 4, 20.0)),
             (16, 8.0, (8.0, 24.0))]

    def _errors(self):
        for n, half, mids in self.RULES:
            nodes, weights = quadrature._gauss_rule(n)
            for d, p, k, kind in self.CASES:
                factors = quadrature._factors(d, p, k, kind)
                f = quadrature._integrand(d, factors)
                for mid in mids:
                    gauss = float(np.sum(f(mid + half * nodes) * weights) * half)
                    actual = abs(gauss - _panel_integral_mpmath(d, p, k, kind, mid, half))
                    bound = quadrature._gauss_remainder(d, factors, n, np.array([mid]), np.array([half]))[0]
                    yield (n, d, p, k, kind, mid), actual, bound

    def test_bounds_the_actual_error_and_is_not_vacuous(self):
        errors = list(self._errors())
        assert all(actual > 1e-13 for _, actual, _ in errors)
        for case, actual, bound in errors:
            assert actual <= bound, case
        # scaled by 1e-3 the remainder fails somewhere: it is a bound with
        # content, not one far above every error
        assert any(1e-3 * bound < actual for _, actual, bound in errors)

    def test_half_integer_order_takes_schlafli_away_from_the_origin(self):
        # around 20 the Schlafli bound is below DLMF 10.14.4's; the bound
        # carries |z|^(d-1) <= 21^2 besides the factor
        modulus, re_min, im_max = np.array([21.0]), np.array([19.0]), np.array([1.0])
        weight = 2.0 * math.log(21.0)
        for k in (1, 2):
            nu = k + 0.5
            series = k * math.log(21.0) + 1.0 - nu * math.log(2.0) - math.lgamma(nu + 1.0)
            bound = quadrature._log_integrand_bound(3, ((k, 1.0),), modulus, re_min, im_max)[0] - weight
            expected = -0.5 * math.log(19.0) + math.log(math.cosh(1.0) + 1.0 / (math.pi * nu))
            assert bound == pytest.approx(expected, rel=1e-14) and bound < series
        # where the region reaches Re z <= 0 only the series bound holds
        bound = quadrature._log_integrand_bound(3, ((1, 1.0),), modulus, np.array([-1.0]), im_max)[0] - weight
        assert bound == pytest.approx(math.log(21.0) + 1.0 - 1.5 * math.log(2.0) - math.lgamma(2.5), rel=1e-14)


# 30-digit mpmath truncated integrals on [0, 200] at d = 2, split into
# intervals 0.05 wide and integrated by mpmath's Gauss-Legendre (0.025 wide
# agrees to 27 digits; tanh-sinh on 0.5-wide intervals is off by 1e-6 at p = 100):
#   mp.dps = 30; quad(lambda r: besselj(k, r)**p * r, linspace(0, 200, 4001), method="gauss-legendre")
EXTREME_EVEN_MPMATH = {
    (40.0, 5): 3.3533203790356487986586e-17,
    (100.0, 3): 9.2225250162335226869984e-37,
}


# The same for a paper-session query, norm --d 10 --p 6 --k 6 --R 50:
#   quad(lambda r: (besselj(10, r) * r**-4)**6 * r**9, linspace(0, 50, 1001), method="gauss-legendre")
# (0.025 wide agrees to 25 digits)
ORDINARY_HALVED_MPMATH = 2.6698669047116555409e-19


class TestExtremeEvenExponents:
    """Inputs whose remainder on the even plan's starting panels exceeds the
    evaluation term: the remainder shrinks with the panel, the evaluation
    term does not."""

    @pytest.mark.parametrize("p, k", sorted(EXTREME_EVEN_MPMATH))
    def test_enclosure_holds_mpmath_value(self, integrand_calls, p, k):
        enc = integrate_weighted_power(2, p, k, 200.0)
        assert enc.lower > 0.0
        assert enc.lower <= EXTREME_EVEN_MPMATH[p, k] <= enc.upper
        assert enc.width <= 1e-9 * enc.midpoint
        (calls,) = integrand_calls
        assert 1 < len(calls) <= DEFAULT_QUAD_CONFIG.max_refinements + 1
        assert all(c.shape[-1] == EVEN_GAUSS_ORDER for c in calls)

    def test_ordinary_query_halves_and_holds_mpmath_value(self, integrand_calls):
        enc = integrate_weighted_power(10, 6.0, 6, 50.0)
        assert enc.lower <= ORDINARY_HALVED_MPMATH <= enc.upper
        (calls,) = integrand_calls
        assert 1 < len(calls) <= DEFAULT_QUAD_CONFIG.max_refinements + 1
        assert all(c.shape[-1] == EVEN_GAUSS_ORDER for c in calls)

    @pytest.mark.parametrize("p, k", sorted(EXTREME_EVEN_MPMATH))
    def test_norm_command_exits_0(self, capsys, p, k):
        from besselnorms.cli import main

        assert main(["norm", "--d", "2", "--p", repr(p), "--k", str(k)]) == 0
        capsys.readouterr()


class TestEvenPath:
    def test_workload_integrals_are_not_halved_and_remainder_is_below_evaluation(self, monkeypatch):
        # local-maximizer's even integrals: one pass of the even plan's G32 on
        # 2 pi panels, and the proven part of each error below its evaluation
        # term
        parts = []
        real = quadrature.panel_integrate

        def recording(f, *args, remainder=None, **kwargs):
            if remainder is None:
                return real(f, *args, **kwargs)
            calls, remainders = [], []

            def counted(mid, half):
                remainders.append(remainder(mid, half))
                return remainders[-1]

            value, err = real(_counting(f, calls), *args, remainder=counted, **kwargs)
            parts.append((len(calls), float(remainders[0].sum()), err))
            return value, err

        monkeypatch.setattr(quadrature, "panel_integrate", recording)
        clear_memo_cache()
        for d, p in LOCAL_MAXIMIZER_PAIRS[:2]:
            for k in range(1, 9):
                verify_holder_chain(d, p, k)
            verify_second_order_positivity(d, p, 8)
        clear_memo_cache()
        assert len(parts) == 34
        for calls, remainder, err in parts:
            assert calls == 1
            assert remainder < err - remainder

    def test_plan_constants_set_every_order_on_the_even_path(self, monkeypatch, integrand_calls):
        # another plan reaches the starting panels, the nodes and the
        # remainder's n alike, so no order is read from anywhere else
        planned = integrate_weighted_power(3, 4.0, 1, 40.0)
        orders = []
        real = quadrature._gauss_remainder
        monkeypatch.setattr(quadrature, "_gauss_remainder", lambda d, factors, n, *a: orders.append(n) or real(d, factors, n, *a))
        monkeypatch.setattr(quadrature, "EVEN_PANEL_LENGTH", math.pi)
        monkeypatch.setattr(quadrature, "EVEN_GAUSS_ORDER", 20)
        clear_memo_cache()
        enc = integrate_weighted_power(3, 4.0, 1, 40.0)
        _, calls = integrand_calls
        assert calls[0].shape == (math.ceil(40.0 / math.pi), 20)
        assert all(c.shape[-1] == 20 for c in calls) and set(orders) == {20}
        assert enc.lower <= planned.midpoint <= enc.upper

    def test_one_command_evaluates_each_order_once_at_shared_nodes(self, monkeypatch, tmp_path):
        # at (2, 6) the degree-0 check, M(3) and the norms share the nodes on
        # [0, 200]: every order is evaluated there once, degree 0 included
        from besselnorms import store

        evaluated = []
        real = quadrature.bessel_j
        monkeypatch.setattr(quadrature, "bessel_j", lambda order, r: evaluated.append((order, np.size(r))) or real(order, r))
        cache = store.ResultCache(str(tmp_path / "c.json"))
        with store.using(cache):
            verify_holder_chain(2, 6.0, 3)
        nodes = math.ceil(200.0 / EVEN_PANEL_LENGTH) * EVEN_GAUSS_ORDER
        orders = [order for order, _ in evaluated]
        assert {0, 6} <= set(orders) and len(set(orders)) == len(orders)
        assert all(size == nodes for _, size in evaluated)
        assert len(cache.bessel) == len(orders)
        assert all(not values.flags.writeable for values in cache.bessel.values())
        # the file holds the stamp and one line per integral only, and clearing drops both
        cache.save()
        stamp, *lines = (tmp_path / "c.json").read_text().split("\n")
        assert stamp == cache.config_digest
        assert sorted(line.split("\t")[0] for line in lines) == sorted(cache.data)
        with store.using(cache):
            clear_memo_cache()
        assert cache.bessel == {} and cache.data == {}
