import ast
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import jv

import besselnorms.specfun as specfun
from besselnorms.norms import lambda4_zero, upper_bound_U
from besselnorms.specfun import (
    JV_ABS_ERROR,
    LANDAU_CONSTANT,
    MAX_ARGUMENT,
    MAX_TWICE_NU,
    SpecfunDomainError,
    bessel_j,
    bessel_zeros,
    first_zero_lower_bound,
    lambda_sup_zero_closed,
    sup_critical_point,
    twice_nu,
)

# ln Gamma(10.3), 50-digit series evaluation (mpmath), frozen
LOG_GAMMA_10_3 = 13.482036786138357

# first local max of r^(-1/2) J_{3/2}(r); root of the half-integer critical
# equation computed with a 40-digit closed-form root finder, frozen
CRITICAL_POINT_D3_K1 = 2.0815759778181006

J1_PRIME_FIRST_ZERO = 1.8411837813406593

# roots of k J_nu(r) - r J_{nu+1}(r), nu = d/2 - 1 + k, by 30-digit
# mpmath.findroot from the engine's r*, frozen: {(d, k): r*}
MPMATH_CRITICAL_POINTS = {
    (5, 2): 3.8646997782230468,  # 3.86469977822304662923714450603
    (10, 30): 35.730685413320366,  # 35.7306854133203644787530954065
    (12, 30): 36.5012510542657,  # 36.5012510542656999269059414973
}


class TestTwiceNu:
    def test_nu(self):
        assert twice_nu(3, 1) == 3
        assert twice_nu(2, 0) == 0
        assert twice_nu(5, 2) == 7
        assert type(twice_nu(4, 3)) is int

    def test_rejects_negative(self):
        with pytest.raises(SpecfunDomainError):
            bessel_j(-1, 1.0)
        with pytest.raises(SpecfunDomainError):
            twice_nu(1, 0)
        with pytest.raises(SpecfunDomainError):
            twice_nu(3, -1)


class TestBesselJ:
    def test_at_zero(self):
        # scipy's jv is exact at the origin
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(4, 0.0) == 0.0
        assert list(bessel_j(np.array([0, 1, 4]), 0.0)) == [1.0, 0.0, 0.0]

    def test_half_order_closed_form(self):
        # J_{1/2}(r) = sqrt(2/(pi r)) sin r
        r = math.pi / 2
        assert bessel_j(1, r) == pytest.approx(2 / math.pi, rel=1e-12)

    def test_peak_of_j1(self):
        assert bessel_j(2, 1.8411838) == pytest.approx(0.581865, abs=5e-7)

    def test_domain_errors(self):
        with pytest.raises(SpecfunDomainError):
            bessel_j(0, -1.0)
        with pytest.raises(SpecfunDomainError):
            bessel_j(0, 1500.0)
        with pytest.raises(SpecfunDomainError):
            bessel_j(130, 1.0)

    def test_array_matches_scalar_and_is_checked(self):
        r = np.array([0.5, 3.0, 40.0, 999.0])
        got = bessel_j(3, r)
        assert list(got) == [bessel_j(3, float(x)) for x in r]
        with pytest.raises(SpecfunDomainError):
            bessel_j(3, np.array([1.0, 1500.0]))
        with pytest.raises(SpecfunDomainError):
            bessel_j(3, np.array([-1.0, 1.0]))
        with pytest.raises(SpecfunDomainError):
            bessel_j(MAX_TWICE_NU + 1, r)

    def test_order_array_matches_single_orders(self):
        # one call, every order at every point by broadcasting
        orders = np.array([[0], [1], [3], [8], [MAX_TWICE_NU]])
        r = np.array([0.0, 1e-3, 0.5, 3.0, 40.0, 999.0])
        got = bessel_j(orders, r)
        assert got.shape == (5, 6)
        for row, t in zip(got, orders[:, 0]):
            assert list(row) == [bessel_j(int(t), float(x)) for x in r]
        # paired orders and points, as the critical-point search calls it
        assert list(bessel_j(np.array([3, 5]), np.array([2.0, 7.0]))) == [bessel_j(3, 2.0), bessel_j(5, 7.0)]

    @pytest.mark.parametrize(
        "twice_nu, r",
        [
            ([3, MAX_TWICE_NU + 1], [1.0, 1.0]),
            ([3, -1], [1.0, 1.0]),
            (np.array([1.5, 3.0]), [1.0, 1.0]),
            ([3, 5], [-1.0, 1.0]),
            ([3, 5], [1.0, 1500.0]),
        ],
    )
    def test_order_array_is_checked(self, monkeypatch, twice_nu, r):
        calls = []
        monkeypatch.setattr(specfun, "jv", lambda *a: calls.append(a) or jv(*a))
        with pytest.raises(SpecfunDomainError):
            bessel_j(np.asarray(twice_nu), np.asarray(r))
        assert calls == []

    @pytest.mark.parametrize("order", [1, 3])
    def test_half_integer_closed_forms_on_range(self, order):
        r = np.linspace(0.1, 500.0, 2000)
        if order == 1:
            exact = np.sqrt(2 / (np.pi * r)) * np.sin(r)
        else:
            exact = np.sqrt(2 / (np.pi * r)) * (np.sin(r) / r - np.cos(r))
        got = jv(order / 2, r)
        scale = np.maximum(np.abs(exact), 1e-3)
        assert np.max(np.abs(got - exact) / scale) < 1e-12

    def test_recurrence_residual(self):
        # (2 nu / r) J_nu = J_{nu-1} + J_{nu+1}
        rng = np.random.default_rng(7)
        for order in range(2, 21):
            nu = order / 2
            r = rng.uniform(0.05, 200.0, size=200)
            lhs = (2 * nu / r) * jv(nu, r)
            jm, jp = jv(nu - 1, r), jv(nu + 1, r)
            tol = 1e-10 * (1 + np.abs(jm) + np.abs(jp))
            assert np.all(np.abs(lhs - jm - jp) <= tol)

    def test_derivative_relation_residual(self):
        # 2 J'_nu = J_{nu-1} - J_{nu+1}, J' by centered differences
        rng = np.random.default_rng(8)
        h = 1e-6
        for order in range(2, 13):
            nu = order / 2
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


    def test_absolute_error_within_jv_abs_error(self):
        # eps_J, which the even-exponent quadrature reads, against 30-digit
        # mpmath on a seeded sample of every admitted order and argument
        rng = np.random.default_rng(20231)
        orders = rng.integers(0, MAX_TWICE_NU + 1, 2000)
        r = rng.uniform(0.0, MAX_ARGUMENT, 2000)
        values = bessel_j(orders, r)
        with mpmath.workdps(30):
            errors = [
                abs(mpmath.mpf(value) - mpmath.besselj(mpmath.mpf(order) / 2, x)) / min(1.0, x**-0.5)
                for order, x, value in zip(orders.tolist(), r.tolist(), values.tolist())
            ]
        assert float(max(errors)) <= JV_ABS_ERROR

class TestLogGamma:
    """math.lgamma, which every Gamma-function closed form uses."""

    def test_half(self):
        assert math.lgamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    def test_integer(self):
        assert math.lgamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    def test_frozen_oracle(self):
        assert math.lgamma(10.3) == pytest.approx(LOG_GAMMA_10_3, rel=1e-13)

    def test_domain(self):
        # math.lgamma answers log|Gamma| at a negative non-integer, so each
        # caller keeps its arguments positive by its own domain check
        assert math.lgamma(-2.5) == pytest.approx(math.log(abs(math.gamma(-2.5))), rel=1e-13)
        with pytest.raises(SpecfunDomainError):
            lambda_sup_zero_closed(1)
        with pytest.raises(SpecfunDomainError):
            lambda4_zero(2)
        with pytest.raises(SpecfunDomainError):
            upper_bound_U(3, 3.2, 1)  # the lower strip end, where lam = 0


class TestLandauConstant:
    def test_value(self):
        # rounded up from 0.78574687... so that U stays an upper bound
        assert 0.78574687 < LANDAU_CONSTANT <= 0.7857469

    def test_dominates_scaled_profiles(self):
        # sampled max of |r^(1/3) J_nu(r)| over moderate orders
        r = np.arange(0.01, 60.0, 0.01)
        worst = 0.0
        for order in range(2, 21):
            worst = max(worst, float(np.max(r ** (1 / 3) * np.abs(jv(order / 2, r)))))
        assert worst <= LANDAU_CONSTANT + 1e-6

    def test_strict_at_j1_peak(self):
        r = J1_PRIME_FIRST_ZERO
        assert r ** (1 / 3) * abs(jv(1, r)) < LANDAU_CONSTANT


def critical_residual(d: int, k: int):
    """r -> k J_nu(r) - r J_{nu+1}(r), nu = d/2 - 1 + k, with scalar jv."""
    nu = d / 2.0 - 1.0 + k
    return lambda r: k * float(jv(nu, r)) - r * float(jv(nu + 1.0, r))


def scalar_critical_point(d: int, k: int) -> float:
    """One degree's bisection to 1e-12, point by point with scalar jv: the
    reference for the Newton search."""
    residual = critical_residual(d, k)
    lo, hi = 1e-3, first_zero_lower_bound(d / 2.0 - 1.0 + k)
    assert residual(lo) > 0.0 > residual(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
        with pytest.raises(SpecfunDomainError):
            sup_critical_point(3, [2, 0, 1])

    @pytest.mark.parametrize("d", range(2, 13))
    def test_batch_equals_degrees_one_by_one(self, d):
        degrees = range(1, 31)
        batch = sup_critical_point(d, degrees)
        assert isinstance(batch, np.ndarray) and batch.shape == (30,)
        ones = [sup_critical_point(d, [k]) for k in degrees]
        assert all(isinstance(one, np.ndarray) and one.shape == (1,) for one in ones)
        singles = [sup_critical_point(d, k) for k in degrees]
        assert all(type(single) is float for single in singles)
        # bit for bit: each degree's iterates depend on its own values only
        assert batch.tolist() == [one[0] for one in ones] == singles
        for k, r_star in zip(degrees, singles):
            assert abs(r_star - scalar_critical_point(d, k)) <= 1e-12, k
            residual = critical_residual(d, k)
            assert residual(r_star - 5e-13) > 0.0 > residual(r_star + 5e-13), k

    @pytest.mark.parametrize("d,k", sorted(MPMATH_CRITICAL_POINTS))
    def test_against_mpmath(self, d, k):
        assert abs(sup_critical_point(d, k) - MPMATH_CRITICAL_POINTS[d, k]) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 13))
    def test_jv_calls_per_batch(self, monkeypatch, d):
        # the bracket check and about ten Newton rounds; bisection took 47
        calls = []
        monkeypatch.setattr(specfun, "jv", lambda *a: calls.append(a) or jv(*a))
        sup_critical_point(d, range(1, 31))
        assert len(calls) <= 16

    def test_order_past_the_limit_anywhere_in_a_batch_raises_first(self, monkeypatch):
        # d = 3, k = 59 needs J_{nu+1} with 2 nu + 2 = 121 > MAX_TWICE_NU
        calls = []
        monkeypatch.setattr(specfun, "jv", lambda *a: calls.append(a) or jv(*a))
        for degrees in ([59, 1, 2], [1, 2, 59], [1, 59, 2]):
            with pytest.raises(SpecfunDomainError, match="exceeds MAX_TWICE_NU"):
                sup_critical_point(3, degrees)
        assert calls == []
        sup_critical_point(3, [1, 2, 58])
        assert len(calls) > 0

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
        for order in (2, 3, 4, 7, 12, 25, 50, 90, 118, 120):
            nu = order / 2.0
            first_zero = float(mpmath.besseljzero(mpmath.mpf(order) / 2, 1))
            assert first_zero - first_zero_lower_bound(nu) > 0.26, order


def bisection_zeros(order: int, upto: float) -> np.ndarray:
    """The zeros of J_nu, 2 nu = order, in (0, upto), each cell of a pi/2
    grid bisected until no midpoint falls strictly inside its bracket: the
    reference for the Newton search."""
    nu = order / 2.0
    grid = np.linspace(0.0, upto, max(1, math.ceil(upto / (math.pi / 2.0))) + 1)
    values = jv(nu, grid)
    cells = np.flatnonzero(values[:-1] * values[1:] < 0.0)
    lo, hi = grid[cells], grid[cells + 1]
    lo_sign = np.sign(values[cells])
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            return mid
        below = np.sign(jv(nu, mid)) == lo_sign
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)


def within_ulps(got: np.ndarray, want: np.ndarray, ulps: int) -> bool:
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= ulps * np.spacing(want)))


class TestBesselZeros:
    def test_every_order_within_4_ulp_of_bisection(self):
        for order in range(MAX_TWICE_NU + 1):
            assert within_ulps(bessel_zeros(order, 200.0), bisection_zeros(order, 200.0), 4), order

    @pytest.mark.parametrize("order", [0, 1, 7, 60, 119, MAX_TWICE_NU])
    def test_to_the_argument_limit_within_4_ulp_of_bisection(self, order):
        got = bessel_zeros(order, MAX_ARGUMENT)
        assert within_ulps(got, bisection_zeros(order, MAX_ARGUMENT), 4)
        assert 0.0 < got[0] and got[-1] < MAX_ARGUMENT and np.all(np.diff(got) > 3.0)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 8, 20, 60, MAX_TWICE_NU])
    def test_against_mpmath(self, order):
        zeros = bessel_zeros(order, 200.0)
        for n in (1, 2, 10, len(zeros)):
            want = float(mpmath.besseljzero(mpmath.mpf(order) / 2, n))
            assert abs(zeros[n - 1] - want) <= 4 * np.spacing(want), n

    @pytest.mark.parametrize("order", [MAX_TWICE_NU - 1, MAX_TWICE_NU])
    def test_derivative_order_stays_within_the_limit(self, monkeypatch, order):
        # J_nu' from J_{nu-1} where J_{nu+1} is past MAX_TWICE_NU
        nus = []
        monkeypatch.setattr(specfun, "jv", lambda nu, r: nus.append(np.max(nu)) or jv(nu, r))
        bessel_zeros(order, MAX_ARGUMENT)
        assert max(nus) == order / 2

    def test_jv_calls(self, monkeypatch):
        # the grid and a handful of Newton rounds; bisection took 52
        calls = []
        monkeypatch.setattr(specfun, "jv", lambda *a: calls.append(a) or jv(*a))
        bessel_zeros(3, 200.0)
        assert len(calls) <= 10


def package_trees() -> dict:
    """The syntax tree of every module of the package, by file name."""
    return {path.name: ast.parse(path.read_text()) for path in sorted(Path(specfun.__file__).parent.glob("*.py"))}


def references(tree: ast.AST, name: str) -> list:
    """The innermost enclosing function (None at module level) of every use
    of name, as a variable or an attribute, and of every import of it."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and name in (node.name, node.asname)
        ):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


class TestOneJvCaller:
    """bessel_j checks every order and argument against MAX_TWICE_NU and
    MAX_ARGUMENT, so it must be the one path to scipy's jv."""

    def test_only_specfun_imports_scipy(self):
        importers = set()
        for module, tree in package_trees().items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n == "scipy" or n.startswith("scipy.") for n in names):
                    importers.add(module)
        assert importers == {"specfun.py"}

    def test_jv_is_referenced_only_inside_bessel_j(self):
        uses = {module: references(tree, "jv") for module, tree in package_trees().items()}
        # the module-level import, then the one call
        assert {module: found for module, found in uses.items() if found} == {"specfun.py": [None, "bessel_j"]}
