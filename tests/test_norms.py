import math

import numpy as np
import pytest
from scipy.special import jv

import besselnorms.norms as norms
import besselnorms.specfun as specfun
from besselnorms import golden
from besselnorms.norms import (
    INFINITY,
    BestKResult,
    Claim,
    Method,
    NormKey,
    NormValue,
    Status,
    best_k,
    clear_memo_cache,
    default_radius,
    lambda4_zero,
    lambda_finite,
    lambda_power,
    lambda_sup,
    validity_strip,
    lower_bound_L0,
    stein_tomas_exponent,
    truncated_power,
    upper_bound_U,
)
from besselnorms.quadrature import Enclosure
from besselnorms.specfun import RootBracketError, SpecfunDomainError, first_zero_estimate, lambda_sup_zero_closed
from besselnorms.sweep import p0_report

from oracles import simpson_weighted_power, sup_scan_max, weighted_l2_identity

# Gamma-expression value of U(2, 6, 1) with the Landau constant 0.7857469,
# 30-digit evaluation, frozen
U_2_6_1 = 0.43723347156278756

# degrees for the dense-scan check of the sup norms
SUP_ORACLE_DEGREES = (1, 2, 3, 5, 8, 13, 21, 30, 40)

# integral of J_1(r)^2 r^(-1/2) over (0, inf): piecewise Simpson on [0, 2e5]
# plus the asymptotic-mean tail (2/pi) R^(-1/2), frozen; accurate to ~5e-9
WL2_NU1_LAM_HALF = 0.8231298919618683

# every golden SUP_NORM_DEGREE_ONE entry, frozen from 20-digit mpmath: the
# value r^(1-d/2) J_{d/2}(r) at the root of J_{d/2}(r) - r J_{d/2+1}(r)
# found by mpmath.findroot from the engine's critical point
SUP_NORM_DEGREE_ONE_MPMATH = {
    2: 0.58186522428159637933,
    3: 0.34802273770383333186,
    4: 0.17996286628363046857,
    5: 0.083001310493009538443,
    6: 0.034849161441440760908,
    7: 0.013512917436594874539,
    8: 0.0048907216826149865142,
    9: 0.0016657529941406573016,
    10: 0.00053736357177317766934,
}

# sixth-power integral for d=2, k=0 truncated at R=400, 30-digit quadrature
LAM6_D2_K0_R400 = 0.33662662685875281


class TestNormKey:
    def test_admissibility(self):
        NormKey(2, 4.1, 0)
        NormKey(3, 3.01, 1)
        with pytest.raises(SpecfunDomainError):
            NormKey(2, 4.0, 0)
        with pytest.raises(SpecfunDomainError):
            NormKey(3, 3.0, 0)
        with pytest.raises(SpecfunDomainError):
            NormKey(1, 10.0, 0)
        with pytest.raises(SpecfunDomainError):
            NormKey(3, 4.0, -1)

    def test_sup_key(self):
        key = NormKey(4, INFINITY, 2)
        assert key.is_sup
        assert key.nu == 3.0


class TestNormValue:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NormValue(
                enclosure=Enclosure(0.0, 0.1, truncation_bound=0.05),
                R_used=200.0,
                method=Method.QUADRATURE_TAIL,
            )

    def test_closed_form_must_be_tight(self):
        with pytest.raises(ValueError):
            NormValue(
                enclosure=Enclosure(1.0, 1.001, truncation_bound=0.0005),
                R_used=0.0,
                method=Method.CLOSED_FORM,
            )


class TestSteinTomas:
    def test_values(self):
        assert stein_tomas_exponent(3) == 4.0
        assert stein_tomas_exponent(4) == pytest.approx(10.0 / 3.0, rel=1e-15)
        assert stein_tomas_exponent(5) == 3.0

    def test_always_admissible(self):
        for d in range(2, 20):
            assert stein_tomas_exponent(d) > 2.0 * d / (d - 1)


class TestDefaultRadius:
    def test_floor_and_growth(self):
        assert default_radius(3, 1) == 200.0
        assert default_radius(10, 80) == pytest.approx(3.0 * (4.0 + 80.0))


class TestLambdaPower:
    def test_includes_tail(self):
        key = NormKey(3, 4.0, 1)
        truncated = lambda_power(key, R=200.0)
        # tail bound is exactly 1/200 here
        assert truncated.truncation_bound >= 1.0 / 200.0

    def test_enclosure_against_oracle(self):
        key = NormKey(3, 4.0, 1)
        enc = lambda_power(key, R=60.0)
        value, allowance = simpson_weighted_power(3, 4.0, 1, 60.0)
        assert enc.lower - allowance <= value <= enc.upper  # upper includes the tail

    def test_d2_degree_zero_uses_special_tail(self):
        enc = lambda_power(NormKey(2, 6.0, 0), R=400.0)
        assert enc.lower <= LAM6_D2_K0_R400 <= enc.upper
        # r^(-1/2) bounds |J_nu| only for nu >= 1/2; order 0 takes the
        # sqrt(2/(pi r)) envelope of J_0, finite and below the crude 1/R value
        assert enc.truncation_bound < 1.0 / 400.0 + 1e-11

    def test_memoized(self, monkeypatch):
        clear_memo_cache()
        calls = []
        integrate = norms.integrate_weighted_power
        monkeypatch.setattr(norms, "integrate_weighted_power", lambda *a: calls.append(a) or integrate(*a))
        key = NormKey(4, 4.0, 1)
        assert lambda_power(key) == lambda_power(key)
        assert len(calls) == 1

    def test_rejects_sup(self):
        with pytest.raises(SpecfunDomainError):
            lambda_power(NormKey(3, INFINITY, 0))
        with pytest.raises(SpecfunDomainError, match="finite exponent"):
            norms.radial_integral("cross", 3, INFINITY, 1)

    def test_truncated_power_is_the_stored_entry_without_tail(self, monkeypatch):
        clear_memo_cache()
        calls = []
        integrate = norms.integrate_weighted_power
        monkeypatch.setattr(norms, "integrate_weighted_power", lambda *a: calls.append(a) or integrate(*a))
        key = NormKey(4, 4.0, 2)
        truncated = truncated_power(key, 200.0)
        power = lambda_power(key, 200.0)
        assert (power.lower, power.quad_error_bound) == (truncated.lower, truncated.quad_error_bound)
        assert power.upper > truncated.upper
        assert len(calls) == 1


class TestLambdaFinite:
    def test_pth_root_of_power(self):
        key = NormKey(3, 4.0, 0)
        power = lambda_power(key)
        nv = lambda_finite(key)
        assert nv.enclosure.lower == pytest.approx(power.lower**0.25, rel=1e-15)
        assert nv.enclosure.upper == pytest.approx(power.upper**0.25, rel=1e-15)
        assert nv.method is Method.QUADRATURE_TAIL

    def test_degree_zero_closed_form_inside(self):
        nv = lambda_finite(NormKey(3, 4.0, 0))
        target = (1.0 / math.pi) ** 0.25
        assert nv.enclosure.lower <= target <= nv.enclosure.upper


class TestSupNorms:
    def test_degree_zero_closed_forms(self):
        assert lambda_sup_zero_closed(2) == pytest.approx(1.0, rel=1e-14)
        assert lambda_sup_zero_closed(3) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
        assert lambda_sup_zero_closed(4) == pytest.approx(0.5, rel=1e-14)

    def test_degree_zero_norm_value(self):
        nv = lambda_sup(4, 0)
        assert nv.method is Method.CLOSED_FORM
        assert nv.enclosure.midpoint == pytest.approx(0.5, rel=1e-14)

    def test_degree_one_d2_is_j1_peak(self):
        nv = lambda_sup(2, 1)
        assert nv.enclosure.midpoint == pytest.approx(0.581865, abs=5e-7)

    def test_degree_one_d3(self):
        nv = lambda_sup(3, 1)
        assert nv.enclosure.midpoint == pytest.approx(0.348023, abs=5e-7)

    def test_every_degree_one_golden_entry_is_frozen(self):
        assert set(golden.SUP_NORM_DEGREE_ONE) == set(SUP_NORM_DEGREE_ONE_MPMATH)

    @pytest.mark.parametrize("d", sorted(SUP_NORM_DEGREE_ONE_MPMATH))
    def test_degree_one_encloses_mpmath_value(self, d):
        enc = lambda_sup(d, 1).enclosure
        assert enc.lower <= SUP_NORM_DEGREE_ONE_MPMATH[d] <= enc.upper

    def test_strictly_decreasing_in_degree(self):
        values = [lambda_sup(5, k).enclosure.midpoint for k in range(5)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_dense_scan_stays_below_upper_end(self, d):
        for k in SUP_ORACLE_DEGREES:
            nv = lambda_sup(d, k)
            r_star, nu = nv.R_used, d / 2.0 - 1.0 + k
            # the premise of the first-lobe argument
            assert jv(nu, r_star) > 0.0
            assert r_star < first_zero_estimate(nu)
            assert sup_scan_max(d, k) <= nv.enclosure.upper * (1.0 + 1e-12), (d, k)

    @pytest.mark.parametrize("r_star", [4.0, 8.5])
    def test_critical_point_outside_first_lobe_is_rejected(self, monkeypatch, r_star):
        # J_1 < 0 at 4.0 (second lobe); J_1 > 0 at 8.5 (third lobe)
        monkeypatch.setattr(norms, "sup_critical_point", lambda d, degrees: np.full(len(degrees), r_star))
        with pytest.raises(RootBracketError):
            lambda_sup(2, 1)
        with pytest.raises(RootBracketError):
            lambda_sup(2, range(3))

    @pytest.mark.parametrize("d", [2, 3, 7, 12])
    def test_batch_equals_degrees_one_by_one(self, monkeypatch, d):
        searches = []
        original = norms.sup_critical_point
        monkeypatch.setattr(norms, "sup_critical_point", lambda d, ks: searches.append(list(ks)) or original(d, ks))
        batch = lambda_sup(d, range(31))
        # one search for every positive degree; degree zero is the closed form
        assert searches == [list(range(1, 31))]
        assert isinstance(batch, list) and len(batch) == 31
        assert batch == [lambda_sup(d, k) for k in range(31)]
        assert all(type(nv.R_used) is float for nv in batch)
        # degree zero alone needs no search
        assert lambda_sup(d, [0]) == [lambda_sup(d, 0)] and len(searches) == 31

    def test_order_beyond_accuracy_limit_rejected(self, monkeypatch):
        # 2 nu = 1 + 2 * 60 = 121 exceeds MAX_TWICE_NU = 120; the order is
        # rejected before any evaluation
        calls = []
        monkeypatch.setattr(specfun, "jv", lambda *a: calls.append(a) or jv(*a))
        with pytest.raises(SpecfunDomainError):
            lambda_sup(3, 60)
        assert calls == []


class TestClosedForms:
    def test_lambda4_zero_d3(self):
        assert lambda4_zero(3) ** 4 == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_lambda4_zero_d4(self):
        # Gamma expression collapses to 1/pi^2 at nu = 1
        assert lambda4_zero(4) ** 4 == pytest.approx(1.0 / math.pi**2, rel=1e-13)

    def test_lambda4_zero_domain(self):
        with pytest.raises(SpecfunDomainError):
            lambda4_zero(2)

    def test_weighted_l2_identity_unit_case(self):
        assert weighted_l2_identity(1, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_weighted_l2_identity_frozen_oracle(self):
        assert weighted_l2_identity(2, 0.5) == pytest.approx(
            WL2_NU1_LAM_HALF, abs=5e-8
        )

    def test_weighted_l2_identity_domain(self):
        with pytest.raises(ValueError):
            weighted_l2_identity(2, 0.0)
        with pytest.raises(ValueError):
            weighted_l2_identity(2, 3.0)  # needs lam < 2nu+1 = 3


class TestUpperBoundU:
    def test_frozen_oracle(self):
        assert upper_bound_U(2, 6.0, 1) == pytest.approx(U_2_6_1, rel=1e-13)

    def test_strip(self):
        lo, hi = validity_strip(3)
        assert lo == pytest.approx(16.0 / 5.0)
        assert hi == pytest.approx(8.0)
        with pytest.raises(SpecfunDomainError):
            upper_bound_U(3, 3.0, 1)
        with pytest.raises(SpecfunDomainError):
            upper_bound_U(3, 9.0, 1)
        with pytest.raises(SpecfunDomainError):
            upper_bound_U(3, 4.0, 0)

    def test_decreasing_in_degree(self):
        values = [upper_bound_U(3, 4.0, k) for k in range(1, 30)]
        assert values == sorted(values, reverse=True)

    def test_actually_bounds_the_power(self):
        for d, p, k in [(3, 4.0, 1), (3, 4.0, 3), (5, 3.0, 2), (2, 6.0, 1)]:
            assert lambda_power(NormKey(d, p, k)).upper < upper_bound_U(d, p, k)


class TestLowerBoundL0:
    def test_below_the_norm(self):
        for d, p in [(2, 6.0), (3, 4.0), (4, 10.0 / 3.0), (5, 3.0)]:
            assert lower_bound_L0(d, p) < lambda_finite(NormKey(d, p, 0)).enclosure.lower

    def test_approaches_sup_limit(self):
        # for large p the bound sits just below the closed-form sup norm
        vals = [lower_bound_L0(3, p) for p in (40.0, 200.0, 1000.0)]
        gaps = [lambda_sup_zero_closed(3) - v for v in vals]
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.01

    def test_domain(self):
        with pytest.raises(SpecfunDomainError):
            lower_bound_L0(3, 3.0)

    @pytest.mark.parametrize("bad", [3.0, 2.5, math.nan])
    def test_any_inadmissible_exponent_in_an_array_raises(self, bad):
        with pytest.raises(SpecfunDomainError):
            lower_bound_L0(3, np.array([4.0, bad, 5.0]))

    def test_float_in_float_out(self):
        assert type(lower_bound_L0(3, 4.0)) is float
        assert type(lower_bound_L0(3, 4)) is float
        got = lower_bound_L0(3, np.array([4.0, 5.0]))
        assert isinstance(got, np.ndarray) and got.shape == (2,)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_array_within_two_ulp_of_scalar_on_the_sweep_grids(self, d):
        def scalar(p):
            # the bound point by point in math's float functions
            log_prefactor = ((d - 1) * math.log(2.0) + (d / 2.0) * math.log(d / 2.0)) / p
            log_prefactor -= (d / 2.0 - 1.0) * math.log(2.0) + math.lgamma(d / 2.0)
            log_ratio = (math.lgamma(p + 1.0) + math.lgamma(d / 2.0) - math.lgamma(p + d / 2.0 + 1.0)) / p
            return math.exp(log_prefactor + log_ratio)

        for res in p0_report(d)[1]:
            want = np.array([scalar(p) for p in res.p_grid])
            got = lower_bound_L0(d, np.array(res.p_grid))
            assert np.all(np.abs(got - want) <= 2 * np.spacing(want)), res.regime
            assert [lower_bound_L0(d, p) for p in res.p_grid] == got.tolist()


class TestBestK:
    def test_finite_p_degree_zero_wins(self):
        claim = Claim("test", {})
        result = best_k(claim, 2, 6.0, 0)
        assert isinstance(result, BestKResult)
        assert claim.status is Status.PASS and claim.notes == []
        assert result.dominated_from == 3
        assert result.top_power == lambda_power(NormKey(2, 6.0, 0))
        assert [k for k, _ in result.explicit] == [1, 2]
        assert all(power.upper < result.top_power.lower for _, power in result.explicit)
        assert result.u_dominated == upper_bound_U(2, 6.0, 3) < result.top_power.lower

    def test_sup_exponent_rejected(self):
        # the sup norms are ordered by verify sup-monotone, degree by degree
        with pytest.raises(SpecfunDomainError):
            best_k(Claim("test", {}), 3, INFINITY, 0)

    def test_outside_strip_rejected(self):
        with pytest.raises(SpecfunDomainError):
            best_k(Claim("test", {}), 3, 3.1, 2)

    def test_search_stops_at_the_order_limit(self, monkeypatch):
        # near the lower strip end (3.2 for d = 3) U decays slowly: degree 60,
        # 2 nu = 121 > MAX_TWICE_NU, would still need an explicit enclosure
        powers = []
        original = norms.lambda_power
        monkeypatch.setattr(norms, "lambda_power", lambda key, *a: powers.append(key.k) or original(key, *a))
        with pytest.raises(SpecfunDomainError, match="degree 60 would need order 2nu=121"):
            best_k(Claim("test", {}), 3, 3.21, 0)
        assert powers == [0]
