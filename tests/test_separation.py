"""The one separation rule behind every verdict (norms.Claim.separate): the rule
itself, each kind of separation at its tightest instance, and the closed
forms that enter a separation against 30-digit mpmath.

A flip test moves the smaller side of the tightest separation of its kind
up by half its margin, which must leave the verdict as it was, and then by
the whole margin, which must change it.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

import besselnorms.hierarchy as hierarchy
import besselnorms.local as local
import besselnorms.norms as norms
import besselnorms.sweep as sweep
from besselnorms.norms import (
    SEPARATION_RTOL,
    Claim,
    Status,
    best_k,
    lambda4_zero,
    lambda_sup,
    lower_bound_L0,
    stein_tomas_exponent,
    strictly_below,
    upper_bound_U,
    validity_strip,
    worst,
)
from besselnorms.quadrature import Enclosure
from besselnorms.specfun import LANDAU_CONSTANT, lambda_sup_zero_closed, log_c0
from besselnorms.sweep import Regime, p0_report

# best_k instances (d, p, top, R_top, R): verify p4, verify pst, and the
# degree-zero premise of the local checks
P4 = [(d, 4.0, 1, 40.0, 200.0) for d in range(3, 11)]
PST = [(d, stein_tomas_exponent(d), 1, 50.0, 200.0) for d in range(4, 11)]
LOCAL_PAIRS = [(2, 6.0), (3, 4.0), (4, 10.0 / 3.0), (5, 3.0)]
LOCAL = [(d, p, 0, None, None) for d, p in LOCAL_PAIRS]


def tightest(cases):
    """The case (smaller, larger, *rest) of smallest relative margin, as
    (absolute margin, *rest)."""
    smaller, larger, *rest = min(cases, key=lambda case: (case[1] - case[0]) / case[1])
    assert strictly_below(smaller, larger)
    return (larger - smaller, *rest)


def assert_flips(monkeypatch, outcome, margin):
    """outcome(shift) is unchanged at half the margin and changes at the
    margin; each shift starts from the unpatched modules."""

    def shifted(by):
        try:
            return outcome(by)
        finally:
            monkeypatch.undo()

    unmoved = shifted(0.0)
    assert shifted(0.5 * margin) == unmoved
    assert shifted(margin) != unmoved


def raise_upper_end(monkeypatch, module, name, by, pick=lambda *args: True):
    """Wrap module.name, an enclosure-valued function, so that the upper end
    of each picked result moves up by `by`."""
    original = getattr(module, name)

    def raised(*args, **kwargs):
        enc = original(*args, **kwargs)
        return enc.with_tail(by) if pick(*args) else enc

    monkeypatch.setattr(module, name, raised)


class TestRule:
    def test_both_sides_move_outward(self):
        assert strictly_below(1.0, 1.0 + 3 * SEPARATION_RTOL)
        assert not strictly_below(1.0, 1.0 + SEPARATION_RTOL)
        assert not strictly_below(1.0, 1.0)

    def test_arrays_compare_element_by_element(self):
        got = strictly_below(np.array([1.0, 1.0, 2.0]), np.array([2.0, 1.0, 1.0]))
        assert got.tolist() == [True, False, False]

    def test_three_verdicts_and_their_notes(self):
        claim = Claim("test", {})
        one, two = Enclosure.point(1.0), Enclosure.point(2.0)
        assert claim.separate("a", one, two) is Status.PASS
        assert claim.status is Status.PASS and claim.notes == []
        assert claim.separate("b", one, one) is Status.INCONCLUSIVE
        assert claim.status is Status.INCONCLUSIVE
        assert claim.separate("c", two, one) is Status.FAIL
        assert claim.separate("d", one, two) is Status.PASS
        assert claim.status is Status.FAIL
        assert claim.notes == ["b: 1.0 not strictly below 1.0", "c: 2.0 not strictly below 1.0"]

    def test_overlapping_enclosures_are_inconclusive_in_either_order(self):
        # [1, 3] and [2, 4]: neither order is strict, so neither is refuted;
        # the note quotes the smaller side's upper end and the larger side's lower end
        low = Enclosure(1.0, 3.0, truncation_bound=1.0)
        high = Enclosure(2.0, 4.0, truncation_bound=1.0)
        for smaller, larger in ((low, high), (high, low)):
            claim = Claim("test", {})
            assert claim.separate("x", smaller, larger) is Status.INCONCLUSIVE
            assert claim.status is Status.INCONCLUSIVE
            assert claim.notes == [f"x: {smaller.upper} not strictly below {larger.lower}"]

    def test_disjoint_reversed_enclosures_fail(self):
        claim = Claim("test", {})
        low = Enclosure(1.0, 2.0, truncation_bound=0.5)
        high = Enclosure(3.0, 4.0, truncation_bound=0.5)
        assert claim.separate("x", low, high) is Status.PASS
        assert claim.separate("y", high, low) is Status.FAIL
        assert claim.status is Status.FAIL
        assert claim.notes == ["y: 4.0 not strictly below 1.0"]

    def test_worst_verdict(self):
        assert worst(Status.PASS, Status.PASS) is Status.PASS
        assert worst(Status.PASS, Status.INCONCLUSIVE) is Status.INCONCLUSIVE
        assert worst(Status.FAIL, Status.INCONCLUSIVE) is Status.FAIL
        assert worst(Status.INCONCLUSIVE, Status.FAIL, Status.PASS) is Status.FAIL


class TestTightestSeparationFlips:
    def test_sup_gap(self, monkeypatch):
        cases = []
        for d in range(2, 11):
            encs = [nv.enclosure for nv in lambda_sup(d, range(31))]
            cases += [(encs[k].upper, encs[k - 1].lower, d, k) for k in range(1, 31)]
        margin, d, k = tightest(cases)

        def outcome(by):
            def shifted(d_, ks):
                values = lambda_sup(d_, ks)
                values[k] = dataclasses.replace(values[k], enclosure=values[k].enclosure.with_tail(by))
                return values

            monkeypatch.setattr(hierarchy, "lambda_sup", shifted)
            return hierarchy.verify_sup_monotone(d, 30).status

        assert_flips(monkeypatch, outcome, margin)

    def test_explicit_degree_against_the_bar(self, monkeypatch):
        cases = []
        for args in P4 + PST + LOCAL:
            result = best_k(Claim("test", {}), *args)
            cases += [(power.upper, result.top_power.lower, args, k) for k, power in result.explicit]
        margin, args, k = tightest(cases)

        def outcome(by):
            raise_upper_end(monkeypatch, norms, "lambda_power", by, lambda key, R=None: key.k == k)
            claim = Claim("test", {})
            best_k(claim, *args)
            return claim.status

        assert_flips(monkeypatch, outcome, margin)

    def test_u_against_the_bar(self, monkeypatch):
        cases = []
        for args in P4 + PST + LOCAL:
            result = best_k(Claim("test", {}), *args)
            cases.append((result.u_dominated, result.top_power.lower, args, result.dominated_from))
        margin, args, k_dom = tightest(cases)
        original = norms.upper_bound_U

        def outcome(by):
            def raised(d, p, k):
                return original(d, p, k) + (by if k == k_dom else 0.0)

            monkeypatch.setattr(norms, "upper_bound_U", raised)
            return best_k(Claim("test", {}), *args).dominated_from

        assert_flips(monkeypatch, outcome, margin)

    @pytest.mark.parametrize(
        "verify,instances,power_name,degree_zero",
        [
            (hierarchy.verify_p4, P4, "fourth power", lambda w: w["degree-0 fourth power (closed form)"]),
            (hierarchy.verify_pst, PST, "power", lambda w: w["degree-0 power on [0,50] + tail"].lower),
        ],
        ids=["p4", "pst"],
    )
    def test_degree_one_against_degree_zero(self, monkeypatch, verify, instances, power_name, degree_zero):
        cases = []
        for d, _, _, R_top, _ in instances:
            witnesses = dict(verify(d).fields["witnesses"])
            power1 = witnesses[f"degree-1 {power_name} on [0,{R_top:g}] + tail"]
            cases.append((power1.upper, degree_zero(witnesses), d, R_top))
        margin, d, R_top = tightest(cases)

        def outcome(by):
            raise_upper_end(monkeypatch, norms, "lambda_power", by, lambda key, R=None: key.k == 1 and R == R_top)
            return verify(d).status

        assert_flips(monkeypatch, outcome, margin)

    @pytest.mark.parametrize("link", ["first", "second"])
    def test_holder_link(self, monkeypatch, link):
        cases = []
        for d, p in LOCAL_PAIRS:
            for k in range(1, 9):
                witnesses = dict(local.verify_holder_chain(d, p, k).fields["witnesses"])
                m = witnesses["cross norm M(k)"]
                product = witnesses["Holder product L0^(p-2) Lk^2"]
                power0 = witnesses["degree-0 power L0^p"]
                if link == "first":
                    cases.append((m.upper, product.lower, d, p, k))
                else:
                    cases.append((product.upper, power0.lower, d, p, k))
        margin, d, p, k = tightest(cases)
        original = local.lambda_power

        def outcome(by):
            if link == "first":
                raise_upper_end(monkeypatch, local, "cross_norm", by)
            else:
                # the product is formed inside the check, so the larger side moves down
                def lowered(key, R=None):
                    enc = original(key, R)
                    return Enclosure(enc.lower - by, enc.upper, enc.truncation_bound + by, enc.quad_error_bound)

                monkeypatch.setattr(local, "lambda_power", lowered)
            return local.verify_holder_chain(d, p, k).status

        assert_flips(monkeypatch, outcome, margin)

    def test_cross_norm_against_degree_zero_power(self, monkeypatch):
        cases = []
        for d, p in LOCAL_PAIRS:
            record = local.verify_second_order_positivity(d, p, 8)
            for k in range(1, 9):
                coeffs = dict(record.fields["witnesses"])[f"coefficients at k={k}"]
                cases.append((coeffs.cross_norm.upper, coeffs.lambda0_p.lower, d, p, k))
        margin, d, p, k = tightest(cases)

        def outcome(by):
            raise_upper_end(monkeypatch, local, "cross_norm", by, lambda d_, p_, k_, R=None: k_ == k)
            return local.verify_second_order_positivity(d, p, k).status

        assert_flips(monkeypatch, outcome, margin)

    def test_sweep_grid_point(self, monkeypatch):
        cases = []
        for d in range(2, 11):
            for index, res in enumerate(p0_report(d)[1]):
                first = res.p_grid.index(res.certified_threshold)
                lower = lower_bound_L0(d, np.array(res.p_grid[first:]))
                uppers = lower - np.array(res.margins[first:])
                cases += [(up, lo, d, index, p) for up, lo, p in zip(uppers, lower, res.p_grid[first:])]
        margin, d, index, p_tight = tightest(cases)
        original = sweep.lower_bound_L0

        def outcome(by):
            monkeypatch.setattr(sweep, "lower_bound_L0", lambda d_, p: original(d_, p) - by * (p == p_tight))
            return p0_report(d)[1][index].certified_threshold

        assert_flips(monkeypatch, outcome, margin)

    def test_limit(self, monkeypatch):
        cases = [(lambda_sup(d, 1).enclosure.upper, lambda_sup_zero_closed(d), d) for d in range(2, 11)]
        margin, d = tightest(cases)
        original = sweep.lambda_sup_zero_closed

        def outcome(by):
            monkeypatch.setattr(sweep, "lambda_sup_zero_closed", lambda d_: original(d_) - by)
            (res, *_) = p0_report(d)[1]
            assert res.regime in (Regime.D2_SIX_INF, Regime.STEP1_FOUR_INF)
            return res.certified_threshold

        assert_flips(monkeypatch, outcome, margin)


def mp(x):
    return mpmath.mpf(float(x))


def exact_c0(d):
    return 1 / (2 ** (mp(d) / 2 - 1) * mpmath.gamma(mp(d) / 2))


class TestClosedFormsAgainstMpmath:
    """Each closed form within 1e-12 of its 30-digit value, and on its safe
    side once SEPARATION_RTOL moves it outward: U is an upper bound, and L0,
    c0 and the degree-zero fourth power at p = 4 are larger sides."""

    @pytest.mark.parametrize("d", range(2, 11))
    def test_upper_bound_U(self, d):
        lo, hi = validity_strip(d)
        with mpmath.workdps(30):
            for p in np.linspace(lo, hi, 9)[1:-1].tolist():
                lam = mp(p) * (mp(d) / 2 - mpmath.mpf(2) / 3) - d + mpmath.mpf(1) / 3
                for k in (1, 2, 5, 20, 39):
                    nu = mp(d - 2 + 2 * k) / 2
                    exact = (
                        mp(LANDAU_CONSTANT) ** (mp(p) - 2)
                        * mpmath.gamma(lam)
                        * mpmath.gamma(nu + (1 - lam) / 2)
                        / (2**lam * mpmath.gamma((1 + lam) / 2) ** 2 * mpmath.gamma(nu + (1 + lam) / 2))
                    )
                    got = upper_bound_U(d, p, k)
                    assert abs(got - exact) <= 1e-12 * exact
                    assert got * (1.0 + SEPARATION_RTOL) >= exact

    @pytest.mark.parametrize("d", range(2, 11))
    def test_lower_bound_L0(self, d):
        # the p-th root of the integral of (c0 (1 - r^2/(2d)))^p r^(d-1) over
        # [0, sqrt(2d)], a Beta integral
        exps = np.linspace(2.0 * d / (d - 1), 60.0, 25)[1:]
        got = lower_bound_L0(d, exps)
        with mpmath.workdps(30):
            for p, value in zip(exps.tolist(), got.tolist()):
                integral = (2 * mp(d)) ** (mp(d) / 2) / 2 * mpmath.beta(mp(d) / 2, mp(p) + 1)
                exact = exact_c0(d) * integral ** (1 / mp(p))
                assert abs(value - exact) <= 1e-12 * exact
                assert value * (1.0 - SEPARATION_RTOL) <= exact

    @pytest.mark.parametrize("d", range(2, 41))
    def test_c0(self, d):
        with mpmath.workdps(30):
            exact = exact_c0(d)
            got = lambda_sup_zero_closed(d)
            assert got == math.exp(log_c0(d))
            assert abs(got - exact) <= 1e-12 * exact
            assert got * (1.0 - SEPARATION_RTOL) <= exact

    @pytest.mark.parametrize("d", range(3, 11))
    def test_lambda4_zero_fourth_power(self, d):
        with mpmath.workdps(30):
            nu = mp(d) / 2 - 1
            exact = (
                mpmath.gamma(nu)
                * mpmath.gamma(2 * nu)
                / (2 * mpmath.pi * mpmath.gamma(nu + mpmath.mpf(1) / 2) ** 2 * mpmath.gamma(3 * nu))
            )
            got = lambda4_zero(d) ** 4
            assert abs(got - exact) <= 1e-12 * exact
            assert got * (1.0 - SEPARATION_RTOL) <= exact
