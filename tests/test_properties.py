"""Invariant checks: special-function identities on random inputs, bound
monotonicity, enclosure arithmetic soundness, and enclosure agreement with an
independent fine-grid Simpson evaluation on random admissible parameters.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from besselnorms.golden import matches_6sf, round_sig
from besselnorms.norms import NormKey, lambda_power, validity_strip, upper_bound_U
from besselnorms.quadrature import Enclosure, tail_bound
from besselnorms.specfun import SpecfunDomainError

from oracles import simpson_weighted_power

orders = st.integers(min_value=0, max_value=40).map(lambda t: t / 2.0)
radii = st.floats(min_value=0.05, max_value=300.0, allow_nan=False)


@given(nu=orders, r=radii)
@settings(max_examples=200, deadline=None)
def test_bessel_recurrence(nu, r):
    lhs = (2.0 * nu / r) * jv(nu, r)
    rhs = jv(nu - 1.0, r) + jv(nu + 1.0, r)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(jv(nu - 1.0, r)) + abs(jv(nu + 1.0, r)))


@given(r=st.floats(min_value=0.1, max_value=200.0))
@settings(max_examples=60, deadline=None)
def test_bessel_normalization(r):
    total = jv(0, r) ** 2 + 2.0 * sum(jv(m, r) ** 2 for m in range(1, int(2 * r) + 40))
    assert total == pytest.approx(1.0, abs=1e-9)


@given(d=st.integers(min_value=2, max_value=10), k=st.integers(min_value=1, max_value=40), data=st.data())
@settings(max_examples=100, deadline=None)
def test_upper_bound_u_decreasing_in_degree(d, k, data):
    lo, hi = validity_strip(d)
    p = data.draw(st.floats(min_value=lo * 1.001 + 1e-9, max_value=hi * 0.999))
    assert upper_bound_U(d, p, k + 1) < upper_bound_U(d, p, k)


@pytest.mark.parametrize("d", range(2, 13))
def test_upper_bound_u_strictly_decreasing_on_a_grid(d):
    # the proof in upper_bound_U's docstring, checked over the whole strip
    lo, hi = validity_strip(d)
    for t in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        p = lo + t * (hi - lo)
        values = [upper_bound_U(d, p, k) for k in range(1, 202)]
        assert all(b < a for a, b in zip(values, values[1:])), (d, p)
        assert values[-1] > 0.0


@pytest.mark.parametrize("d", range(2, 13))
def test_upper_bound_u_rejects_strip_ends(d):
    # lam = 0 at the lower end and lam = d + 1 at the upper end
    for p in validity_strip(d):
        with pytest.raises(SpecfunDomainError):
            upper_bound_U(d, p, 1)


@given(
    d=st.integers(min_value=2, max_value=10),
    k=st.integers(min_value=1, max_value=10),
    p_off=st.floats(min_value=0.1, max_value=8.0),
    R=st.floats(min_value=40.0, max_value=500.0),
    bump=st.floats(min_value=1.01, max_value=10.0),
    kind=st.sampled_from(["power", "cross"]),
)
@settings(max_examples=100, deadline=None)
def test_tail_bound_decreasing_in_radius(d, k, p_off, R, bump, kind):
    p = 2.0 * d / (d - 1) + p_off
    assert tail_bound(d, p, k, R * bump, kind) < tail_bound(d, p, k, R, kind)


@given(
    p=st.floats(min_value=4.01, max_value=20.0),
    R=st.floats(min_value=1.0, max_value=400.0),
    kind=st.sampled_from(["power", "cross"]),
)
@settings(max_examples=100, deadline=None)
def test_zero_order_tail_decreasing(p, R, kind):
    # d = 2, k = 0: every factor is |A_0|, under the J_0 envelope from R = 1
    assert tail_bound(2, p, 0, 2.0 * R, kind) < tail_bound(2, p, 0, R, kind)


@given(
    lo=st.floats(min_value=1e-6, max_value=10.0),
    width=st.floats(min_value=0.0, max_value=1.0),
    expo=st.floats(min_value=0.05, max_value=4.0),
    t=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_enclosure_powered_sound(lo, width, expo, t):
    enc = Enclosure(lo, lo + width, truncation_bound=width)
    out = enc.powered(expo)
    x = lo + t * width
    assert out.lower <= x**expo <= out.upper * (1.0 + 1e-12)


@given(value=st.floats(min_value=1e-8, max_value=1e8))
@settings(max_examples=200, deadline=None)
def test_six_figure_matching_is_reflexive(value):
    assert matches_6sf(value, round_sig(value))
    assert round_sig(round_sig(value)) == round_sig(value)


@given(value=st.floats(min_value=1.0, max_value=2.0))
@settings(max_examples=100, deadline=None)
def test_six_figure_matching_rejects_two_ulps(value):
    reference = round_sig(value)
    assert not matches_6sf(reference + 2.6e-5, reference)


def test_enclosure_soundness_against_simpson_on_random_cases():
    """20 random admissible (d, p, k, R): the independently computed Simpson
    value of the truncated integral must land inside the quadrature enclosure
    (before the tail is added) up to the oracle's own allowance."""
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 20:
        d = int(rng.integers(2, 9))
        k = int(rng.integers(0, 5))
        p = 2.0 * d / (d - 1) + float(rng.uniform(0.2, 4.0))
        R = float(rng.uniform(15.0, 60.0))
        from besselnorms.quadrature import integrate_weighted_power

        enc = integrate_weighted_power(d, p, k, R)
        value, allowance = simpson_weighted_power(d, p, k, R)
        assert enc.lower - allowance <= value <= enc.upper + allowance, (d, p, k, R)
        checked += 1


def test_lambda_power_contains_closed_form():
    # full-line closed form 1/pi for d=3, p=4, k=0 must lie in the enclosure
    enc = lambda_power(NormKey(3, 4.0, 0))
    assert enc.lower <= 1.0 / math.pi <= enc.upper
