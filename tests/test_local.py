import pytest

import besselnorms.local as local
import besselnorms.norms as norms
from besselnorms.local import (
    DeficitCoefficients,
    cross_norm,
    deficit_coefficients,
    verify_holder_chain,
    verify_second_order_positivity,
)
from besselnorms.norms import NormKey, Status, lambda_power
from besselnorms.quadrature import Enclosure

from oracles import simpson_cross_term

# fine-grid Simpson values of the truncated cross integrals on [0, 200], frozen
M_2_6_2_R200 = 0.036540256563061195
M_3_4_1_R200 = 0.10584969743003066
M_3_4_3_R200 = 0.04521906033841137

# first degree the U bound settles against the degree-zero power, default R
LOCAL_DOMINATION_SPLIT = {(2, 6.0): 3, (3, 4.0): 1, (4, 10.0 / 3.0): 1, (5, 3.0): 1}


@pytest.fixture()
def degree_one_overlaps_zero(monkeypatch):
    """Widen the degree-one power at (2, 6), an explicit degree there, past
    the lower end of the degree-zero power."""
    original = norms.lambda_power

    def widened(key, R=None):
        enc = original(key, R)
        if key.k == 1:
            return enc.with_tail(original(NormKey(key.d, key.p, 0), R).lower)
        return enc

    monkeypatch.setattr(norms, "lambda_power", widened)


class TestCrossNorm:
    def test_degree_zero_coincides_with_power(self):
        a = cross_norm(3, 4.0, 0)
        b = lambda_power(NormKey(3, 4.0, 0))
        assert a.lower == pytest.approx(b.lower, rel=1e-13)
        assert a.upper == pytest.approx(b.upper, rel=1e-13)

    @pytest.mark.parametrize(
        "d,p,k,frozen",
        [(2, 6.0, 2, M_2_6_2_R200), (3, 4.0, 1, M_3_4_1_R200), (3, 4.0, 3, M_3_4_3_R200)],
    )
    def test_frozen_simpson_values(self, d, p, k, frozen):
        enc = cross_norm(d, p, k, R=200.0)
        # frozen value is the truncated part; the enclosure adds the tail above
        assert enc.lower - 1e-9 <= frozen <= enc.upper

    def test_simpson_oracle_fresh(self):
        enc = cross_norm(4, 10.0 / 3.0, 2, R=80.0)
        value, allowance = simpson_cross_term(4, 10.0 / 3.0, 2, 80.0)
        assert enc.lower - allowance <= value <= enc.upper

    def test_below_degree_zero_power(self):
        # the chain bound at (d=2, p=6, k=1)
        assert cross_norm(2, 6.0, 1).upper < lambda_power(NormKey(2, 6.0, 0)).lower


class TestDeficitCoefficients:
    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            deficit_coefficients(3, 4.0, 0)

    def test_point_enclosure_reduction(self, monkeypatch):
        # with point enclosures the worst-case formulas must reduce exactly to
        # (p(p-2)/4)(L - (-1)^k M) and (p/4)(L - M)
        L, M = 0.32, 0.05
        monkeypatch.setattr(local, "cross_norm", lambda *a, **kw: Enclosure.point(M))
        monkeypatch.setattr(local, "lambda_power", lambda *a, **kw: Enclosure.point(L))
        p = 4.0
        odd = deficit_coefficients(3, p, 1)
        even = deficit_coefficients(3, p, 2)
        assert odd.coeff_real_part == pytest.approx(p * (p - 2) / 4 * (L + M), rel=1e-15)
        assert even.coeff_real_part == pytest.approx(p * (p - 2) / 4 * (L - M), rel=1e-15)
        for c in (odd, even):
            assert c.coeff_modulus == pytest.approx(p / 4 * (L - M), rel=1e-15)

    def test_real_values_positive(self):
        for k in (1, 2, 3):
            coeffs = deficit_coefficients(3, 4.0, k)
            assert isinstance(coeffs, DeficitCoefficients)
            assert coeffs.coeff_real_part > 0
            assert coeffs.coeff_modulus > 0


class TestHolderChain:
    @pytest.mark.parametrize("d,p,k", [(2, 6.0, 1), (3, 4.0, 1), (4, 10.0 / 3.0, 2)])
    def test_passes(self, d, p, k):
        record = verify_holder_chain(d, p, k)
        assert record.status is Status.PASS
        assert any("degree 0 maximizes" in note for note in record.notes)

    def test_chain_ordering_witnesses(self):
        record = verify_holder_chain(3, 4.0, 2)
        witnesses = dict(record.witnesses)
        m = witnesses["cross norm M(k)"]
        product = witnesses["Holder product L0^(p-2) Lk^2"]
        power = witnesses["degree-0 power L0^p"]
        assert m.upper < product.lower
        assert product.upper < power.lower

    @pytest.mark.usefixtures("degree_one_overlaps_zero")
    def test_inconclusive_without_argmax_hypothesis(self):
        record = verify_holder_chain(2, 6.0, 3)
        assert record.status is Status.INCONCLUSIVE
        assert any("not settled" in note for note in record.notes)
        assert any(note.startswith("degree 1 vs degree 0") for note in record.notes)
        assert record.witnesses == []


class TestSecondOrderPositivity:
    @pytest.mark.parametrize("d,p", [(2, 6.0), (3, 4.0)])
    def test_passes_small_depth(self, d, p):
        record = verify_second_order_positivity(d, p, K=3)
        assert record.status is Status.PASS
        assert len([w for w in record.witnesses if w[0].startswith("coefficients")]) == 3

    def test_assumption_is_recorded(self):
        record = verify_second_order_positivity(3, 4.0, K=1)
        assert any("first-order vanishing assumed" in note.lower() for note in record.notes)

    @pytest.mark.usefixtures("degree_one_overlaps_zero")
    def test_inconclusive_without_argmax_hypothesis(self):
        record = verify_second_order_positivity(2, 6.0, K=2)
        assert record.status is Status.INCONCLUSIVE
        assert record.k_dominated_from == 3
        assert not any(note.startswith("Holder") for note in record.notes)

    @pytest.mark.parametrize("pair", list(LOCAL_DOMINATION_SPLIT))
    def test_every_degree_settled(self, pair):
        d, p = pair
        record = verify_second_order_positivity(d, p, K=1)
        assert record.status is Status.PASS
        assert record.k_dominated_from == LOCAL_DOMINATION_SPLIT[pair]
        assert any("positive in every degree" in note for note in record.notes)
