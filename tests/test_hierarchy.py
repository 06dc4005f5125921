import pytest

import besselnorms.hierarchy as hierarchy
import besselnorms.norms as norms
from besselnorms.hierarchy import (
    verify_claim,
    verify_p4,
    verify_pst,
    verify_sup_monotone,
)
from besselnorms.norms import Claim, Method, NormKey, NormValue, Status, best_k, upper_bound_U
from besselnorms.quadrature import Enclosure
from besselnorms.specfun import SpecfunDomainError

# first degree settled by the decreasing U bound, per dimension
P4_DOMINATION_SPLIT = {3: 5, 4: 3, 5: 2, 6: 2, 7: 2, 8: 2, 9: 3, 10: 3}
PST_DOMINATION_SPLIT = {4: 4, 5: 3, 6: 3, 7: 3, 8: 3, 9: 3, 10: 3}


class TestSupMonotone:
    @pytest.mark.parametrize("d", [2, 3, 7, 10])
    def test_passes(self, d):
        record = verify_sup_monotone(d, 6)
        assert record.id == "SUP_MONOTONE"
        assert record.status is Status.PASS
        assert len(record.fields["witnesses"]) == 7

    def test_beyond_published_dimensions(self):
        assert verify_sup_monotone(12, 4).status is Status.PASS

    def test_gap_floor_scales_with_the_values(self):
        # near k=30 at d=12 the values are about 3e-9, so an absolute 1e-9 floor swallows their gaps
        record = verify_sup_monotone(12, 30)
        assert record.status is Status.PASS
        assert record.fields["witnesses"][-1][1].enclosure.upper < 3e-9

    def test_fail_is_not_overwritten_by_a_later_overlap(self, monkeypatch):
        # degree 1 strictly above degree 0 fails; degree 2 equal to degree 1
        # cannot be separated; the claim takes the worst verdict
        def faked(d, ks):
            return [
                NormValue(Enclosure.point(v), 1.0, Method.CRITICAL_POINT)
                for _, v in zip(ks, [1.0, 2.0, 2.0, 0.5])
            ]

        monkeypatch.setattr(hierarchy, "lambda_sup", faked)
        record = verify_sup_monotone(3, 3)
        assert record.status is Status.FAIL
        assert record.notes == [
            "degree 1 vs degree 0: 2.0 not strictly below 1.0",
            "degree 2 vs degree 1: 2.0 not strictly below 2.0",
        ]

    def test_needs_at_least_two_steps(self):
        with pytest.raises(ValueError):
            verify_sup_monotone(3, 1)


class TestDominationDegree:
    def test_settles_where_u_crosses(self):
        result = best_k(Claim("test", {}), 3, 4.0, 1, 40.0, 200.0)
        bar = result.top_power.lower
        k = result.dominated_from
        assert upper_bound_U(3, 4.0, k) < bar <= upper_bound_U(3, 4.0, k - 1)
        assert k == P4_DOMINATION_SPLIT[3]

    def test_unreachable_threshold(self, monkeypatch):
        # a bar far below every U up to the order limit: the degrees below
        # any k_dom could not be enclosed, so the search stops there
        monkeypatch.setattr(norms, "lambda_power", lambda *a, **kw: Enclosure.point(1e-300))
        with pytest.raises(SpecfunDomainError):
            best_k(Claim("test", {}), 3, 4.0, 1)


class TestP4Hierarchy:
    @pytest.mark.parametrize("d", range(3, 11))
    def test_passes_with_expected_split(self, d):
        record = verify_p4(d)
        assert record.status is Status.PASS
        assert record.fields["k_dominated_from"] == P4_DOMINATION_SPLIT[d]

    def test_records_all_intermediate_degrees(self):
        record = verify_p4(3)
        labels = [desc for desc, _ in record.fields["witnesses"]]
        assert labels == [
            "degree-1 fourth power on [0,40] + tail",
            "U(d,4,5)",
            "degree-2 fourth power on [0,200] + tail",
            "degree-3 fourth power on [0,200] + tail",
            "degree-4 fourth power on [0,200] + tail",
            "degree-0 fourth power (closed form)",
        ]

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_p4(2)
        with pytest.raises(ValueError):
            verify_p4(11)


class TestPstHierarchy:
    @pytest.mark.parametrize("d", range(4, 11))
    def test_passes_with_expected_split(self, d):
        record = verify_pst(d)
        assert record.status is Status.PASS
        assert record.fields["k_dominated_from"] == PST_DOMINATION_SPLIT[d]

    @pytest.mark.parametrize("d", [4, 5])
    def test_low_dimensions_gate_the_degree_zero_step(self, d):
        # degree one against degree zero is checked here as for d >= 6, not taken on trust
        record = verify_pst(d)
        assert record.status is Status.PASS
        assert not any("accepted externally" in note for note in record.notes)
        witnesses = dict(record.fields["witnesses"])
        assert witnesses["degree-1 power on [0,50] + tail"].upper < witnesses["degree-0 power on [0,50] + tail"].lower

    @staticmethod
    def with_degree_zero_at(monkeypatch, factor):
        """verify_pst(4) with degree zero a point at factor times degree one's
        upper end; only the degree-zero step reads hierarchy.lambda_power,
        best_k reads norms'."""

        def lowered(key, R=None):
            return Enclosure.point(factor * norms.lambda_power(NormKey(key.d, key.p, 1), R).upper)

        monkeypatch.setattr(hierarchy, "lambda_power", lowered)
        record = verify_pst(4)
        assert any(note.startswith("degree 1 vs degree 0") for note in record.notes)
        return record

    def test_degree_zero_below_degree_one_fails(self, monkeypatch):
        # a strict reversal
        assert self.with_degree_zero_at(monkeypatch, 0.999).status is Status.FAIL

    def test_degree_zero_overlapping_degree_one_is_inconclusive(self, monkeypatch):
        # degree zero at degree one's upper end: neither order is strict
        assert self.with_degree_zero_at(monkeypatch, 1.0).status is Status.INCONCLUSIVE

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_pst(3)


class TestVerifyClaim:
    def test_fields(self):
        claim = verify_claim("P4_HIERARCHY", {}, k_explicit=3)
        assert claim.status is Status.PASS and claim.notes == []
        assert claim.lower is claim.upper is None
        assert claim.fields == {"witnesses": [], "k_explicit": 3, "k_dominated_from": None}
