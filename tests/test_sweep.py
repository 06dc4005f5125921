import pytest

from besselnorms.golden import THRESHOLDS
from besselnorms.sweep import (
    Regime,
    SweepResult,
    _threshold_from_grid,
    p0_report,
    sweep_step1,
    sweep_step2,
)


class TestThresholdFromGrid:
    def test_all_positive_returns_first_point(self):
        assert _threshold_from_grid([4.0, 4.01, 4.02], [1.0, 1.0, 1.0]) == 4.0

    def test_first_point_after_last_failure(self):
        assert _threshold_from_grid([4.0, 4.01, 4.02], [-1.0, 1e-12, 1.0]) == 4.02

    def test_failure_at_the_end_means_no_threshold(self):
        assert _threshold_from_grid([4.0, 4.01], [1.0, -1.0]) is None


class TestSweepD2:
    # d = 2 anchors the step-1 sweep at the sixth power, degree zero
    def test_certifies_at_six(self):
        res = sweep_step1(2, p_max=10.0)
        assert res.regime is Regime.D2_SIX_INF
        assert res.certified_threshold == 6.0
        assert res.all_positive
        assert res.limit_margin is not None and res.limit_margin > 0

    def test_rejects_inadmissible_start(self):
        with pytest.raises(ValueError):
            sweep_step1(2, p_min=5.0)


class TestSweepStep1:
    def test_d3_certifies_at_four(self):
        res = sweep_step1(3, p_max=10.0)
        assert res.certified_threshold == 4.0
        assert res.limit_margin > 0

    def test_d9_fails_near_four(self):
        # the margin is negative on part of the grid, so the certified
        # threshold sits strictly above the seam
        res = sweep_step1(9, p_max=10.0)
        assert not res.all_positive
        assert 4.0 < res.certified_threshold <= THRESHOLDS[9]

    def test_domain(self):
        for d in (1, 11):
            with pytest.raises(ValueError):
                sweep_step1(d)
        with pytest.raises(ValueError):
            sweep_step1(3, p_min=3.5)


class TestSweepStep2:
    def test_grid_spans_endpoint_to_four(self):
        res = sweep_step2(5)
        assert res.p_grid[0] == pytest.approx(3.0)  # Stein-Tomas endpoint at d=5
        assert res.p_grid[-1] == 4.0
        assert res.p_grid == sorted(res.p_grid)

    def test_d4_certifies_published_threshold(self):
        res = sweep_step2(4)
        assert res.certified_threshold is not None
        assert res.certified_threshold <= THRESHOLDS[4] + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            sweep_step2(3)
        with pytest.raises(ValueError):
            sweep_step2(9)


class TestP0Report:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_certifies_at_or_below_published(self, d):
        threshold, results = p0_report(d)
        assert threshold <= THRESHOLDS[d] + 1e-12
        assert all(isinstance(r, SweepResult) for r in results)

    def test_middle_dimensions_stitch_two_regimes(self):
        _, results = p0_report(6)
        regimes = {r.regime for r in results}
        assert regimes == {Regime.STEP1_FOUR_INF, Regime.STEP2_PST_FOUR}

    def test_edge_dimensions_use_one_regime(self):
        for d, regime in [(2, Regime.D2_SIX_INF), (3, Regime.STEP1_FOUR_INF), (10, Regime.STEP1_FOUR_INF)]:
            _, results = p0_report(d)
            assert [r.regime for r in results] == [regime]

    def test_domain(self):
        with pytest.raises(ValueError):
            p0_report(11)
