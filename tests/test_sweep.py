import math

import numpy as np
import pytest

import besselnorms.sweep as sweep
from besselnorms.golden import THRESHOLDS
from besselnorms.norms import (
    NormKey,
    lambda_power,
    lambda_sup,
    lower_bound_L0,
    stein_tomas_exponent,
    strictly_below,
)
from besselnorms.sweep import (
    MAX_GRID_POINTS,
    Regime,
    SweepResult,
    _grid,
    _sweep,
    p0_report,
)


def step1(d: int) -> SweepResult:
    return p0_report(d)[1][0]


def step2(d: int) -> SweepResult:
    (res,) = [r for r in p0_report(d)[1] if r.regime is Regime.STEP2_PST_FOUR]
    return res


def separated(res: SweepResult):
    """strictly_below of each grid point's interpolated upper against L0,
    the upper recovered from the recorded margin."""
    lower = lower_bound_L0(res.d, np.array(res.p_grid))
    return strictly_below(lower - np.array(res.margins), lower)


class TestThresholdFromGrid:
    # both anchors at norm 1, so the interpolated upper is 1 at every point
    # and the grid's L0 values decide alone
    @staticmethod
    def threshold(monkeypatch, grid, l0):
        monkeypatch.setattr(sweep, "lower_bound_L0", lambda d, p: np.array(l0))
        return _sweep(3, Regime.STEP1_FOUR_INF, grid, (4.0, 1.0), (math.inf, 1.0)).certified_threshold

    def test_all_positive_returns_first_point(self, monkeypatch):
        assert self.threshold(monkeypatch, [4.0, 4.01, 4.02], [2.0, 2.0, 2.0]) == 4.0

    def test_first_point_after_last_failure(self, monkeypatch):
        # a margin of 1e-12 of the value is inside the separation allowance
        assert self.threshold(monkeypatch, [4.0, 4.01, 4.02], [0.5, 1.0 + 1e-12, 2.0]) == 4.02

    def test_failure_at_the_end_means_no_threshold(self, monkeypatch):
        assert self.threshold(monkeypatch, [4.0, 4.01], [2.0, 0.5]) is None


def round_grid(start, stop, step):
    """The grid point by point: round(start +- n step, 12) until past stop."""
    descending = stop < start
    grid, n = [], 0
    while True:
        p = round(start - n * step if descending else start + n * step, 12)
        if (p < stop - 1e-12) if descending else (p > stop + 1e-12):
            return grid
        grid.append(p)
        n += 1


class TestGrid:
    @pytest.mark.parametrize("step", [0.005, 0.01, 0.02, 0.05, 0.1, 100.0])
    @pytest.mark.parametrize("d", range(2, 11))
    def test_equals_point_by_point_rounding(self, d, step):
        pst = stein_tomas_exponent(d)
        for start, stop in [(4.0, 60.0), (6.0, 60.0), (4.0, pst), (pst, 4.0), (60.0, 4.0)]:
            grid = _grid(start, stop, step)
            assert grid == round_grid(start, stop, step), (start, stop)
            assert all(type(p) is float for p in grid)

    def test_point_limit(self):
        # the arange holds the grid and one point past stop
        assert MAX_GRID_POINTS == 10**6
        assert len(_grid(0.0, 0.999, 1e-6)) == 999_001
        for start, stop in [(0.0, 1.0), (1.0, 0.0)]:
            with pytest.raises(ValueError, match="more than MAX_GRID_POINTS"):
                _grid(start, stop, 1e-6)
        with pytest.raises(ValueError, match="more than MAX_GRID_POINTS"):
            _grid(4.0, 60.0, 5e-324)  # the point count overflows to inf


class TestSweepD2:
    # d = 2 anchors the step-1 sweep at the sixth power, degree zero
    def test_certifies_at_six(self):
        res = step1(2)
        assert res.regime is Regime.D2_SIX_INF
        assert res.certified_threshold == 6.0
        assert separated(res).all()
        assert res.limit_margin is not None and res.limit_margin > 0


class TestSweepStep1:
    def test_d3_certifies_at_four(self):
        res = step1(3)
        assert res.certified_threshold == 4.0
        assert res.limit_margin > 0

    def test_d9_fails_near_four(self):
        # the margin is negative on part of the grid, so the certified
        # threshold sits strictly above the seam
        res = step1(9)
        assert not separated(res).all()
        assert 4.0 < res.certified_threshold <= THRESHOLDS[9]

    def test_grid_runs_from_the_anchor_to_the_limit_switch(self):
        assert step1(2).p_grid[0] == 6.0
        assert step1(7).p_grid[0] == 4.0
        assert step1(7).p_grid[-1] == step1(2).p_grid[-1] == 60.0

    def test_domain(self):
        for d in (1, 11):
            with pytest.raises(ValueError):
                step1(d)


class TestSweepStep2:
    def test_grid_spans_endpoint_to_four(self):
        res = step2(5)
        assert res.p_grid[0] == pytest.approx(3.0)  # Stein-Tomas endpoint at d=5
        assert res.p_grid[-1] == 4.0
        assert res.p_grid == sorted(res.p_grid)

    def test_d4_certifies_published_threshold(self):
        res = step2(4)
        assert res.certified_threshold is not None
        assert res.certified_threshold <= THRESHOLDS[4] + 1e-12
        assert res.limit_margin is None

    def test_domain(self):
        # only the middle dimensions have a threshold below the seam
        for d in range(2, 11):
            has_step2 = any(r.regime is Regime.STEP2_PST_FOUR for r in p0_report(d)[1])
            assert has_step2 == (4 <= d <= 8), d


# the step-0.01 thresholds, per regime and combined
STEP1_THRESHOLDS = {2: 6.0, 3: 4.0, 4: 4.0, 5: 4.0, 6: 4.0, 7: 4.0, 8: 4.0, 9: 4.02, 10: 4.37}
STEP2_THRESHOLDS = {4: 3.48, 5: 3.48, 6: 3.57, 7: 3.7, 8: 3.85}
COMBINED_THRESHOLDS = {2: 6.0, 3: 4.0, 4: 3.48, 5: 3.48, 6: 3.57, 7: 3.7, 8: 3.85, 9: 4.02, 10: 4.37}


def old_step1_upper(d: int):
    """The step-1 closed form p -> c^(1/p) A^(1/p) S^(1 - p_a/p)."""
    if d == 2:
        p_a, c, A = 6.0, 1.0 / 3.0, lambda_power(NormKey(2, 6.0, 0)).upper
    else:
        p_a, c, A = 4.0, 1.0, lambda_power(NormKey(d, 4.0, 1), R=40.0).upper
    S = lambda_sup(d, 1).enclosure.upper
    return lambda p: c ** (1.0 / p) * A ** (1.0 / p) * S ** (1.0 - p_a / p)


def old_step2_upper(d: int):
    """The step-2 closed form p -> B^((1-θ)/p_st) A4^(θ/4), θ = (4/p)(p-p_st)/(4-p_st)."""
    pst = stein_tomas_exponent(d)
    B = lambda_power(NormKey(d, pst, 1), R=50.0).upper
    A4 = lambda_power(NormKey(d, 4.0, 1), R=40.0).upper

    def upper(p):
        theta = (4.0 / p) * (p - pst) / (4.0 - pst)
        return B ** ((1.0 - theta) / pst) * A4 ** (theta / 4.0)

    return upper


class TestP0Report:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_certifies_at_or_below_published(self, d):
        threshold, results = p0_report(d)
        assert threshold <= THRESHOLDS[d] + 1e-12
        assert all(isinstance(r, SweepResult) for r in results)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_pinned_thresholds(self, d):
        threshold, results = p0_report(d)
        assert threshold == COMBINED_THRESHOLDS[d]
        assert results[0].certified_threshold == STEP1_THRESHOLDS[d]
        assert results[0].limit_margin > 0
        assert [r.certified_threshold for r in results[1:]] == ([STEP2_THRESHOLDS[d]] if d in STEP2_THRESHOLDS else [])

    @pytest.mark.parametrize("d", range(2, 11))
    def test_margins_match_the_two_closed_forms(self, d):
        for res in p0_report(d)[1]:
            old_upper = (old_step2_upper if res.regime is Regime.STEP2_PST_FOUR else old_step1_upper)(d)
            for p, margin in zip(res.p_grid, res.margins):
                upper = old_upper(p)
                assert abs(margin - (lower_bound_L0(d, p) - upper)) <= 1e-14 * upper, (res.regime, p)

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

    def test_no_certified_threshold_is_none(self):
        # a step of 100 leaves the d = 10 step-1 grid the single point p = 4,
        # where the margin is negative
        threshold, (res,) = p0_report(10, step=100.0)
        assert res.p_grid == [4.0] and not separated(res)[0]
        assert threshold is None and res.certified_threshold is None
