"""Exponent sweeps certifying, per dimension, the threshold beyond which the
interpolated upper bound on every positive-degree norm falls below the
closed-form lower bound on the degree-zero norm.

Both regimes rest on one fact: log ||f||_p is convex in 1/p (Hölder,
Riesz-Thorin), so the norm at an exponent between two anchors is at most
n0^(1-t) n1^t, where n0 and n1 bound the anchor norms and
1/p = (1-t)/p0 + t/p1.  Step 1 interpolates between p0 = 6 (d = 2) or 4 and
the degree-one sup norm (p1 = inf); step 2, for the middle dimensions,
between the Stein-Tomas endpoint p_st(d) and p = 4.

All upper bounds use enclosure upper ends and all lower bounds the closed
form, so a positive margin cannot be an artifact of optimistic rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .golden import THRESHOLDS
from .norms import (
    NormKey,
    lambda_power,
    lambda_sup,
    lambda_sup_zero_closed,
    lower_bound_L0,
    stein_tomas_exponent,
)

__all__ = ["Regime", "SweepResult", "p0_report"]

_MARGIN_FLOOR = 1e-8
# dimensions whose threshold lies below p = 4, so a second sweep on
# [p_st(d), 4] is stitched to the step-1 sweep at the seam p = 4
_STEP2_DIMENSIONS = range(4, 9)
# beyond this exponent both sides are within 1e-6 of their limits; the sweep
# defers to the explicit limit comparison
_P_LIMIT_SWITCH = 60.0


class Regime(str, Enum):
    D2_SIX_INF = "D2_SIX_INF"
    STEP1_FOUR_INF = "STEP1_FOUR_INF"
    STEP2_PST_FOUR = "STEP2_PST_FOUR"


@dataclass
class SweepResult:
    d: int
    regime: Regime
    p_grid: list
    margins: list
    certified_threshold: float | None
    published_threshold: float
    limit_margin: float | None = None
    notes: list = field(default_factory=list)


def _threshold_from_grid(p_grid, margins) -> float | None:
    """Smallest grid exponent from which every later margin stays positive."""
    last_bad = None
    for i, m in enumerate(margins):
        if m <= _MARGIN_FLOOR:
            last_bad = i
    if last_bad is None:
        return p_grid[0]
    if last_bad + 1 >= len(p_grid):
        return None
    return p_grid[last_bad + 1]


def _grid(start: float, stop: float, step: float) -> list[float]:
    """start, start +- step, ... towards stop (inclusive within 1e-12), each
    point rounded to 12 places; step must be finite and positive."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"need a finite grid step > 0, got {step}")
    descending = stop < start
    grid = []
    n = 0
    while True:
        p = round(start - n * step if descending else start + n * step, 12)
        if (p < stop - 1e-12) if descending else (p > stop + 1e-12):
            return grid
        grid.append(p)
        n += 1


def _sweep(d, regime, grid, low, high, limit_margin=None) -> SweepResult:
    """Margins on grid of the L0 lower bound over the Hölder interpolation
    between the anchors low = (p0, n0) and high = (p1, n1), norm upper ends;
    a limit margin at or below the floor voids the threshold."""
    (p0, n0), (p1, n1) = low, high
    inv_p0, inv_span = 1.0 / p0, 1.0 / p0 - 1.0 / p1
    margins = []
    for p in grid:
        t = (inv_p0 - 1.0 / p) / inv_span
        margins.append(lower_bound_L0(d, p) - n0 ** (1.0 - t) * n1**t)
    threshold = _threshold_from_grid(grid, margins)
    if limit_margin is not None and limit_margin <= _MARGIN_FLOOR:
        threshold = None
    return SweepResult(d, regime, grid, margins, threshold, THRESHOLDS[d], limit_margin)


def p0_report(d: int, step: float = 0.01) -> tuple[float | None, list[SweepResult]]:
    """Combined certified threshold for one dimension, with the sweeps used.

    Step 1 runs on [anchor, _P_LIMIT_SWITCH] and compares the limits beyond.
    For the middle dimensions step 2 runs on [p_st(d), 4], on a grid anchored
    at the shared seam p = 4 (so it hits the published thresholds exactly),
    and takes over when step 1 certifies down to the seam.  The threshold is
    None when the dimension has none certified on the grid.
    """
    if not 2 <= d <= 10:
        raise ValueError(f"need 2 <= d <= 10, got {d}")
    grid1 = _grid(6.0 if d == 2 else 4.0, _P_LIMIT_SWITCH, step)
    if d == 2:
        # the sixth power at degree zero, with its 1/3 degree-domination constant
        anchor = (6.0, (lambda_power(NormKey(2, 6.0, 0)).upper / 3.0) ** (1.0 / 6.0))
    else:
        # the fourth power at degree one, upper estimate on [0, 40] plus tail
        anchor = (4.0, lambda_power(NormKey(d, 4.0, 1), R=40.0).upper ** 0.25)
    sup1 = lambda_sup(d, 1).enclosure.upper
    regime = Regime.D2_SIX_INF if d == 2 else Regime.STEP1_FOUR_INF
    res1 = _sweep(d, regime, grid1, anchor, (math.inf, sup1), lambda_sup_zero_closed(d) - sup1)
    results = [res1]
    threshold = res1.certified_threshold
    if d in _STEP2_DIMENSIONS:
        pst = stein_tomas_exponent(d)
        grid2 = _grid(4.0, pst, step)
        if abs(grid2[-1] - pst) > 1e-12:
            grid2.append(pst)
        endpoint = (pst, lambda_power(NormKey(d, pst, 1), R=50.0).upper ** (1.0 / pst))
        res2 = _sweep(d, Regime.STEP2_PST_FOUR, grid2[::-1], endpoint, anchor)
        results.append(res2)
        if threshold is not None and threshold <= 4.0:
            threshold = res2.certified_threshold
    return threshold, results
