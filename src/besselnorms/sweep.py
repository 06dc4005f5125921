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
form, and norms.strictly_below separates the two at every point.

A grid is one array: its points come from np.arange and np.round, and its
margins and separations from one array expression over lower_bound_L0 of
the whole grid.  SweepResult keeps the grid and the margins as lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .golden import THRESHOLDS
from .norms import (
    P4_ANCHOR_RADIUS,
    PST_ANCHOR_RADIUS,
    NormKey,
    lambda_power,
    lambda_sup,
    lower_bound_L0,
    stein_tomas_exponent,
    strictly_below,
)
from .specfun import lambda_sup_zero_closed

__all__ = ["Regime", "SweepResult", "p0_report"]

# dimensions whose threshold lies below p = 4, so a second sweep on
# [p_st(d), 4] is stitched to the step-1 sweep at the seam p = 4
_STEP2_DIMENSIONS = range(4, 9)
# beyond this exponent both sides are within 1e-6 of their limits; the sweep
# defers to the explicit limit comparison
_P_LIMIT_SWITCH = 60.0
# the most points a grid may hold; a finer step is rejected before any
# allocation (10^6 points take 8 MB)
MAX_GRID_POINTS = 10**6


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


def _grid(start: float, stop: float, step: float) -> list[float]:
    """start, start +- step, ... towards stop (inclusive within 1e-12), each
    point rounded to 12 places; step must be finite and positive, and the
    grid no longer than MAX_GRID_POINTS."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"need a finite grid step > 0, got {step}")
    steps = (abs(stop - start) + 1e-12) / step
    if not steps + 2 <= MAX_GRID_POINTS:
        raise ValueError(f"grid step {step} gives more than MAX_GRID_POINTS={MAX_GRID_POINTS} points on [{start}, {stop}]")
    descending = stop < start
    # one point past stop, which the filter drops
    n = np.arange(int(steps) + 2)
    grid = np.round(start - n * step if descending else start + n * step, 12)
    return grid[(grid >= stop - 1e-12) if descending else (grid <= stop + 1e-12)].tolist()


def _sweep(d, regime, grid, low, high, zero_limit=None) -> SweepResult:
    """The L0 lower bound against the Hölder interpolation between the
    anchors low = (p0, n0) and high = (p1, n1), norm upper ends, on grid;
    zero_limit, the degree-zero norm at p1, adds n1 < zero_limit as one more
    point.  The threshold is the first point from which all are separated."""
    (p0, n0), (p1, n1) = low, high
    p = np.array(grid)
    t = (1.0 / p0 - 1.0 / p) / (1.0 / p0 - 1.0 / p1)
    upper = n0 ** (1.0 - t) * n1**t
    lower = lower_bound_L0(d, p)
    separated = strictly_below(upper, lower)
    if zero_limit is not None:
        separated = np.append(separated, strictly_below(n1, zero_limit))
    bad = np.flatnonzero(~separated)
    first = bad[-1] + 1 if bad.size else 0
    threshold = grid[first] if first < len(grid) else None
    limit_margin = None if zero_limit is None else zero_limit - n1
    return SweepResult(d, regime, grid, (lower - upper).tolist(), threshold, THRESHOLDS[d], limit_margin)


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
        # the fourth power at degree one, upper estimate on [0, P4_ANCHOR_RADIUS] plus tail
        anchor = (4.0, lambda_power(NormKey(d, 4.0, 1), R=P4_ANCHOR_RADIUS).upper ** 0.25)
    sup1 = lambda_sup(d, 1).enclosure.upper
    regime = Regime.D2_SIX_INF if d == 2 else Regime.STEP1_FOUR_INF
    res1 = _sweep(d, regime, grid1, anchor, (math.inf, sup1), lambda_sup_zero_closed(d))
    results = [res1]
    threshold = res1.certified_threshold
    if d in _STEP2_DIMENSIONS:
        pst = stein_tomas_exponent(d)
        grid2 = _grid(4.0, pst, step)
        if abs(grid2[-1] - pst) > 1e-12:
            grid2.append(pst)
        endpoint = (pst, lambda_power(NormKey(d, pst, 1), R=PST_ANCHOR_RADIUS).upper ** (1.0 / pst))
        res2 = _sweep(d, Regime.STEP2_PST_FOUR, grid2[::-1], endpoint, anchor)
        results.append(res2)
        if threshold is not None and threshold <= 4.0:
            threshold = res2.certified_threshold
    return threshold, results
