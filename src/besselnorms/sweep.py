"""Exponent sweeps certifying, per dimension, the threshold beyond which the
interpolated upper bound on every positive-degree norm falls below the
closed-form lower bound on the degree-zero norm.

All upper bounds use enclosure upper ends and all lower bounds the closed
form, so a positive margin cannot be an artifact of optimistic rounding.
"""

from __future__ import annotations

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
from .quadrature import DEFAULT_QUAD_CONFIG, QuadConfig

__all__ = [
    "Regime",
    "SweepResult",
    "sweep_step1",
    "sweep_step2",
    "p0_report",
]

_MARGIN_FLOOR = 1e-8
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

    @property
    def all_positive(self) -> bool:
        return all(m > _MARGIN_FLOOR for m in self.margins)


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


def _ascending_grid(p_min: float, p_max: float, step: float) -> list[float]:
    grid = []
    n = 0
    while True:
        p = round(p_min + n * step, 12)
        if p > p_max + 1e-12:
            break
        grid.append(p)
        n += 1
    return grid


def _anchor(d: int) -> tuple[float, int, float | None, float]:
    """Exponent, degree, radius (None: the default) and domination constant
    of the norm the step-1 sweep interpolates from."""
    if d == 2:
        # the sixth power at degree zero, with its 1/3 degree-domination constant
        return 6.0, 0, None, 1.0 / 3.0
    # the fourth power at degree one, upper estimate on [0, 40] plus tail
    return 4.0, 1, 40.0, 1.0


def sweep_step1(
    d: int,
    p_min: float | None = None,
    p_max: float = _P_LIMIT_SWITCH,
    step: float = 0.01,
    cfg: QuadConfig = DEFAULT_QUAD_CONFIG,
) -> SweepResult:
    """Sweep on [anchor, p_max] interpolating between the anchor norm of
    _anchor(d) and the degree-one sup norm; p_min defaults to the anchor."""
    if not 2 <= d <= 10:
        raise ValueError(f"need 2 <= d <= 10, got {d}")
    p_anchor, k_anchor, R_anchor, constant = _anchor(d)
    p_min = p_anchor if p_min is None else p_min
    if p_min < p_anchor:
        raise ValueError(f"need p_min >= {p_anchor:g}, got {p_min}")
    anchor_upper = lambda_power(NormKey(d, p_anchor, k_anchor), R=R_anchor, cfg=cfg).upper
    sup1_upper = lambda_sup(d, 1).enclosure.upper
    grid = _ascending_grid(p_min, p_max, step)
    margins = []
    for p in grid:
        upper = constant ** (1.0 / p) * anchor_upper ** (1.0 / p) * sup1_upper ** (1.0 - p_anchor / p)
        margins.append(lower_bound_L0(d, p) - upper)
    limit_margin = lambda_sup_zero_closed(d) - sup1_upper
    threshold = _threshold_from_grid(grid, margins)
    if limit_margin <= _MARGIN_FLOOR:
        threshold = None
    return SweepResult(
        d=d,
        regime=Regime.D2_SIX_INF if d == 2 else Regime.STEP1_FOUR_INF,
        p_grid=grid,
        margins=margins,
        certified_threshold=threshold,
        published_threshold=THRESHOLDS[d],
        limit_margin=limit_margin,
    )


def sweep_step2(d: int, step: float = 0.01, cfg: QuadConfig = DEFAULT_QUAD_CONFIG) -> SweepResult:
    """Sweep on [p_st(d), 4] interpolating between the endpoint norm and the
    fourth-power norm, both at degree one with truncated-plus-tail uppers.

    The grid is anchored at p = 4 and descends, so it shares the seam point
    with the step-1 grid and hits the published thresholds exactly.
    """
    if not 4 <= d <= 8:
        raise ValueError(f"need 4 <= d <= 8, got {d}")
    pst = stein_tomas_exponent(d)
    lam41_upper = lambda_power(NormKey(d, 4.0, 1), R=40.0, cfg=cfg).upper
    lampst1_upper = lambda_power(NormKey(d, pst, 1), R=50.0, cfg=cfg).upper
    grid = []
    n = 0
    while True:
        p = round(4.0 - n * step, 12)
        if p < pst - 1e-12:
            break
        grid.append(p)
        n += 1
    if abs(grid[-1] - pst) > 1e-12:
        grid.append(pst)
    grid.reverse()
    margins = []
    for p in grid:
        theta = (4.0 / p) * (p - pst) / (4.0 - pst)
        upper = lampst1_upper ** ((1.0 - theta) / pst) * lam41_upper ** (theta / 4.0)
        margins.append(lower_bound_L0(d, p) - upper)
    threshold = _threshold_from_grid(grid, margins)
    return SweepResult(
        d=d,
        regime=Regime.STEP2_PST_FOUR,
        p_grid=grid,
        margins=margins,
        certified_threshold=threshold,
        published_threshold=THRESHOLDS[d],
    )


def p0_report(d: int, step: float = 0.01, cfg: QuadConfig = DEFAULT_QUAD_CONFIG) -> tuple[float, list[SweepResult]]:
    """Combined certified threshold for one dimension, with the sweeps used.

    Stitches the two interpolation regimes at the shared seam p = 4 for the
    middle dimensions; raises if any constituent sweep fails to certify.
    """
    if not 2 <= d <= 10:
        raise ValueError(f"need 2 <= d <= 10, got {d}")
    if d in (2, 3, 9, 10):
        res = sweep_step1(d, step=step, cfg=cfg)
        results = [res]
        threshold = res.certified_threshold
    else:
        res1 = sweep_step1(d, step=step, cfg=cfg)
        res2 = sweep_step2(d, step=step, cfg=cfg)
        results = [res1, res2]
        if res1.certified_threshold is None or res1.certified_threshold > 4.0:
            threshold = res1.certified_threshold
        else:
            threshold = res2.certified_threshold
    if threshold is None:
        raise RuntimeError(f"no certified threshold for d={d}")
    return threshold, results
