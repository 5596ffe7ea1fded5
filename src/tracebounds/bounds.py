"""Partial-identification bounds for the effect among reactive units.

The target quantity is the average effect of assignment among units
that react under treatment (m(1) = 1). Its treated-arm ingredient is
identified directly; the control-arm ingredient is only known to be a
share-p slice of the control outcome distribution. Taking the lowest
and highest share-p slices yields bounds with no further assumptions,
and monotone reaction tightens them by pinning down the always-reactor
part of the mixture.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import Analysis, Dataset, _wmean, validate_for
from .errors import (
    EmptyCell,
    EmptyInput,
    InvariantViolation,
    MissingM,
    NegativeControlMean,
    NoReactiveTreated,
    ZeroFraction,
)
from .estimators import (
    StrataShares,
    arm_reaction_rate,
    conditional_mean,
    estimate_p_m1,
    estimate_te_dim,
    strata_shares_monotone,
)


class Side(enum.Enum):
    LOWEST = "lowest"
    HIGHEST = "highest"


class BoundKind(enum.Enum):
    NO_ASSUMPTION = "no_assumption"
    MT = "mt"
    TYPE3_DIM = "type3_dim"
    PRESET_IMPLIED = "preset_implied"
    COMBINED = "combined"


@dataclass(frozen=True)
class TrimSpec:
    """Which share of total weight to average over, and from which end."""

    fraction: float
    side: Side

    def __post_init__(self):
        if not (0.0 <= self.fraction <= 1.0):
            raise InvariantViolation(f"trim fraction must be in [0, 1], got {self.fraction}")


@dataclass(frozen=True)
class Interval:
    """Closed interval with optional bootstrap band around its endpoints.

    ``ci_lo``/``ci_hi`` when present bracket the point interval from
    outside. Infinite endpoints are allowed (half-line assumptions).
    """

    lo: float
    hi: float
    kind: BoundKind
    ci_lo: float | None = None
    ci_hi: float | None = None

    def __post_init__(self):
        if np.isnan(self.lo) or np.isnan(self.hi):
            raise InvariantViolation("interval endpoints cannot be NaN")
        if self.lo > self.hi:
            raise InvariantViolation(f"interval is empty: lo={self.lo} > hi={self.hi}")
        if (self.ci_lo is None) != (self.ci_hi is None):
            raise InvariantViolation("ci endpoints must be present together")
        if self.ci_lo is not None:
            if self.ci_lo > self.lo or self.ci_hi < self.hi:
                raise InvariantViolation("ci must bracket the point interval")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def with_ci(self, ci_lo: float, ci_hi: float) -> "Interval":
        # the band may never sit inside the point interval
        return replace(self, ci_lo=min(ci_lo, self.lo), ci_hi=max(ci_hi, self.hi))


def _ordered_interval(lo: float, hi: float, kind: BoundKind) -> Interval:
    """Build an interval whose endpoints are ordered by construction;
    an inversion at floating-point noise scale collapses to a point."""
    if lo > hi:
        scale = max(1.0, abs(lo), abs(hi))
        if lo - hi > 1e-9 * scale:
            raise InvariantViolation(f"bound endpoints came out inverted: {lo} > {hi}")
        lo = hi = 0.5 * (lo + hi)
    return Interval(lo=lo, hi=hi, kind=kind)


def trimmed_mean(values, weights, spec: TrimSpec) -> float:
    """Weighted mean of the extreme ``spec.fraction`` share of total weight.

    The values are sorted ascending, ties keeping the original row
    order, and LOWEST averages the bottom share, HIGHEST the top one
    (:func:`_slice_means`). The marginal observation enters with the
    fractional weight that exactly fills the target. With fraction 1
    this is the plain weighted mean.
    """
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if v.ndim != 1 or w.shape != v.shape:
        raise InvariantViolation("values and weights must be equal-length vectors")
    if v.size == 0:
        raise EmptyInput("trimmed mean of an empty sample")
    if spec.fraction == 0.0:
        raise ZeroFraction("trim fraction must be positive")
    if not (w > 0).all():
        raise InvariantViolation("weights must be positive")

    order = np.argsort(v, kind="stable")
    low, high = _slice_means(v[order], w[order], spec.fraction)
    return low if spec.side is Side.LOWEST else high


def _slice_means(ys: np.ndarray, ws: np.ndarray, fraction: float) -> tuple[float, float]:
    """Weighted means of the lowest and the highest ``fraction`` share of
    the total weight, for ``ys`` sorted ascending; the marginal row enters
    with the weight that fills the share. Rows of zero weight (a
    bootstrap row not drawn) take no part. The only trimmed-slice
    arithmetic of the package: the full-sample bounds and the replicate
    engine both read their slices here."""
    cum = np.cumsum(ws)
    total = cum[-1]
    target = fraction * total
    k = int(np.searchsorted(cum, target, side="left"))  # marginal row from the bottom
    below = cum[k - 1] if k else 0.0
    low = (ys[:k] @ ws[:k] + (target - below) * ys[k]) / target
    # minus the weight above each row, ascending, in place of the running sum:
    # ``total - target`` would round back to ``total`` for a share below one
    # ulp of it, and ``cum - total`` is exactly ``-(total - cum)``
    np.subtract(cum, total, out=cum)
    j = int(np.searchsorted(cum, -target, side="right"))  # marginal row from the top
    high = (ys[j + 1 :] @ ws[j + 1 :] + (target + cum[j]) * ys[j]) / target
    return float(low), float(high)


class SortedControl:
    """The control arm of a dataset in the stable ascending order of y,
    sorted once so that :func:`no_assumption_bounds` and
    :func:`mt_bounds` share it.

    The arm's y, weights and m = 0 flags are stored in that order, and
    both ends of a slice are read off it, as in :func:`trimmed_mean`. A
    stable order filtered to the m = 0 pool is the pool's own stable
    order, so the pool is never sorted apart.
    """

    def __init__(self, ds: Dataset):
        rows = np.flatnonzero(ds.d == 0)
        y = ds.y[rows]
        self._ascending = np.argsort(y, kind="stable")
        self._y = y[self._ascending]
        del y
        rows = rows[self._ascending]
        self._w = ds.weight[rows]
        self._pool = ds.m[rows] == 0

    @property
    def ascending(self) -> np.ndarray:
        """Stable ascending order of y in the control arm, as positions in the arm; not a copy."""
        return self._ascending

    def slices(self, fraction: float, pool: bool = False) -> tuple[float, float]:
        """Means of the lowest and the highest ``fraction`` share of the
        arm's weight, or with ``pool`` of its m = 0 units' weight, each
        equal to :func:`trimmed_mean` of the same units. Raises
        :class:`EmptyCell` for a ``pool`` with no unit."""
        if not pool:
            return _slice_means(self._y, self._w, fraction)
        if not self._pool.any():
            raise EmptyCell("no control units with m=0 although the first stage implies some")
        return _slice_means(self._y[self._pool], self._w[self._pool], fraction)


def no_assumption_bounds(ds: Dataset, control: SortedControl | None = None) -> Interval:
    """Bounds on the reactive-group effect from trimming alone.

    The treated-arm mean over reactive units minus the highest/lowest
    share-p slice of the whole control arm, where p is the estimated
    reactive share. Sharp without further assumptions: on integer-count
    trims the endpoints equal the exact subset-mean extremes.
    ``control``, when given, is ``SortedControl(ds)``.
    """
    validate_for(ds, Analysis.NO_ASSUMPTION_BOUNDS)
    p = estimate_p_m1(ds)
    if p == 0.0:
        raise NoReactiveTreated("no treated unit reacted; the target group is empty in-sample")
    y1m1 = conditional_mean(ds, 1, 1)
    low_slice, high_slice = (control or SortedControl(ds)).slices(p)
    return _ordered_interval(float(y1m1 - high_slice), float(y1m1 - low_slice), BoundKind.NO_ASSUMPTION)


def mt_bounds(ds: Dataset, control: SortedControl | None = None) -> Interval:
    """Bounds under monotone reaction.

    The control-side counterfactual for the reactive group is a mixture
    of always-reactors, identified exactly by control units with m = 1,
    and treatment-only reactors, bounded by trimming the control m = 0
    pool at the share they occupy within it. Requires m observed in
    both arms and an empirically monotone first stage. ``control``,
    when given, is ``SortedControl(ds)``.
    """
    validate_for(ds, Analysis.MT_BOUNDS)
    shares = strata_shares_monotone(ds)
    p1 = estimate_p_m1(ds)
    if p1 == 0.0:
        raise NoReactiveTreated("no treated unit reacted; the target group is empty in-sample")

    def pool_slices(pi: float) -> tuple[float, float]:
        # the control units showing m = 0; EmptyCell when there are none
        return (control or SortedControl(ds)).slices(pi, pool=True)

    # conditional_mean(ds, 0, 1) raises EmptyCell when the data contradict alpha > 0
    return mt_interval(conditional_mean(ds, 1, 1), p1, shares, lambda: conditional_mean(ds, 0, 1), pool_slices)


def mt_interval(
    y1m1: float,
    p1: float,
    shares: StrataShares,
    at_mean: Callable[[], float],
    pool_slices: Callable[[float], tuple[float, float]],
) -> Interval:
    """Monotone bounds from the reactive treated mean ``y1m1``, the
    reactive share ``p1 > 0`` and the strata ``shares``.

    ``at_mean()`` is the control m = 1 mean, asked for only when
    always-reactors carry weight; ``pool_slices(pi)`` is the lowest and
    highest share-``pi`` slice mean of the control m = 0 pool, asked for
    only when treatment-only reactors do. A part that is not asked for
    carries zero mixture weight.
    """
    alpha = shares.at / p1
    pool_share = shares.c + shares.nt  # control units showing m = 0
    pi = shares.c / pool_share if pool_share > 0 else 0.0
    at = at_mean() if alpha > 0 else 0.0
    c_low, c_high = pool_slices(pi) if pi > 0 else (0.0, 0.0)
    ey0_low = at * alpha + c_low * (1.0 - alpha)
    ey0_high = at * alpha + c_high * (1.0 - alpha)
    return _ordered_interval(float(y1m1 - ey0_high), float(y1m1 - ey0_low), BoundKind.MT)


def dim_m1(ds: Dataset) -> float:
    """Difference in mean outcomes between treated and control units
    showing m = 1. Descriptive unless reacting carries the whole effect."""
    validate_for(ds, Analysis.DIM)
    return conditional_mean(ds, 1, 1) - conditional_mean(ds, 0, 1)


def type3_dim_bounds(mean_y_d1m1: float, mean_y_d0m1: float) -> Interval:
    """Bounds when the outcome can only occur through the reaction.

    If y is nonnegative and y = 0 whenever m = 0, the reactive-group
    effect lies between the m = 1 difference in means and that
    difference plus the control m = 1 mean. Works from two published
    cell means, no unit data needed.
    """
    for name, v in (("mean_y_d1m1", mean_y_d1m1), ("mean_y_d0m1", mean_y_d0m1)):
        if not np.isfinite(v):
            raise InvariantViolation(f"{name} must be finite, got {v}")
    if mean_y_d0m1 < 0:
        raise NegativeControlMean(
            f"control m=1 mean must be nonnegative under this model, got {mean_y_d0m1}"
        )
    return Interval(
        lo=mean_y_d1m1 - mean_y_d0m1,
        hi=mean_y_d1m1,
        kind=BoundKind.TYPE3_DIM,
    )


@dataclass(frozen=True)
class NaiveEstimates:
    """Common ad-hoc contrasts, for orientation only.

    ``as_treated`` and ``per_protocol`` condition on a post-treatment
    variable and are not causal estimands. A field is None when the
    data cannot produce it (missing m in control, empty cell, or a
    zero first stage for the instrumental ratio).
    """

    itt: float
    as_treated: float | None
    per_protocol: float | None
    dim_m1: float | None
    wald_late: float | None


def naive_estimates(ds: Dataset) -> NaiveEstimates:
    """Compute every naive contrast the data support; fields that need
    unavailable cells come back None rather than raising."""
    itt = estimate_te_dim(ds).te_hat

    as_treated = None
    per_protocol = None
    dim = None
    wald = None

    y = ds.y
    w = ds.weight
    m = ds.m

    if ds.m_observed_in_control:
        m1 = np.flatnonzero(m == 1)
        m0 = np.flatnonzero(m == 0)
        if m1.size and m0.size:
            as_treated = _wmean(y[m1], w[m1]) - _wmean(y[m0], w[m0])
        try:
            per_protocol = conditional_mean(ds, 1, 1) - conditional_mean(ds, 0, 0)
        except (EmptyCell, MissingM):
            per_protocol = None
        try:
            dim = dim_m1(ds)
        except (EmptyCell, MissingM):
            dim = None
        p1 = arm_reaction_rate(ds, 1)
        p0 = arm_reaction_rate(ds, 0)
        if p1 != p0:
            wald = itt / (p1 - p0)

    return NaiveEstimates(
        itt=itt,
        as_treated=as_treated,
        per_protocol=per_protocol,
        dim_m1=dim,
        wald_late=wald,
    )
