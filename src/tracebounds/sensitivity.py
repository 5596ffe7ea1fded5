"""Sensitivity analysis linking the overall effect to the reactive group.

The overall average effect decomposes exactly as

    te = trace * p + trace0 * (1 - p)

where ``p`` is the probability of reacting under treatment, ``trace``
the average effect among reactors and ``trace0`` among non-reactors.
Fixing a value (or range) for the unidentified ``trace0`` therefore
pins down (or brackets) ``trace``. Presets, regions and the curve are
that one linear map, applied carefully; :func:`analyze` joins them to the
bounds of a dataset, every band from one replicate pass.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import BoundKind, Interval, mt_bounds, no_assumption_bounds
from .data import Dataset
from .errors import (
    AllReplicatesFailed,
    DegenerateP,
    DegenerateShare,
    InvariantViolation,
    OutOfSupportWarning,
    SignUndefined,
    TraceBoundsError,
)
from .estimators import StrataShares, TEEstimate, TEMethod, estimate_p_m1, te_estimate
from .inference import BootstrapConfig, percentile_band
from .resample import ReplicateEngine


class AssumptionKind(enum.Enum):
    POINT = "point"
    INTERVAL = "interval"
    GRID = "grid"
    ZERO = "zero"
    SAME_SIGN_SMALLER = "same_sign_smaller"
    OPPOSITE_SIGN = "opposite_sign"
    EQUAL_EFFECTS = "equal_effects"


_GRID_EPS = 1e-9
_GRID_MAX_STEPS = 10_000  # each grid row is a column of the (replicates × rows) band matrix
_SIGN_PRESETS = (AssumptionKind.SAME_SIGN_SMALLER, AssumptionKind.OPPOSITE_SIGN)  # these need te != 0


@dataclass(frozen=True)
class AssumptionSpec:
    """A restriction on the non-reactive effect ``trace0``.

    Construct through the classmethods; positional fields depend on the
    kind (POINT uses ``value``, INTERVAL uses ``lo``/``hi``, GRID adds
    ``step``; named presets carry no numbers).
    """

    kind: AssumptionKind
    value: float | None = None
    lo: float | None = None
    hi: float | None = None
    step: float | None = None

    def __post_init__(self):
        k = self.kind
        if k is AssumptionKind.POINT:
            if self.value is None or not math.isfinite(self.value):
                raise InvariantViolation("POINT assumption needs a finite value")
        elif k in (AssumptionKind.INTERVAL, AssumptionKind.GRID):
            if self.lo is None or self.hi is None:
                raise InvariantViolation(f"{k.name} assumption needs lo and hi")
            if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
                raise InvariantViolation(f"{k.name} endpoints must be finite")
            if self.lo > self.hi:
                raise InvariantViolation(f"{k.name} needs lo <= hi")
            if k is AssumptionKind.GRID:
                if self.step is None or not (0 < self.step < math.inf):
                    raise InvariantViolation(f"GRID needs a positive, finite step, got {self.step}")
                steps = (self.hi - self.lo) / self.step
                if not steps <= _GRID_MAX_STEPS:  # also an infinite count
                    raise InvariantViolation(f"GRID needs {steps:.6g} steps from lo to hi; at most {_GRID_MAX_STEPS} are allowed")

    @classmethod
    def point(cls, value: float) -> "AssumptionSpec":
        return cls(AssumptionKind.POINT, value=value)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "AssumptionSpec":
        return cls(AssumptionKind.INTERVAL, lo=lo, hi=hi)

    @classmethod
    def grid(cls, lo: float, hi: float, step: float) -> "AssumptionSpec":
        return cls(AssumptionKind.GRID, lo=lo, hi=hi, step=step)

    @classmethod
    def zero(cls) -> "AssumptionSpec":
        return cls(AssumptionKind.ZERO)

    @classmethod
    def same_sign_smaller(cls) -> "AssumptionSpec":
        return cls(AssumptionKind.SAME_SIGN_SMALLER)

    @classmethod
    def opposite_sign(cls) -> "AssumptionSpec":
        return cls(AssumptionKind.OPPOSITE_SIGN)

    @classmethod
    def equal_effects(cls) -> "AssumptionSpec":
        return cls(AssumptionKind.EQUAL_EFFECTS)

    def grid_values(self) -> list[float]:
        """Grid points, both endpoints included, final step clamped to hi."""
        if self.kind is not AssumptionKind.GRID:
            raise InvariantViolation("grid_values applies to GRID assumptions only")
        lo, hi, step = self.lo, self.hi, self.step
        span = hi - lo
        n = int(math.floor(span / step + _GRID_EPS))
        vals = [lo + k * step for k in range(n + 1)]
        if vals[-1] < hi - _GRID_EPS * max(1.0, abs(hi)):
            vals.append(hi)
        else:
            vals[-1] = hi
        return vals


# -- the linear map ----------------------------------------------------------


def trace_from_trace0(te: float, p: float, trace0: float) -> float:
    """Reactive-group effect implied by ``trace0``: (te - trace0(1-p)) / p."""
    if not (0.0 < p <= 1.0):
        raise DegenerateP(f"p must be in (0, 1], got {p}")
    return (te - trace0 * (1.0 - p)) / p


def trace0_from_trace(te: float, p: float, trace: float) -> float:
    """Inverse map: the non-reactive effect consistent with ``trace``."""
    if not (0.0 <= p < 1.0):
        raise DegenerateP(f"p must be in [0, 1), got {p}")
    return (te - trace * p) / (1.0 - p)


def threshold_trace0(te: float, p: float, target_trace: float) -> float:
    """How large the non-reactive effect must be for the reactive-group
    effect to sit exactly at ``target_trace``."""
    if not math.isfinite(target_trace):
        raise InvariantViolation(f"target_trace must be finite, got {target_trace}")
    return trace0_from_trace(te, p, target_trace)


# -- preset intervals --------------------------------------------------------


def preset_interval(te: float, p: float, spec: AssumptionSpec) -> Interval:
    """Interval of reactive-group effects consistent with an assumption.

    The map is linear and decreasing in ``trace0`` (slope -(1-p)/p), so
    interval images flip order. Sign-based presets need te != 0; the
    opposite-sign preset yields a half-line whose infinite end survives
    until intersection with data-driven bounds.
    """
    if not (0.0 < p <= 1.0):
        raise DegenerateP(f"p must be in (0, 1], got {p}")
    if spec.kind in _SIGN_PRESETS and te == 0.0:
        raise SignUndefined("sign-based presets need a nonzero effect estimate")
    lo, hi = _preset_ends(te, p, spec)
    return Interval(float(lo), float(hi), BoundKind.PRESET_IMPLIED)


def _preset_ends(te, p, spec: AssumptionSpec):
    """Ends of :func:`preset_interval`, elementwise over floats or arrays of
    (te, p) at which it is defined. A range's ends are ordered as ``min``
    and ``max`` order them, which keep the first of two equal ends (0.0 or -0.0)."""
    k = spec.kind
    if k is AssumptionKind.EQUAL_EFFECTS:
        return te, te
    if k is AssumptionKind.ZERO:
        return te / p, te / p
    if k is AssumptionKind.OPPOSITE_SIGN:  # a half-line from te / p, away from zero
        return np.where(te > 0, te / p, -math.inf), np.where(te > 0, math.inf, te / p)
    if k is AssumptionKind.SAME_SIGN_SMALLER:
        a, b = te, te / p
    elif k is AssumptionKind.POINT:
        a = b = (te - spec.value * (1.0 - p)) / p
    else:  # INTERVAL and GRID map their endpoint range through the line
        a = (te - spec.lo * (1.0 - p)) / p
        b = (te - spec.hi * (1.0 - p)) / p
    return np.where(b < a, b, a), np.where(b > a, b, a)


def combined_region(a: Interval, b: Interval) -> Interval | None:
    """Intersection of two intervals, or None when they are disjoint.

    None means the assumption is inconsistent with the data-driven
    bounds; callers report it as an infeasible region, not an error.
    Confidence endpoints carry through as the intersection of the two
    bands when both inputs have them.
    """
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        return None
    ci_lo = ci_hi = None
    if a.ci_lo is not None and b.ci_lo is not None:
        ci_lo = max(a.ci_lo, b.ci_lo)
        ci_hi = min(a.ci_hi, b.ci_hi)
    return Interval(lo, hi, BoundKind.COMBINED, ci_lo=ci_lo, ci_hi=ci_hi)


# -- alternative assumption quantities ---------------------------------------


class AltQuantity(enum.Enum):
    Y0_GIVEN_C = "y0_given_c"
    Y0_GIVEN_NT = "y0_given_nt"


@dataclass(frozen=True)
class AltAssumption:
    """An assumed control-arm mean for one latent stratum."""

    quantity: AltQuantity
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise InvariantViolation("assumed value must be finite")

    @classmethod
    def y0_given_c(cls, value: float) -> "AltAssumption":
        return cls(AltQuantity.Y0_GIVEN_C, value)

    @classmethod
    def y0_given_nt(cls, value: float) -> "AltAssumption":
        return cls(AltQuantity.Y0_GIVEN_NT, value)


def alt_quantity_to_trace0(
    mean_y1_m0: float,
    mean_y0_d0m0: float,
    shares: StrataShares,
    assumed: AltAssumption,
    y_range: tuple[float, float] | None = None,
) -> float:
    """Translate an assumption about one latent stratum into ``trace0``.

    Under monotone reaction the control m = 0 pool mixes treatment-only
    reactors and never-reactors with weights c : nt. Assuming the mean
    for one component backs out the other; the never-reactor component
    is the non-reactive counterfactual, so

        trace0 = mean_y1_m0 - E[y(0) | never-reactor].

    When ``y_range`` is given and the backed-out mean falls outside the
    observed outcome range, an :class:`OutOfSupportWarning` is issued
    (the algebra still returns; the caller judges plausibility).
    """
    pool = shares.c + shares.nt
    if pool <= 0:
        raise DegenerateShare("no mass on the control m=0 pool")
    w_nt = shares.nt / pool
    if assumed.quantity is AltQuantity.Y0_GIVEN_NT:
        ey0_nt = assumed.value
    else:
        if w_nt == 0:
            raise DegenerateShare("never-reactor share is zero; its mean cannot be backed out")
        ey0_nt = (mean_y0_d0m0 - assumed.value * (1.0 - w_nt)) / w_nt
    if y_range is not None and not (y_range[0] <= ey0_nt <= y_range[1]):
        warnings.warn(
            f"backed-out never-reactor mean {ey0_nt:.6g} falls outside the observed outcome "
            f"range [{y_range[0]:.6g}, {y_range[1]:.6g}]",
            OutOfSupportWarning,
            stacklevel=2,
        )
    return mean_y1_m0 - ey0_nt


# -- the sensitivity curve ---------------------------------------------------


@dataclass(frozen=True)
class CurveRow:
    trace0: float
    trace_hat: float
    ci_lo: float
    ci_hi: float
    within_trim_bounds: bool


@dataclass(frozen=True)
class SensitivityCurve:
    """Implied reactive-group effect across a grid of ``trace0`` values,
    with a pointwise percentile band holding each grid value fixed."""

    rows: tuple[CurveRow, ...]
    te_hat: float
    p_hat: float
    trim_bounds: Interval


def build_curve(
    ds: Dataset,
    spec: AssumptionSpec,
    te_method: TEMethod = TEMethod.DIFF_IN_MEANS,
    boot: BootstrapConfig | None = None,
) -> SensitivityCurve:
    """The curve of :func:`analyze` over a GRID assumption.

    Each bootstrap replicate re-estimates both the overall effect and
    the reactive share, then every grid row maps that same pair through
    the line, so rows are mutually consistent. Replicates whose
    resample has no reactive treated unit cannot be mapped and count as
    failed.
    """
    if spec.kind is not AssumptionKind.GRID:
        raise InvariantViolation("build_curve needs a GRID assumption")
    if estimate_p_m1(ds) == 0.0:
        raise DegenerateP("no treated unit reacted; the curve is undefined")
    return analyze(ds, spec, te_method, boot or BootstrapConfig()).curve


def curve_from_replicates(
    spec: AssumptionSpec, te_hat: float, p_hat: float, trim: Interval, te_r: np.ndarray, p_r: np.ndarray, level: float
) -> SensitivityCurve:
    """Curve over a GRID from point estimates and joint (te, p) replicates,
    NaN where one failed. Only the ends of ``trim`` are read (row flags,
    chart markers)."""
    good = np.isfinite(te_r) & np.isfinite(p_r) & (p_r > 0)
    if not good.any():
        raise AllReplicatesFailed("no bootstrap replicate produced a usable (te, p) pair")
    te_g = te_r[good, None]
    p_g = p_r[good, None]
    grid = spec.grid_values()
    reps = (te_g - np.array(grid) * (1.0 - p_g)) / p_g  # (replicates, grid rows)
    ci_lo, ci_hi = percentile_band(reps, reps, level)

    rows = []
    for t0, lo, hi in zip(grid, ci_lo.tolist(), ci_hi.tolist()):
        point = trace_from_trace0(te_hat, p_hat, t0)
        rows.append(
            CurveRow(
                trace0=t0,
                trace_hat=point,
                ci_lo=lo,
                ci_hi=hi,
                within_trim_bounds=trim.contains(point),
            )
        )
    return SensitivityCurve(rows=tuple(rows), te_hat=te_hat, p_hat=p_hat, trim_bounds=trim)


# -- the whole analysis --------------------------------------------------------

_DEFAULT_GRID_ROWS = 21


@dataclass(frozen=True)
class AnalysisResult:
    """One analysis of a dataset. ``mt`` is the error that stops the
    monotone bounds, if one does; ``combined`` is None for an infeasible
    region; ``curve`` runs over ``grid``, the assumption if it is a GRID,
    else one spanning the trimming bounds; ``threshold``, the non-reactive
    effect at which the reactive-group effect is zero, is None when
    everyone reacts. ``failed_replicates`` counts failed replicates by
    statistic, None for skipped monotone bounds."""

    te: TEEstimate
    p_hat: float
    trim: Interval
    mt: Interval | TraceBoundsError
    preset: Interval
    combined: Interval | None
    grid: AssumptionSpec
    curve: SensitivityCurve
    threshold: float | None
    failed_replicates: dict[str, int | None]


def full_sample_bounds(ds: Dataset) -> tuple[Interval, Interval | TraceBoundsError]:
    """The trimming bounds, and the monotone bounds or the error that
    stops them."""
    trim = no_assumption_bounds(ds)
    try:
        return trim, mt_bounds(ds)
    except TraceBoundsError as exc:
        return trim, exc


def _with_band(iv: Interval, lo_r: np.ndarray, hi_r: np.ndarray, level: float) -> Interval:
    """Percentile band around both endpoints from their replicate columns."""
    good = np.isfinite(lo_r)
    if not good.any():
        return iv
    return iv.with_ci(*percentile_band(lo_r[good], hi_r[good], level))


def _preset_ci(preset: Interval, spec: AssumptionSpec, te_r: np.ndarray, p_r: np.ndarray, level: float) -> Interval:
    """Band for a preset interval from joint (te, p) replicates, over those
    at which :func:`preset_interval` is defined."""
    good = np.isfinite(te_r) & (p_r > 0) & (p_r <= 1)
    if spec.kind in _SIGN_PRESETS:
        good &= te_r != 0
    if not good.any():
        return preset
    return preset.with_ci(*percentile_band(*_preset_ends(te_r[good], p_r[good], spec), level))


def _default_grid(te_hat: float, p_hat: float, trim: Interval) -> AssumptionSpec:
    """Grid spanning the non-reactive effects consistent with the trimming
    bounds; a single point at zero when everyone reacts."""
    if p_hat >= 1.0:
        return AssumptionSpec.grid(0.0, 0.0, 1.0)
    lo = trace0_from_trace(te_hat, p_hat, trim.hi)
    hi = trace0_from_trace(te_hat, p_hat, trim.lo)
    if hi <= lo:
        return AssumptionSpec.grid(lo, lo, 1.0)
    step = (hi - lo) / (_DEFAULT_GRID_ROWS - 1)
    return AssumptionSpec.grid(lo, hi, step)


def analyze(ds: Dataset, assumption: AssumptionSpec, te_method: TEMethod, boot: BootstrapConfig) -> AnalysisResult:
    """Estimates, bounds, preset interval, combined region, sensitivity
    curve and threshold of ``ds`` under ``assumption``, every band from
    one pass of :class:`~tracebounds.resample.ReplicateEngine`. Reads and
    writes no file."""
    te = te_estimate(ds, te_method)
    p_hat = estimate_p_m1(ds)
    trim, mt = full_sample_bounds(ds)
    with_mt = isinstance(mt, Interval)

    values = ReplicateEngine(ds, te_method, boot, with_mt).run()
    te_r, p_r = values[:, 2], values[:, 3]
    failed = np.isnan(values[:, ::2]).sum(axis=0).tolist()  # trim, core, mt

    trim = _with_band(trim, values[:, 0], values[:, 1], boot.level)
    if with_mt:
        mt = _with_band(mt, values[:, 4], values[:, 5], boot.level)
    preset = _preset_ci(preset_interval(te.te_hat, p_hat, assumption), assumption, te_r, p_r, boot.level)
    grid = assumption if assumption.kind is AssumptionKind.GRID else _default_grid(te.te_hat, p_hat, trim)
    curve = curve_from_replicates(grid, te.te_hat, p_hat, trim, te_r, p_r, boot.level)
    threshold = threshold_trace0(te.te_hat, p_hat, 0.0) if p_hat < 1.0 else None  # the trimming bounds need p_hat > 0
    failed_replicates = {"core": failed[1], "no_assumption_bounds": failed[0], "mt_bounds": failed[2] if with_mt else None}
    return AnalysisResult(te, p_hat, trim, mt, preset, combined_region(preset, trim), grid, curve, threshold, failed_replicates)
