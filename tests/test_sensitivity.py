import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebounds import (
    AltAssumption,
    AssumptionKind,
    AssumptionSpec,
    BootstrapConfig,
    BoundKind,
    Dataset,
    Interval,
    StrataShares,
    alt_quantity_to_trace0,
    build_curve,
    combined_region,
    preset_interval,
    threshold_trace0,
    trace0_from_trace,
    trace_from_trace0,
)
from tracebounds.inference import percentile_band
from tracebounds.sensitivity import _preset_ci, _with_band, curve_from_replicates
from tracebounds.errors import (
    AllReplicatesFailed,
    DegenerateP,
    DegenerateShare,
    InvariantViolation,
    OutOfSupportWarning,
    SignUndefined,
)


# -- the linear map -----------------------------------------------------------


def test_map_hand_values():
    assert trace_from_trace0(0.27, 0.27 / 0.63, 0.0) == pytest.approx(0.63)
    assert trace_from_trace0(-0.23, 0.38983, 0.0) == pytest.approx(-0.59, abs=0.005)
    assert trace_from_trace0(1.0, 1.0, 99.0) == pytest.approx(1.0)  # p = 1 ignores trace0


def test_threshold_hand_value():
    # how negative the non-reactive effect must be to explain the whole estimate
    assert threshold_trace0(-0.23, 0.38983, 0.0) == pytest.approx(-0.377, abs=0.005)


def test_map_degenerate_p():
    with pytest.raises(DegenerateP):
        trace_from_trace0(1.0, 0.0, 0.0)
    with pytest.raises(DegenerateP):
        trace0_from_trace(1.0, 1.0, 0.0)
    with pytest.raises(DegenerateP):
        preset_interval(1.0, 0.0, AssumptionSpec.zero())


@given(
    st.floats(-5, 5),
    st.floats(0.05, 0.95),
    st.floats(-5, 5),
)
@settings(max_examples=200, deadline=None)
def test_map_round_trip_and_recomposition(te, p, t0):
    tr = trace_from_trace0(te, p, t0)
    assert trace0_from_trace(te, p, tr) == pytest.approx(t0, abs=1e-9)
    assert tr * p + t0 * (1.0 - p) == pytest.approx(te, abs=1e-9)


# -- presets ------------------------------------------------------------------


def test_preset_shapes_positive_effect():
    te, p = 2.0, 0.5
    assert preset_interval(te, p, AssumptionSpec.zero()) == Interval(4.0, 4.0, BoundKind.PRESET_IMPLIED)
    assert preset_interval(te, p, AssumptionSpec.equal_effects()) == Interval(2.0, 2.0, BoundKind.PRESET_IMPLIED)
    sss = preset_interval(te, p, AssumptionSpec.same_sign_smaller())
    assert (sss.lo, sss.hi) == (2.0, 4.0)
    opp = preset_interval(te, p, AssumptionSpec.opposite_sign())
    assert opp.lo == 4.0 and math.isinf(opp.hi) and opp.hi > 0


def test_preset_shapes_negative_effect():
    te, p = -2.0, 0.5
    sss = preset_interval(te, p, AssumptionSpec.same_sign_smaller())
    assert (sss.lo, sss.hi) == (-4.0, -2.0)
    opp = preset_interval(te, p, AssumptionSpec.opposite_sign())
    assert math.isinf(opp.lo) and opp.lo < 0 and opp.hi == -4.0


def test_preset_sign_presets_need_nonzero_te():
    for spec in (AssumptionSpec.same_sign_smaller(), AssumptionSpec.opposite_sign()):
        with pytest.raises(SignUndefined):
            preset_interval(0.0, 0.5, spec)


def test_preset_point_and_interval_images():
    te, p = 2.0, 0.5
    pt = preset_interval(te, p, AssumptionSpec.point(1.0))
    assert pt.lo == pt.hi == pytest.approx(3.0)
    # the map is decreasing, so the interval image flips order
    iv = preset_interval(te, p, AssumptionSpec.interval(-1.0, 1.0))
    assert iv.lo == pytest.approx(3.0)
    assert iv.hi == pytest.approx(5.0)


def test_presets_collapse_when_everyone_reacts():
    te = 0.7
    for spec in (
        AssumptionSpec.zero(),
        AssumptionSpec.equal_effects(),
        AssumptionSpec.point(42.0),
        AssumptionSpec.interval(-5.0, 5.0),
    ):
        iv = preset_interval(te, 1.0, spec)
        assert iv.lo == pytest.approx(te)
        assert iv.hi == pytest.approx(te)


def _preset_by_replicate(te: float, p: float, spec: AssumptionSpec) -> tuple[float, float] | None:
    """One replicate's preset interval in plain float arithmetic, the
    per-replicate map, or None where it is undefined."""
    if not (0.0 < p <= 1.0):
        return None
    k = spec.kind
    if k is AssumptionKind.ZERO:
        return te / p, te / p
    if k is AssumptionKind.EQUAL_EFFECTS:
        return te, te
    if k in (AssumptionKind.SAME_SIGN_SMALLER, AssumptionKind.OPPOSITE_SIGN) and te == 0.0:
        return None
    if k is AssumptionKind.SAME_SIGN_SMALLER:
        return min(te, te / p), max(te, te / p)
    if k is AssumptionKind.OPPOSITE_SIGN:
        return (te / p, math.inf) if te > 0 else (-math.inf, te / p)
    if k is AssumptionKind.POINT:
        v = (te - spec.value * (1.0 - p)) / p
        return v, v
    a = (te - spec.lo * (1.0 - p)) / p
    b = (te - spec.hi * (1.0 - p)) / p
    return min(a, b), max(a, b)


_SPECS = st.one_of(
    st.sampled_from(
        [AssumptionSpec.zero(), AssumptionSpec.equal_effects(), AssumptionSpec.same_sign_smaller(), AssumptionSpec.opposite_sign()]
    ),
    st.sampled_from([-1.0, -0.0, 0.0, 2.5]).map(AssumptionSpec.point),
    st.tuples(st.sampled_from([-1.0, -0.0, 0.0]), st.sampled_from([0.0, 1.0])).map(lambda e: AssumptionSpec.interval(*e)),
    st.tuples(st.sampled_from([-2.0, 0.0]), st.sampled_from([0.0, 3.0])).map(lambda e: AssumptionSpec.grid(*e, 0.5)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    spec=_SPECS,
    reps=st.lists(
        st.tuples(
            st.sampled_from([math.nan, 0.0, -0.0, 1.5, -2.0]) | st.floats(-5, 5),
            st.sampled_from([math.nan, 0.0, 1.0, 1.5, 0.25]) | st.floats(1e-3, 1.0),
        ),
        min_size=1,
        max_size=40,
    ),
    level=st.sampled_from([0.5, 0.9, 0.95]),
)
def test_preset_band_from_arrays_equals_the_per_replicate_loop(spec, reps, level):
    te_r = np.array([te for te, _ in reps])
    p_r = np.array([p for _, p in reps])
    ends = [e for te, p in reps if np.isfinite(te) and (e := _preset_by_replicate(float(te), float(p), spec))]
    preset = Interval(0.0, 0.0, BoundKind.PRESET_IMPLIED)
    if ends:
        band = percentile_band([lo for lo, _ in ends], [hi for _, hi in ends], level)
        preset = Interval(band[0], band[0], BoundKind.PRESET_IMPLIED)  # inside the band
    got = _preset_ci(preset, spec, te_r, p_r, level)
    if not ends:
        assert got is preset
        return
    assert np.array([got.ci_lo, got.ci_hi]).tobytes() == np.array(band).tobytes()


def test_spec_validation():
    with pytest.raises(InvariantViolation):
        AssumptionSpec.point(float("nan"))
    with pytest.raises(InvariantViolation):
        AssumptionSpec.interval(1.0, 0.0)
    with pytest.raises(InvariantViolation):
        AssumptionSpec.grid(0.0, 1.0, 0.0)
    with pytest.raises(InvariantViolation):
        AssumptionSpec.point(float("inf"))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(kind=AssumptionKind.INTERVAL, lo=0.0), "INTERVAL assumption needs lo and hi"),
        (dict(kind=AssumptionKind.GRID, hi=1.0, step=0.5), "GRID assumption needs lo and hi"),
        (dict(kind=AssumptionKind.INTERVAL, lo=-math.inf, hi=0.0), "INTERVAL endpoints must be finite"),
        (dict(kind=AssumptionKind.GRID, lo=0.0, hi=math.nan, step=0.5), "GRID endpoints must be finite"),
    ],
    ids=["interval without hi", "grid without lo", "interval from -inf", "grid to nan"],
)
def test_an_interval_or_grid_needs_two_finite_ends(kwargs, message):
    with pytest.raises(InvariantViolation) as ei:
        AssumptionSpec(**kwargs)
    assert str(ei.value) == message


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_an_alternative_assumption_needs_a_finite_value(value):
    with pytest.raises(InvariantViolation) as ei:
        AltAssumption.y0_given_c(value)
    assert str(ei.value) == "assumed value must be finite"


# -- grids --------------------------------------------------------------------


def test_grid_values_exact_endpoints():
    vals = AssumptionSpec.grid(-1.0, 1.0, 0.1).grid_values()
    assert len(vals) == 21
    assert vals[0] == -1.0
    assert vals[-1] == 1.0
    assert max(abs(b - a) for a, b in zip(vals, vals[1:])) <= 0.1 + 1e-12


def test_grid_values_clamp_ragged_step():
    vals = AssumptionSpec.grid(0.0, 1.0, 0.3).grid_values()
    assert vals == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    assert vals[-1] == 1.0


def test_grid_values_single_step():
    assert AssumptionSpec.grid(0.0, 1.0, 1.0).grid_values() == [0.0, 1.0]


@pytest.mark.parametrize("step, steps", [(1e-320, "inf"), (1e-12, "1e+12"), (1.0 / 10_001, "10001")])
def test_grid_refuses_more_steps_than_the_cap(step, steps):
    # an infinite count once crashed in grid_values, after the whole bootstrap
    with pytest.raises(InvariantViolation, match=re.escape(f"GRID needs {steps} steps from lo to hi; at most 10000 are allowed")):
        AssumptionSpec.grid(0.0, 1.0, step)


@pytest.mark.parametrize("step", [math.inf, math.nan])
def test_grid_refuses_a_step_that_is_not_finite(step):
    # an infinite step once gave a one-row grid at hi, lo + 0 * inf being NaN
    with pytest.raises(InvariantViolation, match=re.escape(f"GRID needs a positive, finite step, got {step}")):
        AssumptionSpec.grid(-1.0, 1.0, step)


def test_grid_at_the_step_cap():
    assert len(AssumptionSpec.grid(0.0, 10_000.0, 1.0).grid_values()) == 10_001


def test_grid_values_only_for_grid():
    with pytest.raises(InvariantViolation):
        AssumptionSpec.interval(0.0, 1.0).grid_values()


# -- combining regions --------------------------------------------------------


def test_combined_anchor_case():
    data = Interval(-0.438, 0.397, BoundKind.NO_ASSUMPTION)
    preset = Interval(-0.59, -0.23, BoundKind.PRESET_IMPLIED)
    got = combined_region(data, preset)
    assert got.kind is BoundKind.COMBINED
    assert got.lo == pytest.approx(-0.438)
    assert got.hi == pytest.approx(-0.23)


def test_combined_disjoint_is_none():
    a = Interval(0.0, 1.0, BoundKind.NO_ASSUMPTION)
    b = Interval(2.0, 3.0, BoundKind.PRESET_IMPLIED)
    assert combined_region(a, b) is None


def test_combined_halfline_is_cut_by_data():
    data = Interval(1.0, 2.0, BoundKind.NO_ASSUMPTION)
    half = Interval(1.5, math.inf, BoundKind.PRESET_IMPLIED)
    got = combined_region(data, half)
    assert (got.lo, got.hi) == (1.5, 2.0)


def test_combined_carries_ci_intersection():
    a = Interval(0.0, 1.0, BoundKind.NO_ASSUMPTION, ci_lo=-0.5, ci_hi=1.5)
    b = Interval(0.5, 2.0, BoundKind.PRESET_IMPLIED, ci_lo=0.25, ci_hi=2.5)
    got = combined_region(a, b)
    assert (got.lo, got.hi) == (0.5, 1.0)
    assert (got.ci_lo, got.ci_hi) == (0.25, 1.5)
    # one side without a band drops the band
    c = Interval(0.5, 2.0, BoundKind.PRESET_IMPLIED)
    assert combined_region(a, c).ci_lo is None


@given(
    st.tuples(st.floats(-10, 10), st.floats(0, 5)),
    st.tuples(st.floats(-10, 10), st.floats(0, 5)),
)
@settings(max_examples=200, deadline=None)
def test_combined_is_commutative_and_nested(a_parts, b_parts):
    a = Interval(a_parts[0], a_parts[0] + a_parts[1], BoundKind.NO_ASSUMPTION)
    b = Interval(b_parts[0], b_parts[0] + b_parts[1], BoundKind.PRESET_IMPLIED)
    ab = combined_region(a, b)
    ba = combined_region(b, a)
    if ab is None:
        assert ba is None
        return
    assert (ab.lo, ab.hi) == (ba.lo, ba.hi)
    assert ab.lo >= a.lo and ab.lo >= b.lo
    assert ab.hi <= a.hi and ab.hi <= b.hi


# -- alternative assumption quantities ----------------------------------------


def test_alt_quantity_backout():
    # pool of four control non-reactors: two treatment-only reactors at 0.6,
    # two never-reactors at 1.4, so the pool mean is 1.0
    shares = StrataShares(at=0.6, c=0.2, nt=0.2)
    t0 = alt_quantity_to_trace0(
        mean_y1_m0=1.4,
        mean_y0_d0m0=1.0,
        shares=shares,
        assumed=AltAssumption.y0_given_c(0.6),
    )
    assert t0 == pytest.approx(0.0, abs=1e-12)
    # assuming the other component directly gives the same answer
    t0b = alt_quantity_to_trace0(1.4, 1.0, shares, AltAssumption.y0_given_nt(1.4))
    assert t0b == pytest.approx(0.0, abs=1e-12)


def test_alt_quantity_degenerate_shares():
    with pytest.raises(DegenerateShare):
        alt_quantity_to_trace0(1.0, 1.0, StrataShares(1.0, 0.0, 0.0), AltAssumption.y0_given_c(0.5))
    with pytest.raises(DegenerateShare):
        alt_quantity_to_trace0(1.0, 1.0, StrataShares(0.5, 0.5, 0.0), AltAssumption.y0_given_c(0.5))


def test_alt_quantity_warns_out_of_support():
    shares = StrataShares(at=0.6, c=0.2, nt=0.2)
    with pytest.warns(OutOfSupportWarning):
        alt_quantity_to_trace0(
            1.4, 1.0, shares, AltAssumption.y0_given_c(0.6), y_range=(0.0, 1.0)
        )


# -- the sensitivity curve ----------------------------------------------------


def test_curve_rows_follow_the_line(toy):
    spec = AssumptionSpec.grid(-3.0, 3.0, 1.5)
    curve = build_curve(toy, spec, boot=BootstrapConfig(replicates=200, seed=1))
    assert curve.te_hat == pytest.approx(1.0)
    assert curve.p_hat == pytest.approx(2.0 / 3.0)
    assert [r.trace0 for r in curve.rows] == pytest.approx([-3.0, -1.5, 0.0, 1.5, 3.0])
    assert [r.trace_hat for r in curve.rows] == pytest.approx([3.0, 2.25, 1.5, 0.75, 0.0])
    # the map is decreasing, trim bounds are [1, 2]
    assert [r.within_trim_bounds for r in curve.rows] == [False, False, True, False, False]
    for r in curve.rows:
        assert r.ci_lo <= r.ci_hi


def test_curve_is_deterministic(toy):
    spec = AssumptionSpec.grid(-1.0, 1.0, 0.5)
    a = build_curve(toy, spec, boot=BootstrapConfig(replicates=100, seed=7))
    b = build_curve(toy, spec, boot=BootstrapConfig(replicates=100, seed=7))
    assert a == b


def test_curve_zero_width_when_outcome_constant():
    ds = Dataset(y=[5.0] * 6, d=[1, 1, 1, 0, 0, 0], m=[1, 1, 1, 0, 0, 0])
    curve = build_curve(ds, AssumptionSpec.grid(-1.0, 1.0, 1.0), boot=BootstrapConfig(replicates=50, seed=0))
    for r in curve.rows:
        assert r.trace_hat == pytest.approx(0.0)
        assert r.ci_lo == pytest.approx(0.0)
        assert r.ci_hi == pytest.approx(0.0)


def test_curve_is_undefined_when_no_treated_unit_reacted():
    ds = Dataset(y=[1.0, 2.0, 3.0, 4.0], d=[1, 1, 0, 0], m=[0, 0, 1, 0])
    with pytest.raises(DegenerateP) as ei:
        build_curve(ds, AssumptionSpec.grid(-1.0, 1.0, 1.0), boot=BootstrapConfig(replicates=5, seed=0))
    assert str(ei.value) == "no treated unit reacted; the curve is undefined"


def test_a_curve_needs_one_usable_replicate():
    # each replicate fails on its own: te NaN, p NaN, p = 0
    trim = Interval(-1.0, 1.0, BoundKind.NO_ASSUMPTION)
    te_r, p_r = np.array([np.nan, 0.2, 0.2]), np.array([0.5, np.nan, 0.0])
    with pytest.raises(AllReplicatesFailed) as ei:
        curve_from_replicates(AssumptionSpec.grid(-1.0, 1.0, 1.0), 0.2, 0.5, trim, te_r, p_r, 0.95)
    assert str(ei.value) == "no bootstrap replicate produced a usable (te, p) pair"


def test_an_interval_without_a_finite_replicate_gets_no_band():
    iv = Interval(-1.0, 1.0, BoundKind.NO_ASSUMPTION)
    assert _with_band(iv, np.full(3, np.nan), np.full(3, np.nan), 0.95) is iv


def test_curve_needs_grid(toy):
    with pytest.raises(InvariantViolation):
        build_curve(toy, AssumptionSpec.zero())

