import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebounds import (
    BoundKind,
    Dataset,
    Interval,
    Side,
    TrimSpec,
    brute_force_trim_extremes,
    dim_m1,
    mt_bounds,
    naive_estimates,
    no_assumption_bounds,
    trimmed_mean,
    type3_dim_bounds,
)
from tracebounds.bounds import _control_slices, _ordered_interval
from tracebounds.errors import (
    EmptyInput,
    InvariantViolation,
    NegativeControlMean,
    NoReactiveTreated,
    RequirementUnmet,
    ZeroFraction,
)

from conftest import make_random_dataset


# -- trimmed mean -------------------------------------------------------------


def test_trimmed_mean_halves():
    v = [0.0, 1.0, 2.0, 3.0]
    w = [1.0] * 4
    assert trimmed_mean(v, w, TrimSpec(0.5, Side.LOWEST)) == pytest.approx(0.5)
    assert trimmed_mean(v, w, TrimSpec(0.5, Side.HIGHEST)) == pytest.approx(2.5)


def test_trimmed_mean_full_fraction_is_plain_mean():
    v = [0.0, 1.0, 2.0, 3.0]
    w = [1.0] * 4
    assert trimmed_mean(v, w, TrimSpec(1.0, Side.LOWEST)) == pytest.approx(1.5)
    assert trimmed_mean(v, w, TrimSpec(1.0, Side.HIGHEST)) == pytest.approx(1.5)


def test_trimmed_mean_fractional_boundary_unit():
    # fraction 0.75 of total weight 2 needs 1.5: one full unit plus half the next
    v = [0.0, 10.0]
    w = [1.0, 1.0]
    assert trimmed_mean(v, w, TrimSpec(0.75, Side.LOWEST)) == pytest.approx(10.0 / 3.0)
    assert trimmed_mean(v, w, TrimSpec(0.75, Side.HIGHEST)) == pytest.approx(20.0 / 3.0)


def test_trimmed_mean_integer_weights_equal_replication():
    rng = np.random.default_rng(11)
    draws = [(rng.normal(size=8), rng.integers(1, 4, 8))]
    # runs of tied values, so a slice can end inside a run
    draws.append((rng.choice([-1.5, 0.0, 0.0, 2.5], 12), rng.integers(1, 4, 12)))
    for v, w in draws:
        rep = np.repeat(v, w)
        for frac in (0.25, 0.5, 0.8, 1.0):
            for side in Side:
                a = trimmed_mean(v, w.astype(float), TrimSpec(frac, side))
                b = trimmed_mean(rep, np.ones(rep.size), TrimSpec(frac, side))
                assert a == pytest.approx(b, abs=1e-12)


def test_trimmed_mean_matches_brute_force_on_integer_trims():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        v = np.round(rng.normal(size=n), 3)
        k = int(rng.integers(1, n + 1))
        low, high = brute_force_trim_extremes(v, k)
        f = k / n
        assert trimmed_mean(v, np.ones(n), TrimSpec(f, Side.LOWEST)) == pytest.approx(low, abs=1e-12)
        assert trimmed_mean(v, np.ones(n), TrimSpec(f, Side.HIGHEST)) == pytest.approx(high, abs=1e-12)


def test_trimmed_mean_errors():
    with pytest.raises(ZeroFraction):
        trimmed_mean([1.0], [1.0], TrimSpec(0.0, Side.LOWEST))
    with pytest.raises(EmptyInput):
        trimmed_mean([], [], TrimSpec(0.5, Side.LOWEST))
    with pytest.raises(InvariantViolation):
        TrimSpec(1.5, Side.LOWEST)
    with pytest.raises(InvariantViolation):
        trimmed_mean([1.0, 2.0], [1.0, 0.0], TrimSpec(0.5, Side.LOWEST))


@pytest.mark.parametrize(
    "values, weights",
    [([1.0, 2.0], [1.0]), ([[1.0, 2.0]], [[1.0, 1.0]])],
    ids=["unequal lengths", "2-D"],
)
def test_trimmed_mean_needs_two_vectors_of_one_length(values, weights):
    with pytest.raises(InvariantViolation) as ei:
        trimmed_mean(values, weights, TrimSpec(0.5, Side.LOWEST))
    assert str(ei.value) == "values and weights must be equal-length vectors"


@pytest.mark.parametrize(
    "values, weights",
    [
        ([1.0, math.nan, 3.0], [1.0, 1.0, 1.0]),
        ([1.0, math.inf, 3.0], [1.0, 1.0, 1.0]),
        ([1.0, -math.inf, 3.0], [1.0, 1.0, 1.0]),
        ([1.0, 2.0, 3.0], [1.0, math.inf, 1.0]),
    ],
    ids=["nan value", "inf value", "-inf value", "inf weight"],
)
@pytest.mark.parametrize("side", [Side.LOWEST, Side.HIGHEST])
def test_trimmed_mean_refuses_non_finite_values_and_weights(values, weights, side):
    # a NaN sorts last and would come back as the HIGHEST mean; an infinite weight warns
    with pytest.raises(InvariantViolation, match="values and weights must be finite"):
        trimmed_mean(values, weights, TrimSpec(0.5, side))


@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=12),
    st.floats(0.05, 1.0),
    st.floats(0.05, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_trimmed_mean_brackets_and_is_monotone(values, f1, f2):
    v = np.asarray(values)
    w = np.ones(v.size)
    full = float(v.mean())
    lo_f1 = trimmed_mean(v, w, TrimSpec(f1, Side.LOWEST))
    hi_f1 = trimmed_mean(v, w, TrimSpec(f1, Side.HIGHEST))
    assert lo_f1 <= full + 1e-9
    assert hi_f1 >= full - 1e-9
    fa, fb = sorted((f1, f2))
    # widening the lowest slice can only pull in larger values
    assert trimmed_mean(v, w, TrimSpec(fa, Side.LOWEST)) <= trimmed_mean(
        v, w, TrimSpec(fb, Side.LOWEST)
    ) + 1e-9
    assert trimmed_mean(v, w, TrimSpec(fa, Side.HIGHEST)) >= trimmed_mean(
        v, w, TrimSpec(fb, Side.HIGHEST)
    ) - 1e-9


# -- interval type ------------------------------------------------------------


# -- one layout shared by the trimming and monotone bounds ------------------


@st.composite
def _tied_control_arms(draw):
    """A dataset whose control arm has weighted ties and signed zeros, a
    share to trim at, and the arm's m = 0 pool: random, one unit, or the
    whole arm."""
    n = draw(st.integers(1, 14))
    y = draw(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 1.0, 2.5]) | st.floats(-3, 3), min_size=n, max_size=n))
    w = draw(st.lists(st.sampled_from([0.1, 0.5, 1.0, 1.5, 3.0]), min_size=n, max_size=n))
    pool = draw(st.sampled_from(["random", "one", "arm"]))
    if pool == "arm":
        m = [0.0] * n
    elif pool == "one":
        m = [1.0] * n
        m[draw(st.integers(0, n - 1))] = 0.0
    else:
        m = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    fraction = draw(st.sampled_from([1.0, 0.5, 1 / 3]) | st.floats(1e-6, 1.0))
    ds = Dataset(y=[7.0, *y], d=[1] + [0] * n, m=[1.0, *m], weight=[1.0, *w])
    return ds, fraction


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=_tied_control_arms())
def test_shared_orders_match_trimmed_mean(case):
    ds, fraction = case
    control = ds.d == 0
    cy, cw = ds.y[control], ds.weight[control]
    pool = ds.m[control] == 0
    populations = [(False, cy, cw)] + ([(True, cy[pool], cw[pool])] if pool.any() else [])
    for in_pool, y, w in populations:
        low, high = _control_slices(ds, fraction, pool=in_pool)
        assert low.hex() == trimmed_mean(y, w, TrimSpec(fraction, Side.LOWEST)).hex()
        assert high.hex() == trimmed_mean(y, w, TrimSpec(fraction, Side.HIGHEST)).hex()


def test_interval_invariants():
    iv = Interval(lo=0.0, hi=1.0, kind=BoundKind.NO_ASSUMPTION)
    assert iv.width == 1.0
    assert iv.contains(0.5) and not iv.contains(1.5)
    with pytest.raises(InvariantViolation):
        Interval(lo=1.0, hi=0.0, kind=BoundKind.NO_ASSUMPTION)
    with pytest.raises(InvariantViolation):
        Interval(lo=float("nan"), hi=0.0, kind=BoundKind.NO_ASSUMPTION)
    with pytest.raises(InvariantViolation):
        Interval(lo=0.0, hi=1.0, kind=BoundKind.NO_ASSUMPTION, ci_lo=0.1, ci_hi=1.1)


def test_interval_ci_ends_come_together():
    with pytest.raises(InvariantViolation) as ei:
        Interval(lo=0.0, hi=1.0, kind=BoundKind.NO_ASSUMPTION, ci_lo=-1.0)
    assert str(ei.value) == "ci endpoints must be present together"


def test_ordered_interval_collapses_noise_but_refuses_an_inversion():
    iv = _ordered_interval(1.0 + 1e-12, 1.0, BoundKind.MT)
    assert iv.lo == iv.hi == 0.5 * ((1.0 + 1e-12) + 1.0)
    with pytest.raises(InvariantViolation) as ei:
        _ordered_interval(2.0, 1.0, BoundKind.MT)
    assert str(ei.value) == "bound endpoints came out inverted: 2.0 > 1.0"


def test_interval_ci_clips_outward():
    iv = Interval(lo=0.0, hi=1.0, kind=BoundKind.NO_ASSUMPTION).with_ci(0.2, 1.3)
    assert iv.ci_lo == 0.0
    assert iv.ci_hi == 1.3


# -- no-assumption bounds -----------------------------------------------------


def test_no_assumption_toy(toy):
    iv = no_assumption_bounds(toy)
    # reactive treated mean 2.5; control slices of share 2/3:
    # lowest (0 + 1)/2 = 0.5, highest (2 + 1)/2 = 1.5
    assert iv.lo == pytest.approx(1.0, abs=1e-12)
    assert iv.hi == pytest.approx(2.0, abs=1e-12)
    assert iv.kind is BoundKind.NO_ASSUMPTION


def test_no_assumption_hand_case():
    ds = Dataset(
        y=[1.0, 1.0, 9.0, 9.0, -1.0, 0.0, 1.0, 2.0],
        d=[1, 1, 1, 1, 0, 0, 0, 0],
        m=[1, 1, 0, 0, float("nan")] + [float("nan")] * 3,
    )
    iv = no_assumption_bounds(ds)
    # reactive mean 1, share 1/2; control slices (-1+0)/2 and (1+2)/2
    assert iv.lo == pytest.approx(-0.5, abs=1e-12)
    assert iv.hi == pytest.approx(1.5, abs=1e-12)


def test_no_assumption_point_when_everyone_reacts():
    ds = Dataset(y=[0.0, 1.0, 0.5], d=[1, 1, 0], m=[1, 1, float("nan")])
    iv = no_assumption_bounds(ds)
    # share 1 trims nothing: both slices are the full control mean
    assert iv.lo == iv.hi == pytest.approx(0.0, abs=1e-12)


def test_no_assumption_requires_a_reactive_treated_unit():
    ds = Dataset(y=[1.0, 2.0], d=[1, 0], m=[0, float("nan")])
    with pytest.raises(NoReactiveTreated):
        no_assumption_bounds(ds)


def test_no_assumption_sharp_on_integer_trims():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n_c = int(rng.integers(2, 10))
        k = int(rng.integers(1, n_c + 1))
        cy = np.round(rng.normal(size=n_c), 3)
        # treated arm engineered so the reactive share is exactly k / n_c
        tm = np.array([1.0] * k + [0.0] * (n_c - k))
        ty = rng.normal(size=n_c)
        ds = Dataset(
            y=np.concatenate([ty, cy]),
            d=[1] * n_c + [0] * n_c,
            m=np.concatenate([tm, np.full(n_c, np.nan)]),
        )
        y1m1 = float(ty[:k].mean())
        low, high = brute_force_trim_extremes(cy, k)
        iv = no_assumption_bounds(ds)
        assert iv.lo == pytest.approx(y1m1 - high, abs=1e-12)
        assert iv.hi == pytest.approx(y1m1 - low, abs=1e-12)


# -- monotone-reaction bounds -------------------------------------------------


def _worked_example() -> Dataset:
    # treated: 4 of 5 react, reactive mean 3
    # control: 4 of 10 react with mean 2, the rest show {0, 0, 3, 3, 3, 3}
    return Dataset(
        y=[3.0, 3.0, 3.0, 3.0, 7.0] + [2.0] * 4 + [0.0, 0.0, 3.0, 3.0, 3.0, 3.0],
        d=[1] * 5 + [0] * 10,
        m=[1, 1, 1, 1, 0] + [1] * 4 + [0] * 6,
    )


def test_mt_worked_example():
    iv = mt_bounds(_worked_example())
    # alpha = 0.4 / 0.8 = 0.5, pi = 0.4 / 0.6 = 2/3
    # pool slice means: lowest (0+0+3+3)/4 = 1.5, highest 3.0
    # mixture: 0.5 * 2.0 + 0.5 * [1.5, 3.0] = [1.75, 2.5]
    assert iv.lo == pytest.approx(0.5, abs=1e-12)
    assert iv.hi == pytest.approx(1.25, abs=1e-12)
    assert iv.kind is BoundKind.MT


def test_mt_worked_example_pool_slices_are_subset_extremes():
    pool = np.array([0.0, 0.0, 3.0, 3.0, 3.0, 3.0])
    low, high = brute_force_trim_extremes(pool, 4)
    assert low == pytest.approx(1.5)
    assert high == pytest.approx(3.0)


def test_mt_reduces_to_no_assumption_when_no_control_reacts():
    rng = np.random.default_rng(14)
    for _ in range(10):
        ds = make_random_dataset(rng, p_ctrl_react=0.0)
        if ds is None or float(ds.m[ds.d == 1].sum()) == 0:
            continue
        na = no_assumption_bounds(ds)
        mt = mt_bounds(ds)
        assert mt.lo == pytest.approx(na.lo, abs=1e-12)
        assert mt.hi == pytest.approx(na.hi, abs=1e-12)


def test_mt_nested_in_no_assumption():
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 200:
        ds = make_random_dataset(rng, weighted=checked % 3 == 0)
        if ds is None:
            continue
        try:
            na = no_assumption_bounds(ds)
            mt = mt_bounds(ds)
        except Exception:
            continue
        checked += 1
        assert mt.lo >= na.lo - 1e-9
        assert mt.hi <= na.hi + 1e-9


def test_mt_requires_control_m():
    ds = Dataset(y=[1.0, 2.0], d=[1, 0], m=[1, float("nan")])
    for bound, name in [(mt_bounds, "mt_bounds"), (dim_m1, "dim")]:
        with pytest.raises(RequirementUnmet) as ei:
            bound(ds)
        assert str(ei.value) == f"{name} requires the reaction indicator to be observed in the control arm"


# -- reaction-gated outcome bounds --------------------------------------------


def test_dim_m1_toy(toy):
    assert dim_m1(toy) == pytest.approx(2.5)


def test_type3_bounds_from_published_cells():
    iv = type3_dim_bounds(0.2334, 0.1726)
    assert round(iv.lo, 4) == 0.0608
    assert round(iv.hi, 4) == 0.2334
    assert iv.kind is BoundKind.TYPE3_DIM


def test_type3_bounds_reject_negative_control_mean():
    with pytest.raises(NegativeControlMean):
        type3_dim_bounds(0.5, -0.1)


@pytest.mark.parametrize(
    "means, message",
    [((math.nan, 0.1), "mean_y_d1m1 must be finite, got nan"), ((0.5, math.inf), "mean_y_d0m1 must be finite, got inf")],
    ids=["NaN treated mean", "infinite control mean"],
)
def test_type3_bounds_need_finite_means(means, message):
    with pytest.raises(InvariantViolation) as ei:
        type3_dim_bounds(*means)
    assert str(ei.value) == message


# -- naive contrasts ----------------------------------------------------------


def test_naive_toy(toy):
    nv = naive_estimates(toy)
    assert nv.itt == pytest.approx(1.0)
    # pooled by m: mean(2,3,0) - mean(1,1,2)
    assert nv.as_treated == pytest.approx(1.0 / 3.0)
    assert nv.per_protocol == pytest.approx(1.0)
    assert nv.dim_m1 == pytest.approx(2.5)
    # itt over first-stage gap: 1 / (2/3 - 1/3)
    assert nv.wald_late == pytest.approx(3.0)


def test_naive_without_control_m():
    ds = Dataset(y=[1.0, 2.0, 0.0], d=[1, 1, 0], m=[1, 0, float("nan")])
    nv = naive_estimates(ds)
    assert nv.itt == pytest.approx(1.5)
    assert nv.as_treated is None
    assert nv.per_protocol is None
    assert nv.dim_m1 is None
    assert nv.wald_late is None


def test_naive_conditioning_bias():
    # reacting tags high-outcome units in both arms; assignment does nothing,
    # yet the post-treatment contrasts report a large positive effect
    ds = Dataset(
        y=[10.0, 0.0, 10.0, 0.0],
        d=[1, 1, 0, 0],
        m=[1, 0, 1, 0],
    )
    nv = naive_estimates(ds)
    assert nv.itt == pytest.approx(0.0)
    assert nv.as_treated == pytest.approx(10.0)
    assert nv.per_protocol == pytest.approx(10.0)
    assert nv.dim_m1 == pytest.approx(0.0)
    # zero first-stage gap leaves the instrumental ratio undefined
    assert nv.wald_late is None
