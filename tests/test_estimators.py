import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebounds import (
    BoundKind,
    Dataset,
    NaiveEstimates,
    Side,
    StrataShares,
    TEMethod,
    TrimSpec,
    arm_reaction_rate,
    conditional_mean,
    estimate_p_m1,
    estimate_te_dim,
    estimate_te_ols,
    moments_to_te,
    mt_bounds,
    naive_estimates,
    no_assumption_bounds,
    strata_shares_monotone,
    te_point,
    trimmed_mean,
    type3_dim_bounds,
)
from tracebounds.bounds import _ordered_interval, mt_interval
from tracebounds.errors import (
    EmptyCell,
    InvariantViolation,
    MissingM,
    MonotonicityViolatedEmpirically,
    NoReactiveTreated,
    OutOfRange,
    RankDeficient,
    RequirementUnmet,
    TraceBoundsError,
)
from tracebounds.estimators import shares_from_first_stage, te_estimate


def test_te_dim_toy(toy):
    est = estimate_te_dim(toy)
    # treated mean (2+3+1)/3 = 2, control mean (0+1+2)/3 = 1
    assert est.te_hat == 1.0
    assert est.se is None
    assert est.method is TEMethod.DIFF_IN_MEANS


def test_te_dim_weighted():
    ds = Dataset(y=[1.0, 3.0, 0.0, 2.0], d=[1, 1, 0, 0], m=[1, 1, 0, 0], weight=[1, 3, 1, 1])
    # treated (1*1 + 3*3)/4 = 2.5, control (0 + 2)/2 = 1
    assert estimate_te_dim(ds).te_hat == pytest.approx(1.5, abs=1e-15)


def test_p_m1_toy(toy):
    assert estimate_p_m1(toy) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_p_m1_weighted():
    ds = Dataset(y=[0.0, 0.0, 0.0, 1.0], d=[1, 1, 1, 0], m=[1, 1, 0, 0], weight=[1, 1, 2, 1])
    assert estimate_p_m1(ds) == pytest.approx(0.5, abs=1e-15)


# 31 treated units that all react, with weights whose dot product with m
# and whose sum round apart: m @ w / w.sum() is 1.0000000000000002
ALL_REACT_WEIGHTS = [
    1.8, 1.4, 0.6, 1.6, 1.4, 1.7, 1.3, 1.7, 2.0, 1.0, 0.8, 1.1, 1.6, 1.2, 1.4, 0.7,
    1.6, 0.9, 0.8, 1.8, 1.3, 1.2, 1.8, 0.6, 1.5, 1.0, 0.8, 1.5, 1.0, 1.0, 1.9,
]


def all_react_dataset(weights) -> Dataset:
    """Every treated unit reacts, and so does every control unit; the
    control weights repeat the treated ones."""
    k = len(weights)
    return Dataset(
        y=np.arange(2 * k, dtype=float),
        d=np.repeat([1, 0], k),
        m=np.ones(2 * k),
        weight=np.tile(weights, 2),
    )


def test_reaction_rates_of_all_reactors_stay_at_most_one():
    rng = np.random.default_rng(5)
    cases = [ALL_REACT_WEIGHTS] + [rng.uniform(0.5, 2.0, int(rng.integers(2, 40))) for _ in range(200)]
    for weights in cases:
        ds = all_react_dataset(weights)
        # rounding may still leave a rate an ulp below 1, never above
        assert 1.0 - 1e-15 <= estimate_p_m1(ds) <= 1.0
        shares = strata_shares_monotone(ds)
        assert 0.0 <= shares.nt <= 1e-15 and shares.at <= 1.0
        naive_estimates(ds)


def test_conditional_means_toy(toy):
    assert conditional_mean(toy, 1, 1) == pytest.approx(2.5)
    assert conditional_mean(toy, 1, 0) == pytest.approx(1.0)
    assert conditional_mean(toy, 0, 1) == pytest.approx(0.0)
    assert conditional_mean(toy, 0, 0) == pytest.approx(1.5)


def test_conditional_mean_errors():
    ds = Dataset(y=[1.0, 2.0, 3.0], d=[1, 1, 0], m=[1, 1, float("nan")])
    with pytest.raises(EmptyCell):
        conditional_mean(ds, 1, 0)
    with pytest.raises(MissingM):
        conditional_mean(ds, 0, 0)


def test_strata_shares_hand_case():
    # p1 = 0.8, p0 = 0.4: at = 0.4, c = 0.4, nt = 0.2
    ds = Dataset(
        y=np.zeros(10),
        d=[1] * 5 + [0] * 5,
        m=[1, 1, 1, 1, 0, 1, 1, 0, 0, 0],
    )
    s = strata_shares_monotone(ds)
    assert s.at == pytest.approx(0.4)
    assert s.c == pytest.approx(0.4)
    assert s.nt == pytest.approx(0.2)


def test_strata_shares_clips_float_noise_to_zero():
    # both arms react at rate 1/3, computed through different weight sums,
    # so the gap lands a few ulp below zero and must clip rather than raise
    ds = Dataset(
        y=np.zeros(6),
        d=[1, 1, 1, 0, 0, 0],
        m=[1, 0, 0, 1, 0, 0],
        weight=[1, 1, 1, 0.2, 0.3, 0.1],
    )
    s = strata_shares_monotone(ds)
    assert s.c == 0.0
    assert s.at == pytest.approx(1.0 / 3.0)


def test_strata_shares_rejects_real_violation():
    ds = Dataset(y=np.zeros(4), d=[1, 1, 0, 0], m=[0, 0, 1, 1])
    with pytest.raises(MonotonicityViolatedEmpirically):
        strata_shares_monotone(ds)


def test_strata_shares_need_control_m():
    ds = Dataset(y=[1.0, 2.0], d=[1, 0], m=[1, float("nan")])
    with pytest.raises(MissingM):
        strata_shares_monotone(ds)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_estimates_invariant_to_row_order(seed):
    rng = np.random.default_rng(seed)
    n = 20
    d = np.array([1] * 10 + [0] * 10)
    m = rng.integers(0, 2, n).astype(float)
    y = rng.normal(size=n)
    w = rng.uniform(0.5, 2.0, n)
    ds = Dataset(y=y, d=d, m=m, weight=w)
    perm = rng.permutation(n)
    ds2 = Dataset(y=y[perm], d=d[perm], m=m[perm], weight=w[perm])
    assert estimate_te_dim(ds2).te_hat == pytest.approx(estimate_te_dim(ds).te_hat, abs=1e-12)
    assert estimate_p_m1(ds2) == pytest.approx(estimate_p_m1(ds), abs=1e-12)


@given(st.floats(0.1, 10.0), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_estimates_invariant_to_weight_scale(scale, seed):
    rng = np.random.default_rng(seed)
    n = 16
    d = np.array([1] * 8 + [0] * 8)
    ds = Dataset(
        y=rng.normal(size=n),
        d=d,
        m=rng.integers(0, 2, n).astype(float),
        weight=rng.uniform(0.5, 2.0, n),
    )
    ds2 = Dataset(y=ds.y, d=ds.d, m=ds.m, weight=ds.weight * scale)
    assert estimate_te_dim(ds2).te_hat == pytest.approx(estimate_te_dim(ds).te_hat, rel=1e-12)
    assert estimate_p_m1(ds2) == pytest.approx(estimate_p_m1(ds), rel=1e-12)


# -- moment back-out ----------------------------------------------------------


def test_moments_no_effect():
    r1, r0, te = moments_to_te(0.5, 0.1, 0.5)
    assert r1 == pytest.approx(0.1)
    assert r0 == pytest.approx(0.1)
    assert te == pytest.approx(0.0, abs=1e-15)


def test_moments_hand_case():
    r1, r0, te = moments_to_te(0.3, 0.1, 0.6)
    assert r1 == pytest.approx(0.2)
    assert r0 == pytest.approx(0.04 / 0.7)
    assert te == pytest.approx(0.2 - 0.04 / 0.7)


def test_moments_against_population_enumeration():
    # population of 10000: 3000 treated, 1000 with y=1, 600 of those treated
    pop_n = 10_000
    n_t = 3_000
    n_y1 = 1_000
    n_y1_t = 600
    r1, r0, te = moments_to_te(n_t / pop_n, n_y1 / pop_n, n_y1_t / n_y1)
    assert r1 == pytest.approx(n_y1_t / n_t)                 # 600 / 3000
    assert r0 == pytest.approx((n_y1 - n_y1_t) / (pop_n - n_t))  # 400 / 7000
    assert te == pytest.approx(600 / 3000 - 400 / 7000)


def test_moments_rejects_impossible_rate():
    # implied Pr(y=1|d=1) = 0.9*0.5/0.3 = 1.5
    with pytest.raises(OutOfRange):
        moments_to_te(0.3, 0.5, 0.9)


def test_moments_reject_an_impossible_control_rate():
    # implied Pr(y=1|d=1) = 0.5*0.5/0.9, within [0, 1]; Pr(y=1|d=0) = 0.5*0.5/0.1 = 2.5
    with pytest.raises(OutOfRange) as ei:
        moments_to_te(0.9, 0.5, 0.5)
    assert str(ei.value) == "implied Pr(y=1|d=0)=2.5 falls outside [0, 1]"


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
def test_moments_rejects_boundary_inputs(bad):
    with pytest.raises(OutOfRange):
        moments_to_te(bad, 0.1, 0.5)


@pytest.mark.parametrize(
    "shares, message",
    [
        ((0.5, -0.1, 0.6), "share c must be nonnegative, got -0.1"),
        ((0.2, 0.3, 0.4), "shares must sum to 1, got 0.9"),
    ],
    ids=["negative share", "sum below 1"],
)
def test_strata_shares_are_refused_unless_a_distribution(shares, message):
    with pytest.raises(InvariantViolation) as ei:
        StrataShares(*shares)
    assert str(ei.value) == message


@pytest.mark.parametrize("d, m", [(2, 1), (1, -1), (0.5, 0)])
def test_conditional_mean_refuses_a_cell_index_other_than_0_or_1(toy, d, m):
    with pytest.raises(InvariantViolation) as ei:
        conditional_mean(toy, d, m)
    assert str(ei.value) == "cell indices must be 0 or 1"


# -- regression route ---------------------------------------------------------


def _random_regression_dataset(rng, n=40, k=2):
    d = (rng.random(n) < 0.5).astype(int)
    while d.sum() in (0, n):
        d = (rng.random(n) < 0.5).astype(int)
    x = rng.normal(size=(n, k))
    y = 1.0 + 0.7 * d + x @ rng.normal(size=k) + rng.normal(0, 0.3, n)
    w = rng.uniform(0.5, 2.0, n)
    m = np.where(d == 1, 1.0, 0.0)
    return Dataset(y=y, d=d, m=m, x=x, weight=w, covariate_names=[f"x{j}" for j in range(k)])


def test_ols_matches_dim_without_covariates():
    rng = np.random.default_rng(3)
    ds = _random_regression_dataset(rng)
    ols = estimate_te_ols(ds, use_covariates=False)
    dim = estimate_te_dim(ds)
    assert ols.te_hat == pytest.approx(dim.te_hat, abs=1e-10)
    assert ols.se is not None and ols.se > 0


def test_ols_recovers_exact_linear_model():
    rng = np.random.default_rng(4)
    n = 30
    d = np.array([1, 0] * 15)
    x = rng.normal(size=(n, 2))
    y = 2.0 + 0.45 * d + x @ np.array([1.5, -0.5])
    ds = Dataset(y=y, d=d, m=d.astype(float), x=x, covariate_names=["a", "b"])
    est = estimate_te_ols(ds)
    assert est.te_hat == pytest.approx(0.45, abs=1e-10)
    assert est.se == pytest.approx(0.0, abs=1e-7)


def test_ols_beta_matches_normal_equations():
    # independent slow route: weighted normal equations solved directly
    rng = np.random.default_rng(5)
    ds = _random_regression_dataset(rng)
    X = np.column_stack([np.ones(ds.n), ds.d.astype(float), ds.x])
    W = np.diag(ds.weight)
    beta = np.linalg.solve(X.T @ W @ X, X.T @ W @ ds.y)
    est = estimate_te_ols(ds)
    assert est.te_hat == pytest.approx(beta[1], abs=1e-9)


def test_ols_se_matches_dense_hc2():
    rng = np.random.default_rng(6)
    ds = _random_regression_dataset(rng)
    sw = np.sqrt(ds.weight)
    X = np.column_stack([np.ones(ds.n), ds.d.astype(float), ds.x]) * sw[:, None]
    y = ds.y * sw
    XtXi = np.linalg.inv(X.T @ X)
    beta = XtXi @ X.T @ y
    e = y - X @ beta
    h = np.einsum("ij,jk,ik->i", X, XtXi, X)
    meat = (X * (e**2 / (1.0 - h))[:, None]).T @ X
    V = XtXi @ meat @ XtXi
    est = estimate_te_ols(ds)
    assert est.se == pytest.approx(float(np.sqrt(V[1, 1])), rel=1e-9)


def test_ols_integer_weights_equal_row_replication():
    rng = np.random.default_rng(7)
    n = 20
    d = np.array([1, 0] * 10)
    x = rng.normal(size=(n, 1))
    y = rng.normal(size=n)
    w = rng.integers(1, 4, n)
    ds_w = Dataset(y=y, d=d, m=d.astype(float), x=x, weight=w.astype(float), covariate_names=["x0"])
    idx = np.repeat(np.arange(n), w)
    ds_r = Dataset(y=y[idx], d=d[idx], m=d[idx].astype(float), x=x[idx], covariate_names=["x0"])
    # coefficients agree under replication; robust SEs need not
    assert estimate_te_ols(ds_w).te_hat == pytest.approx(estimate_te_ols(ds_r).te_hat, abs=1e-10)
    assert estimate_te_dim(ds_w).te_hat == pytest.approx(estimate_te_dim(ds_r).te_hat, abs=1e-12)


def test_ols_block_dummies_absorb_block_shifts():
    rng = np.random.default_rng(8)
    n = 40
    d = np.array([1, 0] * 20)
    block = np.array(["u", "v"] * 10 + ["v", "u"] * 10)
    shift = np.where(block == "u", 0.0, 5.0)
    y = 0.3 * d + shift + rng.normal(0, 0.01, n)
    ds = Dataset(y=y, d=d, m=d.astype(float), block=block)
    est = estimate_te_ols(ds, use_covariates=False, use_block_fe=True)
    assert est.te_hat == pytest.approx(0.3, abs=0.02)


def _block_dummies(block) -> np.ndarray:
    """One indicator column per block label in first-appearance order,
    the first dropped (the intercept absorbs it)."""
    levels = list(dict.fromkeys(block))
    return np.column_stack([(block == lev).astype(float) for lev in levels[1:]])


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_ols_block_fe_matches_dense_dummy_regression(seed):
    # independent route: explicit intercept, assignment, covariates and
    # block dummies, with the HC2 sandwich from the dense inverse
    rng = np.random.default_rng(seed)
    n, k = 90, 2
    block = np.array([f"b{j}" for j in rng.permutation(np.arange(n) % 7)])
    d = rng.permutation(np.arange(n) % 2)
    x = rng.normal(size=(n, k))
    shift = rng.normal(0.0, 3.0, 7)[np.arange(n) % 7]
    y = 0.4 * d + x @ np.array([1.0, -2.0]) + shift + rng.normal(0.0, 0.5, n)
    w = rng.uniform(0.5, 2.0, n)
    ds = Dataset(y=y, d=d, m=d.astype(float), x=x, block=block, weight=w)
    sw = np.sqrt(w)
    X = np.column_stack([np.ones(n), d.astype(float), x, _block_dummies(block)]) * sw[:, None]
    ys = y * sw
    XtXi = np.linalg.inv(X.T @ X)
    beta = XtXi @ X.T @ ys
    e = ys - X @ beta
    h = np.einsum("ij,jk,ik->i", X, XtXi, X)
    V = XtXi @ ((X * (e**2 / (1.0 - h))[:, None]).T @ X) @ XtXi
    est = estimate_te_ols(ds, use_block_fe=True)
    assert est.te_hat == pytest.approx(beta[1], rel=1e-9)
    assert est.se == pytest.approx(float(np.sqrt(V[1, 1])), rel=1e-9)
    assert te_point(ds, TEMethod.OLS_ADJUSTED) == est.te_hat


def test_ols_rank_deficient():
    n = 10
    d = np.array([1, 0] * 5)
    x = d.astype(float).reshape(-1, 1)  # duplicates the assignment column
    ds = Dataset(y=np.arange(n, dtype=float), d=d, m=d.astype(float), x=x, covariate_names=["copy"])
    with pytest.raises(RankDeficient):
        estimate_te_ols(ds)


def test_te_point_dispatch(toy):
    assert te_point(toy, TEMethod.DIFF_IN_MEANS) == pytest.approx(1.0)
    assert te_point(toy, TEMethod.OLS_ADJUSTED) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("blocks", [False, True], ids=["one intercept", "block intercepts"])
@pytest.mark.parametrize("method", list(TEMethod), ids=lambda m: m.value)
def test_te_point_is_the_estimate_to_the_bit(method, blocks):
    rng = np.random.default_rng(7)
    n = 40
    d = rng.permutation(np.arange(n) % 2)
    ds = Dataset(
        y=rng.normal(size=n) + 0.5 * d,
        d=d,
        m=d.astype(float),
        x=rng.normal(size=(n, 2)),
        block=[f"b{j}" for j in np.arange(n) % 4] if blocks else None,
        weight=rng.uniform(0.5, 2.0, n),
    )
    assert te_point(ds, method).hex() == te_estimate(ds, method).te_hat.hex()


# -- remembered statistics against inline masks ------------------------------


def _ref_table(ds):
    """The weight and the weighted y-sum of each (d, m) cell, at 3 * d + m
    with m = 2 for a missing m, each unit added in row order."""
    w, s = [0.0] * 6, [0.0] * 6
    for y, d, m, wt in zip(ds.y.tolist(), ds.d.tolist(), ds.m.tolist(), ds.weight.tolist()):
        cell = 3 * d + (2 if np.isnan(m) else int(m))
        w[cell] += wt
        s[cell] += wt * y
    return w, s


def _ref_arm(ds, d):
    w, s = _ref_table(ds)
    if w[3 * d + 2] > 0:
        raise MissingM("reference")
    return w[3 * d :], s[3 * d :]


def _ref_rate(ds, d):
    w, _ = _ref_arm(ds, d)
    return w[1] / (w[0] + w[1])


def _ref_cell(ds, d, m):
    w, s = _ref_arm(ds, d)
    if w[m] == 0:
        raise EmptyCell("reference")
    return s[m] / w[m]


def _ref_te(ds):
    w, s = _ref_table(ds)
    return (s[3] + s[4] + s[5]) / (w[3] + w[4] + w[5]) - (s[0] + s[1] + s[2]) / (w[0] + w[1] + w[2])


def _ref_shares(ds):
    if not ds.m_observed_in_control:
        raise MissingM("reference")
    return shares_from_first_stage(_ref_rate(ds, 1), _ref_rate(ds, 0))


def _ref_trim(ds):
    p = _ref_rate(ds, 1)
    if p == 0.0:
        raise NoReactiveTreated("reference")
    y1m1 = _ref_cell(ds, 1, 1)
    control = ds.d == 0
    cy, cw = ds.y[control], ds.weight[control]
    low = trimmed_mean(cy, cw, TrimSpec(p, Side.LOWEST))
    high = trimmed_mean(cy, cw, TrimSpec(p, Side.HIGHEST))
    return _ordered_interval(float(y1m1 - high), float(y1m1 - low), BoundKind.NO_ASSUMPTION)


def _ref_mt(ds):
    if not ds.m_observed_in_control:
        raise RequirementUnmet("reference")
    shares = _ref_shares(ds)
    p1 = _ref_rate(ds, 1)
    if p1 == 0.0:
        raise NoReactiveTreated("reference")

    def pool_slices(pi):
        pool = (ds.d == 0) & (ds.m == 0)
        if not pool.any():
            raise EmptyCell("reference")
        py, pw = ds.y[pool], ds.weight[pool]
        return trimmed_mean(py, pw, TrimSpec(pi, Side.LOWEST)), trimmed_mean(py, pw, TrimSpec(pi, Side.HIGHEST))

    return mt_interval(_ref_cell(ds, 1, 1), p1, shares, lambda: _ref_cell(ds, 0, 1), pool_slices)


def _ref_naive(ds):
    def cells(a, b):
        try:
            return _ref_cell(ds, *a) - _ref_cell(ds, *b)
        except (EmptyCell, MissingM):
            return None

    itt = _ref_te(ds)
    as_treated = per_protocol = dim = wald = None
    if ds.m_observed_in_control:
        w, s = _ref_table(ds)
        if w[1] + w[4] > 0 and w[0] + w[3] > 0:
            as_treated = (s[1] + s[4]) / (w[1] + w[4]) - (s[0] + s[3]) / (w[0] + w[3])
        per_protocol = cells((1, 1), (0, 0))
        dim = cells((1, 1), (0, 1))
        p1, p0 = _ref_rate(ds, 1), _ref_rate(ds, 0)
        if p1 != p0:
            wald = itt / (p1 - p0)
    return NaiveEstimates(itt=itt, as_treated=as_treated, per_protocol=per_protocol, dim_m1=dim, wald_late=wald)


def _bits(value):
    """``value`` with every float as its hex text, so -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return _bits([getattr(value, f.name) for f in dataclasses.fields(value)])
    return value


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except TraceBoundsError as exc:
        return type(exc)


def _statistics(ds):
    """Every remembered statistic and every bound built on them, each by
    the package and by the inline reference."""
    pairs = [
        (estimate_p_m1, lambda d: _ref_rate(d, 1)),
        (lambda d: arm_reaction_rate(d, 0), lambda d: _ref_rate(d, 0)),
        (lambda d: estimate_te_dim(d).te_hat, _ref_te),
        (strata_shares_monotone, _ref_shares),
        (no_assumption_bounds, _ref_trim),
        (mt_bounds, _ref_mt),
        (lambda d: type3_dim_bounds(conditional_mean(d, 1, 1), conditional_mean(d, 0, 1)),
         lambda d: type3_dim_bounds(_ref_cell(d, 1, 1), _ref_cell(d, 0, 1))),
        (naive_estimates, _ref_naive),
        (lambda d: (d.n_treated, d.n_control), lambda d: (int((d.d == 1).sum()), int((d.d == 0).sum()))),
    ]
    pairs += [
        (lambda d, c=cell: conditional_mean(d, *c), lambda d, c=cell: _ref_cell(d, *c))
        for cell in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]
    return pairs


def _random_dataset(seed):
    """Tie-heavy weighted data with signed zeros; some draws leave a cell
    empty, miss m in control or break monotone reaction."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    d = rng.permutation(np.r_[1, 0, rng.integers(0, 2, n - 2)])
    m = (rng.random(n) < rng.choice([0.0, 0.3, 0.7, 1.0], 2)[d]).astype(float)
    if rng.random() < 0.2:
        m[(d == 0) & (rng.random(n) < 0.3)] = np.nan
    y = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0, 1 / 3], n) + np.round(rng.normal(size=n), 1) * rng.integers(0, 2)
    w = rng.choice([0.1, 0.5, 1.0, 1.5, 3.0], n) if rng.random() < 0.6 else None
    return Dataset(y=y, d=d, m=m, weight=w)


def _table_holds_python_floats(ds):
    """Whether the kept cell table, if any, is two lists of six Python
    floats (no ndarray, which would hold its memory for the dataset's
    lifetime)."""
    table = ds._cells
    return table is None or (
        type(table) is tuple
        and len(table) == 2
        and all(type(part) is list and len(part) == 6 and all(type(v) is float for v in part) for part in table)
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_remembered_statistics_match_inline_masks(seed):
    ds = _random_dataset(seed)
    pairs = _statistics(ds)
    for _ in range(2):  # the second pass reads the kept table
        for package, reference in pairs:
            assert _outcome(package, ds) == _outcome(reference, ds)
    assert ds._cells is not None and _table_holds_python_floats(ds), ds._cells

    # a resample starts with no table and never sees its parent's
    sub = ds.take(np.r_[np.flatnonzero(ds.d == 1)[:1], np.flatnonzero(ds.d == 0)[-1:], np.arange(ds.n)[::2]])
    assert sub._cells is None
    for package, reference in pairs:
        assert _outcome(package, sub) == _outcome(reference, sub)
    assert sub._cells is not ds._cells and _table_holds_python_floats(sub), sub._cells


def test_the_cell_table_adds_each_unit_in_row_order():
    for seed in range(200):
        ds = _random_dataset(seed)
        assert _bits(ds.cells()) == _bits(_ref_table(ds)), seed


def test_a_take_starts_with_no_table_and_the_arm_sizes_make_none():
    ds = _random_dataset(0)
    ds.cells()
    sub = ds.take(np.arange(ds.n)[::-1])
    assert sub._cells is None
    assert (sub.n_treated, sub.n_control) == (int((sub.d == 1).sum()), int((sub.d == 0).sum()))
    assert type(sub.n_treated) is int and type(sub.n_control) is int
    assert sub._cells is None
    assert estimate_te_dim(sub).te_hat.hex() == _ref_te(sub).hex()


def test_a_cell_error_raises_the_same_on_every_call():
    empty = Dataset(y=[1.0, 2.0, 3.0], d=[1, 0, 0], m=[1, 1, 1])
    missing = Dataset(y=[1.0, 2.0, 3.0], d=[1, 0, 0], m=[1, 0, np.nan])
    cases = (
        (empty, EmptyCell, (0, 0), "no units with d=0, m=0"),
        (missing, MissingM, (0, 1), "m is not observed for every unit with d=0"),
    )
    for ds, error, cell, message in cases:
        for _ in range(2):
            with pytest.raises(error) as ei:
                conditional_mean(ds, *cell)
            assert str(ei.value) == message
            estimate_te_dim(ds)  # the cell table is kept between the calls


def test_the_control_reaction_rate_needs_m_in_every_control_unit():
    ds = Dataset(y=[1, 2, 3, 4], d=[1, 1, 0, 0], m=[1, 0, np.nan, 1])
    for _ in range(2):
        with pytest.raises(MissingM) as ei:
            arm_reaction_rate(ds, 0)
        assert str(ei.value) == "m is not observed for every unit with d=0"
    assert arm_reaction_rate(ds, 1) == 0.5
    for d in (-1, 2):  # no arm, rather than an empty one or the last one
        with pytest.raises(InvariantViolation, match=f"arm must be 0 or 1, got {d}"):
            arm_reaction_rate(ds, d)


TREATED_Y = [1.0, 2.0, 3.0, 4.0]
CONTROL_Y = [0.5, 1.5, 2.5, 3.5]


@pytest.mark.parametrize(
    "control_m",
    [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, np.nan, 0]],
    ids=["every cell", "no control reactor", "m missing in control"],
)
def test_the_cell_table_is_built_once(control_m):
    # the statistics of `bounds --type3`, then every arm statistic and cell, in three orders
    statistics = [
        estimate_p_m1,
        estimate_te_dim,
        no_assumption_bounds,
        mt_bounds,
        naive_estimates,
        lambda d: type3_dim_bounds(conditional_mean(d, 1, 1), conditional_mean(d, 0, 1)),
        strata_shares_monotone,
        lambda d: (d.n_treated, d.n_control, d.m_observed_in_control),
        lambda d: arm_reaction_rate(d, 0),
        *(lambda x, c=c: conditional_mean(x, *c) for c in ((0, 0), (0, 1), (1, 0), (1, 1))),
    ]
    rng = np.random.default_rng(0)
    for order in (statistics, statistics[::-1], [statistics[i] for i in rng.permutation(len(statistics))]):
        ds = Dataset(y=TREATED_Y + CONTROL_Y, d=[1, 1, 1, 1, 0, 0, 0, 0], m=[1, 0, 1, 0, *control_m])
        tables = []
        for _ in range(2):
            for statistic in order:
                try:
                    statistic(ds)
                except TraceBoundsError:
                    pass
                tables.append(ds._cells)
        assert tables[0] is not None and all(table is tables[0] for table in tables)
