"""The count-based replicate engine of ``analyze`` against the per-``Dataset``
functions evaluated on ``Dataset.take`` of the same draw, replicate by
replicate. The draw is rebuilt here from the documented stream (Philox
keyed by (seed, r); n rows, or as many whole blocks in first-appearance
order), so a shifted stream in the engine shows.

NaN patterns must be identical. Values agree to a relative 1e-12 plus an
absolute 1e-12·max|y|: the engine adds count·w·y once per row while the
reference adds the drawn rows in draw order, and an endpoint near zero
(y1m1 minus a slice mean) cancels most of its digits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebounds import (
    BootstrapConfig,
    Dataset,
    ResampleUnit,
    Side,
    TEMethod,
    TrimSpec,
    estimate_p_m1,
    mt_bounds,
    no_assumption_bounds,
    te_point,
    trimmed_mean,
)
from tracebounds.bounds import _slice_means
from tracebounds.errors import RankDeficient, TraceBoundsError
from tracebounds.estimators import absorbed_wls
from tracebounds.resample import ReplicateEngine, _block_factors, _stacked_wls

_KINDS = ["plain", "weighted", "ties", "blocked", "no_control_m", "weak", "flat", "rare", "tiny"]


def _dataset(kind: str, seed: int) -> Dataset:
    """Two-arm data with a monotone full-sample first stage (but for
    ``tiny``). ``weighted`` has continuous weights, so weighted sums
    round; ``ties`` has integer outcomes in 0..3 with mixed weights
    and mixed m inside each tie; ``weak`` has a first stage of one unit,
    ``flat`` the same with one non-dyadic weight for every row (so two
    equal reaction rates can differ by an ulp), ``rare`` one treated
    reactor; ``tiny`` has 5 to 8 rows, so resamples
    lose an arm or draw only reactors. ``covariates`` (unweighted) and
    ``blocked_covariates`` (weighted, six blocks) add two covariates, the
    second within about 1e-3 of the first; so does ``uneven_blocks``
    (continuous weights), whose blocks of 1 to 12 rows include one all
    treated, one all control and one of a single unit. ``tiny`` gets none: its
    resamples are mostly exactly singular, and the rank verdict of a
    singular design rests on roundoff."""
    rng = np.random.default_rng(seed)
    if kind == "tiny":
        n = int(rng.integers(5, 9))
        d = rng.permutation(np.r_[1, 0, rng.integers(0, 2, n - 2)])
        m = rng.integers(0, 2, n).astype(float)
        return Dataset(y=rng.integers(-2, 4, n), d=d, m=m)
    half = int(rng.integers(40, 76)) if kind in ("weak", "flat") else int(rng.integers(15, 40))
    d = rng.permutation(np.repeat([1, 0], half))
    k1, k0 = round(0.6 * half), round(0.3 * half)
    if kind in ("weak", "flat"):
        k1 = round(0.45 * half)
        k0 = k1 - 1
    elif kind == "rare":
        k1, k0 = 1, 0
    m = np.zeros(2 * half)
    m[rng.choice(np.flatnonzero(d == 1), k1, replace=False)] = 1.0
    m[rng.choice(np.flatnonzero(d == 0), k0, replace=False)] = 1.0
    if kind == "ties":
        y = rng.integers(0, 4, 2 * half) + d * m
    else:
        y = np.round(rng.normal(0.0, 1.0, 2 * half) + d * m, 2)
    if kind == "no_control_m":
        m[d == 0] = np.nan
    weight = None
    if kind == "weighted":
        weight = rng.uniform(0.5, 2.0, 2 * half)
    elif kind in ("ties", "blocked", "blocked_covariates"):
        weight = rng.choice([0.5, 1.0, 1.5, 2.0], 2 * half)
    elif kind == "flat":
        weight = np.full(2 * half, rng.choice([0.1, 0.7, 1.3]))
    block = [f"b{j}" for j in rng.integers(0, 6, 2 * half)] if kind.startswith("blocked") else None
    if kind == "uneven_blocks":  # blocks of 1 to 12 rows in any order: 0 all treated, 1 all control, 2 one unit
        sizes = rng.integers(1, 13, 2 * half)
        sizes[2] = 1
        codes = rng.permutation(np.repeat(np.arange(sizes.size), sizes)[: 2 * half])
        d = np.where(codes == 0, 1, np.where(codes == 1, 0, d))
        block = [f"u{c}" for c in codes]
        weight = rng.uniform(0.5, 2.0, 2 * half)
    x = None
    if kind.endswith("covariates") or kind == "uneven_blocks":
        x1 = rng.normal(0.0, 1.0, 2 * half)
        x = np.column_stack([x1, x1 + rng.normal(0.0, 1e-3, 2 * half)])
        y = np.round(y + 0.5 * x1, 2)
    return Dataset(y=y, d=d, m=m, x=x, weight=weight, block=block)


def _draw(ds: Dataset, boot: BootstrapConfig, r: int) -> np.ndarray:
    if boot.resample_unit is ResampleUnit.ROW:
        size, rows = ds.n, None
    else:
        labels = list(dict.fromkeys(ds.block))
        size, rows = len(labels), [np.flatnonzero(ds.block == b) for b in labels]
    picks = np.random.Generator(np.random.Philox(key=(boot.seed << 64) | r)).integers(0, size, size)
    return picks if rows is None else np.concatenate([rows[j] for j in picks])


def _ends(iv) -> tuple[float, float]:
    return iv.lo, iv.hi


def _reference_row(ds: Dataset, idx: np.ndarray, te_method: TEMethod, with_mt: bool) -> list[float]:
    """Trim (lo, hi), (te, p) and mt (lo, hi) on ``ds.take(idx)``; a failure
    or a non-finite value blanks its own pair, a lost arm the whole row."""
    width = 6 if with_mt else 4
    try:
        sub = ds.take(idx)
    except TraceBoundsError:
        return [math.nan] * width
    parts = [
        lambda: _ends(no_assumption_bounds(sub)),
        lambda: (te_point(sub, te_method), estimate_p_m1(sub)),
    ]
    if with_mt:
        parts.append(lambda: _ends(mt_bounds(sub)))
    row = []
    for part in parts:
        try:
            a, b = part()
        except TraceBoundsError:
            a = b = math.nan
        row += (a, b) if math.isfinite(a) and math.isfinite(b) else (math.nan, math.nan)
    return row


def _compare(ds: Dataset, te_method: TEMethod, boot: BootstrapConfig) -> np.ndarray:
    """Engine rows, checked against the reference replicate by replicate."""
    try:
        mt_bounds(ds)
        with_mt = True
    except TraceBoundsError:
        with_mt = False
    got = ReplicateEngine(ds, te_method, boot, with_mt).run()
    want = np.array([_reference_row(ds, _draw(ds, boot, r), te_method, with_mt) for r in range(boot.replicates)])
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    ok = np.isfinite(want)
    scale = float(np.abs(ds.y).max())
    np.testing.assert_allclose(got[ok], want[ok], rtol=1e-12, atol=1e-12 * scale)
    return got


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(_KINDS),
    data_seed=st.integers(0, 2**32 - 1),
    boot_seed=st.integers(0, 2**64 - 1),
    replicates=st.integers(20, 50),
    te_method=st.sampled_from(list(TEMethod)),
    block_draws=st.booleans(),
)
def test_engine_matches_take_reference(kind, data_seed, boot_seed, replicates, te_method, block_draws):
    ds = _dataset(kind, data_seed)
    unit = ResampleUnit.BLOCK if kind == "blocked" and block_draws else ResampleUnit.ROW
    boot = BootstrapConfig(replicates=replicates, seed=boot_seed, resample_unit=unit)
    _compare(ds, te_method, boot)


@pytest.mark.parametrize(
    "kind, unit",
    [
        ("covariates", ResampleUnit.ROW),
        ("blocked_covariates", ResampleUnit.ROW),
        ("blocked_covariates", ResampleUnit.BLOCK),
        ("uneven_blocks", ResampleUnit.ROW),
        ("uneven_blocks", ResampleUnit.BLOCK),
    ],
)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data_seed=st.integers(0, 2**32 - 1), boot_seed=st.integers(0, 2**64 - 1), replicates=st.integers(20, 50))
def test_engine_regression_with_covariates_matches_take_reference(kind, unit, data_seed, boot_seed, replicates):
    # the absorbed regression of count-weighted rows, or under block draws the
    # stacked block factors, against the fit of the drawn rows
    ds = _dataset(kind, data_seed)
    boot = BootstrapConfig(replicates=replicates, seed=boot_seed, resample_unit=unit)
    _compare(ds, TEMethod.OLS_ADJUSTED, boot)


@pytest.mark.parametrize("te_method", list(TEMethod))
def test_toy_resamples_lose_arms_and_draw_only_reactors(toy, te_method):
    # the 6-row fixture: 3 treated (two reactors), 3 control (one reactor)
    got = _compare(toy, te_method, BootstrapConfig(replicates=300, seed=7))
    assert got.shape == (300, 6)
    lost = np.isnan(got).all(axis=1)
    assert lost.any()  # a resample without one arm blanks the row
    assert (got[~lost, 3] == 1.0).any()  # resamples that draw only reactors
    assert (got[~lost, 3] == 0.0).any()  # p = 0 blanks both bounds, not (te, p)
    assert np.isnan(got[got[:, 3] == 0.0][:, [0, 1, 4, 5]]).all()
    assert (np.isnan(got[:, 4]) & np.isfinite(got[:, 0])).any()  # mt fails alone


@pytest.mark.parametrize("seed", [34, 38])
def test_flat_weights_with_equal_reaction_rates(seed):
    # resamples whose two reaction rates are equal but come out an ulp
    # apart, so the treatment-only share of the m = 0 pool is ~1e-17
    ds = _dataset("flat", seed)
    _compare(ds, TEMethod.DIFF_IN_MEANS, BootstrapConfig(replicates=200, seed=seed))


@pytest.mark.parametrize("fraction", [1e-17, 1e-300, 0.3, 1.0])
def test_slice_means_match_trimmed_mean(fraction):
    ys = np.array([-1.0, 0.5, 0.5, 2.0, 3.25])
    ws = np.array([0.1, 0.7, 0.0, 1.3, 0.1])  # a zero weight: a row not drawn
    drawn = ws > 0
    want = [trimmed_mean(ys[drawn], ws[drawn], TrimSpec(fraction, side)) for side in (Side.LOWEST, Side.HIGHEST)]
    np.testing.assert_allclose(_slice_means(ys, ws, fraction), want, rtol=1e-12)


def _outcome(solve) -> tuple[str | None, float]:
    """(None, the coefficient), or (the message of the :class:`RankDeficient` it raises, NaN)."""
    try:
        return None, solve()
    except RankDeficient as exc:
        return str(exc), math.nan


def test_block_factor_solve_matches_absorbed_wls():
    # blocks of 1 to 6 rows (0 all treated, 1 all control), drawn 0 to several
    # times, few enough that some replicates cannot identify the coefficients
    # or draw only blocks of one arm
    seen = dict.fromkeys(["unequal sizes", "one-unit block", "undrawn block", "rank deficient", "solved"], 0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), weighted=st.booleans())
    def check(seed, k, weighted):
        rng = np.random.default_rng(seed)
        blocks = int(rng.integers(2, 7))
        sizes = rng.integers(1, 7, blocks)
        codes = rng.permutation(np.repeat(np.arange(blocks), sizes))
        n = codes.size
        d = np.where(codes == 0, 1.0, np.where(codes == 1, 0.0, rng.integers(0, 2, n)))
        X = np.column_stack([d, rng.normal(0.0, 1.0, (n, k - 1))])
        y = np.round(rng.normal(0.0, 1.0, n) + d + X[:, 1:].sum(axis=1), 2)
        w = rng.uniform(0.5, 2.0, n) if weighted else np.ones(n)
        factors = _block_factors(y, X, w if weighted else None, codes, np.bincount(codes))
        got, want = [], []
        for _ in range(40):
            drawn = np.bincount(rng.integers(0, blocks, blocks), minlength=blocks)
            rows = int(drawn @ sizes)  # the engine's unit_rows[picks].sum()
            got.append(_outcome(lambda: _stacked_wls(factors, drawn, rows)))
            want.append(_outcome(lambda: absorbed_wls(y, X, drawn[codes] * w, codes, rows)[0]))
            seen["undrawn block"] += not drawn.all()
        (got_why, got_te), (want_why, want_te) = zip(*got), zip(*want)
        assert got_why == want_why  # the same replicates fail, each for the same reason
        ok = np.array([why is None for why in want_why])
        np.testing.assert_allclose(np.array(got_te)[ok], np.array(want_te)[ok], rtol=1e-12, atol=1e-12 * float(np.abs(y).max()))
        seen["unequal sizes"] += len(set(sizes)) > 1
        seen["one-unit block"] += bool((sizes == 1).any())
        seen["rank deficient"] += int(np.count_nonzero(~ok))
        seen["solved"] += int(np.count_nonzero(ok))

    check()
    assert all(seen.values()), seen
