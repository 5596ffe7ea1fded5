import concurrent.futures
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebounds import (
    BootstrapConfig,
    Dataset,
    ResampleUnit,
    bootstrap_replicates,
    estimate_te_dim,
    percentile_ci,
)
from tracebounds.errors import (
    AllReplicatesFailed,
    InvariantViolation,
    MissingBlockLabels,
    TraceBoundsError,
)
from tracebounds.inference import _linear_quantile, percentile_band, replicate_draw


class ResampleFailure(TraceBoundsError):
    """Stands in for an estimator that cannot evaluate on a resample."""


def _te(ds: Dataset) -> float:
    return estimate_te_dim(ds).te_hat


def test_config_validation():
    with pytest.raises(InvariantViolation):
        BootstrapConfig(replicates=1)
    with pytest.raises(InvariantViolation):
        BootstrapConfig(level=1.0)
    with pytest.raises(InvariantViolation):
        BootstrapConfig(seed=-1)
    with pytest.raises(InvariantViolation):
        BootstrapConfig(seed=2**64)


@pytest.mark.parametrize(
    "kwargs",
    [dict(replicates=3.0), dict(replicates=True), dict(seed=1.5), dict(seed=False), dict(seed="7")],
    ids=["float replicates", "bool replicates", "float seed", "bool seed", "str seed"],
)
def test_config_refuses_counts_and_seeds_that_are_not_integers(kwargs):
    (name, value), = kwargs.items()
    with pytest.raises(InvariantViolation, match=f"{name} must be an integer, got {value!r}"):
        BootstrapConfig(**kwargs)


def test_config_takes_numpy_integers():
    cfg = BootstrapConfig(replicates=np.int32(50), seed=np.uint64(2**64 - 1))
    assert (cfg.replicates, cfg.seed) == (50, 2**64 - 1)


def test_constant_statistic_gives_point_interval(toy):
    res = percentile_ci(lambda ds: 3.25, toy, BootstrapConfig(replicates=50, seed=0))
    assert res.lo == res.hi == 3.25
    assert res.values.shape == (50,)
    # a resample can drop an arm on a 6-row dataset; those count as failed
    assert res.n_failed == int(np.isnan(res.values).sum())
    good = res.values[np.isfinite(res.values)]
    assert (good == 3.25).all()


def test_same_seed_bit_identical(toy):
    cfg = BootstrapConfig(replicates=200, seed=42)
    a = percentile_ci(_te, toy, cfg)
    b = percentile_ci(_te, toy, cfg)
    np.testing.assert_array_equal(a.values, b.values)
    assert (a.lo, a.hi) == (b.lo, b.hi)


def test_different_seeds_differ(toy):
    a = percentile_ci(_te, toy, BootstrapConfig(replicates=200, seed=1))
    b = percentile_ci(_te, toy, BootstrapConfig(replicates=200, seed=2))
    assert not np.array_equal(a.values, b.values)


def test_threads_do_not_change_values(toy):
    cfg = BootstrapConfig(replicates=300, seed=9)
    serial, _ = bootstrap_replicates(_te, toy, cfg, threads=1)
    quad, _ = bootstrap_replicates(_te, toy, cfg, threads=4)
    np.testing.assert_array_equal(serial, quad)


@pytest.mark.parametrize("threads", [True, 2.5, 0, -1, "2"])
def test_a_thread_count_below_one_or_not_an_integer_is_refused(toy, threads):
    cfg = BootstrapConfig(replicates=10, seed=1)
    with pytest.raises(InvariantViolation, match="thread"):
        bootstrap_replicates(_te, toy, cfg, threads=threads)
    with pytest.raises(InvariantViolation, match="thread"):
        percentile_ci(_te, toy, cfg, threads=threads)


def test_no_more_threads_start_than_there_are_replicates(toy, monkeypatch):
    # the pool is a stand-in that records its size and runs the replicates in turn
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    cfg = BootstrapConfig(replicates=3, seed=1)
    values, _ = bootstrap_replicates(_te, toy, cfg, threads=64)
    assert sizes == [3]
    np.testing.assert_array_equal(values, bootstrap_replicates(_te, toy, cfg)[0])


def test_interval_matches_reconstructed_replicate_stream(toy):
    # replay the documented per-replicate stream: Philox keyed by (seed, r),
    # n uniform row draws, linear quantiles over the surviving values
    cfg = BootstrapConfig(replicates=100, seed=13, level=0.9)
    res = percentile_ci(_te, toy, cfg)
    vals = []
    for r in range(cfg.replicates):
        rng = np.random.Generator(np.random.Philox(key=(13 << 64) | r))
        idx = rng.integers(0, toy.n, toy.n)
        try:
            vals.append(_te(toy.take(idx)))
        except Exception:
            continue
    lo, hi = np.quantile(np.asarray(vals), [0.05, 0.95], method="linear")
    assert res.lo == lo
    assert res.hi == hi
    assert res.n_failed == cfg.replicates - len(vals)


def test_failed_replicates_counted_not_retried(toy):
    calls = {"n": 0}

    def flaky(ds):
        calls["n"] += 1
        if calls["n"] == 1:
            return 0.0  # base run must succeed
        if calls["n"] % 3 == 0:
            raise ResampleFailure("boom")
        if calls["n"] % 5 == 0:
            return float("nan")
        return 1.0

    cfg = BootstrapConfig(replicates=60, seed=0)
    values, n_failed = bootstrap_replicates(flaky, toy, cfg)
    # at most one statistic call per replicate plus the base run: no retries
    assert calls["n"] <= cfg.replicates + 1
    assert n_failed == int(np.isnan(values[:, 0]).sum())
    assert n_failed > 0


def test_all_failed_raises(toy):
    def stat(ds):
        if ds is toy:
            return 0.0  # the base run sees the original object
        raise ResampleFailure("never works on resamples")

    with pytest.raises(AllReplicatesFailed):
        percentile_ci(stat, toy, BootstrapConfig(replicates=10, seed=0))


def test_base_run_failure_propagates(toy):
    def stat(ds):
        raise KeyError("bad statistic")

    with pytest.raises(KeyError):
        percentile_ci(stat, toy, BootstrapConfig(replicates=10, seed=0))


def test_vector_statistic_width(toy):
    cfg = BootstrapConfig(replicates=25, seed=3)
    values, n_failed = bootstrap_replicates(lambda ds: (1.0, 2.0, 3.0), toy, cfg)
    assert values.shape == (25, 3)
    assert n_failed == 0
    np.testing.assert_array_equal(values, np.tile([1.0, 2.0, 3.0], (25, 1)))


def test_block_resampling_draws_whole_blocks():
    ds = Dataset(
        y=np.arange(8.0),
        d=[1, 1, 0, 0, 1, 1, 0, 0],
        m=[1, 1, 0, 0, 1, 0, 0, 0],
        block=["a", "a", "b", "b", "c", "c", "d", "d"],
    )
    sizes = []

    def stat(sub: Dataset) -> float:
        sizes.append(sub.n)
        # within any resample, each block label appears a multiple of 2 times
        labels, counts = np.unique(sub.block, return_counts=True)
        assert (counts % 2 == 0).all()
        return 0.0

    cfg = BootstrapConfig(replicates=30, seed=5, resample_unit=ResampleUnit.BLOCK)
    bootstrap_replicates(stat, ds, cfg)
    # four blocks of two rows are drawn with replacement, so n is always 8
    assert set(sizes[1:]) == {8}


def test_block_resampling_needs_labels(toy):
    cfg = BootstrapConfig(replicates=10, seed=0, resample_unit=ResampleUnit.BLOCK)
    with pytest.raises(MissingBlockLabels):
        bootstrap_replicates(_te, toy, cfg)


def test_interval_brackets_replicate_range(toy):
    res = percentile_ci(_te, toy, BootstrapConfig(replicates=500, seed=11))
    good = res.values[np.isfinite(res.values)]
    assert res.lo <= res.hi
    assert good.min() <= res.lo
    assert res.hi <= good.max()


def test_nonfinite_entry_is_nan_alone_but_an_exception_blanks_the_row(toy):
    calls = {"n": 0}

    def stat(ds):
        calls["n"] += 1
        if calls["n"] == 1:
            return (1.0, 2.0, 3.0)  # base run
        if calls["n"] % 2:
            raise ResampleFailure("component failure")
        return (1.0, np.inf, 3.0)

    values, n_failed = bootstrap_replicates(stat, toy, BootstrapConfig(replicates=40, seed=2))
    blank = np.isnan(values).all(axis=1)
    kept = ~blank
    assert blank.any() and kept.any()
    np.testing.assert_array_equal(values[kept], np.tile([1.0, np.nan, 3.0], (int(kept.sum()), 1)))
    assert n_failed == int(blank.sum())


def test_programming_error_on_a_resample_propagates(toy):
    # only a TraceBoundsError counts as a failed replicate; a bug must surface
    def stat(ds):
        if ds is toy:
            return 0.0
        raise TypeError("bug in the statistic")

    with pytest.raises(TypeError):
        bootstrap_replicates(stat, toy, BootstrapConfig(replicates=10, seed=0))


def test_percentile_band_columns_match_one_column_at_a_time():
    # the curve takes one band per grid row from a (replicates x rows) matrix
    rng = np.random.default_rng(4)
    lo = rng.normal(size=(37, 6))
    hi = lo + rng.uniform(0.0, 1.0, size=lo.shape)
    lo[5, 1] = -np.inf  # half-lines keep their infinite end, column by column
    hi[9, 4] = np.inf
    ci_lo, ci_hi = percentile_band(lo, hi, 0.9)
    want = [percentile_band(lo[:, j], hi[:, j], 0.9) for j in range(lo.shape[1])]
    assert ci_lo.tolist() == [a for a, _ in want]
    assert ci_hi.tolist() == [b for _, b in want]
    assert ci_lo[1] == -np.inf and ci_hi[4] == np.inf
    assert np.isfinite(ci_lo[[0, 2, 3, 4, 5]]).all() and np.isfinite(ci_hi[[0, 1, 2, 3, 5]]).all()


# few distinct values, so that order statistics tie, and both infinities
_TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300, np.inf, -np.inf])
_QUANTILE_VALUES = _TIED | st.floats(-1e3, 1e3) | st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 30),
    columns=st.sampled_from([None, 1, 2, 5]),  # None: 1-D values
    q=st.sampled_from([0.0, 0.025, 0.05, 0.5, 0.95, 0.975, 1.0]) | st.floats(0.0, 1.0),
    data=st.data(),
)
def test_linear_quantile_is_numpys_bit_for_bit(rows, columns, q, data):
    shape = (rows,) if columns is None else (rows, columns)
    size = rows * (columns or 1)
    values = np.array(data.draw(st.lists(_QUANTILE_VALUES, min_size=size, max_size=size))).reshape(shape)
    with np.errstate(invalid="ignore", over="ignore"):  # infinities and the widest gaps, as in numpy
        got = _linear_quantile(values, q)
        want = np.quantile(values, q, axis=0, method="linear")
    assert np.shape(got) == np.shape(want)
    assert np.atleast_1d(got).view(np.uint64).tolist() == np.atleast_1d(want).view(np.uint64).tolist()


_DRAW_KEYS = [(seed, r) for seed in (0, 1, 13, 2**63 + 5, 2**64 - 1) for r in (0, 1, 2**40, 2**64 - 1)]


def _philox_draw(seed: int, r: int, size: int) -> np.ndarray:
    return np.random.Generator(np.random.Philox(key=(seed << 64) | r)).integers(0, size, size)


def test_replicate_draw_is_the_keyed_philox_stream():
    for size in (1, 7, 1000):
        for seed, r in _DRAW_KEYS:
            np.testing.assert_array_equal(replicate_draw(seed, r, size), _philox_draw(seed, r, size))


def test_replicate_draw_is_the_same_on_threads():
    # each thread resets its own generator, so interleaved draws do not mix
    # streams; more threads than cores and frequent switches interleave them
    jobs = [(seed, r, size) for seed, r in _DRAW_KEYS for size in (3, 500)] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda job: replicate_draw(*job), jobs))
    finally:
        sys.setswitchinterval(interval)
    for (seed, r, size), values in zip(jobs, got):
        np.testing.assert_array_equal(values, _philox_draw(seed, r, size))


def test_replicate_draw_takes_no_os_entropy(monkeypatch):
    want = [_philox_draw(seed, r, 50) for seed, r in _DRAW_KEYS]

    def no_entropy(n):
        raise AssertionError("OS entropy requested")

    # SeedSequence() without a seed gathers its entropy through random.SystemRandom
    monkeypatch.setattr(random, "_urandom", no_entropy)
    with pytest.raises(AssertionError):
        np.random.Philox(key=1)
    serial = [replicate_draw(seed, r, 50) for seed, r in _DRAW_KEYS]
    with ThreadPoolExecutor(max_workers=2) as pool:  # a new thread's first draw too
        threaded = list(pool.map(lambda key: replicate_draw(*key, 50), _DRAW_KEYS))
    for a, b, c in zip(serial, threaded, want):
        np.testing.assert_array_equal(a, c)
        np.testing.assert_array_equal(b, c)
