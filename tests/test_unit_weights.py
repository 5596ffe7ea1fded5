"""A dataset given no weights holds none, and reads every unit as weighing
1; it must agree bit for bit with the same units given ``weight=np.ones(n)``,
which holds the ones as a column. Checked on the dataset and on a take of
it, through every per-``Dataset`` function the CLI calls, the replicate
engine under row and block draws, and the bytes ``write_csv`` writes."""

import pathlib
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebounds import (
    AssumptionSpec,
    BootstrapConfig,
    Dataset,
    Interval,
    ResampleUnit,
    TEMethod,
    analyze,
    conditional_mean,
    estimate_p_m1,
    naive_estimates,
    strata_shares_monotone,
    te_point,
    write_csv,
)
from tracebounds.bounds import _slice_means
from tracebounds.errors import TraceBoundsError
from tracebounds.estimators import te_estimate
from tracebounds.resample import ReplicateEngine
from tracebounds.sensitivity import full_sample_bounds

_Y = [0.0, -0.0, 1.0, 2.5, -1.25, 0.1, 1 / 3, 1e-300, 7.0]


def _outcome(f, *args) -> tuple:
    """What ``f(*args)`` gives, as exact text (a float's repr round-trips),
    or the error it raises."""
    try:
        return ("value", repr(f(*args)))
    except TraceBoundsError as exc:
        return ("error", type(exc).__name__, str(exc))


def _cli_outcomes(ds: Dataset, boot_seed: int) -> list:
    """Every per-``Dataset`` result the four commands read off ``ds``."""
    got = [_outcome(f, ds) for f in (naive_estimates, full_sample_bounds, estimate_p_m1, strata_shares_monotone)]
    got += [_outcome(conditional_mean, ds, d, m) for d in (0, 1) for m in (0, 1)]
    for method in TEMethod:
        got += [_outcome(te_point, ds, method), _outcome(te_estimate, ds, method)]
        units = [ResampleUnit.ROW, ResampleUnit.BLOCK] if ds.has_blocks else [ResampleUnit.ROW]
        for unit in units:
            boot = BootstrapConfig(replicates=20, seed=boot_seed, resample_unit=unit)
            got.append(_outcome(analyze, ds, AssumptionSpec.zero(), method, boot))
            for with_mt in (False, True):
                got.append(_outcome(lambda: ReplicateEngine(ds, method, boot, with_mt).run().tobytes()))
    return got


def _written(ds: Dataset) -> bytes:
    with tempfile.TemporaryDirectory() as work:
        path = pathlib.Path(work) / "out.csv"
        write_csv(ds, path)
        return path.read_bytes()


@st.composite
def _units(draw):
    """Units and the rows of a take: outcomes that round when summed, with
    ties, signed zeros and tiny values among them, a missing m in the
    control arm, and a covariate and blocks when drawn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 60))
    d = rng.permutation(np.r_[1, 0, rng.integers(0, 2, n - 2)])
    m = rng.integers(0, 2, n).astype(float)
    if draw(st.booleans()):
        m[(d == 0) & (rng.random(n) < 0.3)] = np.nan
    y = np.where(rng.random(n) < 0.3, rng.choice(_Y, n), rng.normal(0.0, 3.0, n))
    x = rng.normal(size=n) if draw(st.booleans()) else None
    block = rng.choice(list("abc"), n).tolist() if draw(st.booleans()) else None
    idx = rng.integers(0, n, draw(st.integers(2, 2 * n)))
    idx[:2] = np.flatnonzero(d == 1)[0], np.flatnonzero(d == 0)[0]  # a take keeps both arms
    return dict(y=y, d=d, m=m, x=x, block=block), idx


@settings(max_examples=60, deadline=None, derandomize=True)
@given(units=_units(), boot_seed=st.integers(0, 2**64 - 1))
def test_no_weights_read_as_unit_weights_bit_for_bit(units, boot_seed):
    columns, idx = units
    plain = Dataset(**columns)
    ones = Dataset(**columns, weight=np.ones(len(columns["y"])))
    for a, b in [(plain, ones), (plain.take(idx), ones.take(idx))]:
        assert not a.has_weights and b.has_weights
        assert a.weight.tobytes() == b.weight.tobytes() and not a.weight.flags.writeable
        rows = a.layout()[0]
        assert a.weight[rows].tobytes() == b.weight[rows].tobytes()
        assert repr(a.cells()) == repr(b.cells())
        assert _cli_outcomes(a, boot_seed) == _cli_outcomes(b, boot_seed)
        assert _written(a) == _written(b)


class _Gathers:
    """Unit weights that allow only an index into them, and record the
    length of each array that an index makes (a slice makes none)."""

    def __init__(self, weight: np.ndarray, lengths: list):
        self._weight, self._lengths = weight, lengths

    def __getitem__(self, rows):
        got = self._weight[rows]
        if got.flags.owndata:
            self._lengths.append(got.size)
        return got


def test_the_engine_and_the_bounds_make_no_column_of_unit_weights(monkeypatch):
    # a dataset without weights: the cell table reads its weight a chunk at a
    # time, and the bounds and the engine read none, so nothing gathers the
    # weights
    rng = np.random.default_rng(3)
    ds = Dataset(y=rng.normal(size=200), d=np.arange(200) % 2, m=rng.integers(0, 2, 200))
    weight, lengths = Dataset.weight, []
    monkeypatch.setattr(Dataset, "weight", property(lambda ds: _Gathers(weight.fget(ds), lengths)))
    trim, mt = full_sample_bounds(ds)
    assert isinstance(trim, Interval) and isinstance(mt, Interval)
    ReplicateEngine(ds, TEMethod.DIFF_IN_MEANS, BootstrapConfig(replicates=5, seed=1), True).run()
    assert lengths == []


@st.composite
def _control_arms(draw):
    """Units whose control arm has 1 to 3000 units (up to 3007 for an
    integer target), its y continuous, rounded to a few values, mostly
    exact zeros, or zeros of both signs and 1e-300 among a few values; a
    treated arm whose reactive share is random, one that makes the
    trimmed count an exact integer, or 1; and a control m = 0 pool that
    is random, of one unit, or empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_c = draw(st.integers(1, 3000))
    share = draw(st.sampled_from(["random", "integer target", "one"]))
    if share == "integer target":  # a share of r / t with t dividing the control count, so p * n_c is an integer
        treated = draw(st.sampled_from([2, 4, 8]))
        n_c += -n_c % treated
        reactors = draw(st.integers(1, treated - 1))
    else:
        treated = draw(st.integers(1, 200))
        reactors = treated if share == "one" else draw(st.integers(1, treated))
    outcome = draw(st.sampled_from(["continuous", "rounded", "zeros", "signed zeros"]))
    if outcome == "continuous":
        y_c = rng.normal(0.0, 3.0, n_c)
    elif outcome == "rounded":
        y_c = np.round(rng.normal(0.0, 1.5, n_c)) / 4
    elif outcome == "zeros":
        y_c = np.where(rng.random(n_c) < 0.8, 0.0, rng.normal(0.5, 0.5, n_c))
    else:
        y_c = rng.choice([-0.0, 0.0, 0.0, 1e-300, -1.0, 1.5], n_c)
    m_t = rng.permutation(np.r_[np.ones(reactors), np.zeros(treated - reactors)])
    pool = draw(st.sampled_from(["random", "one", "empty"]))
    m_c = rng.integers(0, 2, n_c).astype(float) if pool == "random" else np.ones(n_c)
    if pool == "one":
        m_c[rng.integers(n_c)] = 0.0
    y = np.r_[y_c, rng.normal(1.0, 2.0, treated)]
    d = np.r_[np.zeros(n_c, int), np.ones(treated, int)]
    order = rng.permutation(y.size)
    return y[order], d[order], np.r_[m_c, m_t][order]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(units=_control_arms())
def test_unit_weight_bounds_make_no_layout_and_match_a_column_of_ones(units):
    # the unit-weight route sorts a copy of the arm's y; a column of ones takes
    # the layout and its running sum, and every endpoint must agree bit for bit
    y, d, m = units
    plain = Dataset(y, d, m)
    ones = Dataset(y, d, m, weight=np.ones(y.size))
    # each endpoint as its repr, which tells every float64 and the sign of a zero apart
    assert _outcome(full_sample_bounds, plain) == _outcome(full_sample_bounds, ones)
    assert plain._layout is None and ones._layout is not None
    # the kernel itself: None weighs every row 1, as a column of ones does, and
    # weights of stride 0 are read as the column they stand for
    ys, p = np.sort(y[d == 0], kind="stable"), estimate_p_m1(plain)
    assert _outcome(_slice_means, ys, None, p) == _outcome(_slice_means, ys, np.ones(ys.size), p)
    assert _outcome(_slice_means, ys, np.broadcast_to(2.0, ys.shape), p) == _outcome(_slice_means, ys, np.full(ys.size, 2.0), p)
