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
    # time, and the bounds gather the control arm's; the engine gathers none
    rng = np.random.default_rng(3)
    ds = Dataset(y=rng.normal(size=200), d=np.arange(200) % 2, m=rng.integers(0, 2, 200))
    weight, lengths = Dataset.weight, []
    monkeypatch.setattr(Dataset, "weight", property(lambda ds: _Gathers(weight.fget(ds), lengths)))
    trim, mt = full_sample_bounds(ds)
    assert isinstance(trim, Interval) and isinstance(mt, Interval)
    ReplicateEngine(ds, TEMethod.DIFF_IN_MEANS, BootstrapConfig(replicates=5, seed=1), True).run()
    assert lengths and max(lengths) <= ds.n_control < ds.n
