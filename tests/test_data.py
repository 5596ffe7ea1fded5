import contextlib
import math
import os
import stat
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracebounds.data as data_module

from tracebounds import (
    Dataset,
    load_csv,
    schema_for,
    write_csv,
)
from tracebounds.errors import (
    InvariantViolation,
    MissingBlockLabels,
    MissingColumn,
    ParseError,
)
from tracebounds.oracle import _M_TABLE, _STRATA, DGPConfig, OutcomeMeans, StrataProbs, simulate


def test_load_toy(toy):
    assert toy.n == 6
    assert toy.n_treated == 3
    assert toy.n_control == 3
    assert toy.m_observed_in_control
    assert toy.y.tolist() == [2.0, 3.0, 1.0, 0.0, 1.0, 2.0]
    assert toy.d.tolist() == [1, 1, 1, 0, 0, 0]
    assert toy.m.tolist() == [1.0, 1.0, 0.0, 1.0, 0.0, 0.0]
    assert toy.weight.tolist() == [1.0] * 6
    assert toy.block is None
    assert toy.covariate_names == ()


def test_arrays_are_read_only(toy):
    for arr in (toy.y, toy.d, toy.m, toy.weight):
        with pytest.raises(ValueError):
            arr[0] = 99


def test_round_trip(tmp_path, toy):
    out = tmp_path / "copy.csv"
    write_csv(toy, out)
    back = load_csv(out)
    np.testing.assert_array_equal(back.y, toy.y)
    np.testing.assert_array_equal(back.d, toy.d)
    np.testing.assert_array_equal(back.m, toy.m)
    np.testing.assert_array_equal(back.weight, toy.weight)


def test_round_trip_with_everything(tmp_path):
    ds = Dataset(
        y=[0.1234567890123456, -2.5, 3.0, 4.0],
        d=[1, 0, 1, 0],
        m=[1, 0, 0, float("nan")],
        x=[[1.0, 0.5], [0.0, -0.25], [2.0, 0.125], [1.5, 0.0]],
        block=["a", "a", "b", "b"],
        weight=[1.0, 2.0, 0.5, 1.5],
        covariate_names=["age", "score"],
    )
    out = tmp_path / "full.csv"
    write_csv(ds, out)
    back = load_csv(out, schema_for(ds))
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.d, ds.d)
    np.testing.assert_array_equal(back.m, ds.m)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.weight, ds.weight)
    assert back.block.tolist() == ds.block.tolist()
    assert back.covariate_names == ("age", "score")


def test_write_is_value_exact(tmp_path):
    # 17 significant digits round-trip any double exactly
    vals = [1 / 3, 0.1 + 0.2, 1e-17, -123456.789012345678]
    ds = Dataset(y=vals, d=[1, 0, 1, 0], m=[1, 0, 1, 0])
    out = tmp_path / "exact.csv"
    write_csv(ds, out)
    assert load_csv(out).y.tolist() == ds.y.tolist()


def _patch_chunk_write(monkeypatch, action):
    """Two-row chunks, and ``action`` before the writer writes its second
    chunk (the header is written first), through the real temporary file."""
    real = data_module.atomic_open

    @contextlib.contextmanager
    def opened(path):
        with real(path) as fh:
            writes = []

            class Handle:
                def write(self, text):
                    writes.append(text)
                    if len(writes) == 3:
                        action()
                    fh.write(text)

            yield Handle()

    monkeypatch.setattr(data_module, "atomic_open", opened)
    monkeypatch.setattr(data_module, "_CHUNK", 2)


def test_failed_write_keeps_target_and_leaves_no_temp_file(tmp_path, toy, monkeypatch):
    out = tmp_path / "copy.csv"
    out.write_text("old\n")

    def fail():
        raise RuntimeError("disk full")

    _patch_chunk_write(monkeypatch, fail)  # fails mid-write, after one chunk is written
    with pytest.raises(RuntimeError):
        write_csv(toy, out)
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["copy.csv"]


def test_writers_to_one_path_do_not_share_a_temp_file(tmp_path, toy, monkeypatch):
    out = tmp_path / "copy.csv"
    other = Dataset(y=[7.0, 8.0], d=[1, 0], m=[1, 0])
    started = []

    def second_writer():
        # a second writer to the same path completes while the first is mid-write
        if not started:
            started.append(True)
            write_csv(other, out)

    _patch_chunk_write(monkeypatch, second_writer)
    write_csv(toy, out)
    assert started
    np.testing.assert_array_equal(load_csv(out).y, toy.y)
    assert [p.name for p in tmp_path.iterdir()] == ["copy.csv"]


def test_written_file_gets_the_default_mode(tmp_path, toy):
    out = tmp_path / "copy.csv"
    write_csv(toy, out)
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_the_columns_of_a_take_are_read_only(toy):
    with_x = Dataset(y=[1.0, 2.0, 3.0, 4.0], d=[1, 1, 0, 0], m=[1, 0, 1, 0], x=[0.5, 1.5, 2.5, 3.5], block=["a", "b", "a", "b"])
    for ds in (toy, with_x):
        sub = ds.take([0, 1, 3, 3, 2])
        for resample in (sub, sub.take([4, 0, 2])):
            columns = [resample.y, resample.d, resample.m, resample.x, resample.weight]
            if resample.has_blocks:
                columns.append(resample.block_codes()[0])
            for column in columns:
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 1


def test_take(toy):
    sub = toy.take([0, 1, 3, 4])
    assert sub.n == 4
    assert sub.y.tolist() == [2.0, 3.0, 0.0, 1.0]
    assert sub.d.tolist() == [1, 1, 0, 0]
    # repeated indices are allowed, as the bootstrap requires
    rep = toy.take([0, 0, 0, 3])
    assert rep.y.tolist() == [2.0, 2.0, 2.0, 0.0]


def test_block_codes_number_blocks_in_order_of_first_appearance(toy):
    ds = Dataset(y=[0.0] * 5, d=[1, 0, 1, 0, 0], m=[1, 0, 0, 1, 0], block=["v", "u", "v", "w", "u"])
    codes, blocks = ds.block_codes()
    assert codes.tolist() == [0, 1, 0, 2, 1]
    assert blocks == ("v", "u", "w")
    assert ds.block.tolist() == ["v", "u", "v", "w", "u"]
    codes, blocks = ds.take([4, 3, 0, 4]).block_codes()  # a resample numbers its own blocks
    assert codes.tolist() == [0, 1, 2, 0]
    assert blocks == ("u", "w", "v")
    with pytest.raises(MissingBlockLabels):
        toy.block_codes()
    unlabelled = Dataset(y=[0.0] * 3, d=[1, 0, 0], m=[1, 0, 0], block=["a", None, "a"])
    with pytest.raises(MissingBlockLabels):
        unlabelled.block_codes()


# a missing label, an empty one, text beyond ASCII, and texts with a comma
# or a quote; drawn from few, so that labels repeat
_BLOCK_LABELS = st.sampled_from([None, "", "a", "b", "é", "名", "x,y", 'say "hi"', '"'])


def _numbering(labels: list) -> tuple[list[int], tuple]:
    """Codes and label table by first appearance, the rule of ``dict.fromkeys``."""
    table = tuple(dict.fromkeys(labels))
    return [table.index(b) for b in labels], table


def _assert_blocks(ds: Dataset, labels: list) -> None:
    assert ds.block.tolist() == labels
    if None in labels:
        with pytest.raises(MissingBlockLabels):
            ds.block_codes()
        return
    codes, table = ds.block_codes()
    assert (codes.tolist(), table) == _numbering(labels)
    assert codes.dtype == np.int32
    with pytest.raises(ValueError):
        codes[0] = 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_take_numbers_its_blocks_as_its_labels_would_be(tmp_path_factory, data):
    n = data.draw(st.integers(2, 10))
    one = data.draw(st.booleans())  # every unit in a single block
    labels = [data.draw(_BLOCK_LABELS)] * n if one else data.draw(st.lists(_BLOCK_LABELS, min_size=n, max_size=n))
    ds = Dataset(y=np.arange(n, dtype=float), d=[1, 0] * (n // 2) + [0] * (n % 2), m=[0] * n, block=labels)
    _assert_blocks(ds, labels)
    path = tmp_path_factory.mktemp("blocks") / "ds.csv"
    write_csv(ds, path)  # read back with an empty label as a missing one
    _assert_blocks(load_csv(path, schema_for(ds)), [b or None for b in labels])
    picks = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2 * n))  # repeated rows too
    try:
        resample = ds.take(picks)
    except InvariantViolation:  # the draw lost an arm
        return
    _assert_blocks(resample, [labels[i] for i in picks])
    _assert_blocks(resample.take(np.arange(resample.n)[::-1]), [labels[i] for i in picks[::-1]])


@st.composite
def _layout_cases(draw):
    """A dataset with tied outcomes and signed zeros, weights, m missing
    in the control arm as a whole or in part, and a control arm of one
    unit or more, its rows in any order."""
    n_treated = draw(st.integers(1, 8))
    n_control = draw(st.integers(1, 8))
    n = n_treated + n_control
    y = draw(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 2.5]) | st.floats(-3, 3), min_size=n, max_size=n))
    w = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=n, max_size=n))
    m_treated = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n_treated, max_size=n_treated))
    m_control = draw(st.lists(st.sampled_from([0.0, 1.0, math.nan]), min_size=n_control, max_size=n_control))
    rows = draw(st.permutations(range(n)))
    d = np.array([1] * n_treated + [0] * n_control)[rows]
    m = np.array(m_treated + m_control)[rows]
    return Dataset(y=y, d=d, m=m, weight=w)


def _assert_layout(ds: Dataset) -> None:
    order, a, b = ds.layout()
    treated = ds.d == 1
    t1 = np.flatnonzero(treated & (ds.m == 1))
    t0 = np.flatnonzero(treated & (ds.m == 0))
    control = np.flatnonzero(~treated)
    assert (a, b) == (t1.size, t1.size + t0.size)
    assert sorted(order.tolist()) == list(range(ds.n))
    assert order[:a].tolist() == t1.tolist()
    assert order[a:b].tolist() == t0.tolist()
    assert order[b:].tolist() == control[np.argsort(ds.y[control], kind="stable")].tolist()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ds=_layout_cases(), data=st.data())
def test_layout_lists_the_treated_by_reaction_then_the_control_arm_by_outcome(ds, data):
    _assert_layout(ds)
    assert ds.layout() is ds.layout()  # made once and kept
    assert not ds.layout()[0].flags.writeable
    picks = data.draw(st.lists(st.integers(0, ds.n - 1), min_size=2, max_size=2 * ds.n))
    try:
        resample = ds.take(picks)
    except InvariantViolation:  # the draw lost an arm
        return
    assert resample._layout is None  # a resample orders its own rows
    _assert_layout(resample)


@st.composite
def _chunked_cases(draw):
    """(dataset, chunk): a chunk of 1 to 8 rows and a dataset of a few
    chunks' length, one row either side of a multiple of it or on one,
    with y holding signed zeros, ties and magnitudes near overflow, and
    unit or given weights."""
    chunk = draw(st.integers(1, 8))
    n = max(2, chunk * draw(st.integers(1, 4)) + draw(st.integers(-1, 1)))
    codes = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4]), min_size=n, max_size=n).filter(
        lambda c: 0 < sum(v >= 3 for v in c) < len(c)))
    y = draw(st.lists(st.sampled_from([-0.0, 0.0, 2.5, 1e308, -1e308, 5e-324]) | st.floats(-1e300, 1e300), min_size=n, max_size=n))
    weight = draw(st.none() | st.lists(st.sampled_from([0.5, 1.0, 3.0]) | st.floats(1e-3, 1e3), min_size=n, max_size=n))
    d = [c // 3 for c in codes]
    m = [math.nan if c % 3 == 2 else c % 3 for c in codes]
    return Dataset(y=y, d=d, m=m, weight=weight), chunk


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_chunked_cases())
def test_the_cell_table_in_chunks_is_two_bincounts(case):
    ds, chunk = case
    codes, y = ds.cell_codes(), ds.y
    with np.errstate(over="ignore"):  # w * y may overflow, in both
        if ds.has_weights:
            w, wy = np.bincount(codes, ds.weight, 6), np.bincount(codes, ds.weight * y, 6)
        else:
            w, wy = np.bincount(codes, minlength=6).astype(np.float64), np.bincount(codes, y, 6)
        with mock.patch.object(data_module, "_CHUNK", chunk):
            table = ds.cells()
    assert np.array(table).tobytes() == np.array([w, wy]).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_chunked_cases())
def test_the_layout_in_chunks_is_int32_and_the_int64_argsort_order(case):
    ds, chunk = case
    codes = ds.cell_codes()
    control = np.flatnonzero(codes < 3)
    control = control[np.argsort(ds.y[control], kind="stable")]
    expect = np.concatenate([np.flatnonzero(codes == 4), np.flatnonzero(codes == 3), control])
    with mock.patch.object(data_module, "_CHUNK", chunk):
        order, a, b = ds.layout()
    assert order.dtype == np.int32
    np.testing.assert_array_equal(order, expect)
    assert (a, b) == (np.count_nonzero(codes == 4), np.count_nonzero(codes >= 3))


def _assert_cells(ds: Dataset, d: list, m: list) -> None:
    """``ds`` holds the assignments ``d`` and the indicators ``m`` (None
    for a missing m): d as int8, m as float64 with NaN exactly where m is
    missing and never a negative zero, and each cell code ``3 * d + m``
    with 2 for a missing m; all three read-only."""
    expect_m = np.array([math.nan if v is None else float(v) + 0.0 for v in m])  # + 0.0: -0.0 reads back as 0.0
    assert ds.d.dtype == np.int8 and ds.d.tolist() == d
    assert ds.m.dtype == np.float64
    np.testing.assert_array_equal(np.isnan(ds.m), [v is None for v in m])
    assert ds.m.tobytes() == expect_m.tobytes()
    assert ds.cell_codes().tolist() == [3 * dv + (2 if mv is None else int(mv)) for dv, mv in zip(d, m)]
    for column in (ds.d, ds.m, ds.cell_codes()):
        assert not column.flags.writeable


@st.composite
def _cell_cases(draw):
    """Assignments and indicators of a dataset with both arms: m may be a
    negative zero, and missing (as None or NaN) in the control arm."""
    n = draw(st.integers(2, 12))
    d = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n).filter(lambda d: 0 < sum(d) < len(d)))
    m = [draw(st.sampled_from([0.0, -0.0, 1.0] if dv else [0.0, -0.0, 1.0, None])) for dv in d]
    return d, m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_cell_cases(), nan_for_missing=st.booleans(), data=st.data())
def test_a_dataset_holds_its_cells_as_the_inputs_give_them(tmp_path_factory, case, nan_for_missing, data):
    d, m = case
    given_m = [math.nan if v is None and nan_for_missing else v for v in m]
    ds = Dataset(y=np.arange(len(d), dtype=float), d=np.array(d, dtype=data.draw(st.sampled_from(["i8", "f8", "?"]))), m=given_m)
    _assert_cells(ds, d, m)
    picks = data.draw(st.lists(st.integers(0, len(d) - 1), min_size=2, max_size=2 * len(d)))
    if 0 < sum(d[i] for i in picks) < len(picks):
        _assert_cells(ds.take(picks), [d[i] for i in picks], [m[i] for i in picks])

    # both routes of the reader: np.loadtxt's, and csv.reader's, which a refusing loadtxt leaves every chunk to
    path = tmp_path_factory.mktemp("cells") / "cells.csv"
    write_csv(Dataset(y=ds.y, d=d, m=given_m, block=[f"b{i % 2}" for i in range(len(d))]), path)
    _assert_cells(load_csv(path), d, m)
    _assert_cells(load_csv(path, {"block": "block"}), d, m)
    with mock.patch.object(data_module.np, "loadtxt", side_effect=ValueError("refused")):
        _assert_cells(load_csv(path), d, m)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_simulate_holds_the_cells_it_draws(seed):
    cfg = DGPConfig(n=500, strata=StrataProbs(at=0.2, c=0.3, nt=0.4, defier=0.1), means=OutcomeMeans(at=(0.0, 1.0), c=(0.0, 2.0), nt=(0.5, 0.5)), seed=seed)
    rng = np.random.default_rng(seed)  # simulate's first two draws: the stratum, then the assignment
    strata = rng.choice(4, size=cfg.n, p=cfg.strata.as_tuple())
    d = rng.integers(0, 2, size=cfg.n).tolist()
    m = [float(_M_TABLE[_STRATA[s]][dv]) for s, dv in zip(strata, d)]
    _assert_cells(simulate(cfg)[0], d, m)


def test_take_must_keep_both_arms(toy):
    with pytest.raises(InvariantViolation):
        toy.take([0, 1, 2])


ALTERNATING = dict(y=[1.0, 2.0, 3.0, 4.0], d=[1, 0, 1, 0], m=[1, 0, 0, 0])


@pytest.mark.parametrize(
    "indices",
    [
        [True, True, False, True],
        np.array([True, True, False, True]),
        [0.7, 1.0, 3.0],
        np.array([0.0, 1.0]),
        np.array(["0", "1"]),
        np.array([0, 1], dtype=object),
        [],
    ],
    ids=["bool list", "bool mask", "float list", "float array", "str", "object", "empty"],
)
def test_take_refuses_indices_that_are_not_integers(indices):
    # a mask is not read as the row numbers 1, 1, 0, 1, nor 0.7 truncated to row 0
    with pytest.raises(InvariantViolation, match="row indices must be integers"):
        Dataset(**ALTERNATING).take(indices)


@pytest.mark.parametrize(
    "indices",
    [[3, 0, 0], np.array([3, 0, 0], dtype=np.int8), np.array([3, 0, 0], dtype=np.uint64), (np.int64(3), 0, 0)],
    ids=["list", "int8", "uint64", "tuple of numpy and Python ints"],
)
def test_take_reads_integer_indices_of_any_type_as_row_numbers(indices):
    sub = Dataset(**ALTERNATING).take(indices)
    assert sub.y.tolist() == [4.0, 1.0, 1.0] and sub.d.tolist() == [0, 1, 1]


def test_take_of_no_row_is_refused():
    with pytest.raises(InvariantViolation, match="no treated unit"):
        Dataset(**ALTERNATING).take(np.array([], dtype=np.intp))


@pytest.mark.parametrize(
    "indices, message",
    [
        (np.array([[0, 1], [2, 3]]), "row indices must be a 1-D array, got a 2-D one"),
        (np.int64(1), "row indices must be a 1-D array, got a 0-D one"),
        ([0, 1, -1, -2], "row index -1 is outside [0, 4)"),
        ([3, 0, 4, 5], "row index 4 is outside [0, 4)"),
        (np.array([0, 1, 2**64 - 1], dtype=np.uint64), f"row index {2**64 - 1} is outside [0, 4)"),
        (np.array([-128, 0, 1], dtype=np.int8), "row index -128 is outside [0, 4)"),
    ],
    ids=["2-D", "0-D", "negative", "past the end", "uint64 past the end", "int8 negative"],
)
def test_take_refuses_indices_that_are_not_row_numbers(indices, message):
    # a negative index is not read from the end, and a 2-D one makes no dataset
    with pytest.raises(InvariantViolation) as info:
        Dataset(**ALTERNATING).take(indices)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(y=1.0, d=2, m=1),
        dict(y=float("nan"), d=1, m=1),
        dict(y=1.0, d=1, m=3),
        dict(y=1.0, d=1, m=1, weight=0.0),
        dict(y=1.0, d=1, m=1, weight=-1.0),
        dict(y=1.0, d=1, m=1, x=(float("inf"),)),
    ],
)
def test_unit_rejects_bad_fields(tmp_path, kwargs):
    # the bad unit follows two good ones: Dataset names its position, load_csv its row
    good = dict(x=(0.0,), weight=1.0)
    units = [dict(good, y=0.0, d=1, m=1), dict(good, y=0.0, d=0, m=0), dict(good, **kwargs)]
    columns = {f: [u[f] for u in units] for f in ("y", "d", "m", "x", "weight")}
    with pytest.raises(InvariantViolation) as ei:
        Dataset(**columns)
    assert ei.value.unit == 2
    assert str(ei.value).startswith("unit 2: ")

    p = tmp_path / "bad.csv"
    p.write_text("y,d,m,x1,w\n" + "".join(f"{u['y']},{u['d']},{u['m']},{u['x'][0]},{u['weight']}\n" for u in units))
    with pytest.raises(InvariantViolation) as ei:
        load_csv(p, {"covariates": ["x1"], "weight": "w"})
    assert ei.value.row == 3
    assert str(ei.value).startswith("row 3: ")


def test_dataset_rejects_empty():
    with pytest.raises(InvariantViolation):
        Dataset(y=[], d=[], m=[])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(x=np.float64(3.0)),
        dict(x=np.zeros((3, 2, 2))),
        dict(x=[1.0, 2.0]),
        dict(block="abc"),
    ],
    ids=["0-D covariates", "3-D covariates", "short covariate column", "block as one str"],
)
def test_dataset_rejects_malformed_covariates_and_blocks(kwargs):
    with pytest.raises(InvariantViolation, match="covariate" if "x" in kwargs else "block"):
        Dataset(y=[1.0, 2.0, 3.0], d=[1, 0, 1], m=[1, 0, 0], **kwargs)


@pytest.mark.parametrize(
    "columns, message",
    [
        (dict(y=[[1.0, 2.0, 3.0]]), "y must be one-dimensional"),
        (dict(d=[1, 0]), "d length does not match y"),
        (dict(m=[1, 0, 0, 1]), "m length does not match y"),
        (dict(weight=[1.0, 2.0]), "weight length does not match y"),
        (dict(x=np.zeros((3, 2)), covariate_names=["a"]), "covariate_names length does not match covariate columns"),
        (dict(block=["a", "b"]), "block length does not match y"),
    ],
    ids=["2-D y", "short d", "long m", "short weight", "one name for two covariates", "short block"],
)
def test_dataset_names_the_column_of_the_wrong_shape(columns, message):
    with pytest.raises(InvariantViolation) as ei:
        Dataset(**{**dict(y=[1.0, 2.0, 3.0], d=[1, 0, 1], m=[1, 0, 0]), **columns})
    assert str(ei.value) == message


def test_cell_codes_of_the_wrong_length_are_refused():
    with pytest.raises(InvariantViolation) as ei:
        Dataset._adopt(np.array([1.0, 2.0, 3.0]), None, None, codes=np.array([4, 0], np.int8))
    assert str(ei.value) == "cell codes length does not match y"


def test_an_empty_file_is_refused_for_its_missing_header(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"")
    with pytest.raises(ParseError) as ei:
        load_csv(path)
    assert (ei.value.row, ei.value.column) == (0, "")
    assert str(ei.value) == "row 0, column '': file is empty, a header row is required"


def test_dataset_requires_both_arms():
    with pytest.raises(InvariantViolation, match="control"):
        Dataset(y=[1.0, 2.0], d=[1, 1], m=[1, 0])
    with pytest.raises(InvariantViolation, match="treated"):
        Dataset(y=[1.0, 2.0], d=[0, 0], m=[1, 0])


def test_treated_m_must_be_observed():
    with pytest.raises(InvariantViolation, match="treated"):
        Dataset(y=[1.0, 2.0], d=[1, 0], m=[float("nan"), 0])


def test_m_must_be_binary_or_missing():
    with pytest.raises(InvariantViolation, match="0, 1 or missing"):
        Dataset(y=[1.0, 2.0, 3.0], d=[1, 0, 1], m=[1, 0.5, 0])


def test_control_m_may_be_missing():
    ds = Dataset(y=[1.0, 2.0, 3.0], d=[1, 0, 1], m=[1, float("nan"), 0])
    assert not ds.m_observed_in_control


def test_missing_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("y,d\n1,1\n2,0\n")
    with pytest.raises(MissingColumn, match="m"):
        load_csv(p)


def test_parse_error_locates_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("y,d,m\n1,1,1\noops,0,0\n")
    with pytest.raises(ParseError) as ei:
        load_csv(p)
    assert ei.value.row == 2
    assert ei.value.column == "y"


def test_load_rejects_nonbinary_d(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("y,d,m\n1,1,1\n2,7,0\n")
    with pytest.raises(InvariantViolation, match="row 2"):
        load_csv(p)


def test_load_tolerates_trailing_blank_line(tmp_path):
    p = tmp_path / "ok.csv"
    p.write_text("y,d,m\n1,1,1\n2,0,0\n\n")
    assert load_csv(p).n == 2


def test_empty_m_cell_means_missing(tmp_path):
    p = tmp_path / "ok.csv"
    p.write_text("y,d,m\n1,1,1\n2,0,\n")
    ds = load_csv(p)
    assert np.isnan(ds.m[1])
    assert not ds.m_observed_in_control


def test_schema_remaps_columns(tmp_path):
    p = tmp_path / "renamed.csv"
    p.write_text("outcome,arm,reacted,wt\n1,1,1,2\n2,0,0,1\n")
    ds = load_csv(p, {"y": "outcome", "d": "arm", "m": "reacted", "weight": "wt"})
    assert ds.y.tolist() == [1.0, 2.0]
    assert ds.weight.tolist() == [2.0, 1.0]

