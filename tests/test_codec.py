"""The CSV codec: the exact bytes ``write_csv`` emits, the round trip
through ``load_csv``, and where ``load_csv`` says a bad cell is."""

import collections
import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebounds import Dataset, load_csv, schema_for, write_csv
from tracebounds import data as data_module
from tracebounds.errors import InvariantViolation, ParseError, TraceBoundsError

nan = math.nan

# -0.0 keeps its sign, integers below 1e16 print short and 1e16 itself in
# full, other reals at 17 significant digits; labels with a comma or a
# quote are quoted, and an empty label is an empty cell.
GOLDEN_DATASET = dict(
    y=[-0.0, 9999999999999998.0, 1e16, 0.1, 5e-324, 1 / 3, -2.718281828459045],
    d=[1, 0, 1, 0, 0, 1, 0],
    m=[1, nan, 0, 0, 1, 1, 1],
    x=[
        [0.1, -1.5],
        [5e-324, 2.0],
        [1 / 3, -0.0],
        [1e16, 9999999999999998.0],
        [-7.0, 1e-300],
        [123456789.12345679, 0.5],
        [2.0, -3.0],
    ],
    block=["a,b", 'say "hi"', None, "a,b", "", "c", 'say "hi"'],
    weight=[0.5, 1.25, 3.0, 1.0, 0.1, 2.0, 1.0],
    covariate_names=["age", "score"],
)

GOLDEN_CSV = "".join(
    line + "\r\n"
    for line in [
        "y,d,m,age,score,block,weight",
        '-0,1,1,0.10000000000000001,-1.5,"a,b",0.5',
        '9999999999999998,0,,4.9406564584124654e-324,2,"say ""hi""",1.25',
        "10000000000000000,1,0,0.33333333333333331,-0,,3",
        '0.10000000000000001,0,0,10000000000000000,9999999999999998,"a,b",1',
        "4.9406564584124654e-324,0,1,-7,1e-300,,0.10000000000000001",
        "0.33333333333333331,1,1,123456789.12345679,0.5,c,2",
        '-2.7182818284590451,0,1,2,-3,"say ""hi""",1',
    ]
)


def _assert_same(back: Dataset, ds: Dataset) -> None:
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(np.signbit(back.y), np.signbit(ds.y))  # -0.0 stays -0.0
    np.testing.assert_array_equal(np.signbit(back.x), np.signbit(ds.x))
    np.testing.assert_array_equal(back.d, ds.d)
    np.testing.assert_array_equal(back.m, ds.m)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.weight, ds.weight)
    assert back.covariate_names == ds.covariate_names
    if ds.block is None:
        assert back.block is None
    else:
        # an empty label is written as an empty cell, which reads back as no label
        assert back.block.tolist() == [b or None for b in ds.block]


def test_write_csv_golden_bytes(tmp_path):
    ds = Dataset(**GOLDEN_DATASET)
    out = tmp_path / "golden.csv"
    write_csv(ds, out)
    assert out.read_bytes() == GOLDEN_CSV.encode()
    _assert_same(load_csv(out, schema_for(ds)), ds)


def test_negative_zero_keeps_its_sign(tmp_path):
    ds = Dataset(y=[-0.0, 0.0, 1.0], d=[1, 0, 0], m=[1, 0, 0], x=[[0.0], [-0.0], [2.0]], covariate_names=["x"])
    out = tmp_path / "zeros.csv"
    write_csv(ds, out)
    assert out.read_text().splitlines() == ["y,d,m,x", "-0,1,1,0", "0,0,0,-0", "1,0,0,2"]
    back = load_csv(out, schema_for(ds))
    assert np.signbit(back.y).tolist() == [True, False, False]
    assert np.signbit(back.x[:, 0]).tolist() == [False, True, False]


_reals = st.floats(allow_nan=False, allow_infinity=False)
_labels = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), min_size=1, max_size=6)


@st.composite
def _datasets(draw):
    n = draw(st.integers(2, 12))
    d = [1, 0] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
    m = [draw(st.sampled_from([0.0, 1.0] if di else [0.0, 1.0, nan])) for di in d]
    k = draw(st.integers(0, 2))
    x = draw(st.lists(st.lists(_reals, min_size=k, max_size=k), min_size=n, max_size=n)) if k else None
    block = draw(st.none() | st.lists(st.none() | _labels, min_size=n, max_size=n))
    weight = draw(
        st.none()
        | st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), min_size=n, max_size=n)
    )
    return Dataset(
        y=draw(st.lists(_reals, min_size=n, max_size=n)),
        d=d,
        m=m,
        x=x,
        block=block,
        weight=weight,
        covariate_names=["x_a", "x_b"][:k] if k else None,
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ds=_datasets())
def test_round_trip_is_exact(tmp_path_factory, ds):
    out = tmp_path_factory.mktemp("codec") / "ds.csv"
    write_csv(ds, out)
    _assert_same(load_csv(out, schema_for(ds)), ds)


# -- the writer against csv.writer ------------------------------------------


def _reference_csv(ds: Dataset) -> bytes:
    """What ``write_csv`` writes, made one row at a time by ``csv.writer``."""
    schema = schema_for(ds)
    fmt = "%.17g".__mod__
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["y", "d", "m", *ds.covariate_names] + [c for c in ("block", "weight") if c in schema])
    for i in range(ds.n):
        m = ds.m[i]
        row = [fmt(ds.y[i]), str(ds.d[i]), "" if math.isnan(m) else str(int(m))]
        row += [fmt(v) for v in ds.x[i]]
        if "block" in schema:
            row.append(ds.block[i] or "")
        if "weight" in schema:
            row.append(fmt(ds.weight[i]))
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


# texts that csv.writer quotes (a comma, a quote, CR, LF), surrounding
# spaces it does not, text beyond ASCII, and texts that read as %-format
# specifiers, which the writer's row template must not take for its own
_TRICKY_TEXT = st.lists(
    st.sampled_from([",", '"', "\r", "\n", " ", "a", "é", "名", "\t", "#", "'", "%", "%s"]), max_size=5
).map("".join)
_TRICKY_REALS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 0.1, 1 / 3, 2.0**53 + 1, 1e16, 123456789.12345679]) | _reals
_TRICKY_WEIGHTS = st.sampled_from([1.0, 5e-324, 0.1, 1 / 3, 2.5, 1e300]) | st.floats(
    min_value=0.0, exclude_min=True, allow_infinity=False
)


@st.composite
def _tricky_datasets(draw):
    n = draw(st.integers(2, 12))
    d = draw(st.permutations([1, 0] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))))
    m = [draw(st.sampled_from([0.0, 1.0] if di else [0.0, 1.0, nan])) for di in d]
    k = draw(st.integers(0, 2))
    return Dataset(
        y=draw(st.lists(_TRICKY_REALS, min_size=n, max_size=n)),
        d=d,
        m=m,
        x=draw(st.lists(st.lists(_TRICKY_REALS, min_size=k, max_size=k), min_size=n, max_size=n)) if k else None,
        block=draw(st.none() | st.lists(st.none() | _TRICKY_TEXT, min_size=n, max_size=n)),
        weight=draw(st.none() | st.lists(_TRICKY_WEIGHTS, min_size=n, max_size=n)),
        covariate_names=draw(st.lists(_TRICKY_TEXT, min_size=k, max_size=k)) if k else None,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ds=_tricky_datasets(), chunk=st.integers(1, 13))
def test_writer_matches_csv_writer(tmp_path_factory, ds, chunk):
    # a small chunk puts row counts on both sides of a chunk boundary
    out = tmp_path_factory.mktemp("writer") / "ds.csv"
    header = ["y", "d", "m", *ds.covariate_names] + [c for c in ("block", "weight") if c in schema_for(ds)]
    if len(set(header)) < len(header):  # load_csv would misread the file, so none is written
        with pytest.raises(InvariantViolation):
            write_csv(ds, out)
        assert list(out.parent.iterdir()) == []
        return
    with mock.patch.object(data_module, "_CHUNK", chunk):
        write_csv(ds, out)
    assert out.read_bytes() == _reference_csv(ds)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_writer_matches_csv_writer_at_the_chunk_size(tmp_path, extra):
    n = data_module._CHUNK + extra
    rng = np.random.default_rng(n)
    d = np.arange(n) % 2
    m = np.where(d == 1, rng.integers(0, 2, n), rng.choice([0.0, 1.0, nan], n))
    labels = np.array(["a,b", 'q"', "", " s ", "é"], dtype=object)
    ds = Dataset(
        y=rng.normal(size=n), d=d, m=m, x=rng.normal(size=(n, 1)), block=labels[np.arange(n) % 5],
        weight=rng.uniform(0.5, 2.0, n), covariate_names=["x,1"],
    )
    out = tmp_path / "ds.csv"
    write_csv(ds, out)
    assert out.read_bytes() == _reference_csv(ds)


def _load_text(tmp_path, text, schema=None):
    p = tmp_path / "in.csv"
    p.write_text(text)
    return load_csv(p, schema)


def test_literal_nan_in_m_is_rejected(tmp_path):
    with pytest.raises(ParseError) as ei:
        _load_text(tmp_path, "y,d,m\n1,1,1\n2,0,nan\n")
    assert (ei.value.row, ei.value.column) == (2, "m")


def test_whitespace_only_m_is_missing(tmp_path):
    ds = _load_text(tmp_path, "y,d,m\n1,1,1\n2,0,  \n")
    assert np.isnan(ds.m[1])
    assert not ds.m_observed_in_control


def test_blank_line_mid_file_keeps_row_numbers(tmp_path):
    with pytest.raises(InvariantViolation) as ei:
        _load_text(tmp_path, "y,d,m\n1,1,1\n\n2,0,0\n3,7,0\n")
    assert ei.value.row == 4
    assert str(ei.value) == "row 4: d must be 0 or 1, got 7.0"
    with pytest.raises(ParseError) as ei:
        _load_text(tmp_path, "y,d,m\n1,1,1\n\n\nzap,0,0\n")
    assert (ei.value.row, ei.value.column) == (4, "y")


def test_short_row_names_its_column(tmp_path):
    with pytest.raises(ParseError, match="too few fields") as ei:
        _load_text(tmp_path, "y,d,m\n1,1,1\n2,0\n")
    assert (ei.value.row, ei.value.column) == (2, "m")


def test_first_bad_cell_of_a_row_is_named(tmp_path):
    # cells are checked in the order y, d, m, covariates, block, weight, whatever the file's order
    schema = {"covariates": ["x1"], "weight": "w"}
    for text, column in [
        ("y,d,m,x1,w\n1,1,1,0,1\n2,0,0,oops,-\n", "x1"),
        ("y,d,x1,m,w\n1,1,0,1,1\n2,0,oops,abc,1\n", "m"),
        ("w,x1,y,d,m\n1,0,1,1,1\n-,0,oops,0,0\n", "y"),
    ]:
        with pytest.raises(ParseError) as ei:
            _load_text(tmp_path, text, schema)
        assert (ei.value.row, ei.value.column) == (2, column), text


def test_covariate_inf_names_its_row(tmp_path):
    with pytest.raises(InvariantViolation, match="covariates must be finite, got inf") as ei:
        _load_text(tmp_path, "y,d,m,x1\n1,1,1,0\n2,0,0,0\n3,0,0,inf\n", {"covariates": ["x1"]})
    assert ei.value.row == 3


def test_treated_unit_without_m_names_its_row(tmp_path):
    with pytest.raises(InvariantViolation, match="treated") as ei:
        _load_text(tmp_path, "y,d,m\n1,1,1\n2,0,0\n3,1,\n")
    assert ei.value.row == 3


def test_first_offending_unit_is_named():
    with pytest.raises(InvariantViolation) as ei:
        Dataset(y=[0.0, 1.0, 2.0, 3.0], d=[1, 0, 5, 7], m=[1, 0, 0, 0])
    assert (ei.value.unit, str(ei.value)) == (2, "unit 2: d must be 0 or 1, got 5.0")
    x = [[0.0, 0.0], [0.0, -np.inf], [np.inf, 0.0], [0.0, 0.0]]
    with pytest.raises(InvariantViolation) as ei:
        Dataset(y=[0.0, 1.0, 2.0, 3.0], d=[1, 0, 1, 0], m=[1, 0, 0, 0], x=x)
    assert (ei.value.unit, str(ei.value)) == (1, "unit 1: covariates must be finite, got -inf")


def test_dataset_level_errors_carry_no_row(tmp_path):
    with pytest.raises(InvariantViolation, match="no control unit") as ei:
        _load_text(tmp_path, "y,d,m\n1,1,1\n2,1,0\n")
    assert (ei.value.unit, ei.value.row) == (None, None)


# -- the np.loadtxt route against the csv.reader route ----------------------

_GOOD_REALS = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g")) | st.sampled_from(
    ["0", "-0", "1", "2.5", "-1e-300", '"3"', " 4 ", "+.5", "1e3"]
)
# cells that float() or loadtxt may refuse, or that Dataset refuses once parsed
_ODD_REALS = st.sampled_from(
    ["", " ", "nan", "NaN", "inf", "-inf", "Infinity", "infinity", "1e400", "#2", "1_0", "0x10", "1d5", "abc",
     '"1,5"', '"1\n"', '"1\r\n"', '1"2', '"1"2', "\x1c1", "1\x1f", "\xa01", "١", "7"]
)
_UNUSED = st.sampled_from(
    ["", "x", "p q", '"a\nb"', '"a\r\nb"', '"a\rb"', '"p,q"', 'a"b', '"a""b"', '"a"b"c', '"', '"open', "#c", "\x00"]
)
# block labels as cells: quoted ones holding a comma, a quote, CR or LF,
# empty ones, text beyond ASCII, surrounding spaces, a quote inside an
# unquoted cell, labels longer than 16 characters and, rarely, a quoted
# blank line
_LABELS = ["a", "b", "c", '"a"', "", '""', " a ", '"x,y"', '"q""r"', '"l\nm"', '"l\r\nm"', '"c\rd"', "é名", '"é,名"']
_LABELS += ['a"b', '"a"b', "L" * 17, '"' + "long, label " * 4 + '"', "λ" * 40]
_LABEL_CELLS = st.sampled_from(_LABELS * 3 + ['"\n\n"', '"\r\n\r\n"'])

_ROLE_CELLS = {
    "y": _GOOD_REALS,
    "d": st.sampled_from(["0", "1"]),
    "m": st.sampled_from(["0", "1"]),
    "x1": _GOOD_REALS,
    "w": st.sampled_from(["1", "0.5", "2", "1e-3", '"1.25"']),
    "z": _UNUSED,
    "b": _LABEL_CELLS,
}


@st.composite
def _csv_texts(draw, block=False):
    """(text, schema): a header naming y, d, m, with ``block`` a block
    column b, and maybe a covariate x1, a weight w and an unused column z,
    in any order, then rows of well-formed cells; in a third of the
    files, odd cells, short and long rows, and blank and whitespace-only
    lines among them."""
    columns = ["y", "d", "m"] + ["b"] * block + [c for c in ("x1", "w", "z") if draw(st.booleans())]
    columns = draw(st.permutations(columns))
    schema = {"block": "b"} if block else {}
    if "x1" in columns:
        schema["covariates"] = ["x1"]
    if "w" in columns:
        schema["weight"] = "w"
    odd = draw(st.integers(0, 2)) == 0
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    lines = [",".join(columns) + draw(ends)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9)) if odd else 9
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "", " ", "\t", ","])) + draw(ends))
            continue
        cells = [
            draw(_ODD_REALS if odd and c not in "bz" and draw(st.integers(0, 5)) == 0 else _ROLE_CELLS[c]) for c in columns
        ]
        if kind == 1:
            cells = cells[: draw(st.integers(0, len(cells) - 1))]
        elif kind == 2:
            cells += draw(st.lists(_UNUSED, min_size=1, max_size=2))
        lines.append(",".join(cells) + draw(ends))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, schema


def _outcome(read, path, schema):
    """The arrays ``read`` returns, or the exception it raises."""
    try:
        ds = read(path, schema)
    except (TraceBoundsError, ValueError, csv.Error) as exc:
        return (type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None))
    return ds


def _read_rows(path, schema):
    """``load_csv`` with ``np.loadtxt`` refusing every chunk, so that each
    one is parsed by ``csv.reader`` and ``float``: the reference reader."""
    with mock.patch.object(data_module.np, "loadtxt", side_effect=ValueError("refused")):
        return load_csv(path, schema)


def _csv_route():
    """A spy on the csv.reader route of ``load_csv``, one call per chunk it parses."""
    return mock.patch.object(data_module, "_parse_rows", wraps=data_module._parse_rows)


def _assert_same_outcome(fast, rows):
    if isinstance(rows, tuple):
        assert fast == rows
        return
    assert isinstance(fast, Dataset), fast
    _assert_same(fast, rows)
    if rows.has_blocks:  # the same codes, in order of first appearance, and label table
        codes, labels = fast._blocks
        assert codes.dtype == np.int32 and labels == rows._blocks[1]
        np.testing.assert_array_equal(codes, rows._blocks[0])
    else:
        assert fast.block is None


def _check_reader_agreement(tmp_path_factory, block: bool, examples: int) -> None:
    """``load_csv`` against its csv.reader route alone on files of
    ``_csv_texts(block=block)``."""
    taken = []

    # a chunk of 1 to 13 rows puts the files' rows, and labels first seen and
    # seen again, on both sides of a chunk boundary
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(case=_csv_texts(block=block), chunk=st.integers(1, 13))
    def check(case, chunk):
        text, schema = case
        path = tmp_path_factory.mktemp("paths") / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        rows = _outcome(_read_rows, path, schema)
        with mock.patch.object(data_module, "_CHUNK", chunk), _csv_route() as csv_route:
            _assert_same_outcome(_outcome(load_csv, path, schema), rows)
        taken.append(not csv_route.called)

    check()
    # np.loadtxt reads every chunk of a fair share of the generated files, and
    # csv.reader parses a chunk of a fair share
    assert 0.2 < sum(taken) / len(taken) < 0.9


def test_loadtxt_path_matches_row_reader(tmp_path_factory):
    _check_reader_agreement(tmp_path_factory, block=False, examples=400)


def test_loadtxt_path_matches_row_reader_on_block_files(tmp_path_factory):
    _check_reader_agreement(tmp_path_factory, block=True, examples=300)


_ROLE_NAMES = {"y": "outcome", "d": "arm", "m": "reacted", "xa": "age", "xb": "score", "b": "site", "w": "wt", "z": "note"}
_ROLE_LABELS = st.sampled_from(["a", "b", "x,y", 'q"r', "", "é 名"])


@st.composite
def _role_files(draw):
    """(text, schema, expected): a file holding every role, two covariates
    among them, a block, a weight and an unused column, under a header in
    any order; the schema lists the covariates in the opposite order to
    the file's, and ``expected`` is the dataset built from the arrays the
    cells were written from."""
    n = draw(st.integers(2, 9))
    d = draw(st.permutations([1, 0] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))))
    values = {
        "y": draw(st.lists(_reals, min_size=n, max_size=n)),
        "d": d,
        "m": [draw(st.sampled_from([0.0, 1.0] if di else [0.0, 1.0, nan])) for di in d],
        "xa": draw(st.lists(_reals, min_size=n, max_size=n)),
        "xb": draw(st.lists(_reals, min_size=n, max_size=n)),
        "b": draw(st.lists(_ROLE_LABELS, min_size=n, max_size=n)),
        "w": draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)),
        "z": draw(st.lists(st.sampled_from(["", "p", "p,q"]), min_size=n, max_size=n)),
    }
    cells = {
        **{role: [format(v, ".17g") for v in values[role]] for role in ("y", "xa", "xb", "w")},
        "d": [str(v) for v in d],
        "m": ["" if math.isnan(v) else str(int(v)) for v in values["m"]],
        "b": values["b"],
        "z": values["z"],
    }
    order = draw(st.permutations(list(_ROLE_NAMES)))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow([_ROLE_NAMES[role] for role in order])
    writer.writerows(zip(*(cells[role] for role in order)))
    covariates = sorted(["xa", "xb"], key=order.index, reverse=True)
    schema = {role: _ROLE_NAMES[role] for role in ("y", "d", "m")}
    schema.update(covariates=[_ROLE_NAMES[c] for c in covariates], block="site", weight="wt")
    expected = Dataset(
        y=values["y"], d=d, m=values["m"], x=np.column_stack([values[c] for c in covariates]),
        block=[label or None for label in values["b"]], weight=values["w"], covariate_names=schema["covariates"],
    )
    return buf.getvalue(), schema, expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_role_files())
def test_both_routes_read_each_role_from_its_named_column(tmp_path_factory, case):
    # the agreement tests above compare one route with the other, so a
    # column mapping that both got wrong would pass them
    text, schema, expected = case
    path = tmp_path_factory.mktemp("roles") / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    for read in (load_csv, _read_rows):
        _assert_same_outcome(read(path, schema), expected)


_PATH_CASES = {
    "quoted numbers": ('y,d,m\n"1.5",1,"1"\n" 2 ",0,0\n', None),
    "quoted newline in an unused column": ('y,z,d,m\n1,"a\nb",1,1\n2,"c\r\nd",0,0\n', None),
    "extra fields": ("y,d,m\n1,1,1,9,9\n2,0,0\n", None),
    "short row": ("y,d,m\n1,1,1\n2,0\n", None),
    "blank lines": ("y,d,m\n\n1,1,1\n\n\n2,0,0\n\n", None),
    "whitespace-only line": ("y,d,m\n1,1,1\n  \n2,0,0\n", None),
    "bare CR": ("y,d,m\r1,1,1\r\r2,0,0\r", None),
    "CRLF": ("y,d,m\r\n1,1,1\r\n\r\n2,0,0\r\n", None),
    "blank m": ("y,d,m\n1,1,1\n2,0,\n", None),
    "literal nan m": ("y,d,m\n1,1,1\n2,0,nan\n", None),
    "inf y": ("y,d,m\n1,1,1\ninf,0,0\n", None),
    "infinity y": ("y,d,m\n1,1,1\n-Infinity,0,0\n", None),
    "hash": ("y,d,m\n1,1,1\n#2,0,0\n", None),
    "underscore": ("y,d,m\n1_0,1,1\n2,0,0\n", None),
    "information separator": ("y,d,m\n\x1c1,1,1\n2,0,0\n", None),
    "negative zero": ("y,d,m,x1\n-0,1,1,-0\n2,0,0,0\n", {"covariates": ["x1"]}),
    "17 digits": ("y,d,m\n0.10000000000000001,1,1\n-2.7182818284590451,0,0\n", None),
    "covariates and weights": (
        "w,x1,y,d,m,x2\n0.5,1,2,1,1,3\n2,-1,0,0,0,1e-300\n",
        {"covariates": ["x1", "x2"], "weight": "w"},
    ),
    "bad weight": ("y,d,m,w\n1,1,1,0\n2,0,0,1\n", {"weight": "w"}),
    "one arm": ("y,d,m\n1,1,1\n2,1,0\n", None),
    "header only": ("y,d,m\n", None),
    "header only without a line end": ("y,d,m", None),
    "invalid UTF-8 in a data row": (b"y,d,m\n1,1,1\n\xff2,0,0\n", None),
    "block labels": ('y,b,d,m\n1,"x,y",1,1\n2,,0,0\n3,"q""r",0,1\n4,' + "λ" * 40 + ',1,0\n5,"x,y",0,0\n', {"block": "b"}),
    "a block label holding a blank line": ('y,d,m,b\n1,1,1,"\n\n"\n2,0,0,q\n', {"block": "b"}),
    "a blank line and a label holding a line end": ('y,d,m,b\n1,1,1,"l\nm"\n\n2,0,0,q\n', {"block": "b"}),
}


@pytest.mark.parametrize("name", list(_PATH_CASES))
def test_loadtxt_path_matches_row_reader_on_listed_cases(tmp_path, name):
    text, schema = _PATH_CASES[name]
    path = tmp_path / "in.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    _assert_same_outcome(_outcome(load_csv, path, schema), _outcome(_read_rows, path, schema))


def _rows(n: int, edit: dict | None = None) -> list[str]:
    """``n`` data rows of y, d, m, treated and control in turn, m observed
    in both arms; ``edit`` maps a row index to its text instead."""
    rows = [f"{i + 0.25},{i % 2},{i // 2 % 2}" for i in range(n)]
    for i, text in (edit or {}).items():
        rows[i] = text
    return rows


def _boundary_cases(chunk: int) -> dict:
    """name -> (file bytes, the csv.reader route's (row, column) of the
    error, or None when ``np.loadtxt`` reads every chunk), each with rows
    on both sides of a boundary of ``chunk``-row reads."""
    n = 3 * chunk
    late = 2 * chunk  # the first row of the third chunk, a control row
    cases = {}
    for size in {max(2, k * chunk + extra) for k in (1, 2, 3) for extra in (-1, 0, 1)}:
        cases[f"{size} rows"] = ("y,d,m\n" + "".join(row + "\n" for row in _rows(size)), None)
    ends = ["\n\r\n\n" if (i + 1) % chunk == 0 else "\n" for i in range(n)]  # blank lines after each full chunk
    cases["blank lines at each boundary"] = ("y,d,m\n" + "".join(map(str.__add__, _rows(n), ends)), None)
    cases["a blank m first in a late chunk"] = ("y,d,m\n" + "\n".join(_rows(n, {late: f"{late},0,"})), None)
    cases["a literal nan first in a late chunk"] = ("y,d,m\n" + "\n".join(_rows(n, {late: f"{late},0,nan"})), (late + 1, "m"))
    z = ['"a\n,b"' if i % chunk in (0, chunk - 1) else "q" for i in range(n)]  # an unused column
    text = "y,z,d,m\n" + "\n".join(row.replace(",", f",{cell},", 1) for row, cell in zip(_rows(n), z))
    cases["a quoted line end and comma on each side of each boundary"] = (text, None)
    cases["a bad cell in the last chunk"] = ("y,d,m\n" + "\n".join(_rows(n, {n - 1: "abc,1,1"})) + "\n", (n, "y"))
    cases["a byte order mark"] = ("\ufeffy,d,m\r\n" + "".join(row + "\r\n" for row in _rows(n)), None)
    return {name: (text.encode("utf-8"), error) for name, (text, error) in cases.items()}


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 7])
def test_loadtxt_path_matches_row_reader_at_chunk_boundaries(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(data_module, "_CHUNK", chunk)
    for name, (text, error) in _boundary_cases(chunk).items():
        path = tmp_path / "in.csv"
        path.write_bytes(text)
        rows = _outcome(_read_rows, path, None)
        with _csv_route() as csv_route:
            _assert_same_outcome(_outcome(load_csv, path, None), rows)
        assert csv_route.called == (error is not None), name
        if error is not None:
            assert (rows[0], rows[2:]) == (ParseError, error), name


@pytest.mark.parametrize(
    "edit, error",
    [
        ({10: "10.25,0,"}, None),
        ({11: "11.25,1,abc"}, (ParseError, 12, "m")),
        ({11: "11.25,2,1"}, (InvariantViolation, 12, None)),
    ],
    ids=["a blank control m in the last chunk", "a bad cell in the last row", "d = 2 in the last row"],
)
def test_a_refused_chunk_alone_is_parsed_again(tmp_path, monkeypatch, edit, error):
    # three chunks of four rows: each line outside the last chunk is handed
    # once to np.loadtxt or csv.reader, the header once to csv.reader
    monkeypatch.setattr(data_module, "_CHUNK", 4)
    rows = _rows(12, edit)
    path = tmp_path / "in.csv"
    path.write_text("y,d,m\n" + "\n".join(rows) + "\n")
    handed = collections.Counter()

    def counted(lines):
        for line in lines:
            handed[line.rstrip("\r\n")] += 1
            yield line

    loadtxt, reader = np.loadtxt, csv.reader
    monkeypatch.setattr(np, "loadtxt", lambda lines, *args, **kwargs: loadtxt(counted(lines), *args, **kwargs))
    monkeypatch.setattr(csv, "reader", lambda lines, *args, **kwargs: reader(counted(lines), *args, **kwargs))
    outcome = _outcome(load_csv, path, None)
    if error is None:
        assert np.isnan(outcome.m).tolist() == [i == 10 for i in range(12)]
    else:
        assert (outcome[0], *outcome[2:]) == error
    assert [handed[line] for line in ["y,d,m", *rows[:8]]] == [1] * 9
    assert all(handed[line] >= 1 for line in rows[8:])


def test_a_file_that_grows_while_it_is_read_is_refused(tmp_path, monkeypatch):
    # the columns are sized from a count of the line ends; a row written after
    # the count once went unread, without a word
    path = tmp_path / "in.csv"
    path.write_text("y,d,m\n1,1,1\n2,0,0\n")
    scan = data_module._scan

    def scan_then_grow(counted):
        found = scan(counted)
        with open(counted, "a") as fh:
            fh.write("3,0,1\n4,1,0\n")  # the header's line end leaves room for one
        return found

    monkeypatch.setattr(data_module, "_scan", scan_then_grow)
    with pytest.raises(InvariantViolation, match="the file grew while it was read"):
        load_csv(path)


@pytest.mark.parametrize("pair", ["\r\n", "\n\n", "\r\r", "\n\r", "1\n", "\r1"])
@pytest.mark.parametrize("at", [2**16 - 2, 2**16 - 1, 2**16])
def test_line_ends_and_blank_lines_are_found_across_read_blocks(tmp_path, pair, at):
    # the pre-scan reads 2**16 bytes at a time; the pair starts at byte ``at``
    data = b"y\n" + b"1" * (at - 2) + pair.encode() + b"2\r\n"
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")  # each line end as one LF
    assert data_module._scan(path) == (lines.count(b"\n"), b"\n\n" in lines, False)


def test_clean_file_takes_the_loadtxt_path(tmp_path, monkeypatch):
    path = tmp_path / "in.csv"
    path.write_text('x1,y,d,m\n0.5,"1",1,1\n\n-2,2,0,0\n')

    def no_row_reader(*args):
        raise AssertionError("csv.reader route used")

    monkeypatch.setattr(data_module, "_parse_rows", no_row_reader)
    ds = load_csv(path, {"covariates": ["x1"]})
    assert ds.y.tolist() == [1.0, 2.0] and ds.x[:, 0].tolist() == [0.5, -2.0]


@pytest.mark.parametrize("route", ["loadtxt", "csv.reader"], ids=["loadtxt path", "row reader"])
def test_a_byte_order_mark_loads_as_the_file_without_it(tmp_path, monkeypatch, route):
    # Excel's "CSV UTF-8" and Notepad start a UTF-8 file with U+FEFF; each
    # route reads it, the other made to refuse every chunk it is given
    text = b'y,d,m,block\r\n1.5,1,1,a\r\n-2,0,1,"b,c"\r\n0,0,0,a\r\n'
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    if route == "loadtxt":
        monkeypatch.setattr(data_module, "_parse_rows", mock.Mock(side_effect=AssertionError("csv.reader route used")))
    else:
        monkeypatch.setattr(data_module.np, "loadtxt", mock.Mock(side_effect=ValueError("refused")))
    _assert_same(load_csv(marked, {"block": "block"}), load_csv(plain, {"block": "block"}))


def test_a_blank_control_m_takes_the_loadtxt_path(tmp_path, monkeypatch):
    # loadtxt refuses a blank cell; the chunk is read again with m through the csv.reader route's rule
    path = tmp_path / "in.csv"
    path.write_text('y,d,m\n1.5,1,1\n-2,0,\n0,0,0\n2,0, \n3,0,""\n')
    monkeypatch.setattr(data_module, "_parse_rows", mock.Mock(side_effect=AssertionError("csv.reader route used")))
    ds = load_csv(path)
    assert np.isnan(ds.m).tolist() == [False, True, False, True, True]
    assert not ds.m_observed_in_control


@pytest.mark.parametrize("text", ["nan", "NaN", "-NAN", '"nan"'])
@pytest.mark.parametrize("blank", [False, True], ids=["every m observed", "a blank m"])
def test_a_literal_nan_in_m_is_a_parse_error_of_the_row_reader(tmp_path, text, blank):
    path = tmp_path / "in.csv"
    path.write_text(f"y,d,m\n1,1,1\n2,0,{'' if blank else 0}\n3,0,{text}\n")
    with pytest.raises(ParseError) as ei:
        load_csv(path)
    assert (ei.value.row, ei.value.column) == (3, "m")


def test_invalid_utf8_after_a_byte_order_mark_names_its_row_and_byte(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"\xef\xbb\xbfy,d,m\n1,1,1\n2,\xff,0\n")
    with pytest.raises(ParseError) as ei:
        load_csv(path)
    assert str(ei.value) == "row 2, column 'd': byte 17 (0xff) is not valid UTF-8"


def _fmt_reference(v: float) -> str:
    """The writer's earlier formatter, with its own branch for integers."""
    if v and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return format(v, ".17g")


_EDGE_REALS = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 9999999999999998.0, 1e-300, 0.1, 1 / 3]
_EDGE_REALS += [float(2**53 + k) for k in range(-3, 4)] + [float(-(2**53) + k) for k in range(-3, 4)]
_EDGE_REALS += [math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf), 123456789012345.6, 1e15 + 0.5]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(v=_reals | st.integers(-(2**60), 2**60).map(float) | st.sampled_from(_EDGE_REALS))
def test_fmt_matches_the_integer_branch_formatter(v):
    # every real of a row (y, a covariate, the weight) goes through the row templates
    text = _fmt_reference(v)
    for code, dm in enumerate(["0,0", "0,1", "0,", "1,0", "1,1", "1,"]):
        assert data_module._row_formats(1, True, True)[code] % (v, v, "b", v) == f"{text},{dm},{text},b,{text}\r\n"


def test_header_only_file_warns_nothing(tmp_path, recwarn):
    # loadtxt warns on an empty body, so it is not called on one
    path = tmp_path / "in.csv"
    path.write_text("y,d,m\n")
    with pytest.raises(InvariantViolation, match="at least one unit"):
        load_csv(path)
    assert [str(w.message) for w in recwarn] == []


# -- faults below the CSV cells: undecodable bytes and over-long fields ----


def test_invalid_utf8_names_its_row_and_byte(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"y,d,m\n1,1,1\n\xff2,0,0\n")
    with pytest.raises(ParseError) as ei:
        load_csv(path)
    assert (ei.value.row, ei.value.column) == (2, "y")
    assert str(ei.value) == "row 2, column 'y': byte 12 (0xff) is not valid UTF-8"


@pytest.mark.parametrize(
    "head, row, column",
    [
        (b"y,d,m\n", 1, "y"),  # first byte of a row
        (b"y,d,m\n1,1,1\r\n2,0,", 2, "m"),  # in the last column, after a CRLF
        (b'y,d,m,z\n1,1,1,"a\nb', 1, "z"),  # inside a quoted field spanning lines
        (b"y,d,m\n1,1,1\n\n3,", 3, "d"),  # a blank line keeps its row number
        (b"y,d", 0, None),  # in the header
        (b"y,d,m\n1,1,1,9,9,", 1, None),  # in a field the header does not name
        (b"y,d,m\n" + b"1,1,1\n" * 3000, 3001, "y"),  # beyond the first decoded block
    ],
    ids=["row start", "after CRLF", "quoted", "after a blank line", "header", "extra field", "late"],
)
def test_invalid_utf8_anywhere_is_a_parse_error(tmp_path, head, row, column):
    path = tmp_path / "in.csv"
    path.write_bytes(head + b"\xc3\x28,0,0\n2,0,0\n")
    with pytest.raises(ParseError) as ei:
        load_csv(path)
    assert (ei.value.row, ei.value.column) == (row, column)
    assert str(ei.value).endswith(f"byte {len(head)} (0xc3) is not valid UTF-8")


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("at", [16382, 16383, 16384])
def test_invalid_utf8_is_named_past_a_line_end_at_the_block_edge(tmp_path, end, at):
    # the rows before the byte are parsed 16 KiB at a time; row 1's line end
    # starts at byte `at`, so a CRLF falls across the edge once
    head = b"y,d,m" + end + b"1".ljust(at - len(end) - 9, b"0") + b",1,1" + end + b"2,0,0" + end
    path = tmp_path / "in.csv"
    path.write_bytes(head + b"\xff,0,0" + end)
    with pytest.raises(ParseError) as ei:
        load_csv(path)
    assert str(ei.value) == f"row 3, column 'y': byte {len(head)} (0xff) is not valid UTF-8"


def test_block_file_with_invalid_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"y,d,m,block\n1,1,1,a\n2,0,0,\xe9t\xe9\n")
    with pytest.raises(ParseError) as ei:
        load_csv(path, {"block": "block"})
    assert (ei.value.row, ei.value.column) == (2, "block")


_LONG = "7" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize(
    "text, schema, row",
    [
        (f"y,d,m\n1,1,1\n{_LONG},0,0\n", None, 2),
        (f"y,d,m,block\n1,1,1,a\n2,0,0,b\n3,0,0,{_LONG}\n", {"block": "block"}, 3),
        (f"y,d,m,{_LONG}\n1,1,1,a\n", None, 0),
    ],
    ids=["used column", "block column", "header"],
)
def test_over_long_field_is_a_parse_error(tmp_path, text, schema, row):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as ei:
        load_csv(path, schema)
    assert (ei.value.row, ei.value.column) == (row, None)
    assert str(ei.value) == f"row {row}: field larger than field limit ({csv.field_size_limit()})"


def test_undecodable_byte_after_an_over_long_field_names_the_field(tmp_path):
    # bytes are decoded ahead of the parser, so the first fault in the file is named
    path = tmp_path / "in.csv"
    path.write_bytes(f"y,d,m\n1,1,1\n{_LONG},0,0\n".encode() + b"\xff,0,0\n")
    with pytest.raises(ParseError) as ei:
        load_csv(path)
    assert (ei.value.row, ei.value.column) == (2, None)
    assert "field limit" in str(ei.value)


def test_over_long_field_in_an_unused_column_loads_on_the_loadtxt_path(tmp_path):
    # the one kind of file the two routes still disagree on
    path = tmp_path / "in.csv"
    path.write_text(f"y,d,m,z\n1,1,1,{_LONG}\n2,0,0,\n")
    assert load_csv(path).y.tolist() == [1.0, 2.0]
    with pytest.raises(ParseError, match="row 1: field larger"):
        _read_rows(path, None)


# -- column names ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text, schema, column",
    [
        ("y,d,m,y\n1,1,1,5\n2,0,0,6\n", None, "y"),
        ("y,d,m,x1,x1\n1,1,1,5,7\n2,0,0,6,8\n", {"covariates": ["x1"]}, "x1"),
        ("y,d,m,w,b,w\n1,1,1,1,a,2\n2,0,0,1,b,2\n", {"weight": "w", "block": "b"}, "w"),
    ],
    ids=["y", "covariate", "weight"],
)
def test_a_used_column_named_twice_is_a_parse_error(tmp_path, text, schema, column):
    with pytest.raises(ParseError) as ei:
        _load_text(tmp_path, text, schema)
    assert (ei.value.row, ei.value.column) == (0, column)


@pytest.mark.parametrize(
    "schema, column",
    [({"covariates": ["y"]}, "y"), ({"covariates": ["x1", "x1"]}, "x1"), ({"covariates": ["x1"], "weight": "x1"}, "x1")],
    ids=["the outcome as a covariate", "one covariate twice", "a covariate as the weight"],
)
def test_a_column_named_for_two_roles_is_refused(tmp_path, schema, column):
    # read for both roles, a column fits itself: `analyze --covariates y
    # --te-method ols` gave an effect and a standard error of rounding size
    with pytest.raises(InvariantViolation, match=repr(column)):
        load_csv(tmp_path / "absent.csv", schema)  # refused before the file is opened


def test_an_unused_column_may_be_named_twice(tmp_path):
    ds = _load_text(tmp_path, "y,z,d,m,z\n1,a,1,1,b\n2,c,0,0,d\n")
    assert ds.y.tolist() == [1.0, 2.0]


@pytest.mark.parametrize(
    "names",
    [["y"], ["d"], ["m"], ["x", "x"]],
    ids=["y", "d", "m", "twice"],
)
def test_write_csv_refuses_a_header_that_repeats_a_name(tmp_path, names):
    ds = Dataset(y=[1.0, 2.0], d=[1, 0], m=[1, 0], x=np.ones((2, len(names))), covariate_names=names)
    out = tmp_path / "out.csv"
    with pytest.raises(InvariantViolation, match=repr(names[-1])):
        write_csv(ds, out)
    assert list(tmp_path.iterdir()) == []  # the target was never opened


@pytest.mark.parametrize("extra", ["block", "weight"])
def test_write_csv_refuses_a_covariate_named_like_a_written_column(tmp_path, extra):
    ds = Dataset(
        y=[1.0, 2.0], d=[1, 0], m=[1, 0], x=[[3.0], [4.0]], covariate_names=[extra],
        block=["a", "b"] if extra == "block" else None, weight=[1.0, 2.0] if extra == "weight" else None,
    )
    with pytest.raises(InvariantViolation, match=repr(extra)):
        write_csv(ds, tmp_path / "out.csv")
    assert list(tmp_path.iterdir()) == []


def test_a_covariate_named_like_an_unwritten_column_round_trips(tmp_path):
    ds = Dataset(y=[1.0, 2.0], d=[1, 0], m=[1, 0], x=[[3.0, 5.0], [4.0, 6.0]], covariate_names=["block", "weight"])
    out = tmp_path / "out.csv"
    write_csv(ds, out)
    _assert_same(load_csv(out, schema_for(ds)), ds)


@pytest.mark.parametrize(
    "schema, key",
    [({"weights": "wt"}, "weights"), ({"Y": "y"}, "Y"), ({"covariates": "wt"}, "covariates")],
    ids=["unknown", "case", "covariates as a str"],
)
def test_a_schema_key_load_csv_cannot_use_is_refused(tmp_path, schema, key):
    with pytest.raises(InvariantViolation, match=repr(key)):
        _load_text(tmp_path, "y,d,m,wt\n1,1,1,2\n2,0,0,3\n", schema)
