"""The CSV codec: the exact bytes ``write_csv`` emits, the round trip
through ``load_csv``, and where ``load_csv`` says a bad cell is."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebounds import Dataset, load_csv, schema_for, write_csv
from tracebounds.errors import InvariantViolation, ParseError

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
    with pytest.raises(ParseError) as ei:
        _load_text(tmp_path, "y,d,m,x1,w\n1,1,1,0,1\n2,0,0,oops,-\n", {"covariates": ["x1"], "weight": "w"})
    assert (ei.value.row, ei.value.column) == (2, "x1")


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
