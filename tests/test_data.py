import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracebounds.data as data_module

from tracebounds import (
    Analysis,
    Dataset,
    load_csv,
    schema_for,
    validate_for,
    write_csv,
)
from tracebounds.errors import (
    InvariantViolation,
    MissingBlockLabels,
    MissingColumn,
    ParseError,
    RequirementUnmet,
)


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


class _DMText:
    """A d and m text of the writer's table that runs ``action`` each
    time a chunk formats it."""

    def __init__(self, text, action):
        self.text = text
        self.action = action

    def __str__(self):
        self.action()
        return self.text


def _patch_dm_text(monkeypatch, action):
    """Two-row chunks, and ``action`` when a control row with m = 1 is
    formatted: in the toy, row 3, the second row of the second chunk."""
    table = data_module._DM_TEXT.copy()
    table[1] = _DMText(table[1], action)
    monkeypatch.setattr(data_module, "_DM_TEXT", table)
    monkeypatch.setattr(data_module, "_CHUNK", 2)


def test_failed_write_keeps_target_and_leaves_no_temp_file(tmp_path, toy, monkeypatch):
    out = tmp_path / "copy.csv"
    out.write_text("old\n")

    def fail():
        raise RuntimeError("disk full")

    _patch_dm_text(monkeypatch, fail)  # fails mid-chunk, after one chunk is written
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

    _patch_dm_text(monkeypatch, second_writer)
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


def test_take_must_keep_both_arms(toy):
    with pytest.raises(InvariantViolation):
        toy.take([0, 1, 2])


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


def test_validate_for(toy):
    # toy has m observed everywhere, so every analysis is available
    for analysis in Analysis:
        validate_for(toy, analysis)
    no_ctrl_m = Dataset(y=[1.0, 2.0], d=[1, 0], m=[1, float("nan")])
    validate_for(no_ctrl_m, Analysis.NO_ASSUMPTION_BOUNDS)
    validate_for(no_ctrl_m, Analysis.SENSITIVITY)
    with pytest.raises(RequirementUnmet):
        validate_for(no_ctrl_m, Analysis.MT_BOUNDS)
    with pytest.raises(RequirementUnmet):
        validate_for(no_ctrl_m, Analysis.DIM)
