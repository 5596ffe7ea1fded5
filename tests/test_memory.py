"""Traced memory budgets of the steps that make or read n-length columns.

Each budget is the highest traced total above what was live when the
step began, in bytes per unit at N units. numpy reports its buffers to
tracemalloc, so these are counts that repeat, not timings. A dataset of
N units holds 9 bytes per unit (y, 8, and one int8 code of its (d, m)
cell; d and m are made on each call, and the unit weights are a view of
one value), and 8 more when it is given weights; its arm layout, once
made, 4 more (int32). A step that reads a dataset is also measured with
that dataset counted, from before it is made. The CSV reader and
writer, simulate's draws and the cell table work a chunk of rows at a
time, here made small (but for one test of the reader's
default chunk) so that a chunk's own memory does not count against a
budget:
what is left is the columns a step keeps and the one-byte flags of the
dataset's checks. Each budget is the present figure, given beside it,
plus a margin of about 10%, or about 1 byte per unit for the writer,
whose figure is small. A step that makes the dataset's arm layout
(:meth:`Dataset.layout`), which the dataset keeps, is given a fresh
dataset on each run, so that the untraced run does not make it.
"""

import tracemalloc

import numpy as np
import pytest

import tracebounds.data as data_module
import tracebounds.oracle as oracle_module
from tracebounds import cli
from tracebounds.data import Dataset, load_csv, write_csv
from tracebounds.errors import ParseError
from tracebounds.estimators import TEMethod
from tracebounds.inference import BootstrapConfig
from tracebounds.oracle import DGPConfig, OutcomeMeans, StrataProbs, simulate
from tracebounds.sensitivity import AssumptionSpec, analyze, full_sample_bounds

N = 100_000
CHUNK_ROWS = 1024
DEFAULT_CHUNK = data_module._CHUNK

# the ingest_bounds data: over half the outcomes are exact zeros
_DGP = DGPConfig(
    n=N,
    strata=StrataProbs(at=0.2, c=0.3, nt=0.5),
    means=OutcomeMeans(at=(0.5, 1.5), c=(0.0, 2.0), nt=(0.0, 0.0)),
    noise_sd=0.5,
    type3=True,
    seed=1,
)


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(data_module, "_CHUNK", CHUNK_ROWS)
    monkeypatch.setattr(oracle_module, "_CHUNK", CHUNK_ROWS)


def _peak_per_unit(run) -> float:
    """The traced peak of ``run()`` above what was live when it began, per
    unit; after one untraced run, so that what the first run imports or
    caches does not count."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / N
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def dataset() -> Dataset:
    return simulate(_DGP)[0]


@pytest.mark.parametrize("make", ["simulate", "load_csv"])
def test_a_dataset_holds_its_columns_and_one_cell_code_per_unit(tmp_path, dataset, make):
    # y, 8 bytes, and the (d, m) cell code, 1; no column of unit weights (9.0)
    path = tmp_path / "trial.csv"
    write_csv(dataset, path)
    run = (lambda: simulate(_DGP)[0]) if make == "simulate" else (lambda: load_csv(path))
    run()
    tracemalloc.start()
    try:
        ds = run()
        held = tracemalloc.get_traced_memory()[0] / N
    finally:
        tracemalloc.stop()
    assert ds.n == N
    assert held < 10


def test_the_unit_weights_are_one_view_of_one_value(dataset):
    # a dataset given no weights reads every unit as weighing 1 through a
    # read-only view of one float of stride 0 (0.0; n ones, 8.0)
    dataset.weight
    tracemalloc.start()
    try:
        weight = dataset.weight
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traced < 1024
    assert weight.shape == (N,) and weight.strides == (0,) and not weight.flags.writeable
    assert weight[0] == 1.0 and weight.base.size == 1


def test_simulate_holds_each_column_once():
    # y and one int8 array, each unit's (stratum, arm) and then its cell
    # code, beside a flag of the dataset's checks; every draw a chunk at a
    # time (10.0)
    assert _peak_per_unit(lambda: simulate(_DGP)) < 11


def test_write_csv_makes_no_column(tmp_path, dataset):
    # one chunk's text and cells (0.9)
    assert _peak_per_unit(lambda: write_csv(dataset, tmp_path / "trial.csv")) < 2


@pytest.mark.parametrize("weighted, budget", [(False, 11), (True, 22)], ids=["unit weights", "weights"])
def test_load_csv_drops_the_table_for_its_columns(tmp_path, dataset, weighted, budget):
    # y (and the weight) and the cell codes, allocated once from a count of
    # the line ends and filled a chunk of loadtxt's rows at a time, beside
    # the flags of the dataset's checks (10.0 and 20.0)
    path = tmp_path / "trial.csv"
    weight = np.random.default_rng(0).uniform(0.5, 2.0, N) if weighted else None
    write_csv(Dataset(dataset.y, dataset.d, dataset.m, weight=weight), path)
    schema = {"weight": "weight"} if weighted else None
    assert _peak_per_unit(lambda: load_csv(path, schema)) < budget


def test_load_csv_asks_loadtxt_for_no_more_rows_than_the_file_holds(tmp_path, monkeypatch):
    # loadtxt allocates the rows it is asked for before it reads one: under the
    # default chunk of 2**14 rows, 5,000 rows of six columns are read as one
    # table of 5,000 rows, beside y, the cell codes, three covariates and their
    # matrix (92.9 bytes per row; a table of a whole chunk, 195.3)
    monkeypatch.setattr(data_module, "_CHUNK", DEFAULT_CHUNK)
    rows = 5_000
    rng = np.random.default_rng(0)
    path = tmp_path / "short.csv"
    write_csv(Dataset(rng.normal(size=rows), np.arange(rows) % 2, rng.integers(0, 2, rows), x=rng.normal(size=(rows, 3))), path)
    schema = {"covariates": ["x1", "x2", "x3"]}
    load_csv(path, schema)
    tracemalloc.start()
    try:
        ds = load_csv(path, schema)
        peak = tracemalloc.get_traced_memory()[1] / rows
    finally:
        tracemalloc.stop()
    assert ds.n == rows
    assert peak < 102


def test_load_csv_keeps_no_row_for_a_blank_line(tmp_path, dataset):
    # two blank lines after each row make the count of line ends three
    # times the rows; the columns are cut to the rows read (9.0)
    path = tmp_path / "trial.csv"
    write_csv(dataset, path)
    path.write_bytes(path.read_bytes().replace(b"\r\n", b"\r\n\r\n\n"))
    load_csv(path)
    tracemalloc.start()
    try:
        ds = load_csv(path)
        held = tracemalloc.get_traced_memory()[0] / N
    finally:
        tracemalloc.stop()
    assert ds.n == N
    assert held < 10


def test_load_csv_numbers_the_block_labels_as_it_reads(tmp_path, dataset):
    # y, the cell codes and the int32 block codes, allocated once from a count
    # of the line ends and filled a chunk of loadtxt's rows at a time, each
    # label numbered as it is read, beside the flags of the dataset's checks
    # (14.1; the row reader's buffers, 40.5)
    path = tmp_path / "blocks.csv"
    blocks = np.random.default_rng(0).permutation(np.arange(N) % 100)
    write_csv(Dataset(dataset.y, dataset.d, dataset.m, block=[f"b{b:03d}" for b in blocks]), path)
    assert _peak_per_unit(lambda: load_csv(path, {"block": "block"})) < 15.5


def test_load_csv_names_an_undecodable_byte_a_block_at_a_time(tmp_path, dataset):
    # a 0xff byte opens the last row: y and the cell codes, filled up to the
    # chunk that holds it, then the rows before the byte decoded and parsed
    # 16 KiB of the file at a time (10.9; the whole file as bytes, as text and
    # the text before the byte, 87.9)
    path = tmp_path / "trial.csv"
    write_csv(dataset, path)
    text = path.read_bytes()
    last = text.rindex(b"\n", 0, -1) + 1
    path.write_bytes(text[:last] + b"\xff" + text[last + 1 :])

    def run():
        with pytest.raises(ParseError, match=f"^row {N}, column 'y': byte {last} \\(0xff\\) is not valid UTF-8$"):
            load_csv(path)

    assert _peak_per_unit(run) < 12


def _peak_with_dataset(make, step) -> float:
    """The traced peak of ``step(ds)`` per unit, counting the dataset
    ``make()`` returns, which is made under tracing; after one untraced
    run of both."""
    step(make())
    tracemalloc.start()
    try:
        ds = make()
        tracemalloc.reset_peak()
        step(ds)
        return tracemalloc.get_traced_memory()[1] / N
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make", ["simulate", "load_csv"])
def test_the_cell_table_of_unit_weights_counts_and_sums_y(tmp_path, dataset, make):
    # the 9 held bytes; the unit weights and w·y are added a chunk at a time,
    # with no copy of y or of the codes and no column of ones (9.2)
    path = tmp_path / "trial.csv"
    write_csv(dataset, path)
    run = (lambda: simulate(_DGP)[0]) if make == "simulate" else (lambda: load_csv(path))
    assert _peak_with_dataset(run, Dataset.cells) < 11


def test_the_layout_sorts_the_control_arm_alone():
    # the 9 held bytes and the int32 layout, and while it is made the control
    # arm's y, gathered through a mask, and its int64 ranks; each run's rows
    # and the ranks' rows, made in one step, peak below that (21.06)
    assert _peak_with_dataset(lambda: simulate(_DGP)[0], Dataset.layout) < 23.2


def test_full_sample_bounds_of_unit_weights_gathers_no_weight_column():
    # the 9 held bytes, and the control arm's y, copied once and sorted
    # stably in place, with no layout, no column of its unit weights and no
    # running sum of them; the sort's buffer or the ones np.dot makes for a
    # slice, p of the arm (15.0; through the layout, 25.0)
    def make():
        ds = simulate(_DGP)[0]
        ds.cells()  # as the bounds command has it
        return ds

    assert _peak_with_dataset(make, full_sample_bounds) < 16.5


def _fresh_datasets() -> list[Dataset]:
    """Datasets as ``simulate`` makes them, none with a layout, one for
    each run of :func:`_peak_per_unit` to pop."""
    return [simulate(_DGP)[0] for _ in range(2)]


def test_full_sample_bounds_gathers_the_control_arm_once():
    # the control arm's y, copied once, and the stable sort's buffer or the
    # ones np.dot makes for a slice, with no layout made (6.0; the layout and
    # what making it takes, then the control arm's y and weights through it,
    # 16.0)
    fresh = _fresh_datasets()
    made = list(fresh)
    for ds in fresh:  # the cell table made, as the bounds command has it
        ds.cells()
    assert _peak_per_unit(lambda: full_sample_bounds(fresh.pop())) < 6.6
    assert all(ds._layout is None for ds in made)


def test_analyze_keeps_one_copy_of_the_layout():
    # the dataset, its layout, and the engine's y in layout order, with no
    # column of unit weights, and the engine's row index as intp, so that no
    # replicate's gather converts the int32 layout; then one replicate's
    # counts and sums (73.9)
    boot = BootstrapConfig(replicates=2, seed=1)
    assert _peak_per_unit(lambda: analyze(simulate(_DGP)[0], AssumptionSpec.zero(), TEMethod.DIFF_IN_MEANS, boot)) < 77


def test_bounds_command_of_unit_weights_makes_no_layout(tmp_path, monkeypatch):
    # the cell table, the naive statistics, which gather no column, and the
    # full-sample bounds, which copy the control arm's y once and make no
    # layout (6.0; through the layout, 16.0)
    fresh = _fresh_datasets()
    made = list(fresh)
    monkeypatch.setattr(cli, "load_csv", lambda path, schema: fresh.pop())
    assert _peak_per_unit(lambda: cli.cmd_bounds("trial.csv", {}, True, None, str(tmp_path / "report.json"))) < 6.6
    assert all(ds._layout is None for ds in made)


def test_bounds_command_peaks_in_budget_with_a_layout_made_first_or_none(tmp_path, monkeypatch):
    # the naive statistics read the cell table and gather no column; the
    # command makes no layout of unit weights (6.0), and with one made before
    # the naive statistics, which the dataset keeps, it peaks while the layout
    # is made (12.1)
    naive = cli.naive_estimates
    report = tmp_path / "report.json"
    for layout_first in (False, True):
        fresh = _fresh_datasets()
        monkeypatch.setattr(cli, "load_csv", lambda path, schema: fresh.pop())
        if layout_first:
            monkeypatch.setattr(cli, "naive_estimates", lambda ds: (ds.layout(), naive(ds))[1])
        assert _peak_per_unit(lambda: cli.cmd_bounds("trial.csv", {}, True, None, str(report))) < 17.6


def test_load_csv_fills_one_covariate_matrix(tmp_path, dataset):
    # y, the cell codes, two covariates in one (n, 2) matrix, the int32 block
    # codes and the weight, each allocated once from a count of the line ends
    # and filled a chunk of loadtxt's rows at a time, beside the flags of the
    # dataset's checks; no column of a covariate alone (40.2; the
    # covariates as columns, then stacked into the matrix, 56.2)
    path = tmp_path / "covariates.csv"
    rng = np.random.default_rng(0)
    blocks = [f"b{b:03d}" for b in rng.permutation(np.arange(N) % 100)]
    write_csv(Dataset(dataset.y, dataset.d, dataset.m, x=rng.normal(size=(N, 2)), block=blocks, weight=rng.uniform(0.5, 2.0, N)), path)
    schema = {"covariates": ["x1", "x2"], "block": "block", "weight": "weight"}
    ds = load_csv(path, schema)
    assert ds.x.shape == (N, 2) and ds.has_blocks and ds.has_weights
    assert _peak_per_unit(lambda: load_csv(path, schema)) < 44


def test_simulate_command_writes_each_chunk_as_it_is_drawn(tmp_path):
    # the int8 array of every unit's (stratum, arm) and then its cell code,
    # 1 byte per unit, and one chunk's y, its text and the cells of its rows,
    # with no y of the units' length (1.64: 64 bytes per chunk row; the
    # dataset, then its write, 10.0)
    table, report = tmp_path / "trial.csv", tmp_path / "truth.json"
    peak = _peak_per_unit(lambda: cli.cmd_simulate(_DGP, str(table), str(report)))
    assert peak < 1 + 80 * CHUNK_ROWS / N
    write_csv(simulate(_DGP)[0], tmp_path / "dataset.csv")
    assert table.read_bytes() == (tmp_path / "dataset.csv").read_bytes()
