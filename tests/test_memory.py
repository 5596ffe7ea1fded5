"""Traced memory budgets of the steps that make or read n-length columns.

Each budget is the highest traced total above what was live when the
step began, in bytes per unit at N units. numpy reports its buffers to
tracemalloc, so these are counts that repeat, not timings. A dataset of
N units holds 25 bytes per unit (y, m and weight 8 each, d 1). The
writer formats the rows a chunk at a time, here made small so that a
chunk's own memory does not count against its budget. Each budget is the
present figure, given beside it, plus a margin: about 10%, or about 1
byte per unit for the writer, whose figure is small, and for the
weighted read, whose figure is bound by loadtxt's table and the columns
copied out of it.
"""

import tracemalloc

import numpy as np
import pytest

import tracebounds.data as data_module
from tracebounds.data import Dataset, load_csv, write_csv
from tracebounds.oracle import DGPConfig, OutcomeMeans, StrataProbs, simulate
from tracebounds.sensitivity import full_sample_bounds

N = 100_000
CHUNK_ROWS = 1024

# the ingest_bounds data: over half the outcomes are exact zeros
_DGP = DGPConfig(
    n=N,
    strata=StrataProbs(at=0.2, c=0.3, nt=0.5),
    means=OutcomeMeans(at=(0.5, 1.5), c=(0.0, 2.0), nt=(0.0, 0.0)),
    noise_sd=0.5,
    type3=True,
    seed=1,
)


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


def test_simulate_holds_each_column_once():
    # the 25 bytes of the dataset and a flag of its checks (26)
    assert _peak_per_unit(lambda: simulate(_DGP)) < 29


def test_write_csv_makes_no_column(tmp_path, dataset, monkeypatch):
    # one chunk's text and cells (1.2)
    monkeypatch.setattr(data_module, "_CHUNK", CHUNK_ROWS)
    assert _peak_per_unit(lambda: write_csv(dataset, tmp_path / "trial.csv")) < 2


@pytest.mark.parametrize("weighted, budget", [(False, 45), (True, 58)], ids=["unit weights", "weights"])
def test_load_csv_drops_the_table_for_its_columns(tmp_path, dataset, weighted, budget):
    # loadtxt's table of y, d, m (and the weight) beside the columns copied out
    # of it and d as int8 (41.0 and 57.0); the unit weights come after the table
    path = tmp_path / "trial.csv"
    weight = np.random.default_rng(0).uniform(0.5, 2.0, N) if weighted else None
    write_csv(Dataset(dataset.y, dataset.d, dataset.m, weight=weight), path)
    schema = {"weight": "weight"} if weighted else None
    assert _peak_per_unit(lambda: load_csv(path, schema)) < budget


def test_full_sample_bounds_gathers_the_control_arm_once(dataset):
    # the sorted arm, its order and the gathers that make it (22.2)
    dataset.arm(0)
    dataset.arm(1)
    assert _peak_per_unit(lambda: full_sample_bounds(dataset)) < 24
