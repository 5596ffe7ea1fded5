"""The full-sample moments, the outputs of a small block-draw adjusted
regression ``analyze``, and the report of ``bounds --type3`` on unit-weight
data do not depend on the BLAS thread count.

Each statistic is printed as ``float.hex``, and each ``analyze`` writes
its files, in a fresh interpreter, since OpenBLAS reads its thread count
once, when numpy loads it. The moments' draw is long enough that a
threaded dot product would split its sum.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import dataclasses
from tracebounds import arm_reaction_rate, conditional_mean, estimate_te_dim, naive_estimates
from tracebounds.oracle import DGPConfig, OutcomeMeans, StrataProbs, simulate

ds = simulate(DGPConfig(
    n=300_000,
    strata=StrataProbs(at=0.2, c=0.3, nt=0.5),
    means=OutcomeMeans(at=(0.5, 1.5), c=(0.0, 2.0), nt=(0.0, 0.0)),
    noise_sd=0.5,
    seed=3,
))[0]
values = [estimate_te_dim(ds).te_hat, arm_reaction_rate(ds, 0), arm_reaction_rate(ds, 1)]
values += [conditional_mean(ds, d, m) for d in (0, 1) for m in (0, 1)]
values += dataclasses.astuple(naive_estimates(ds))
print(" ".join(v.hex() for v in values))
"""


def _statistics(threads: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    return subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True).stdout


def test_the_moments_are_the_same_at_one_and_two_blas_threads():
    one = _statistics(1)
    assert len(one.split()) == 12
    assert _statistics(2) == one


CLI = """
import sys
from tracebounds.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _write_block_design(directory: pathlib.Path) -> None:
    """25 blocks of 4 to 28 units each, two covariates and weights."""
    rng = np.random.default_rng(5)
    block = rng.permutation(np.repeat(np.arange(25), rng.integers(4, 29, 25)))
    n = block.size
    d = rng.integers(0, 2, n)
    m = np.where(rng.random(n) < 0.2 + 0.3 * d, 1, 0)
    x = rng.normal(size=(n, 2))
    y = d * m + 0.5 * x[:, 0] - 0.25 * x[:, 1] + rng.normal(0.0, 0.5, 25)[block] + rng.normal(size=n)
    lines = ["y,d,m,x1,x2,block,weight"]
    weight = rng.uniform(0.5, 2.0, n)
    lines += [f"{y[i]:.17g},{d[i]},{m[i]},{x[i, 0]:.17g},{x[i, 1]:.17g},b{block[i]},{weight[i]:.17g}" for i in range(n)]
    (directory / "input.csv").write_text("\n".join(lines) + "\n")
    (directory / "analyze.ini").write_text(
        "[schema]\ncovariates = x1, x2\nblock = block\nweight = weight\n\n"
        "[bootstrap]\nreplicates = 30\nseed = 3\nresample_unit = block\n"
    )


def _cli(directory: pathlib.Path, threads: int, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    subprocess.run([sys.executable, "-c", CLI, *args], cwd=directory, env=env, capture_output=True, check=True)


def _analyze(directory: pathlib.Path, threads: int) -> dict:
    directory.mkdir()
    _write_block_design(directory)
    args = ["analyze", "--config", "analyze.ini", "--input", "input.csv", "--te-method", "ols", "--grid=-1:1:0.1"]
    args += ["--out-report", "report.json", "--out-table", "curve.csv", "--out-chart", "chart.svg"]
    _cli(directory, threads, *args)
    return {name: (directory / name).read_bytes() for name in ("report.json", "curve.csv", "chart.svg")}


def test_block_draw_regression_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    one = _analyze(tmp_path / "one", 1)
    assert b'"te_method": "OLS_ADJUSTED"' in one["report.json"] and b'"resample_unit": "BLOCK"' in one["report.json"]
    assert _analyze(tmp_path / "two", 2) == one


_INGEST_INI = """\
[dgp]
n = 300000
noise_sd = 0.5
type3 = true
seed = 3

[dgp.strata]
at = 0.2
c = 0.3
nt = 0.5

[dgp.means]
at = 0.5, 1.5
c = 0, 2.0
nt = 0, 0
"""


def test_type3_bounds_of_unit_weights_write_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # the ingest_bounds data, whose control slices under unit weights are
    # summed by np.dot over about 75,000 units each, long enough for a
    # threaded dot product to split
    (tmp_path / "dgp.ini").write_text(_INGEST_INI)
    _cli(tmp_path, 1, "simulate", "--config", "dgp.ini", "--out-table", "trial.csv", "--out-report", "truth.json")
    reports = []
    for threads in (1, 2):
        _cli(tmp_path, threads, "bounds", "--input", "trial.csv", "--type3", "--out-report", f"bounds{threads}.json")
        reports.append((tmp_path / f"bounds{threads}.json").read_bytes())
    assert b'"type3_bounds"' in reports[0] and b'"kind": "MT"' in reports[0]
    assert reports[1] == reports[0]
