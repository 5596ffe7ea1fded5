"""The benchmark's workloads and their seeded inputs.

Every input is a pure function of (workload, seed, size). Unit data
come from ``tracebounds.oracle.simulate``; the block labels, covariates
and weights of ``analyze_blocks_ols`` are drawn here from a generator
keyed by the same seed. The program under test sees only the files
written here: a CSV dataset and an INI config.

Why each workload exists:

- ``analyze_rows`` is the resampling hot path: four row-bootstrap
  passes (trim, mt, core (te, p), curve) each call ``Dataset.take`` and
  sort the control arm once per replicate, plus the per-replicate
  ``_preset_ci`` loop. A faster resampling engine shows here first.
- ``analyze_blocks_ols`` runs the same inference layer with block
  draws, but per-replicate QR and design building in ``estimators``
  dominate, and the curve, chart and CSV carry 201 rows. A row-engine
  change predicts no gain here; a regression on the OLS/block path
  shows here.
- ``ingest_bounds`` writes and reads back a large tie-heavy CSV and
  computes one-shot bounds with no bootstrap. Resampling changes
  predict no change here; a CSV reader or writer change shows here
  and nowhere else.
"""

from __future__ import annotations

import csv
import pathlib
from dataclasses import dataclass

import numpy as np

from tracebounds.oracle import DGPConfig, OutcomeMeans, StrataProbs, simulate

# Reference band endpoints in reference.json were recorded at this seed.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Size:
    n: int
    replicates: int = 0
    blocks: int = 0


SIZES = {
    "full": {
        "analyze_rows": Size(n=20_000, replicates=250),
        "analyze_blocks_ols": Size(n=5_000, replicates=20, blocks=100),
        "ingest_bounds": Size(n=500_000),
    },
    "tiny": {
        "analyze_rows": Size(n=2_000, replicates=40),
        "analyze_blocks_ols": Size(n=1_000, replicates=10, blocks=20),
        "ingest_bounds": Size(n=5_000),
    },
}


@dataclass(frozen=True)
class Job:
    """One prepared workload instance.

    ``steps`` are CLI argument lists run one after another, each in a
    fresh interpreter; together they make one timed run. ``outputs``
    are the files those steps write, digested after every run.
    ``expect`` carries what the output checker needs to know about the
    configuration.
    """

    workload: str
    seed: int
    size: Size
    steps: tuple[tuple[str, ...], ...]
    outputs: dict
    expect: dict


# The DGP of analyze_*: m observed in both arms, monotone first stage
# (p1 = 0.5 > p0 = 0.2), continuous outcomes, so mt bounds always run.
_ANALYZE_STRATA = StrataProbs(at=0.2, c=0.3, nt=0.5)
_ANALYZE_MEANS = OutcomeMeans(at=(0.5, 1.5), c=(0.0, 2.0), nt=(0.0, 0.5))

# The DGP of ingest_bounds is the demo one (scripts/run_demo.py):
# outcomes occur only through the reaction, so over half are exact 0s.
_INGEST_INI = """\
[dgp]
n = {n}
noise_sd = 0.5
type3 = true
seed = {seed}

[dgp.strata]
at = 0.2
c = 0.3
nt = 0.5

[dgp.means]
at = 0.5, 1.5
c = 0.0, 2.0
nt = 0.0, 0.0
"""


def ingest_dgp(n: int, seed: int) -> DGPConfig:
    """The DGP the ingest_bounds config describes, for the checker."""
    return DGPConfig(
        n=n,
        strata=StrataProbs(at=0.2, c=0.3, nt=0.5),
        means=OutcomeMeans(at=(0.5, 1.5), c=(0.0, 2.0), nt=(0.0, 0.0)),
        noise_sd=0.5,
        type3=True,
        seed=seed,
    )


def _g17(v: float) -> str:
    return format(float(v), ".17g")


def _write_table(path: pathlib.Path, header: list[str], columns: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(zip(*columns))


def _analyze_data(seed: int, n: int):
    ds, _ = simulate(DGPConfig(n=n, strata=_ANALYZE_STRATA, means=_ANALYZE_MEANS, noise_sd=1.0, seed=seed))
    return ds


def _analyze_rows(seed: int, size: Size, work: pathlib.Path) -> Job:
    ds = _analyze_data(seed, size.n)
    data = work / "input.csv"
    _write_table(
        data,
        ["y", "d", "m"],
        [[_g17(v) for v in ds.y], [str(int(v)) for v in ds.d], [str(int(v)) for v in ds.m]],
    )
    out = {"report": work / "report.json", "table": work / "curve.csv", "chart": work / "chart.svg"}
    step = (
        "analyze", "--input", str(data), "--preset", "zero", "--te-method", "dim",
        "--seed", str(seed), "--replicates", str(size.replicates),
        "--out-report", str(out["report"]), "--out-table", str(out["table"]),
        "--out-chart", str(out["chart"]),
    )
    expect = {"kind": "analyze", "input": data, "schema": {}, "te_method": "dim", "grid": None}
    return Job("analyze_rows", seed, size, (step,), out, expect)


def _analyze_blocks_ols(seed: int, size: Size, work: pathlib.Path) -> Job:
    ds = _analyze_data(seed, size.n)
    rng = np.random.default_rng([seed, 2])
    block = rng.permutation(np.arange(size.n) % size.blocks)
    x = rng.normal(size=(size.n, 2))
    block_effect = rng.normal(0.0, 0.5, size=size.blocks)
    y = ds.y + 0.5 * x[:, 0] - 0.25 * x[:, 1] + block_effect[block]
    weight = rng.uniform(0.5, 2.0, size=size.n)
    data = work / "input.csv"
    _write_table(
        data,
        ["y", "d", "m", "x1", "x2", "block", "weight"],
        [
            [_g17(v) for v in y],
            [str(int(v)) for v in ds.d],
            [str(int(v)) for v in ds.m],
            [_g17(v) for v in x[:, 0]],
            [_g17(v) for v in x[:, 1]],
            [f"b{b:03d}" for b in block],
            [_g17(v) for v in weight],
        ],
    )
    config = work / "analyze.ini"
    config.write_text(
        "[schema]\ncovariates = x1, x2\nblock = block\nweight = weight\n\n"
        f"[bootstrap]\nreplicates = {size.replicates}\nseed = {seed}\nresample_unit = block\n"
    )
    out = {"report": work / "report.json", "table": work / "curve.csv", "chart": work / "chart.svg"}
    step = (
        "analyze", "--config", str(config), "--input", str(data), "--te-method", "ols",
        "--grid=-1:1:0.01",
        "--out-report", str(out["report"]), "--out-table", str(out["table"]),
        "--out-chart", str(out["chart"]),
    )
    expect = {
        "kind": "analyze",
        "input": data,
        "schema": {"covariates": ["x1", "x2"], "block": "block", "weight": "weight"},
        "te_method": "ols",
        "grid": (-1.0, 1.0, 0.01),
    }
    return Job("analyze_blocks_ols", seed, size, (step,), out, expect)


def _ingest_bounds(seed: int, size: Size, work: pathlib.Path) -> Job:
    config = work / "dgp.ini"
    config.write_text(_INGEST_INI.format(n=size.n, seed=seed))
    out = {"data": work / "trial.csv", "truth": work / "truth.json", "report": work / "bounds.json"}
    steps = (
        ("simulate", "--config", str(config), "--out-table", str(out["data"]),
         "--out-report", str(out["truth"])),
        ("bounds", "--input", str(out["data"]), "--type3", "--out-report", str(out["report"])),
    )
    return Job("ingest_bounds", seed, size, steps, out, {"kind": "ingest"})


_BUILDERS = {
    "analyze_rows": _analyze_rows,
    "analyze_blocks_ols": _analyze_blocks_ols,
    "ingest_bounds": _ingest_bounds,
}

NAMES = tuple(_BUILDERS)


def prepare(workload: str, seed: int, size_name: str, work: pathlib.Path) -> Job:
    """Write the inputs of one workload instance into ``work``.

    Paths in the returned job are relative to the current directory
    when ``work`` is, so reports (which echo their input path) do not
    depend on where the checkout lives.
    """
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](seed, SIZES[size_name][workload], work)
