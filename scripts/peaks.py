#!/usr/bin/env python3
"""Print the memory peak of each stage of simulate, bounds and analyze.

Runs the stages the CLI runs, one after another in one process, on N
rows of the ingest_bounds data (perfbench/workloads.py, seed 1): the
simulate command, which writes each chunk of rows as it draws it, a
read of the same rows with a column of 100 block labels (written beside
the first file from a read of it, outside any stage) and the replicate
engine of analyze on them under block draws with the adjusted
regression (built, with its per-block factors, and run for 2
replicates; the block dataset is dropped after it), a read of the table
with the m of its last control row blanked (np.loadtxt refuses its last
chunk, which is read again; also written outside any stage, and dropped
once read), then the bounds command's read, cell table, naive estimates
and full-sample bounds, which make no layout of unit weights, then the
dataset's arm layout and the replicate engine of analyze (built and run
for 2 replicates). Each stage's row gives the highest traced total
while it ran and the total still live when it ended, in MiB and in
bytes per unit, under tracemalloc, which numpy reports its buffers to:
the figures repeat exactly. They leave out the interpreter and the
imports, which come before tracemalloc starts, but not what the first
calls import or cache, which matters only at small N.

With ``--rss`` it runs instead the two steps of the ingest_bounds
workload on N rows (``simulate``, then ``bounds --type3`` on the table
it wrote), then ``analyze --preset zero --replicates 50`` on the same
table, each in a fresh interpreter through perfbench/child.py with one
BLAS thread, as the benchmark runs its steps, and prints each process's
peak resident set (VmHWM, the interpreter and imports included), which
is what the benchmark's ``peak_rss_mb`` reads.

Given several sizes, it prints one table for each, in turn.

Usage: python scripts/peaks.py [--rss] N [N ...]
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1
REPLICATES = 2
RSS_REPLICATES = 50
BLOCKS = 100
MIB = 1 << 20


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"N must be a positive integer, got {text}")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rss", action="store_true", help="print the peak resident set of each ingest_bounds step and of analyze")
    ap.add_argument("sizes", type=_positive, nargs="+", metavar="N", help="rows to simulate")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    for n in args.sizes:
        (_rss if args.rss else _traced)(n)
    return 0


def _traced(n: int) -> None:
    """Run the stages on ``n`` rows and print each one's traced peak and live total."""
    import numpy as np

    from tracebounds.bounds import Interval, naive_estimates
    from tracebounds.cli import cmd_simulate
    from tracebounds.data import Dataset, load_csv, write_csv
    from tracebounds.estimators import TEMethod
    from tracebounds.inference import BootstrapConfig, ResampleUnit
    from tracebounds.resample import ReplicateEngine
    from tracebounds.sensitivity import full_sample_bounds
    from digests import blank_last_control_m
    from workloads import ingest_dgp

    rows = []

    def stage(name: str, run):
        tracemalloc.reset_peak()
        result = run()
        live, peak = tracemalloc.get_traced_memory()
        rows.append((name, peak, live))
        return result

    with tempfile.TemporaryDirectory() as work:
        path = pathlib.Path(work) / "trial.csv"
        block_path = pathlib.Path(work) / "blocks.csv"
        blank_path = pathlib.Path(work) / "blank_m.csv"
        tracemalloc.start()
        try:
            stage("simulate", lambda: cmd_simulate(ingest_dgp(n, SEED), str(path), str(pathlib.Path(work) / "truth.json")))
            ds = load_csv(path)
            blocks = np.random.default_rng(SEED).permutation(np.arange(n) % BLOCKS)
            write_csv(Dataset(ds.y, ds.d, ds.m, block=[f"b{b:03d}" for b in blocks]), block_path)
            del ds, blocks
            blocked = stage("load_csv (blocks)", lambda: load_csv(block_path, {"block": "block"}))
            block_boot = BootstrapConfig(replicates=REPLICATES, seed=SEED, resample_unit=ResampleUnit.BLOCK)
            stage("ReplicateEngine.run (blocks, ols)", lambda: ReplicateEngine(blocked, TEMethod.OLS_ADJUSTED, block_boot, False).run())
            del blocked
            blank_path.write_bytes(blank_last_control_m(path.read_bytes()))
            stage("load_csv (a blank m in the last chunk)", lambda: load_csv(blank_path))
            ds = stage("load_csv", lambda: load_csv(path))
            stage("cell table", ds.cells)
            stage("naive_estimates", lambda: naive_estimates(ds))
            _, mt = stage("full_sample_bounds", lambda: full_sample_bounds(ds))
            stage("layout", ds.layout)
            boot = BootstrapConfig(replicates=REPLICATES, seed=SEED)
            with_mt = isinstance(mt, Interval)
            stage("ReplicateEngine.run", lambda: ReplicateEngine(ds, TEMethod.DIFF_IN_MEANS, boot, with_mt).run())
        finally:
            tracemalloc.stop()

    print(f"| stage at n={n} | traced peak MiB | bytes/unit | live MiB | bytes/unit |")
    print("|---|---|---|---|---|")
    for name, peak, live in rows:
        print(f"| {name} | {peak / MIB:.1f} | {peak / n:.1f} | {live / MIB:.1f} | {live / n:.1f} |")


def _rss(n: int) -> None:
    """Run the ingest_bounds steps and analyze on ``n`` rows and print each one's VmHWM."""
    from workloads import Size, _ingest_bounds

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    print(f"| process at n={n} | peak RSS MiB |")
    print("|---|---|")
    with tempfile.TemporaryDirectory() as work:
        work = pathlib.Path(work)
        rss = work / "rss.txt"
        job = _ingest_bounds(SEED, Size(n=n), work)
        analyze = ("analyze", "--preset", "zero", "--replicates", str(RSS_REPLICATES))
        out = ("--input", str(job.outputs["data"]), "--out-table", str(work / "curve.csv"), "--out-report", str(work / "report.json"))
        steps = [("simulate", job.steps[0]), ("bounds --type3", job.steps[1]), (" ".join(analyze), analyze + out)]
        for name, step in steps:
            cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--rss", str(rss), "--", *step]
            subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
            print(f"| {name} | {int(rss.read_text()) / 1024:.1f} |")


if __name__ == "__main__":
    sys.exit(main())
