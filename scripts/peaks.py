#!/usr/bin/env python3
"""Print the traced memory peak of each stage of simulate, bounds and analyze.

Runs the stages the CLI runs, one after another in one process, on N
rows of the ingest_bounds data (perfbench/workloads.py, seed 1): the
simulate command's draw and write, then the bounds command's read, arm
summaries, full-sample bounds and naive estimates, then the replicate
engine of analyze (built and run for 2 replicates). Each stage's row
gives the highest traced total while it ran and the total still live
when it ended, in MiB, under tracemalloc, which numpy reports its
buffers to: the figures repeat exactly. They leave out the interpreter
and the imports, which come before tracemalloc starts, but not what the
first calls import or cache, which matters only at small N. The
simulated dataset is dropped once written, as the two commands run
apart; the sorted control arm is kept for the engine, as analyze keeps
it.

Usage: python scripts/peaks.py N
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1
REPLICATES = 2
MIB = 1 << 20


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"N must be a positive integer, got {text}")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=_positive, metavar="N", help="rows to simulate")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from tracebounds.bounds import Interval, naive_estimates
    from tracebounds.data import load_csv, write_csv
    from tracebounds.estimators import TEMethod
    from tracebounds.inference import BootstrapConfig
    from tracebounds.oracle import simulate
    from tracebounds.resample import ReplicateEngine
    from tracebounds.sensitivity import full_sample_bounds
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
        tracemalloc.start()
        try:
            ds = stage("simulate", lambda: simulate(ingest_dgp(args.n, SEED))[0])
            stage("write_csv", lambda: write_csv(ds, path))
            del ds
            ds = stage("load_csv", lambda: load_csv(path))
            stage("arm summaries", lambda: (ds.arm(1), ds.arm(0)))
            control, _, mt = stage("full_sample_bounds", lambda: full_sample_bounds(ds))
            stage("naive_estimates", lambda: naive_estimates(ds))
            boot = BootstrapConfig(replicates=REPLICATES, seed=SEED)
            with_mt = isinstance(mt, Interval)
            stage("ReplicateEngine.run", lambda: ReplicateEngine(ds, TEMethod.DIFF_IN_MEANS, boot, with_mt, control).run())
        finally:
            tracemalloc.stop()

    print(f"| stage at n={args.n} | traced peak MiB | live MiB |")
    print("|---|---|---|")
    for name, peak, live in rows:
        print(f"| {name} | {peak / MIB:.1f} | {live / MIB:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
