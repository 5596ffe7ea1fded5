#!/usr/bin/env python3
"""Digest every output of the benchmark workloads and of the demo.

Runs the CLI steps of each workload in perfbench/workloads.py at seeds
1 and 2, on inputs that module writes, then scripts/run_demo.py, then
``bounds`` on the ingest_bounds table of seed 1 with the m of its last
control row blanked (a chunk that np.loadtxt refuses, read again; not
``--type3``, which needs every control m), then the analyze step of
analyze_blocks_ols at seed 1 again, with its config, on its input with
the columns in the order of ``PERMUTED`` (its ``curve.csv`` and
``chart.svg`` equal those of the row it permutes), each in its own
directory under OUT and with paths relative to it (reports echo their
paths).
Prints one row per configuration, each file with the first 12 hex
digits of its SHA-256:

    | analyze_rows-tiny-s1 | chart.svg=725e64d8603b curve.csv=... |

Two runs of this script, by the same or by two checkouts, print the
same table exactly when every output is byte-identical.

Usage: python scripts/digests.py [--size tiny|full] OUT
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEEDS = (1, 2)
# the analyze_blocks_ols columns, each away from where the workload writes it
PERMUTED = ("weight", "x2", "block", "m", "y", "x1", "d")


def _digests(directory: pathlib.Path) -> str:
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    return " ".join(
        f"{p.relative_to(directory).as_posix()}={hashlib.sha256(p.read_bytes()).hexdigest()[:12]}" for p in files
    )


def blank_last_control_m(table: bytes) -> bytes:
    """A table ``write_csv`` wrote, with the m cell of its last control row emptied."""
    at = max(table.rfind(b",0,0\r\n"), table.rfind(b",0,1\r\n")) + 3  # the m cell
    return table[:at] + table[at + 1 :]


def _reordered(table: bytes, order) -> bytes:
    """A CSV table with its columns in ``order``, names from its header."""
    rows = list(csv.reader(io.StringIO(table.decode("utf-8"), newline="")))
    at = [rows[0].index(name) for name in order]
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator="\n").writerows([row[i] for i in at] for row in rows)
    return out.getvalue().encode("utf-8")


def _run(cli, config: pathlib.Path, steps) -> bool:
    """Run each CLI step in turn; False, said on stderr, at the first that fails."""
    for step in steps:
        with contextlib.redirect_stdout(io.StringIO()) as said:
            code = cli(list(step))
        if code != 0:
            sys.stderr.write(f"{config}: {' '.join(step)} exited {code}\n{said.getvalue()}")
            return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=("tiny", "full"), default="tiny")
    ap.add_argument("out", type=pathlib.Path, help="directory the runs write into")
    args = ap.parse_args(argv)

    # one BLAS thread, as in the benchmark: a threaded dot product adds in
    # another order, so the last digits of a long sum follow the core count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    from tracebounds.cli import main as cli
    from workloads import NAMES, prepare

    args.out.mkdir(parents=True, exist_ok=True)
    os.chdir(args.out)
    rows = []
    for name in NAMES:
        for seed in SEEDS:
            config = pathlib.Path(f"{name}-{args.size}-s{seed}")
            if not _run(cli, config, prepare(name, seed, args.size, config).steps):
                return 1
            rows.append((str(config), _digests(config)))

    demo = pathlib.Path("run_demo")
    demo.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_demo.py"), "out"],
        cwd=demo, env=env, stdout=subprocess.DEVNULL, check=True,
    )
    rows.append(("run_demo", _digests(demo)))

    blank = pathlib.Path(f"ingest_bounds-{args.size}-s1-blank-m")
    blank.mkdir(exist_ok=True)
    table = (pathlib.Path(f"ingest_bounds-{args.size}-s1") / "trial.csv").read_bytes()
    (blank / "trial.csv").write_bytes(blank_last_control_m(table))
    if not _run(cli, blank, [["bounds", "--input", str(blank / "trial.csv"), "--out-report", str(blank / "bounds.json")]]):
        return 1
    rows.append((str(blank), _digests(blank)))

    permuted = pathlib.Path(f"analyze_blocks_ols-{args.size}-s1-permuted")
    job = prepare("analyze_blocks_ols", 1, args.size, permuted)
    data = job.expect["input"]
    data.write_bytes(_reordered(data.read_bytes(), PERMUTED))
    if not _run(cli, permuted, job.steps):
        return 1
    rows.append((str(permuted), _digests(permuted)))

    print("| config | digests |")
    print("|---|---|")
    for config, digests in rows:
        print(f"| {config} | {digests} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
