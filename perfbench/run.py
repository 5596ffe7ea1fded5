#!/usr/bin/env python3
"""Benchmark of the tracebounds batch CLI on seeded workloads.

Usage (from anywhere; paths resolve against the checkout that holds
this file):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in workloads.py with the reason each exists. One
run of a workload is one or two fresh CLI processes on inputs made from
``--seed``; runs repeat one at a time (a closed loop with one client,
as a batch tool has no arrival stream) until ``--seconds`` have passed.
Every run's outputs are checked (check.py); a non-zero exit or any
mismatch counts as a failed run.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are
reported: medians over the runs, with quartiles and sample counts on
the human-readable lines. With ``--trace 1`` untraced and traced runs
alternate, and the per-layer metrics come from the traced runs' spans
(spans.py); the difference of the two medians is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files
and a full record of the run (samples, quartiles, environment) go to
``.bench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = pathlib.Path("perfbench") / "child.py"
WORK = pathlib.Path(".bench_work")

SETUP_REPEATS = 7      # fewest fresh-interpreter imports timed for setup_s
MIN_RUNS = 3           # timed runs per invocation, whatever --seconds says
CHILD_TIMEOUT_S = 120  # a CLI process running longer is killed and its run fails
# BLAS threads per CLI process. Fixed, so that the OLS workload's QR
# timings do not follow the machine's core count, as OpenBLAS's default
# thread count does.
BLAS_THREADS = 1


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the smoke test")
    return ap.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    cap = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def environment(env: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
    }


class Child:
    """Runs one child.py process and measures its wall time."""

    def __init__(self, env: dict, log_dir: pathlib.Path):
        self.env = env
        self.log_dir = log_dir

    def run(self, args: list[str]) -> tuple[int, float]:
        """Returns (exit code, wall seconds from start to exit)."""
        cmd = [sys.executable, "-s", str(CHILD), *args]
        with open(self.log_dir / "child.out", "wb") as out, open(self.log_dir / "child.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            return code, time.perf_counter() - t0

    def stderr_tail(self) -> str:
        return (self.log_dir / "child.err").read_text(errors="replace")[-400:].strip()


def _run_job(child: Child, job, spans_dir: pathlib.Path | None = None) -> dict:
    """One run of a job: its steps in order, each in a fresh process."""
    wall = rss = 0.0
    span_files = []
    rss_file = child.log_dir / "child.rss"
    for i, step in enumerate(job.steps):
        args = ["--rss", str(rss_file), "--", *step]
        if spans_dir is not None:
            span_files.append(str(spans_dir / f"step{i}.json"))
            args = ["--spans", span_files[-1], *args]
        code, w = child.run(args)
        wall += w
        if code != 0:
            return {"ok": False, "wall": wall, "rss": rss,
                    "problem": f"{step[0]} exited {code}: {child.stderr_tail()}"}
        rss = max(rss, int(rss_file.read_text()) / 1024.0)
    return {"ok": True, "wall": wall, "rss": rss, "spans": span_files}


def _digests(job, digest) -> dict:
    return {k: digest(p) for k, p in job.outputs.items()}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    args = _parse(argv)
    # SIGTERM unwinds like an exception, so Child.run kills its process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "tracebounds" / "__init__.py").is_file():
        sys.stderr.write(f"no tracebounds sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import tracebounds

    if pathlib.Path(tracebounds.__file__).resolve().parent != SRC / "tracebounds":
        sys.stderr.write(f"imported tracebounds from {tracebounds.__file__}, not {SRC}\n")
        return 2
    from check import check, compare, digest, reference_values
    from spans import layer_metrics
    from workloads import DEFAULT_SEED, NAMES, SIZES, prepare

    if args.workload not in NAMES:
        sys.stderr.write(f"unknown workload {args.workload!r}; expected one of {NAMES}\n")
        return 2
    os.chdir(ROOT)
    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    reference = json.loads((pathlib.Path("perfbench") / "reference.json").read_text())
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _child_env()
    child = Child(env, work)
    problems: list[str] = []

    # Untimed: the workload at the default seed and tiny size, whose
    # bootstrap bands must equal the recorded reference values. This
    # run also compiles the package's bytecode before anything is timed.
    ref_job = prepare(args.workload, DEFAULT_SEED, "tiny", work / "reference")
    ref_run = _run_job(child, ref_job)
    if ref_run["ok"]:
        ref_found = check(ref_job) + compare(reference_values(ref_job), reference[args.workload])
    else:
        ref_found = [ref_run["problem"]]
    problems += [f"reference run: {m}" for m in ref_found]

    setup = []

    def time_import() -> None:
        code, wall = child.run(["--import-only"])
        if code != 0:
            problems.append(f"import of tracebounds.cli exited {code}: {child.stderr_tail()}")
        setup.append(wall)

    job = prepare(args.workload, args.seed, args.size, work / "run")
    spans_dir = work / "spans"
    spans_dir.mkdir()
    plain, traced = [], []
    first_digests = None
    attempted, failed = 1, int(bool(ref_found))  # the reference run counts
    start = time.perf_counter()
    while True:
        for kind in (("plain", "traced") if args.trace else ("plain",)):
            attempted += 1
            run = _run_job(child, job, spans_dir if kind == "traced" else None)
            if run["ok"]:
                if first_digests is None:
                    found = check(job)
                    first_digests = _digests(job, digest)
                else:
                    got = _digests(job, digest)
                    found = [f"{k} digest differs from the first run" for k in got if got[k] != first_digests[k]]
                if found:
                    run["ok"] = False
                    run["problem"] = "; ".join(found[:5])
            if run["ok"] and kind == "traced":
                run["layers"] = layer_metrics(run["spans"], run["wall"])
                run["layers"]["cli.bytes_written"] = sum(p.stat().st_size for p in job.outputs.values())
            if not run["ok"]:
                failed += 1
                problems.append(f"run {attempted}: {run['problem']}")
            (traced if kind == "traced" else plain).append(run)
        # set-up samples spread over the same window as the runs
        time_import()
        if time.perf_counter() - start >= args.seconds and len(plain) >= MIN_RUNS:
            break
    while len(setup) < SETUP_REPEATS:
        time_import()

    good = [r for r in plain if r["ok"]] or plain
    walls = [r["wall"] for r in good]
    size = SIZES[args.size][args.workload]
    samples = {
        "wall_s": walls,
        "rows_per_s": [size.n / w for w in walls],
        "setup_s": setup,
        "peak_rss_mb": [r["rss"] for r in good],
    }
    if size.replicates:
        samples["replicates_per_s"] = [size.replicates / w for w in walls]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"replicates_per_s": "1/s", "failed_frac": "ratio"})

    env_record = environment(env)
    print(f"workload {args.workload} seed={args.seed} size={args.size}: {why}")
    print("env " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    summary = {}
    for name, values in samples.items():
        q1, med, q3 = _quartiles(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": units[name]}
        print(f"{name} [{units[name]}] median={med!r} q1={q1!r} q3={q3!r} n={len(values)}")
    summary["failed_frac"] = {"value": failed / attempted, "unit": "ratio", "n": attempted}
    print(f"failed_frac [ratio] {failed / attempted!r} ({failed} of {attempted} runs)")

    if args.trace:
        good_traced = [r for r in traced if r["ok"]]
        layers = {}
        if good_traced:
            for name in good_traced[0]["layers"]:
                layers[name] = statistics.median(r["layers"][name] for r in good_traced)
            t_wall = statistics.median(r["wall"] for r in good_traced)
            layers["trace.wall_s"] = t_wall
            layers["trace.overhead_s"] = t_wall - summary["wall_s"]["median"]
        for name, value in layers.items():
            print(f"{name} [{units[name]}] {value!r}")
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]}
        summary["per_layer"] = layers
    else:
        metrics = {m["name"]: {"value": summary[m["name"]]["median"], "unit": m["unit"]} for m in spec["end_to_end"]}

    for p in problems:
        print(f"FAILED {p}")
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "why": why, "environment": env_record, "summary": summary,
        "samples": samples, "problems": problems,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
