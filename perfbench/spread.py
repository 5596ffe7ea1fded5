#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage:
    python3 perfbench/spread.py [--workloads A,B] [--seeds 1,2,...] [--seconds S] [--out FILE]

Runs ``run.py --trace 0`` once per (workload, seed), one at a time, and
for each end-to-end metric reports the median of the per-run values and
their spread: the distance between the first and third quartile as a
share of the median. A benchmark is steady when every spread except
that of setup_s stays well inside the metric's bound in BENCHMARK.json.
``--out`` writes every run's result and the summary as JSON.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs, summary, ok, environment = [], {}, True, None
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in args.seeds.split(","):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", seed, "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((ROOT / ".bench_work" / workload / "record.json").read_text())
            environment = record["environment"]
            runs.append({"workload": workload, "seed": int(seed), **result})
            ok = ok and result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            shown = "" if args.trace else " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items())
            print(f"{workload} seed={seed} correct={result['correct']} {shown}", flush=True)
        summary[workload] = {}
        for m in metrics:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                            "bound": m.get("bound"), "n": len(vals)}
            if "bound" in m:
                flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- above bound/3"
                print(f"  {workload} {m['name']} [{m['unit']}] median={med:.6g} spread={spread:.4f} "
                      f"bound={m['bound']}{flag}", flush=True)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(
            {"environment": environment, "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
