#!/usr/bin/env python3
"""Record reference.json: every workload at the default seed and tiny size.

Usage: python3 perfbench/record_reference.py

Run it only when a change to the bootstrap or simulate streams is
intended; run.py compares every invocation's reference run against
this file, and the outputs must pass check.py before they are recorded.
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from check import check, reference_values
    from workloads import DEFAULT_SEED, NAMES, prepare

    os.chdir(run.ROOT)
    work = run.WORK / "record_reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    child = run.Child(run._child_env(), work)
    values = {}
    for name in NAMES:
        job = prepare(name, DEFAULT_SEED, "tiny", work / name)
        result = run._run_job(child, job)
        problems = [result["problem"]] if not result["ok"] else check(job)
        if problems:
            sys.stderr.write(f"{name}: {problems}\n")
            return 1
        values[name] = reference_values(job)
    (run.ROOT / "perfbench" / "reference.json").write_text(json.dumps(values, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
