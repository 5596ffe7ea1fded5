#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes.

Usage: python3 perfbench/smoke.py

Checks that every workload runs clean with tracing off and on, that
every metric of BENCHMARK.json prints by name with its unit (plus
replicates_per_s and failed_frac on the human-readable lines), that the
output checker and the reference comparison flag a perturbed report,
and that the benchmark refuses to run without the package sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


class MetricsPrint(unittest.TestCase):
    def _check(self, workload: str, trace: int) -> None:
        proc = _bench("--workload", workload, "--seed", "2", "--seconds", "1",
                      "--trace", str(trace), "--size", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        printed = [("failed_frac", "ratio")]
        if workload.startswith("analyze"):
            printed.append(("replicates_per_s", "1/s"))
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            printed.append((m["name"], m["unit"]))
        for name, unit in printed:
            pattern = re.compile(rf"^{re.escape(name)} \[{re.escape(unit)}\] ", re.M)
            self.assertRegex(proc.stdout, pattern, f"{name} [{unit}] not printed")

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self._check(workload, 0)

    def test_per_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self._check(workload, 1)


class CheckerFires(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.SRC))
        os.chdir(ROOT)
        from check import check, compare, reference_values
        from workloads import DEFAULT_SEED, prepare

        cls.check = staticmethod(check)
        cls.compare = staticmethod(compare)
        cls.reference_values = staticmethod(reference_values)
        cls.work = run.WORK / "smoke"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)
        child = run.Child(run._child_env(), cls.work)
        cls.jobs = {}
        for name in ("analyze_rows", "ingest_bounds"):
            job = prepare(name, DEFAULT_SEED, "tiny", cls.work / name)
            result = run._run_job(child, job)
            assert result["ok"], result
            cls.jobs[name] = job
        cls.reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())

    def _perturb(self, job, section, key, factor):
        path = job.outputs["report"]
        original = path.read_text()
        rep = json.loads(original)
        target = rep if section is None else rep[section]
        target[key] *= factor
        path.write_text(json.dumps(rep))
        self.addCleanup(path.write_text, original)

    def test_clean_outputs_pass(self):
        for name, job in self.jobs.items():
            self.assertEqual(self.check(job), [], name)
            self.assertEqual(self.compare(self.reference_values(job), self.reference[name]), [], name)

    def test_perturbed_point_value_fails(self):
        job = self.jobs["analyze_rows"]
        self._perturb(job, None, "te_hat", 1 + 1e-9)
        self.assertTrue(any(p.startswith("te_hat") for p in self.check(job)))

    def test_perturbed_band_fails_reference(self):
        job = self.jobs["analyze_rows"]
        self._perturb(job, "no_assumption_bounds", "ci_lo", 1 + 1e-9)
        bad = self.compare(self.reference_values(job), self.reference["analyze_rows"])
        self.assertTrue(any(p.startswith("no_assumption_bounds[2]") for p in bad), bad)

    def test_perturbed_bounds_report_fails(self):
        job = self.jobs["ingest_bounds"]
        self._perturb(job, "type3_bounds", "hi", 1 + 1e-9)
        self.assertTrue(any(p.startswith("type3_bounds.hi") for p in self.check(job)))


class NeedsSources(unittest.TestCase):
    def test_refuses_without_src(self):
        bare = ROOT / run.WORK / "smoke_bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
