import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "peaks.py"
STAGES = [
    "simulate",
    "load_csv (blocks)",
    "ReplicateEngine.run (blocks, ols)",
    "load_csv (a blank m in the last chunk)",
    "load_csv",
    "cell table",
    "naive_estimates",
    "full_sample_bounds",
    "layout",
    "ReplicateEngine.run",
]


def test_prints_each_stage_at_a_tiny_size():
    out = subprocess.run([sys.executable, str(SCRIPT), "3000"], capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert lines[:2] == ["| stage at n=3000 | traced peak MiB | bytes/unit | live MiB | bytes/unit |", "|---|---|---|---|---|"]
    rows = [line.strip("| ").split(" | ") for line in lines[2:]]
    assert [name for name, *_ in rows] == STAGES
    for _, peak, peak_per_unit, live, live_per_unit in rows:
        assert 0 < float(live) <= float(peak)
        assert 0 < float(live_per_unit) <= float(peak_per_unit)
        assert float(peak_per_unit) == pytest.approx(float(peak) * 2**20 / 3000, abs=0.05 * 2**20 / 3000 + 0.05)


def test_refuses_a_size_below_one():
    proc = subprocess.run([sys.executable, str(SCRIPT), "0"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "N must be a positive integer" in proc.stderr


def test_prints_the_peak_resident_set_of_each_ingest_step():
    out = subprocess.run([sys.executable, str(SCRIPT), "--rss", "3000", "5000"], capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 10
    for table, n in zip((lines[:5], lines[5:]), (3000, 5000)):
        assert table[:2] == [f"| process at n={n} | peak RSS MiB |", "|---|---|"]
        rows = [line.strip("| ").split(" | ") for line in table[2:]]
        assert [name for name, _ in rows] == ["simulate", "bounds --type3", "analyze --preset zero --replicates 50"]
        for _, mib in rows:
            assert float(mib) > 0
