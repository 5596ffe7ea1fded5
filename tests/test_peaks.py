import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "peaks.py"
STAGES = [
    "simulate",
    "write_csv",
    "load_csv",
    "arm summaries",
    "full_sample_bounds",
    "naive_estimates",
    "ReplicateEngine.run",
]


def test_prints_each_stage_at_a_tiny_size():
    out = subprocess.run([sys.executable, str(SCRIPT), "3000"], capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert lines[:2] == ["| stage at n=3000 | traced peak MiB | live MiB |", "|---|---|---|"]
    rows = [line.strip("| ").split(" | ") for line in lines[2:]]
    assert [name for name, _, _ in rows] == STAGES
    for _, peak, live in rows:
        assert 0 < float(live) <= float(peak)


def test_refuses_a_size_below_one():
    proc = subprocess.run([sys.executable, str(SCRIPT), "0"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "N must be a positive integer" in proc.stderr
