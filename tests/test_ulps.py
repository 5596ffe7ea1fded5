import importlib.util
import json
import pathlib

import numpy as np

_SPEC = importlib.util.spec_from_file_location("ulps", pathlib.Path(__file__).parent.parent / "scripts" / "ulps.py")
ulps = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ulps)


def test_ordinal_counts_float64_values_between():
    x = 0.1
    assert ulps._ordinal(np.nextafter(x, 1.0)) - ulps._ordinal(x) == 1
    assert ulps._ordinal(0.0) == ulps._ordinal(-0.0)
    tiny = np.nextafter(0.0, 1.0)
    assert ulps._ordinal(tiny) - ulps._ordinal(-tiny) == 2


def _write(root: pathlib.Path, lo: float, flag: str) -> None:
    (root / "run").mkdir(parents=True)
    (root / "run" / "report.json").write_text(json.dumps({"bounds": {"lo": lo, "hi": 2.0}, "input": "in.csv"}))
    (root / "run" / "curve.csv").write_bytes(f"trace0,trace_hat,within_trim_bounds\r\n0.5,{lo!r},{flag}\r\n".encode())


def test_lists_moved_values_and_flips(tmp_path, capsys):
    lo = 0.8234910813834045
    _write(tmp_path / "base", lo, "true")
    _write(tmp_path / "head", float(np.nextafter(np.nextafter(lo, 1.0), 1.0)), "false")
    assert ulps.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "2 values moved, 1 within_trim_bounds flips, 0 other differences"
    assert "| run/report.json | bounds.lo | 0.8234910813834045 | 0.8234910813834048 | 2 | 2.22e-16 |" in out
    assert "| run/curve.csv | row 1 trace_hat |" in out
    assert "| run/curve.csv | row 1 within_trim_bounds | true | false |" in out


def test_groups_the_moved_values_by_file_and_field_above_the_rows(tmp_path, capsys):
    def up(v):
        return float(np.nextafter(v, 9.0))

    sides = {"base": ([0.5, 1.5, 2.5], [0.1, 0.2, 0.3]), "head": ([0.5, up(1.5), up(up(2.5))], [0.1, 0.2, up(0.3)])}
    for side, (band, column) in sides.items():
        root = tmp_path / side / "run"
        root.mkdir(parents=True)
        (root / "report.json").write_text(json.dumps({"bands": [[v] for v in band]}))
        (root / "curve.csv").write_bytes(("trace_hat\r\n" + "".join(f"{v!r}\r\n" for v in column)).encode())
    assert ulps.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "3 values moved, 0 within_trim_bounds flips, 0 other differences"
    grouped = lines.index("| file | field | values moved | max ulps | max abs |")
    rows = lines.index("| file | field | base | head | ulps | abs |")
    assert lines[grouped + 2 : rows - 1] == [
        "| run/curve.csv | trace_hat | 1 | 1 | 5.55e-17 |",
        "| run/report.json | bands[][] | 2 | 2 | 8.88e-16 |",
    ]
    assert len(lines) == rows + 2 + 3
