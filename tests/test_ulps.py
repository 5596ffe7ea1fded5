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
