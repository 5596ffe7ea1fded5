import json
import pathlib
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from tracebounds.cli import main


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def _read_json(path) -> dict:
    return json.loads(path.read_text())


DGP_INI = """\
[dgp]
n = 2000
noise_sd = 0.5
type3 = true
seed = 11

[dgp.strata]
at = 0.2
c = 0.3
nt = 0.5

[dgp.means]
at = 0.5, 1.5
c = 0, 2.0
nt = 0, 0
"""


def test_analyze_zero_preset(capsys, toy_path, tmp_path):
    table = tmp_path / "curve.csv"
    report_path = tmp_path / "report.json"
    code, out = run(
        capsys,
        "analyze",
        "--input", str(toy_path),
        "--preset", "zero",
        "--replicates", "80",
        "--seed", "0",
        "--out-table", str(table),
        "--out-report", str(report_path),
    )
    assert code == 0
    status = json.loads(out)
    assert status["status"] == "ok"
    assert status["combined"] == "FEASIBLE"

    rep = _read_json(report_path)
    assert rep["te_hat"] == pytest.approx(1.0)
    assert rep["p_hat"] == pytest.approx(2.0 / 3.0)
    # a zero non-reactive effect pins the reactive effect at te / p
    assert rep["preset_interval"]["lo"] == pytest.approx(1.5)
    assert rep["preset_interval"]["hi"] == pytest.approx(1.5)
    assert rep["no_assumption_bounds"]["lo"] == pytest.approx(1.0)
    assert rep["no_assumption_bounds"]["hi"] == pytest.approx(2.0)
    assert rep["mt_bounds"]["lo"] == pytest.approx(1.5)
    assert rep["mt_bounds"]["hi"] == pytest.approx(2.0)
    assert rep["mt_bounds"]["alpha_hat"] == pytest.approx(0.5)
    assert rep["mt_bounds"]["pi_hat"] == pytest.approx(0.5)
    assert rep["combined"]["lo"] == pytest.approx(1.5)
    assert rep["combined"]["hi"] == pytest.approx(1.5)
    assert rep["threshold_trace0"]["value"] == pytest.approx(3.0)
    assert rep["naive"]["wald_late"] == pytest.approx(3.0)
    # the default grid spans the non-reactive values consistent with trimming
    assert rep["curve"]["rows"] == 21

    lines = table.read_bytes().decode().split("\r\n")
    assert lines[0] == "trace0,trace_hat,ci_lo,ci_hi,within_trim_bounds"
    assert lines[-1] == ""
    assert len(lines) == 23  # header + 21 rows + trailing newline


def test_analyze_grid_table(capsys, toy_path, tmp_path):
    table = tmp_path / "curve.csv"
    report_path = tmp_path / "report.json"
    code, _ = run(
        capsys,
        "analyze",
        "--input", str(toy_path),
        "--grid=-1:1:0.1",
        "--replicates", "50",
        "--out-table", str(table),
        "--out-report", str(report_path),
    )
    assert code == 0
    lines = [l for l in table.read_bytes().decode().split("\r\n") if l]
    assert len(lines) == 22
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == -1.0
    assert float(last[0]) == 1.0
    # toy: te = 1, p = 2/3, so trace = 1.5 - trace0 / 2
    assert float(first[1]) == pytest.approx(2.0)
    assert float(last[1]) == pytest.approx(1.0)
    assert first[4] in ("true", "false")
    rep = _read_json(report_path)
    assert rep["assumption"]["kind"] == "GRID"
    assert rep["curve"]["rows"] == 22 - 1


def test_analyze_halfline_serializes_inf(capsys, toy_path, tmp_path):
    report_path = tmp_path / "report.json"
    code, _ = run(
        capsys,
        "analyze",
        "--input", str(toy_path),
        "--preset", "opposite-sign",
        "--replicates", "50",
        "--out-table", str(tmp_path / "t.csv"),
        "--out-report", str(report_path),
    )
    assert code == 0
    rep = _read_json(report_path)
    assert rep["preset_interval"]["lo"] == pytest.approx(1.5)
    assert rep["preset_interval"]["hi"] == "inf"
    # intersecting with the trimming bounds cuts the half-line down
    assert rep["combined"]["hi"] == pytest.approx(2.0)


def test_analyze_infeasible_exits_zero(capsys, toy_path, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[input]\n"
        f"path = {toy_path}\n"
        "[assumption]\n"
        "point = 100\n"
        "[bootstrap]\n"
        "replicates = 50\n"
        "[outputs]\n"
        f"table = {tmp_path / 'c.csv'}\n"
        f"report = {tmp_path / 'r.json'}\n"
    )
    code, out = run(capsys, "analyze", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["combined"] == "INFEASIBLE"
    rep = _read_json(tmp_path / "r.json")
    assert rep["combined"] == "INFEASIBLE"
    # the implied point sits far below the trimming bounds
    assert rep["preset_interval"]["lo"] == pytest.approx(-48.5)


def test_analyze_flags_override_config(capsys, toy_path, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[input]\n"
        f"path = {toy_path}\n"
        "[assumption]\n"
        "preset = zero\n"
        "[bootstrap]\n"
        "replicates = 50\n"
        "seed = 5\n"
        "[outputs]\n"
        f"table = {tmp_path / 'c.csv'}\n"
        f"report = {tmp_path / 'r.json'}\n"
    )
    code, _ = run(capsys, "analyze", "--config", str(cfg), "--replicates", "23", "--seed", "9")
    assert code == 0
    rep = _read_json(tmp_path / "r.json")
    assert rep["bootstrap"]["replicates"] == 23
    assert rep["bootstrap"]["seed"] == 9


def test_analyze_needs_an_assumption(capsys, toy_path, tmp_path):
    code, out = run(
        capsys,
        "analyze",
        "--input", str(toy_path),
        "--out-table", str(tmp_path / "c.csv"),
        "--out-report", str(tmp_path / "r.json"),
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvariantViolation"


def test_analyze_chart(capsys, toy_path, tmp_path):
    chart = tmp_path / "chart.svg"
    code, _ = run(
        capsys,
        "analyze",
        "--input", str(toy_path),
        "--preset", "zero",
        "--replicates", "50",
        "--out-table", str(tmp_path / "c.csv"),
        "--out-report", str(tmp_path / "r.json"),
        "--out-chart", str(chart),
    )
    assert code == 0
    root = ET.fromstring(chart.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f".//{ns}path")) == 1
    assert len(root.findall(f".//{ns}rect")) == 1  # feasible combined region
    assert len(root.findall(f".//{ns}circle")) == 2
    assert len(root.findall(f".//{ns}line")) == 6 + 21  # axes, 4 ticks, whiskers


def test_analyze_infeasible_chart_has_no_shading(capsys, toy_path, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[input]\n"
        f"path = {toy_path}\n"
        "[assumption]\n"
        "point = 100\n"
        "[bootstrap]\n"
        "replicates = 50\n"
        "[outputs]\n"
        f"table = {tmp_path / 'c.csv'}\n"
        f"report = {tmp_path / 'r.json'}\n"
        f"chart = {tmp_path / 'chart.svg'}\n"
    )
    code, _ = run(capsys, "analyze", "--config", str(cfg))
    assert code == 0
    root = ET.fromstring((tmp_path / "chart.svg").read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f".//{ns}rect")) == 0
    assert len(root.findall(f".//{ns}path")) == 1


def test_bounds_from_moments(capsys):
    code, out = run(capsys, "bounds", "--from-moments", "0.2334", "0.1726")
    assert code == 0
    rep = json.loads(out)
    assert round(rep["dim_m1"], 4) == 0.0608
    assert round(rep["type3_bounds"]["lo"], 4) == 0.0608
    assert round(rep["type3_bounds"]["hi"], 4) == 0.2334


def test_bounds_reports_skipped_mt(capsys, tmp_path):
    p = tmp_path / "no_ctrl_m.csv"
    p.write_text("y,d,m\n2,1,1\n3,1,1\n1,1,0\n0,0,\n1,0,\n2,0,\n")
    code, out = run(capsys, "bounds", "--input", str(p))
    assert code == 0
    rep = json.loads(out)
    assert rep["no_assumption_bounds"]["lo"] == pytest.approx(1.0)
    assert "skipped" in rep["mt_bounds"]
    assert "RequirementUnmet" in rep["mt_bounds"]["skipped"]
    assert rep["naive"]["as_treated"] is None


def test_bounds_type3_flag(capsys, toy_path):
    code, out = run(capsys, "bounds", "--input", str(toy_path), "--type3")
    assert code == 0
    rep = json.loads(out)
    # treated reactive mean 2.5, control reactive mean 0
    assert rep["type3_bounds"]["lo"] == pytest.approx(2.5)
    assert rep["type3_bounds"]["hi"] == pytest.approx(2.5)


def test_threshold(capsys, toy_path):
    code, out = run(capsys, "threshold", "--input", str(toy_path), "--target", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["required_trace0"] == pytest.approx(3.0)


def test_threshold_config_report_path(capsys, toy_path, tmp_path):
    cfg = tmp_path / "thr.ini"
    cfg.write_text(f"[input]\npath = {toy_path}\n[outputs]\nreport = {tmp_path / 'thr.json'}\n")
    code, out = run(capsys, "threshold", "--config", str(cfg))
    assert code == 0
    assert out == ""
    assert _read_json(tmp_path / "thr.json")["required_trace0"] == pytest.approx(3.0)


def test_simulate_deterministic_and_truthful(capsys, tmp_path):
    cfg = tmp_path / "dgp.ini"
    cfg.write_text(DGP_INI)
    a_csv, a_json = tmp_path / "a.csv", tmp_path / "a.json"
    assert run(capsys, "simulate", "--config", str(cfg), "--out-table", str(a_csv), "--out-report", str(a_json))[0] == 0
    first_csv = a_csv.read_bytes()
    first_json = a_json.read_bytes()
    # rerunning to the same paths must reproduce both files byte for byte
    assert run(capsys, "simulate", "--config", str(cfg), "--out-table", str(a_csv), "--out-report", str(a_json))[0] == 0
    assert a_csv.read_bytes() == first_csv
    assert a_json.read_bytes() == first_json

    truth = _read_json(a_json)
    assert truth["trace"] == pytest.approx(1.6)
    assert truth["trace0"] == 0.0  # outcome only occurs through the reaction
    assert truth["te"] == pytest.approx(0.8)
    assert truth["p_m1"] == pytest.approx(0.5)

    c_csv = tmp_path / "c.csv"
    assert run(capsys, "simulate", "--config", str(cfg), "--seed", "12", "--out-table", str(c_csv), "--out-report", str(tmp_path / "c.json"))[0] == 0
    assert c_csv.read_bytes() != a_csv.read_bytes()


def test_simulate_then_analyze_recovers_truth(capsys, tmp_path):
    cfg = tmp_path / "dgp.ini"
    cfg.write_text(DGP_INI)
    data = tmp_path / "data.csv"
    run(capsys, "simulate", "--config", str(cfg), "--out-table", str(data), "--out-report", str(tmp_path / "truth.json"))
    report_path = tmp_path / "report.json"
    code, _ = run(
        capsys,
        "analyze",
        "--input", str(data),
        "--preset", "zero",
        "--replicates", "60",
        "--out-table", str(tmp_path / "curve.csv"),
        "--out-report", str(report_path),
    )
    assert code == 0
    rep = _read_json(report_path)
    # with trace0 = 0 in truth, the zero preset should recover trace = 1.6
    assert rep["preset_interval"]["lo"] == pytest.approx(1.6, abs=0.15)
    assert rep["no_assumption_bounds"]["lo"] <= rep["preset_interval"]["lo"] <= rep["no_assumption_bounds"]["hi"]


def test_missing_column_is_a_validation_error(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("y,d\n1,1\n0,0\n")
    code, out = run(capsys, "bounds", "--input", str(p))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "MissingColumn"


def test_parse_error_carries_location(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("y,d,m\n1,1,1\nzap,0,0\n")
    code, out = run(capsys, "bounds", "--input", str(p))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ParseError"
    assert err["row"] == 2
    assert err["column"] == "y"


@pytest.mark.parametrize(
    "data, row, column",
    [(b"y,d,m\n1,1,1\n\xff2,0,0\n", 2, "y"), (b"y,d,m\n1,1,1\n" + b"7" * 140000 + b",0,0\n", 2, None)],
    ids=["invalid UTF-8", "over-long field"],
)
@pytest.mark.parametrize(
    "command", [("bounds",), ("analyze", "--preset", "zero", "--replicates", "5")], ids=["bounds", "analyze"]
)
def test_undecodable_or_over_long_input_is_a_parse_error(capsys, tmp_path, data, row, column, command):
    p = tmp_path / "bad.csv"
    p.write_bytes(data)
    if command[0] == "analyze":
        command += ("--out-table", str(tmp_path / "curve.csv"), "--out-report", str(tmp_path / "report.json"))
    code, out = run(capsys, *command, "--input", str(p))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ParseError"
    assert err.get("row") == row
    assert err.get("column") == column


def test_invariant_error_carries_row(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("y,d,m\n1,1,1\n\n2,7,0\n")
    code, out = run(capsys, "bounds", "--input", str(p))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "InvariantViolation"
    assert err["row"] == 3  # the blank line keeps its number
    assert err["message"] == "row 3: d must be 0 or 1, got 7.0"


def test_all_reactors_under_uneven_weights(capsys, tmp_path):
    from test_estimators import ALL_REACT_WEIGHTS

    k = len(ALL_REACT_WEIGHTS)
    # every treated unit reacts, every other control unit
    rows = [f"{i},{int(i < k)},{int(i < k or i % 2)},{w}" for i, w in enumerate(ALL_REACT_WEIGHTS * 2)]
    p = tmp_path / "all_react.csv"
    p.write_text("y,d,m,w\n" + "\n".join(rows) + "\n")
    report = tmp_path / "report.json"
    analyze = ["analyze", "--preset", "zero", "--replicates", "20", "--out-table", str(tmp_path / "curve.csv")]
    for command in (["bounds"], analyze):
        code, out = run(capsys, *command, "--input", str(p), "--weight", "w", "--out-report", str(report))
        assert code == 0, out
        assert _read_json(report)["p_hat"] == 1.0


def test_missing_file_is_an_io_error(capsys, tmp_path):
    code, out = run(capsys, "bounds", "--input", str(tmp_path / "nope.csv"))
    assert code == 3
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"


def _loaded_by_cli_import(modules: tuple[str, ...]) -> str:
    """Those of ``modules`` that a fresh ``import tracebounds.cli`` loads, as printed."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import tracebounds.cli; "
        f"print([m for m in {modules!r} if m in sys.modules])"
    )
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout.strip()


def test_cli_import_pulls_in_no_network_modules():
    # the SVG writer needs no XML library, and with one come urllib.request, http.client and email
    assert _loaded_by_cli_import(("xml.sax", "urllib.request", "http.client", "email")) == "[]"


def test_cli_import_loads_no_thread_pool():
    # only a threaded bootstrap_replicates needs concurrent.futures, and the CLI never asks for threads
    assert _loaded_by_cli_import(("concurrent.futures",)) == "[]"


def test_console_script_runs():
    exe = shutil.which("tracebounds")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "bounds", "--from-moments", "0.2334", "0.1726"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["type3_bounds"]["hi"] == pytest.approx(0.2334)


def _analyze_config(tmp_path, toy_path, extra: str) -> str:
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[input]\n"
        f"path = {toy_path}\n"
        "[outputs]\n"
        f"table = {tmp_path / 'c.csv'}\n"
        f"report = {tmp_path / 'r.json'}\n" + extra
    )
    return str(cfg)


def test_config_integers_are_exact(capsys, toy_path, tmp_path):
    # 2**53 + 1 does not survive a round trip through float
    cfg = _analyze_config(tmp_path, toy_path, "[assumption]\npreset = zero\n[bootstrap]\nreplicates = 20\nseed = 9007199254740993\n")
    code, _ = run(capsys, "analyze", "--config", cfg)
    assert code == 0
    assert _read_json(tmp_path / "r.json")["bootstrap"]["seed"] == 9007199254740993


@pytest.mark.parametrize(
    "extra",
    [
        "[assumption]\npreset = zero\n[bootstrap]\nreplicates = 20.7\n",
        "[assumption]\npreset = zero\n[bootstrap]\nseed = 1.9\n",
        "[assumption]\npreset = zero\n[bootstrap]\nlevel = most\n",
        "[assumption]\ninterval = a:1\n",
    ],
    ids=["replicates", "seed", "level", "interval"],
)
def test_config_rejects_inexact_analyze_numbers(capsys, toy_path, tmp_path, extra):
    code, out = run(capsys, "analyze", "--config", _analyze_config(tmp_path, toy_path, extra))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvariantViolation"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "old, new",
    [
        ("n = 2000", "n = 1e4"),
        ("seed = 11", "seed = 11.5"),
        ("noise_sd = 0.5", "noise_sd = half"),
        ("at = 0.2", "at = a fifth"),
        ("c = 0, 2.0", "c = 0, two"),
    ],
    ids=["n", "seed", "noise_sd", "strata", "means"],
)
def test_config_rejects_malformed_dgp_numbers(capsys, tmp_path, old, new):
    assert old in DGP_INI
    cfg = tmp_path / "dgp.ini"
    cfg.write_text(DGP_INI.replace(old, new, 1))
    code, out = run(capsys, "simulate", "--config", str(cfg), "--out-table", str(tmp_path / "a.csv"), "--out-report", str(tmp_path / "a.json"))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvariantViolation"
