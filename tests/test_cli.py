import argparse
import inspect
import json
import pathlib
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from tracebounds import cli
from tracebounds import data as data_module
from tracebounds import oracle as oracle_module
from tracebounds.cli import main
from tracebounds.data import write_csv
from tracebounds.errors import InvariantViolation, TraceBoundsError
from tracebounds.estimators import TEMethod
from tracebounds.inference import ResampleUnit
from tracebounds.oracle import DGPConfig, OutcomeMeans, StrataProbs, simulate
from tracebounds.sensitivity import AssumptionSpec


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


def test_bounds_refuses_an_input_flag_beside_moments(capsys, tmp_path):
    # the input does not exist: reading it would exit 3, ignoring it exits 0
    code, out = run(capsys, "bounds", "--input", str(tmp_path / "absent.csv"), "--from-moments", "1", "0.5")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "InvariantViolation", "message": "give either --input or --from-moments, not both"
    }


def test_bounds_from_moments_ignores_an_input_path_key(capsys, tmp_path):
    # one config serves every command, so its [input] path does not stop moments mode
    cfg = tmp_path / "shared.ini"
    cfg.write_text(f"[input]\npath = {tmp_path / 'absent.csv'}\n")
    code, out = run(capsys, "bounds", "--config", str(cfg), "--from-moments", "1", "0.5")
    assert code == 0
    assert json.loads(out)["dim_m1"] == 0.5


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


def _dgp(n: int = 2000, noise_sd: float = 0.5, type3: bool = True, strata=(0.2, 0.3, 0.5), seed: int = 11) -> DGPConfig:
    """The config DGP_INI describes, with the given changes; without type3,
    never-reactors have a treated mean of -0.5 (:func:`_dgp_ini` writes it)."""
    means = OutcomeMeans(at=(0.5, 1.5), c=(0.0, 2.0), nt=(0.0, 0.0 if type3 else -0.5))
    return DGPConfig(n=n, strata=StrataProbs(*strata), means=means, noise_sd=noise_sd, type3=type3, seed=seed)


def _dgp_ini(path: pathlib.Path, dgp: DGPConfig) -> pathlib.Path:
    at, c, nt = dgp.strata.at, dgp.strata.c, dgp.strata.nt
    path.write_text(
        f"[dgp]\nn = {dgp.n}\nnoise_sd = {dgp.noise_sd!r}\ntype3 = {str(dgp.type3).lower()}\nseed = {dgp.seed}\n\n"
        f"[dgp.strata]\nat = {at!r}\nc = {c!r}\nnt = {nt!r}\n\n"
        f"[dgp.means]\nat = 0.5, 1.5\nc = 0, 2.0\nnt = 0, {dgp.means.nt[1]!r}\n"
    )
    return path


@pytest.mark.parametrize("type3", [False, True])
def test_simulate_writes_the_table_of_the_simulated_dataset(capsys, tmp_path, monkeypatch, type3):
    # the command writes each chunk as it is drawn; the bytes are those of
    # write_csv on the dataset of the same config, across chunks of 64 rows
    monkeypatch.setattr(data_module, "_CHUNK", 64)
    monkeypatch.setattr(oracle_module, "_CHUNK", 64)
    dgp = _dgp(type3=type3)
    cfg = _dgp_ini(tmp_path / "dgp.ini", dgp)
    table = tmp_path / "a.csv"
    assert run(capsys, "simulate", "--config", str(cfg), "--out-table", str(table), "--out-report", str(tmp_path / "a.json"))[0] == 0
    write_csv(simulate(dgp)[0], tmp_path / "b.csv")
    assert table.read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize(
    "dgp",
    # at seed 73, three units of one arm, the second with an infinite y
    [_dgp(n=1), _dgp(n=3, noise_sd=1e308, seed=73), _dgp(noise_sd=1e308), _dgp(strata=(0.0, 0.0, 1.0))],
    ids=["one arm", "one arm and an infinite y", "an infinite y", "no reactive stratum"],
)
def test_simulate_refuses_what_the_library_refuses_and_leaves_the_table(capsys, tmp_path, dgp):
    # the error of oracle.simulate on the same config, with the table as it
    # was and no temporary file left beside it
    with pytest.raises(TraceBoundsError) as refused:
        simulate(dgp)
    cfg = _dgp_ini(tmp_path / "dgp.ini", dgp)
    table = tmp_path / "a.csv"
    table.write_text("old\n")
    code, out = run(capsys, "simulate", "--config", str(cfg), "--out-table", str(table), "--out-report", str(tmp_path / "a.json"))
    assert code == 2
    assert json.loads(out)["error"] == {"type": type(refused.value).__name__, "message": str(refused.value)}
    assert table.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "dgp.ini"]


@pytest.mark.parametrize("dgp", [_dgp(n=1), _dgp(n=3, noise_sd=1e308, seed=73)], ids=["one arm", "one arm and an infinite y"])
def test_simulate_refuses_a_draw_of_one_arm_as_it_writes(capsys, tmp_path, monkeypatch, dgp):
    # the dataset's error comes from the write itself, with no second draw of
    # the units through oracle.simulate
    with pytest.raises(TraceBoundsError) as refused:
        simulate(dgp)

    def draw_again(cfg):
        raise AssertionError("simulate drew the units a second time")

    monkeypatch.setattr(oracle_module, "simulate", draw_again)
    monkeypatch.setattr(cli, "simulate", draw_again, raising=False)
    cfg = _dgp_ini(tmp_path / "dgp.ini", dgp)
    table = tmp_path / "a.csv"
    code, out = run(capsys, "simulate", "--config", str(cfg), "--out-table", str(table), "--out-report", str(tmp_path / "a.json"))
    assert code == 2
    assert json.loads(out)["error"] == {"type": type(refused.value).__name__, "message": str(refused.value)}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dgp.ini"]


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


def test_ols_block_effects_need_a_label_on_every_unit(capsys, tmp_path):
    # the fourth unit's block cell is empty: block fixed effects fail as block draws do
    p = tmp_path / "blocks.csv"
    p.write_text("y,d,m,block\n2,1,1,a\n3,1,1,b\n1,1,0,a\n0,0,1,\n1,0,0,b\n2,0,0,a\n")
    code, out = run(
        capsys,
        "analyze",
        "--input", str(p),
        "--block", "block",
        "--te-method", "ols",
        "--preset", "zero",
        "--replicates", "5",
        "--out-table", str(tmp_path / "curve.csv"),
        "--out-report", str(tmp_path / "report.json"),
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "MissingBlockLabels"


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


def _loaded_by_cli_import(modules: tuple[str, ...], argv: tuple[str, ...] = ()) -> str:
    """Those of ``modules`` that a fresh ``import tracebounds.cli`` loads,
    and then a run of the CLI on ``argv`` when given, as printed."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import tracebounds.cli; "
        + (f"assert tracebounds.cli.main({list(argv)!r}) == 0; " if argv else "")
        + f"print([m for m in {modules!r} if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout
    return out.strip().splitlines()[-1]


def test_cli_import_pulls_in_no_network_modules():
    # the SVG writer needs no XML library, and with one come urllib.request, http.client and email
    assert _loaded_by_cli_import(("xml.sax", "urllib.request", "http.client", "email")) == "[]"


def test_cli_import_loads_no_thread_pool():
    # only a threaded bootstrap_replicates needs concurrent.futures, and the CLI never asks for threads
    assert _loaded_by_cli_import(("concurrent.futures",)) == "[]"


def test_cli_import_loads_no_spelling_helper():
    # a misspelt config section is found by an edit distance of its own, on the error path only
    assert _loaded_by_cli_import(("difflib",)) == "[]"


def test_analyze_loads_no_masked_arrays(tmp_path, toy_path):
    # np.quantile imports numpy.ma through np.unique; the percentile bands do without it
    argv = ("analyze", "--input", str(toy_path), "--preset", "zero", "--replicates", "20")
    for kind, name in (("report", "r.json"), ("table", "c.csv"), ("chart", "c.svg")):
        argv += (f"--out-{kind}", str(tmp_path / name))
    assert _loaded_by_cli_import(("numpy.ma",), argv) == "[]"


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


@pytest.mark.parametrize("text", ["0, 2.0, 3", "2.0"], ids=["three values", "one value"])
def test_config_refuses_a_dgp_mean_that_is_not_a_pair(capsys, tmp_path, text):
    cfg = tmp_path / "dgp.ini"
    cfg.write_text(DGP_INI.replace("c = 0, 2.0", f"c = {text}", 1))
    code, out = run(capsys, "simulate", "--config", str(cfg), "--out-table", str(tmp_path / "a.csv"), "--out-report", str(tmp_path / "a.json"))
    assert code == 2
    error = json.loads(out)["error"]
    assert (error["type"], error["message"]) == ("InvariantViolation", f"[dgp.means] c must be 'control, treated', got {text!r}")
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize(
    "value, text",
    [(float("nan"), "null"), ({}, "{}"), ([], "[]"), ((), "[]"), ({"a": [None, {}]}, '{\n  "a": [\n    null,\n    {}\n  ]\n}')],
    ids=["NaN", "empty dict", "empty list", "empty tuple", "nested"],
)
def test_report_json_writes_nan_and_empty_containers(value, text):
    assert cli._json_dumps(value) == text


def test_report_json_refuses_a_type_it_cannot_write():
    with pytest.raises(InvariantViolation) as ei:
        cli._json_dumps({"a": {1, 2}})
    assert str(ei.value) == "cannot serialize set"


# -- how each option gets its value ------------------------------------------
#
# Each case runs one subcommand through main() with its cmd_* function
# replaced by a recorder, so it sees the exact values the CLI resolved
# from flags and config text, without touching any data.

REQUIRED = "required"  # neither source given: a validation error, exit 2

# what each subcommand needs to reach its cmd_* function
_BASE_FLAGS = {
    "analyze": {"--input": "in.csv", "--preset": "zero", "--out-table": "t.csv", "--out-report": "r.json"},
    "bounds": {"--input": "in.csv"},
    "threshold": {"--input": "in.csv"},
    "simulate": {"--out-table": "t.csv", "--out-report": "r.json"},
}
_BASE_CONFIG = {
    "simulate": {
        "dgp": {"n": "50"},
        "dgp.strata": {"at": "0.2", "c": "0.3", "nt": "0.5"},
        "dgp.means": {"at": "0.5, 1.5", "c": "0, 2", "nt": "0, 0"},
    },
}

_CMD_SIGNATURES = {
    name: inspect.signature(getattr(cli, name)) for name in ("cmd_analyze", "cmd_bounds", "cmd_simulate", "cmd_threshold")
}


def _ini(config: dict) -> str:
    return "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for s, keys in config.items())


def _resolved(monkeypatch, capsys, tmp_path, command: str, flags: dict, config: dict | None):
    """Exit code, the arguments ``cmd_<command>`` was called with (None
    when it was not reached) and stdout of one run."""
    name = f"cmd_{command}"
    signature = _CMD_SIGNATURES[name]
    calls = []

    def record(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return {"combined": "INFEASIBLE"}

    monkeypatch.setattr(cli, name, record)
    argv = [command]
    for flag, value in flags.items():
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, *value]
        else:
            argv.append(f"{flag}={value}")
    if config:
        path = tmp_path / "run.ini"
        path.write_text(_ini(config))
        argv += ["--config", str(path)]
    code = main(argv)
    return code, (calls[0] if calls else None), capsys.readouterr().out


def _pick(args: dict, path: str):
    obj = args
    for part in path.split("."):
        obj = obj.get(part) if isinstance(obj, dict) else getattr(obj, part)
    return obj


def _option_rows():
    A = AssumptionSpec
    # command, flag, "section key", where cmd_* sees it, flag text, config
    # text, value from the flag, value from the config, default, malformed
    # config text (None: no text is malformed), config set alongside the key
    rows = []
    for command in ("analyze", "bounds", "threshold"):
        rows += [
            (command, "--input", "input path", "input_path", "fa.csv", "cb.csv", "fa.csv", "cb.csv", REQUIRED, None, {}),
            *[
                (command, f"--{role}", f"schema {role}", f"schema.{role}", "fa", "cb", "fa", "cb", None, None, {})
                for role in ("y", "d", "m", "block", "weight")
            ],
            (command, "--covariates", "schema covariates", "schema.covariates", "x1,x2", "x3, x4",
             ["x1", "x2"], ["x3", "x4"], None, None, {}),
            (command, "--out-report", "outputs report", "out_report", "fa.json", "cb.json", "fa.json", "cb.json",
             REQUIRED if command == "analyze" else None, None, {}),
        ]
    for command in ("analyze", "threshold"):
        rows.append((command, "--te-method", "estimation te_method", "te_method", "dim", "ols",
                     TEMethod.DIFF_IN_MEANS, TEMethod.OLS_ADJUSTED, TEMethod.DIFF_IN_MEANS, "lasso", {}))
    rows += [
        ("analyze", "--preset", "assumption preset", "assumption", "equal", "same-sign-smaller",
         A.equal_effects(), A.same_sign_smaller(), REQUIRED, "bogus", {}),
        ("analyze", "--grid", "assumption grid", "assumption", "0:1:0.5", "-1:1:1",
         A.grid(0.0, 1.0, 0.5), A.grid(-1.0, 1.0, 1.0), REQUIRED, "1:2", {}),
        ("analyze", None, "assumption point", "assumption", None, "0.25", None, A.point(0.25), REQUIRED, "x", {}),
        ("analyze", None, "assumption interval", "assumption", None, "-0.5:0.5", None,
         A.interval(-0.5, 0.5), REQUIRED, "1", {}),
        ("analyze", "--seed", "bootstrap seed", "bootstrap.seed", "9", "5", 9, 5, 0, "1.9", {}),
        ("analyze", "--replicates", "bootstrap replicates", "bootstrap.replicates", "23", "50", 23, 50, 2000, "20.7", {}),
        ("analyze", None, "bootstrap level", "bootstrap.level", None, "0.9", None, 0.9, 0.95, "most", {}),
        ("analyze", None, "bootstrap resample_unit", "bootstrap.resample_unit", None, "block",
         None, ResampleUnit.BLOCK, ResampleUnit.ROW, "rows", {}),
        ("analyze", "--out-table", "outputs table", "out_table", "fa.csv", "cb.csv", "fa.csv", "cb.csv", REQUIRED, None, {}),
        ("analyze", "--out-chart", "outputs chart", "out_chart", "fa.svg", "cb.svg", "fa.svg", "cb.svg", None, None, {}),
        ("bounds", "--type3", None, "type3", True, None, True, None, False, None, {}),
        ("bounds", "--from-moments", None, "from_moments", ["0.2", "0.1"], None, (0.2, 0.1), None, REQUIRED, None, {}),
        ("threshold", "--target", None, "target", "1.5", None, 1.5, None, 0.0, None, {}),
        ("simulate", "--seed", "dgp seed", "dgp.seed", "12", "11", 12, 11, 0, "11.5", {}),
        ("simulate", None, "dgp n", "dgp.n", None, "60", None, 60, REQUIRED, "1e4", {}),
        ("simulate", None, "dgp noise_sd", "dgp.noise_sd", None, "0.5", None, 0.5, 0.0, "half", {}),
        ("simulate", None, "dgp type3", "dgp.type3", None, "yes", None, True, False, None, {}),
        ("simulate", None, "dgp.strata at", "dgp.strata.at", None, "0.3", None, 0.3, REQUIRED, "a fifth",
         {"dgp.strata": {"nt": "0.4"}}),
        ("simulate", None, "dgp.strata c", "dgp.strata.c", None, "0.4", None, 0.4, REQUIRED, "1/3",
         {"dgp.strata": {"nt": "0.4"}}),
        ("simulate", None, "dgp.strata nt", "dgp.strata.nt", None, "0.4", None, 0.4, REQUIRED, "half",
         {"dgp.strata": {"at": "0.3"}}),
        ("simulate", None, "dgp.strata def", "dgp.strata.defier", None, "0.1", None, 0.1, 0.0, "none",
         {"dgp.strata": {"nt": "0.4"}}),
        *[
            ("simulate", None, f"dgp.means {key}", f"dgp.means.{attr}", None, "1, 2.5", None, (1.0, 2.5),
             REQUIRED if key != "def" else (0.0, 0.0), "0, two", {})
            for key, attr in (("at", "at"), ("c", "c"), ("nt", "nt"), ("def", "defier"))
        ],
        ("simulate", "--out-table", None, "out_table", "fa.csv", None, "fa.csv", None, REQUIRED, None, {}),
        ("simulate", "--out-report", None, "out_report", "fa.json", None, "fa.json", None, REQUIRED, None, {}),
    ]
    return rows


def _option_cases():
    for row in _option_rows():
        command, flag, key, *_, bad, _extra = row
        cases = ["default"]
        if flag:
            cases.append("flag")
        if key:
            cases.append("config")
        if flag and key:
            cases.append("both")
        if bad is not None:
            cases.append("malformed")
        for case in cases:
            yield pytest.param(row, case, id=f"{command}-{flag or key.replace(' ', '.')}-{case}")


@pytest.mark.parametrize("row, case", list(_option_cases()))
def test_option_resolution(monkeypatch, capsys, tmp_path, row, case):
    command, flag, key, path, flag_text, config_text, from_flag, from_config, default, bad, extra = row
    # a flag of the base run that gives the same value would win over the row's own key, or clash with its flag
    drop = {flag} | ({"--preset"} if key and key.startswith("assumption") else set())
    drop |= {"--input"} if flag == "--from-moments" else set()
    flags = {f: v for f, v in _BASE_FLAGS[command].items() if f not in drop}
    config = {s: dict(keys) for s, keys in _BASE_CONFIG.get(command, {}).items()}
    if key:
        section, name = key.split()
        config.get(section, {}).pop(name, None)
    if case in ("flag", "both"):
        flags[flag] = flag_text
    if case in ("config", "both", "malformed"):
        for s, keys in extra.items():
            config.setdefault(s, {}).update(keys)
        config.setdefault(section, {})[name] = bad if case == "malformed" else config_text

    code, got, out = _resolved(monkeypatch, capsys, tmp_path, command, flags, config)
    want = {"flag": from_flag, "both": from_flag, "config": from_config, "default": default}.get(case)
    if case == "malformed":
        assert (code, got) == (2, None)
        assert json.loads(out)["error"]["type"] == "InvariantViolation"
    elif want is REQUIRED:
        assert (code, got) == (2, None)
    else:
        assert code == 0, out
        assert _pick(got, path) == want


# -- what each subcommand needs -------------------------------------------------
#
# The one error that each needed value gives when it is not given, or is
# given as an empty text, by (subcommand, dest).

_NEEDS = {
    ("analyze", "input"): "analyze needs --input or [input] path",
    ("analyze", "assumption"): (
        "analyze needs --preset or --grid or [assumption] preset or [assumption] grid"
        " or [assumption] point or [assumption] interval"
    ),
    ("analyze", "out_table"): "analyze needs --out-table or [outputs] table",
    ("analyze", "out_report"): "analyze needs --out-report or [outputs] report",
    ("bounds", "input"): "bounds needs --input or --from-moments or [input] path",
    ("simulate", "dgp.n"): "simulate needs [dgp] n",
    **{
        ("simulate", f"dgp.{part}.{k}"): f"simulate needs [dgp.{part}] {k}"
        for part in ("strata", "means")
        for k in ("at", "c", "nt")
    },
    ("simulate", "out_table"): "simulate needs --out-table",
    ("simulate", "out_report"): "simulate needs --out-report",
    ("threshold", "input"): "threshold needs --input or [input] path",
}


def test_every_needed_value_has_its_error():
    assert set(_NEEDS) == {(command, dest) for command, (_, _, needs) in cli._COMMANDS.items() for dest in needs}


@pytest.mark.parametrize("command, dest", list(_NEEDS), ids=[f"{c}-{d}" for c, d in _NEEDS])
def test_a_needed_value_not_given_exits_2_naming_each_way_to_give_it(monkeypatch, capsys, tmp_path, command, dest):
    group = [o for name in cli._COMMANDS[command][1] if ((o := cli._OPTIONS[name]).dest or name) == dest]
    base_config = _BASE_CONFIG.get(command, {})
    assert _resolved(monkeypatch, capsys, tmp_path, command, _BASE_FLAGS[command], base_config)[0] == 0
    flags = {f: v for f, v in _BASE_FLAGS[command].items() if f not in {o.flag for o in group}}
    config = {s: {k: v for k, v in keys.items() if (s, k) not in {o.key for o in group}} for s, keys in base_config.items()}
    empty_keys = {s: dict(keys) for s, keys in config.items()}
    for o in group:
        if o.key:
            empty_keys.setdefault(o.key[0], {})[o.key[1]] = ""
    runs = [(flags, config), (flags, empty_keys)]
    if all(o.key is None for o in group):
        runs = [(flags, config), ({**flags, **{o.flag: "" for o in group}}, config)]
    for run_flags, run_config in runs:
        code, got, out = _resolved(monkeypatch, capsys, tmp_path, command, run_flags, run_config)
        assert (code, got) == (2, None)
        assert json.loads(out)["error"] == {"type": "InvariantViolation", "message": _NEEDS[command, dest]}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_help_names_what_the_subcommand_needs(capsys, command):
    code, out = run(capsys, command, "--help")
    assert code == 0
    needs = [message for (c, _), message in _NEEDS.items() if c == command]
    assert sum(line.startswith(f"{command} needs ") for line in out.splitlines()) == len(needs)  # a line each
    text = " ".join(out.split())
    for message in needs:
        assert message in text


def test_preset_and_grid_flags_conflict(monkeypatch, capsys, tmp_path):
    flags = {**_BASE_FLAGS["analyze"], "--grid": "0:1:0.5"}
    code, got, out = _resolved(monkeypatch, capsys, tmp_path, "analyze", flags, None)
    assert (code, got) == (2, None)
    assert json.loads(out)["error"] == {"type": "InvariantViolation", "message": "give either --preset or --grid, not both"}


@pytest.mark.parametrize("grid", ["0:1:1e-320", "0:1:1e-12"])
def test_a_grid_of_too_many_steps_exits_2_before_loading(capsys, tmp_path, grid):
    # the input does not exist: reading it would exit 3
    code, out = run(
        capsys, "analyze", "--input", str(tmp_path / "absent.csv"), f"--grid={grid}",
        "--out-table", str(tmp_path / "c.csv"), "--out-report", str(tmp_path / "r.json"),
    )
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "InvariantViolation"
    assert "at most 10000 are allowed" in error["message"]


def test_a_grid_of_an_infinite_step_exits_2_before_loading(capsys, tmp_path):
    # it once ran, with a one-row curve at trace0 = 1 and LO dropped
    code, out = run(
        capsys, "analyze", "--input", str(tmp_path / "absent.csv"), "--grid=-1:1:inf",
        "--out-table", str(tmp_path / "c.csv"), "--out-report", str(tmp_path / "r.json"),
    )
    assert code == 2
    assert json.loads(out)["error"] == {"type": "InvariantViolation", "message": "GRID needs a positive, finite step, got inf"}


def test_an_assumption_flag_beats_every_assumption_key(monkeypatch, capsys, tmp_path):
    flags = {f: v for f, v in _BASE_FLAGS["analyze"].items() if f != "--preset"}
    flags["--grid"] = "0:1:0.5"
    code, got, _ = _resolved(monkeypatch, capsys, tmp_path, "analyze", flags, {"assumption": {"preset": "zero"}})
    assert code == 0
    assert got["assumption"] == AssumptionSpec.grid(0.0, 1.0, 0.5)


@pytest.mark.parametrize(
    "text, method",
    [
        ("dim", "DIFF_IN_MEANS"), ("DIM", "DIFF_IN_MEANS"), ("  Diff_In_Means", "DIFF_IN_MEANS"),
        ("diff-in-means", "DIFF_IN_MEANS"), ("OLS", "OLS_ADJUSTED"), ("ols_adjusted", "OLS_ADJUSTED"),
        ("Ols-Adjusted  ", "OLS_ADJUSTED"),
    ],
)
@pytest.mark.parametrize("command", ["analyze", "threshold"])
def test_config_te_method_aliases(monkeypatch, capsys, tmp_path, command, text, method):
    code, got, _ = _resolved(
        monkeypatch, capsys, tmp_path, command, _BASE_FLAGS[command], {"estimation": {"te_method": text}}
    )
    assert code == 0
    assert got["te_method"].name == method


@pytest.mark.parametrize("text, unit", [("ROW", "ROW"), ("Block", "BLOCK"), ("BLOCK", "BLOCK")])
def test_config_resample_unit_ignores_case(monkeypatch, capsys, tmp_path, text, unit):
    code, got, _ = _resolved(
        monkeypatch, capsys, tmp_path, "analyze", _BASE_FLAGS["analyze"], {"bootstrap": {"resample_unit": text}}
    )
    assert code == 0
    assert got["bootstrap"].resample_unit.name == unit


@pytest.mark.parametrize("command", ["analyze", "bounds", "threshold"])
def test_config_covariates_of_commas_only_mean_none(monkeypatch, capsys, tmp_path, command):
    code, got, _ = _resolved(
        monkeypatch, capsys, tmp_path, command, _BASE_FLAGS[command], {"schema": {"y": "out", "covariates": ","}}
    )
    assert code == 0
    assert got["schema"] == {"y": "out"}


@pytest.mark.parametrize(
    "command, section, key, path, default",
    [
        ("analyze", "schema", "y", "schema.y", None),
        ("analyze", "schema", "covariates", "schema.covariates", None),
        ("analyze", "outputs", "chart", "out_chart", None),
        ("bounds", "schema", "block", "schema.block", None),
        ("bounds", "outputs", "report", "out_report", None),
        ("threshold", "schema", "weight", "schema.weight", None),
        ("simulate", "dgp", "seed", "dgp.seed", 0),
        ("simulate", "dgp", "noise_sd", "dgp.noise_sd", 0.0),
        ("simulate", "dgp", "type3", "dgp.type3", False),
        ("simulate", "dgp.strata", "def", "dgp.strata.defier", 0.0),
        ("simulate", "dgp.means", "def", "dgp.means.defier", (0.0, 0.0)),
    ],
)
def test_empty_config_value_counts_as_absent(monkeypatch, capsys, tmp_path, command, section, key, path, default):
    config = {s: dict(keys) for s, keys in _BASE_CONFIG.get(command, {}).items()}
    config.setdefault(section, {})[key] = ""
    code, got, out = _resolved(monkeypatch, capsys, tmp_path, command, _BASE_FLAGS[command], config)
    assert code == 0, out
    value = _pick(got, path)
    assert (value or None if default is None else value) == default  # an absent name or path may arrive as ""


@pytest.mark.parametrize(
    "command, flag, section, key, path",
    [
        ("analyze", "--input", "input", "path", "input_path"),
        ("analyze", "--y", "schema", "y", "schema.y"),
        ("analyze", "--out-report", "outputs", "report", "out_report"),
        ("bounds", "--covariates", "schema", "covariates", "schema.covariates"),
        ("threshold", "--out-report", "outputs", "report", "out_report"),
    ],
)
def test_empty_flag_falls_back_to_config(monkeypatch, capsys, tmp_path, command, flag, section, key, path):
    flags = {**_BASE_FLAGS[command], flag: ""}
    code, got, out = _resolved(monkeypatch, capsys, tmp_path, command, flags, {section: {key: "c1"}})
    assert code == 0, out
    assert _pick(got, path) in ("c1", ["c1"])


@pytest.mark.parametrize("command", ["bounds", "threshold"])
def test_bounds_and_threshold_read_only_the_report_output(monkeypatch, capsys, tmp_path, command):
    outputs = {"table": "t.csv", "chart": "c.svg"}
    code, got, _ = _resolved(monkeypatch, capsys, tmp_path, command, _BASE_FLAGS[command], {"outputs": outputs})
    assert code == 0
    assert got["out_report"] is None
    outputs["report"] = "r.json"
    code, got, _ = _resolved(monkeypatch, capsys, tmp_path, command, _BASE_FLAGS[command], {"outputs": outputs})
    assert code == 0
    assert got["out_report"] == "r.json"


def test_analyze_by_flags_and_by_config_write_the_same_bytes(capsys, toy_path, tmp_path):
    out = {"table": tmp_path / "curve.csv", "report": tmp_path / "report.json", "chart": tmp_path / "chart.svg"}
    flags = [
        "analyze", "--input", str(toy_path), "--y", "y", "--d", "d", "--m", "m", "--grid=-1:1:0.25",
        "--te-method", "ols", "--seed", "3", "--replicates", "40",
        "--out-table", str(out["table"]), "--out-report", str(out["report"]), "--out-chart", str(out["chart"]),
    ]
    assert run(capsys, *flags)[0] == 0
    by_flags = {k: p.read_bytes() for k, p in out.items()}
    for p in out.values():
        p.unlink()
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        _ini(
            {
                "input": {"path": toy_path},
                "schema": {"y": "y", "d": "d", "m": "m"},
                "assumption": {"grid": "-1:1:0.25"},
                "estimation": {"te_method": "ols"},
                "bootstrap": {"seed": "3", "replicates": "40"},
                "outputs": {k: str(p) for k, p in out.items()},
            }
        )
    )
    assert run(capsys, "analyze", "--config", str(cfg))[0] == 0
    assert {k: p.read_bytes() for k, p in out.items()} == by_flags


# -- exact config files --------------------------------------------------------


@pytest.mark.parametrize(
    "text, line",
    [
        (b"[bootstrap]\nseed = 1\nseed = 2\n", 3),
        (b"seed = 1\n[bootstrap]\n", 1),
        (b"[input]\npath = \xff.csv\n", 2),
        (b"\xef\xbb\xbf[input]\npath = \xff.csv\n", 2),
        (b"[bootstrap]\nseed = 1\n[bootstrap]\n", 3),
    ],
    ids=["duplicate key", "no section header", "invalid UTF-8", "invalid UTF-8 after a byte order mark", "duplicate section"],
)
@pytest.mark.parametrize("command", ["analyze", "bounds", "simulate", "threshold"])
def test_malformed_config_file_is_a_validation_error(capsys, tmp_path, command, text, line):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(text)
    argv = [command, "--config", str(cfg)]
    if command == "simulate":
        argv += ["--out-table", str(tmp_path / "t.csv"), "--out-report", str(tmp_path / "r.json")]
    code, out = run(capsys, *argv)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "InvariantViolation"
    assert str(cfg) in err["message"]
    assert f"line {line}" in err["message"]


def _simulated(monkeypatch, capsys, tmp_path, dgp: dict, flags: dict | None = None):
    config = {s: dict(keys) for s, keys in _BASE_CONFIG["simulate"].items()}
    config["dgp"].update(dgp)
    return _resolved(monkeypatch, capsys, tmp_path, "simulate", {**_BASE_FLAGS["simulate"], **(flags or {})}, config)


@pytest.mark.parametrize(
    "text, value", [("1", True), ("true", True), ("Yes", True), ("TRUE", True), ("0", False), ("false", False), ("No", False)]
)
def test_dgp_type3_spellings(monkeypatch, capsys, tmp_path, text, value):
    code, got, out = _simulated(monkeypatch, capsys, tmp_path, {"type3": text})
    assert code == 0, out
    assert got["dgp"].type3 is value


@pytest.mark.parametrize("text", ["ture", "on", "off", "2", "y"])
def test_dgp_type3_rejects_other_spellings(monkeypatch, capsys, tmp_path, text):
    code, got, out = _simulated(monkeypatch, capsys, tmp_path, {"type3": text})
    assert (code, got) == (2, None)
    err = json.loads(out)["error"]
    assert err["type"] == "InvariantViolation"
    assert "type3" in err["message"] and repr(text) in err["message"]


@pytest.mark.parametrize(
    "keys", [{"preset": "zero", "point": "5"}, {"grid": "0:1:0.5", "interval": "0:1"}, {"point": "1", "interval": "0:1"}]
)
def test_config_takes_exactly_one_assumption(monkeypatch, capsys, tmp_path, keys):
    flags = {f: v for f, v in _BASE_FLAGS["analyze"].items() if f != "--preset"}
    code, got, out = _resolved(monkeypatch, capsys, tmp_path, "analyze", flags, {"assumption": keys})
    assert (code, got) == (2, None)
    err = json.loads(out)["error"]
    assert err["type"] == "InvariantViolation"
    assert all(k in err["message"] for k in keys)


@pytest.mark.parametrize(
    "command, section, key",
    [
        ("analyze", "bootstrap", "replicate"),
        ("analyze", "schema", "covariate"),
        ("bounds", "outputs", "tables"),
        ("threshold", "input", "paths"),
        ("simulate", "dgp", "sead"),
        ("simulate", "dgp.strata", "defier"),
    ],
)
def test_unknown_config_key_is_an_error(monkeypatch, capsys, tmp_path, command, section, key):
    config = {s: dict(keys) for s, keys in _BASE_CONFIG.get(command, {}).items()}
    config.setdefault(section, {})[key] = "5"
    code, got, out = _resolved(monkeypatch, capsys, tmp_path, command, _BASE_FLAGS[command], config)
    assert (code, got) == (2, None)
    err = json.loads(out)["error"]
    assert err["type"] == "InvariantViolation"
    assert repr(key) in err["message"] and f"[{section}]" in err["message"]


@pytest.mark.parametrize(
    "command, section, intended",
    [
        ("analyze", "bootsrap", "bootstrap"),
        ("analyze", "Bootstrap", "bootstrap"),  # section names are case-sensitive
        ("bounds", "INPUTS", "input"),
        ("threshold", "estimaton", "estimation"),
        ("simulate", "dgp.strat", "dgp.strata"),
        ("simulate", "DGPP", "dgp"),  # one edit from a short name
    ],
)
def test_misspelt_config_section_is_an_error(monkeypatch, capsys, tmp_path, command, section, intended):
    # a section near a known one, ignoring case, is a typo, not another tool's section
    config = {s: dict(keys) for s, keys in _BASE_CONFIG.get(command, {}).items()}
    config[section] = {"replicates": "5"}
    code, got, out = _resolved(monkeypatch, capsys, tmp_path, command, _BASE_FLAGS[command], config)
    assert (code, got) == (2, None)
    err = json.loads(out)["error"]
    assert err["type"] == "InvariantViolation"
    assert str(tmp_path / "run.ini") in err["message"]
    assert f"[{section}]" in err["message"] and f"[{intended}]" in err["message"]


@pytest.mark.parametrize("section", ["tool.black", "notes", "analysis", "bootstrapping", "dev", "app", "db", "gpu"])
def test_other_unknown_config_sections_are_allowed(monkeypatch, capsys, tmp_path, section):
    config = {section: {"replicates": "5"}, "bootstrap": {"replicates": "30"}}
    code, got, out = _resolved(monkeypatch, capsys, tmp_path, "analyze", _BASE_FLAGS["analyze"], config)
    assert code == 0, out
    assert got["bootstrap"].replicates == 30


def test_config_default_section_feeds_every_section(monkeypatch, capsys, tmp_path):
    config = {"DEFAULT": {"seed": "4"}, "input": {"path": "in.csv"}, "bootstrap": {"replicates": "30"}}
    flags = {f: v for f, v in _BASE_FLAGS["analyze"].items() if f != "--input"}
    code, got, out = _resolved(monkeypatch, capsys, tmp_path, "analyze", flags, config)
    assert code == 0, out
    assert (got["bootstrap"].seed, got["bootstrap"].replicates) == (4, 30)


def test_config_with_a_byte_order_mark_resolves(monkeypatch, capsys, tmp_path):
    # Notepad and Excel's "CSV UTF-8" start a UTF-8 file with U+FEFF
    cfg = tmp_path / "bom.ini"
    cfg.write_bytes(b"\xef\xbb\xbf" + _ini({"input": {"path": "in.csv"}, "bootstrap": {"seed": "4"}}).encode())
    flags = {f: v for f, v in _BASE_FLAGS["analyze"].items() if f != "--input"}
    code, got, out = _resolved(monkeypatch, capsys, tmp_path, "analyze", {**flags, "--config": str(cfg)}, None)
    assert code == 0, out
    assert (got["input_path"], got["bootstrap"].seed) == ("in.csv", 4)


@pytest.mark.parametrize("dgp, flags", [({"seed": "-3"}, {}), ({}, {"--seed": "-1"})], ids=["config", "flag"])
def test_simulate_rejects_a_negative_seed(capsys, tmp_path, dgp, flags):
    config = {s: dict(keys) for s, keys in _BASE_CONFIG["simulate"].items()}
    config["dgp"].update(dgp)
    cfg = tmp_path / "dgp.ini"
    cfg.write_text(_ini(config))
    argv = ["simulate", "--config", str(cfg), "--out-table", str(tmp_path / "t.csv"), "--out-report", str(tmp_path / "r.json")]
    for flag, value in flags.items():
        argv.append(f"{flag}={value}")
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvariantViolation"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
def test_threshold_rejects_a_non_finite_target(capsys, toy_path, target):
    code, out = run(capsys, "threshold", "--input", str(toy_path), f"--target={target}")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvariantViolation"


def _readme_block(lang: str) -> str:
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(rf"```{lang}\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    return blocks[0]


@pytest.mark.parametrize("command", ["analyze", "bounds", "simulate", "threshold"])
def test_readme_config_loads_for_every_subcommand(monkeypatch, capsys, tmp_path, command):
    cfg = tmp_path / "readme.ini"
    cfg.write_text(_readme_block("ini"))
    argv = [command, "--config", str(cfg)]
    if command == "simulate":
        argv += ["--out-table", "t.csv", "--out-report", "r.json"]
    monkeypatch.setattr(cli, f"cmd_{command}", lambda *a, **kw: {"combined": "FEASIBLE"})
    code, out = run(capsys, *argv)
    assert code == 0, out


def test_option_table_matches_the_characterized_rows():
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    rows = _option_rows()
    counts = {}
    for command, sub in subparsers.items():
        flags = {s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")}
        assert flags == {row[1] for row in rows if row[0] == command and row[1]} | {"--config"}
        counts[command] = len(flags)
        text = " ".join(sub.format_help().split())
        for row in rows:
            if row[0] == command and row[2]:
                section, key = row[2].split()
                assert f"[{section}] {key}" in text  # --help names every key the subcommand reads
    assert counts == {"analyze": 16, "bounds": 11, "simulate": 4, "threshold": 11}
    keys = {f"{section} {key}" for section, key in cli._KEYS}
    assert keys == {row[2] for row in rows if row[2]}
    assert len(keys) == 31
