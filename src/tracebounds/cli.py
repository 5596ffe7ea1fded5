"""Batch command line: analyze, bounds, simulate, threshold.

Outputs are machine-readable (CSV table, JSON report, SVG chart) and
written atomically. Reals serialize with 17 significant digits so a
reader recovers the exact float64; infinite interval endpoints become
the strings "inf" / "-inf". Exit codes: 0 success (an infeasible
combined region is still success), 2 validation failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import (
    Interval,
    SortedControl,
    mt_bounds,
    no_assumption_bounds,
    naive_estimates,
    type3_dim_bounds,
)
from .chart import render_chart
from .data import Dataset, atomic_open, load_csv
from .errors import DegenerateP, InvariantViolation, TraceBoundsError
from .estimators import (
    TEMethod,
    conditional_mean,
    estimate_p_m1,
    strata_shares_monotone,
    te_estimate,
    te_point,
)
from .inference import BootstrapConfig, ResampleUnit, percentile_band
from .oracle import DGPConfig, OutcomeMeans, StrataProbs, simulate
from .resample import ReplicateEngine
from .sensitivity import (
    AssumptionKind,
    AssumptionSpec,
    SensitivityCurve,
    combined_region,
    curve_from_replicates,
    preset_interval,
    threshold_trace0,
    trace0_from_trace,
)
from . import data as _data

_PRESET_NAMES = {
    "zero": AssumptionSpec.zero,
    "equal": AssumptionSpec.equal_effects,
    "same-sign-smaller": AssumptionSpec.same_sign_smaller,
    "opposite-sign": AssumptionSpec.opposite_sign,
}

_DEFAULT_GRID_ROWS = 21


# -- deterministic serialization ---------------------------------------------


def _g17(v: float) -> str:
    if math.isnan(v):
        return "null"
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return format(float(v), ".17g")


def _json_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _g17(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {_json_dumps(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise InvariantViolation(f"cannot serialize {type(obj).__name__}")


def _write_report(report: dict, path: str | None) -> None:
    """JSON report written atomically to ``path``, or to stdout without one."""
    text = _json_dumps(report) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with atomic_open(path) as fh:
        fh.write(text)


def _curve_csv(curve: SensitivityCurve) -> str:
    lines = ["trace0,trace_hat,ci_lo,ci_hi,within_trim_bounds"]
    for r in curve.rows:
        num = lambda v: format(float(v), ".17g")
        flag = "true" if r.within_trim_bounds else "false"
        lines.append(f"{num(r.trace0)},{num(r.trace_hat)},{num(r.ci_lo)},{num(r.ci_hi)},{flag}")
    return "\r\n".join(lines) + "\r\n"


def _interval_json(iv: Interval) -> dict:
    return {
        "lo": iv.lo,
        "hi": iv.hi,
        "kind": iv.kind.name,
        "ci_lo": iv.ci_lo,
        "ci_hi": iv.ci_hi,
    }


def _assumption_json(spec: AssumptionSpec) -> dict:
    out: dict = {"kind": spec.kind.name}
    if spec.kind is AssumptionKind.POINT:
        out["value"] = spec.value
    elif spec.kind in (AssumptionKind.INTERVAL, AssumptionKind.GRID):
        out["lo"] = spec.lo
        out["hi"] = spec.hi
        if spec.kind is AssumptionKind.GRID:
            out["step"] = spec.step
    return out


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class AnalysisConfig:
    input_path: str
    schema: dict
    assumption: AssumptionSpec
    te_method: TEMethod
    bootstrap: BootstrapConfig
    out_table: str
    out_report: str
    out_chart: str | None = None

    def __post_init__(self):
        if not self.input_path:
            raise InvariantViolation("an input path is required")
        if not self.out_table or not self.out_report:
            raise InvariantViolation("table and report output paths are required")


def _read_config(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    return cp


def _cfg_get(cp: configparser.ConfigParser | None, section: str, key: str) -> str | None:
    if cp is None or not cp.has_option(section, key):
        return None
    return cp.get(section, key)


def _parse_number(text: str | None, what: str, kind: type = float):
    """Config text as a ``kind`` (float, or int for exact counts and
    seeds), None when absent; malformed text is a validation error."""
    if text is None:
        return None
    try:
        return kind(text)
    except ValueError:
        raise InvariantViolation(f"{what} must be {'an integer' if kind is int else 'a number'}, got {text!r}") from None


def _parse_grid_text(text: str) -> AssumptionSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvariantViolation(f"grid must look like LO:HI:STEP, got {text!r}")
    return AssumptionSpec.grid(*(_parse_number(p, f"grid {text!r}") for p in parts))


def _schema_from(args, cp) -> dict:
    schema: dict = {}
    for role in ("y", "d", "m", "block", "weight"):
        v = getattr(args, role, None) or _cfg_get(cp, "schema", role)
        if v:
            schema[role] = v
    cov = getattr(args, "covariates", None) or _cfg_get(cp, "schema", "covariates")
    if cov:
        names = [c.strip() for c in str(cov).split(",") if c.strip()]
        if names:
            schema["covariates"] = names
    return schema


def _assumption_from(args, cp) -> AssumptionSpec | None:
    preset = getattr(args, "preset", None)
    grid = getattr(args, "grid", None)
    if preset and grid:
        raise InvariantViolation("give either --preset or --grid, not both")
    if preset:
        return _PRESET_NAMES[preset]()
    if grid:
        return _parse_grid_text(grid)
    # fall back to the config file
    for key in ("preset", "grid", "point", "interval"):
        text = _cfg_get(cp, "assumption", key)
        if text is None:
            continue
        if key == "preset":
            name = text.strip()
            if name not in _PRESET_NAMES:
                raise InvariantViolation(
                    f"unknown preset {name!r}; expected one of {sorted(_PRESET_NAMES)}"
                )
            return _PRESET_NAMES[name]()
        if key == "grid":
            return _parse_grid_text(text)
        if key == "point":
            return AssumptionSpec.point(_parse_number(text, "assumption point"))
        parts = text.split(":")
        if len(parts) != 2:
            raise InvariantViolation(f"interval must look like LO:HI, got {text!r}")
        return AssumptionSpec.interval(*(_parse_number(p, f"interval {text!r}") for p in parts))
    return None


def _bootstrap_from(args, cp) -> BootstrapConfig:
    replicates = getattr(args, "replicates", None)
    if replicates is None:
        replicates = _parse_number(_cfg_get(cp, "bootstrap", "replicates"), "replicates", int)
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = _parse_number(_cfg_get(cp, "bootstrap", "seed"), "seed", int)
    level = _parse_number(_cfg_get(cp, "bootstrap", "level"), "level")
    unit_text = _cfg_get(cp, "bootstrap", "resample_unit")
    unit = ResampleUnit.ROW
    if unit_text is not None:
        try:
            unit = ResampleUnit(unit_text.strip().lower())
        except ValueError:
            raise InvariantViolation(
                f"resample_unit must be 'row' or 'block', got {unit_text!r}"
            ) from None
    return BootstrapConfig(
        replicates=replicates if replicates is not None else 2000,
        seed=seed if seed is not None else 0,
        level=level if level is not None else 0.95,
        resample_unit=unit,
    )


def _te_method_from(args, cp) -> TEMethod:
    text = getattr(args, "te_method", None) or _cfg_get(cp, "estimation", "te_method")
    if text is None:
        return TEMethod.DIFF_IN_MEANS
    text = str(text).strip().lower()
    if text in ("dim", "diff_in_means", "diff-in-means"):
        return TEMethod.DIFF_IN_MEANS
    if text in ("ols", "ols_adjusted", "ols-adjusted"):
        return TEMethod.OLS_ADJUSTED
    raise InvariantViolation(f"te_method must be 'dim' or 'ols', got {text!r}")


def _dgp_from(cp: configparser.ConfigParser, seed_override: int | None) -> DGPConfig:
    if cp is None or not cp.has_section("dgp"):
        raise InvariantViolation("simulate needs a config file with a [dgp] section")

    def need(section: str, key: str, default: str | None = None) -> str:
        v = _cfg_get(cp, section, key) or default
        if v is None:
            raise InvariantViolation(f"config is missing {key!r} in [{section}]")
        return v

    def number(section: str, key: str, default: str | None = None) -> float:
        return _parse_number(need(section, key, default), f"[{section}] {key}")

    n = _parse_number(need("dgp", "n"), "[dgp] n", int)
    noise_sd = number("dgp", "noise_sd", "0")
    type3 = (_cfg_get(cp, "dgp", "type3") or "false").strip().lower() in ("1", "true", "yes")
    seed = seed_override if seed_override is not None else _parse_number(need("dgp", "seed", "0"), "[dgp] seed", int)

    strata = StrataProbs(
        at=number("dgp.strata", "at"),
        c=number("dgp.strata", "c"),
        nt=number("dgp.strata", "nt"),
        defier=number("dgp.strata", "def", "0"),
    )

    def pair(key: str, default: str | None = None) -> tuple[float, float]:
        text = need("dgp.means", key, default)
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2:
            raise InvariantViolation(f"[dgp.means] {key} must be 'control, treated', got {text!r}")
        return tuple(_parse_number(p, f"[dgp.means] {key}") for p in parts)

    means = OutcomeMeans(
        at=pair("at"),
        c=pair("c"),
        nt=pair("nt"),
        defier=pair("def", default="0, 0"),
    )
    return DGPConfig(n=n, strata=strata, means=means, noise_sd=noise_sd, type3=type3, seed=seed)


# -- command implementations --------------------------------------------------


def _trim_and_mt(ds: Dataset) -> tuple[Interval, Interval | TraceBoundsError]:
    """Trimming bounds, and the monotone bounds or the error that stops
    them, from one pair of sorts of the control arm, freed on return."""
    control = SortedControl(ds)
    trim = no_assumption_bounds(ds, control)
    try:
        return trim, mt_bounds(ds, control)
    except TraceBoundsError as exc:
        return trim, exc


def _with_band(iv: Interval, lo_r: np.ndarray, hi_r: np.ndarray, level: float) -> Interval:
    """Percentile band around both endpoints from their replicate columns."""
    good = np.isfinite(lo_r)
    if not good.any():
        return iv
    return iv.with_ci(*percentile_band(lo_r[good], hi_r[good], level))


def _preset_ci(preset: Interval, spec: AssumptionSpec, te_r: np.ndarray, p_r: np.ndarray, level: float) -> Interval:
    """Band for a preset interval from joint (te, p) replicates."""
    good = np.isfinite(te_r) & np.isfinite(p_r) & (p_r > 0)
    los = []
    his = []
    for te, p in zip(te_r[good], p_r[good]):
        try:
            iv = preset_interval(float(te), float(p), spec)
        except TraceBoundsError:
            continue
        los.append(iv.lo)
        his.append(iv.hi)
    if not los:
        return preset
    return preset.with_ci(*percentile_band(los, his, level))


def _default_grid(te_hat: float, p_hat: float, trim: Interval) -> AssumptionSpec:
    """Grid spanning the non-reactive effects consistent with the trimming
    bounds; a single point at zero when everyone reacts."""
    if p_hat >= 1.0:
        return AssumptionSpec.grid(0.0, 0.0, 1.0)
    lo = trace0_from_trace(te_hat, p_hat, trim.hi)
    hi = trace0_from_trace(te_hat, p_hat, trim.lo)
    if hi <= lo:
        return AssumptionSpec.grid(lo, lo, 1.0)
    step = (hi - lo) / (_DEFAULT_GRID_ROWS - 1)
    return AssumptionSpec.grid(lo, hi, step)


def _mt_json(ds: Dataset, p_hat: float, mt: Interval | TraceBoundsError) -> dict:
    if isinstance(mt, TraceBoundsError):
        return {"skipped": f"{type(mt).__name__}: {mt}"}
    shares = strata_shares_monotone(ds)
    pool = shares.c + shares.nt
    entry = _interval_json(mt)
    entry["alpha_hat"] = shares.at / p_hat
    entry["pi_hat"] = shares.c / pool if pool > 0 else 0.0
    return entry


def _dataset_report(input_path: str, ds: Dataset, estimates: dict, trim: Interval, mt_entry: dict, derived: dict) -> dict:
    """Report body shared by ``analyze`` and ``bounds``; its key order is
    part of the byte-stable output."""
    return {
        "input": str(input_path),
        "n_units": ds.n,
        "n_treated": ds.n_treated,
        "n_control": ds.n_control,
        "m_observed_in_control": ds.m_observed_in_control,
        **estimates,
        "no_assumption_bounds": _interval_json(trim),
        "mt_bounds": mt_entry,
        **derived,
        "naive": {
            **asdict(naive_estimates(ds)),
            "note": "as_treated and per_protocol condition on the post-treatment reaction and are not causal estimands",
        },
    }


def cmd_analyze(cfg: AnalysisConfig) -> dict:
    """Full pipeline: estimates, bounds, preset, combined region, curve,
    every band from one bootstrap pass.

    Returns the report dictionary after writing all requested outputs.
    """
    ds = load_csv(cfg.input_path, cfg.schema)
    te_est = te_estimate(ds, cfg.te_method)
    te_hat = te_est.te_hat
    p_hat = estimate_p_m1(ds)
    boot = cfg.bootstrap

    trim, mt = _trim_and_mt(ds)
    with_mt = isinstance(mt, Interval)

    values = ReplicateEngine(ds, cfg.te_method, boot, with_mt).run()
    te_r, p_r = values[:, 2], values[:, 3]
    failed = np.isnan(values[:, ::2]).sum(axis=0)  # trim, core, mt

    trim = _with_band(trim, values[:, 0], values[:, 1], boot.level)
    if with_mt:
        mt = _with_band(mt, values[:, 4], values[:, 5], boot.level)

    preset = preset_interval(te_hat, p_hat, cfg.assumption)
    preset = _preset_ci(preset, cfg.assumption, te_r, p_r, boot.level)

    combined = combined_region(preset, trim)

    if cfg.assumption.kind is AssumptionKind.GRID:
        grid_spec = cfg.assumption
    else:
        grid_spec = _default_grid(te_hat, p_hat, trim)
    curve = curve_from_replicates(grid_spec, te_hat, p_hat, trim, te_r, p_r, boot.level)

    try:
        threshold = threshold_trace0(te_hat, p_hat, 0.0)
        threshold_note = None
    except DegenerateP:
        threshold = None
        threshold_note = "everyone reacts under treatment; the non-reactive group is empty"

    report = _dataset_report(
        cfg.input_path,
        ds,
        {
            "te_method": cfg.te_method.name,
            "te_hat": te_hat,
            "te_se": te_est.se,
            "p_hat": p_hat,
            "assumption": _assumption_json(cfg.assumption),
        },
        trim,
        _mt_json(ds, p_hat, mt),
        {
            "preset_interval": _interval_json(preset),
            "combined": "INFEASIBLE" if combined is None else _interval_json(combined),
        },
    )
    report["threshold_trace0"] = {
        "target_trace": 0.0,
        "value": threshold,
        "note": threshold_note,
    }
    report["curve"] = {
        "grid": _assumption_json(grid_spec),
        "rows": len(curve.rows),
        "table": str(cfg.out_table),
    }
    report["bootstrap"] = {
        "seed": boot.seed,
        "replicates": boot.replicates,
        "level": boot.level,
        "resample_unit": boot.resample_unit.name,
        "failed_replicates": {
            "core": int(failed[1]),
            "no_assumption_bounds": int(failed[0]),
            "mt_bounds": int(failed[2]) if with_mt else None,
        },
    }

    with atomic_open(cfg.out_table) as fh:
        fh.write(_curve_csv(curve))
    _write_report(report, cfg.out_report)
    if cfg.out_chart:
        with atomic_open(cfg.out_chart) as fh:
            fh.write(render_chart(curve, combined))
    return report


def cmd_bounds(
    input_path: str | None,
    schema: dict,
    type3: bool,
    from_moments: tuple[float, float] | None,
    out_report: str | None,
) -> dict:
    """Bounds without the sensitivity machinery; moments mode works from
    two published cell means and needs no unit data."""
    if from_moments is not None:
        m1, m0 = from_moments
        iv = type3_dim_bounds(m1, m0)
        report = {
            "mean_y_d1m1": m1,
            "mean_y_d0m1": m0,
            "dim_m1": m1 - m0,
            "type3_bounds": _interval_json(iv),
        }
    else:
        if not input_path:
            raise InvariantViolation("bounds needs --input or --from-moments")
        ds = load_csv(input_path, schema)
        p_hat = estimate_p_m1(ds)
        trim, mt = _trim_and_mt(ds)
        mt_entry = _mt_json(ds, p_hat, mt)
        derived = {}
        if type3:
            t3 = type3_dim_bounds(conditional_mean(ds, 1, 1), conditional_mean(ds, 0, 1))
            derived["type3_bounds"] = _interval_json(t3)
        report = _dataset_report(input_path, ds, {"p_hat": p_hat}, trim, mt_entry, derived)

    _write_report(report, out_report)
    return report


def cmd_simulate(dgp: DGPConfig, out_table: str, out_report: str) -> dict:
    """Draw one dataset and write it with its exact estimands."""
    ds, truth = simulate(dgp)
    _data.write_csv(ds, out_table)
    report = {
        "trace": truth.trace,
        "trace0": truth.trace0,
        "te": truth.te,
        "p_m1": truth.p_m1,
        "dgp": {
            "n": dgp.n,
            "seed": dgp.seed,
            "noise_sd": dgp.noise_sd,
            "type3": dgp.type3,
            "strata": {
                "at": dgp.strata.at,
                "c": dgp.strata.c,
                "nt": dgp.strata.nt,
                "def": dgp.strata.defier,
            },
            "means": {
                "at": list(dgp.means.at),
                "c": list(dgp.means.c),
                "nt": list(dgp.means.nt),
                "def": list(dgp.means.defier),
            },
        },
        "data": str(out_table),
    }
    _write_report(report, out_report)
    return report


def cmd_threshold(input_path: str, schema: dict, target: float, te_method: TEMethod, out_report: str | None) -> dict:
    """Required non-reactive effect for the reactive-group effect to hit
    the target value."""
    ds = load_csv(input_path, schema)
    te_hat = te_point(ds, te_method)
    p_hat = estimate_p_m1(ds)
    value = threshold_trace0(te_hat, p_hat, target)
    report = {
        "input": str(input_path),
        "te_method": te_method.name,
        "te_hat": te_hat,
        "p_hat": p_hat,
        "target_trace": target,
        "required_trace0": value,
    }
    _write_report(report, out_report)
    return report


# -- argument parsing ----------------------------------------------------------


def _add_schema_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--y", help="outcome column name")
    p.add_argument("--d", help="assignment column name")
    p.add_argument("--m", help="reaction indicator column name")
    p.add_argument("--covariates", help="comma-separated covariate column names")
    p.add_argument("--block", help="block label column name")
    p.add_argument("--weight", help="sampling weight column name")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracebounds",
        description="Point and partial identification of effects among treatment-reactive units.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="bounds, sensitivity curve, combined region, report and chart")
    pa.add_argument("--input", help="CSV dataset path")
    pa.add_argument("--config", help="key-value config file")
    _add_schema_flags(pa)
    pa.add_argument("--preset", choices=sorted(_PRESET_NAMES), help="named assumption on the non-reactive effect")
    pa.add_argument("--grid", help="LO:HI:STEP grid of non-reactive effect values")
    pa.add_argument("--te-method", dest="te_method", choices=["dim", "ols"], help="overall-effect estimator")
    pa.add_argument("--seed", type=int, help="bootstrap seed")
    pa.add_argument("--replicates", type=int, help="bootstrap replicates")
    pa.add_argument("--out-table", dest="out_table", help="curve CSV output path")
    pa.add_argument("--out-report", dest="out_report", help="JSON report output path")
    pa.add_argument("--out-chart", dest="out_chart", help="SVG chart output path")
    pa.set_defaults(func=_run_analyze)

    pb = sub.add_parser("bounds", help="bounds and naive contrasts only")
    pb.add_argument("--input", help="CSV dataset path")
    pb.add_argument("--config", help="key-value config file")
    _add_schema_flags(pb)
    pb.add_argument("--type3", action="store_true", help="add outcome-through-reaction bounds")
    pb.add_argument("--from-moments", dest="from_moments", nargs=2, type=float, metavar=("MEAN_D1M1", "MEAN_D0M1"), help="work from two published cell means instead of unit data")
    pb.add_argument("--out-report", dest="out_report", help="JSON output path (default stdout)")
    pb.set_defaults(func=_run_bounds)

    ps = sub.add_parser("simulate", help="draw a synthetic dataset with known estimands")
    ps.add_argument("--config", required=True, help="config file with [dgp] sections")
    ps.add_argument("--seed", type=int, help="override the config seed")
    ps.add_argument("--out-table", dest="out_table", required=True, help="dataset CSV output path")
    ps.add_argument("--out-report", dest="out_report", required=True, help="truth JSON output path")
    ps.set_defaults(func=_run_simulate)

    pt = sub.add_parser("threshold", help="non-reactive effect needed to reach a target")
    pt.add_argument("--input", help="CSV dataset path")
    pt.add_argument("--config", help="key-value config file")
    _add_schema_flags(pt)
    pt.add_argument("--target", type=float, default=0.0, help="target reactive-group effect (default 0)")
    pt.add_argument("--te-method", dest="te_method", choices=["dim", "ols"], help="overall-effect estimator")
    pt.add_argument("--out-report", dest="out_report", help="JSON output path (default stdout)")
    pt.set_defaults(func=_run_threshold)

    return parser


def _input_from(args, cp) -> str | None:
    return getattr(args, "input", None) or _cfg_get(cp, "input", "path")


def _outputs_from(args, cp) -> tuple[str | None, str | None, str | None]:
    table = getattr(args, "out_table", None) or _cfg_get(cp, "outputs", "table")
    report = getattr(args, "out_report", None) or _cfg_get(cp, "outputs", "report")
    chart = getattr(args, "out_chart", None) or _cfg_get(cp, "outputs", "chart")
    return table, report, chart


def _run_analyze(args) -> int:
    cp = _read_config(args.config) if args.config else None
    assumption = _assumption_from(args, cp)
    if assumption is None:
        raise InvariantViolation("analyze needs an assumption: --preset, --grid, or [assumption] in the config")
    table, report_path, chart = _outputs_from(args, cp)
    cfg = AnalysisConfig(
        input_path=_input_from(args, cp) or "",
        schema=_schema_from(args, cp),
        assumption=assumption,
        te_method=_te_method_from(args, cp),
        bootstrap=_bootstrap_from(args, cp),
        out_table=table or "",
        out_report=report_path or "",
        out_chart=chart,
    )
    report = cmd_analyze(cfg)
    status = {
        "status": "ok",
        "combined": report["combined"] if isinstance(report["combined"], str) else "FEASIBLE",
        "report": str(cfg.out_report),
        "table": str(cfg.out_table),
        "chart": None if cfg.out_chart is None else str(cfg.out_chart),
    }
    sys.stdout.write(_json_dumps(status) + "\n")
    return 0


def _run_bounds(args) -> int:
    cp = _read_config(args.config) if args.config else None
    fm = tuple(args.from_moments) if args.from_moments else None
    cmd_bounds(
        input_path=_input_from(args, cp),
        schema=_schema_from(args, cp),
        type3=bool(args.type3),
        from_moments=fm,
        out_report=args.out_report or _cfg_get(cp, "outputs", "report"),
    )
    return 0


def _run_simulate(args) -> int:
    cp = _read_config(args.config)
    dgp = _dgp_from(cp, args.seed)
    cmd_simulate(dgp, args.out_table, args.out_report)
    sys.stdout.write(_json_dumps({"status": "ok", "data": args.out_table, "truth": args.out_report}) + "\n")
    return 0


def _run_threshold(args) -> int:
    cp = _read_config(args.config) if args.config else None
    input_path = _input_from(args, cp)
    if not input_path:
        raise InvariantViolation("threshold needs an input dataset")
    cmd_threshold(
        input_path=input_path,
        schema=_schema_from(args, cp),
        target=float(args.target),
        te_method=_te_method_from(args, cp),
        out_report=args.out_report or _cfg_get(cp, "outputs", "report"),
    )
    return 0


def _emit_error(exc: Exception) -> None:
    entry: dict = {"type": type(exc).__name__, "message": str(exc)}
    row = getattr(exc, "row", None)
    column = getattr(exc, "column", None)
    if row is not None:
        entry["row"] = row
    if column is not None:
        entry["column"] = column
    sys.stdout.write(_json_dumps({"error": entry}) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TraceBoundsError as exc:
        _emit_error(exc)
        return 2
    except OSError as exc:
        _emit_error(exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
