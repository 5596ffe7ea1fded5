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
import io
import json
import math
import sys
import textwrap
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from .bounds import Interval, NaiveEstimates, mt_mixture, naive_estimates, type3_dim_bounds
from .chart import render_chart
from .data import Dataset, atomic_open, load_csv
from .errors import InvariantViolation, TraceBoundsError
from .estimators import TEMethod, conditional_mean, estimate_p_m1, strata_shares_monotone, te_point
from .inference import BootstrapConfig, ResampleUnit
from .oracle import DGPConfig, OutcomeMeans, StrataProbs, simulate
from .sensitivity import (
    AssumptionKind,
    AssumptionSpec,
    SensitivityCurve,
    analyze,
    full_sample_bounds,
    threshold_trace0,
)
from . import data as _data

_PRESET_NAMES = {
    "zero": AssumptionSpec.zero,
    "equal": AssumptionSpec.equal_effects,
    "same-sign-smaller": AssumptionSpec.same_sign_smaller,
    "opposite-sign": AssumptionSpec.opposite_sign,
}


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


def _number(what: str, kind: type = float) -> Callable:
    """Parser of text as a ``kind`` (float, or int for exact counts and
    seeds); malformed text is a validation error."""

    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            raise InvariantViolation(f"{what} must be {'an integer' if kind is int else 'a number'}, got {text!r}") from None

    return parse


def _spec(make: Callable, form: str) -> Callable:
    """Parser of ``LO:HI`` or ``LO:HI:STEP`` text as the assumption ``make`` builds."""
    kind = make.__name__

    def parse(text: str) -> AssumptionSpec:
        parts = text.split(":")
        if len(parts) != form.count(":") + 1:
            raise InvariantViolation(f"{kind} must look like {form}, got {text!r}")
        return make(*(_number(f"{kind} {text!r}")(p) for p in parts))

    return parse


def _parse_preset(text: str) -> AssumptionSpec:
    name = text.strip()
    if name not in _PRESET_NAMES:
        raise InvariantViolation(f"unknown preset {name!r}; expected one of {sorted(_PRESET_NAMES)}")
    return _PRESET_NAMES[name]()


def _parse_te_method(text: str) -> TEMethod:
    text = text.strip().lower()
    if text in ("dim", "diff_in_means", "diff-in-means"):
        return TEMethod.DIFF_IN_MEANS
    if text in ("ols", "ols_adjusted", "ols-adjusted"):
        return TEMethod.OLS_ADJUSTED
    raise InvariantViolation(f"te_method must be 'dim' or 'ols', got {text!r}")


def _parse_resample_unit(text: str) -> ResampleUnit:
    try:
        return ResampleUnit(text.strip().lower())
    except ValueError:
        raise InvariantViolation(f"resample_unit must be 'row' or 'block', got {text!r}") from None


def _parse_names(text: str) -> list[str] | None:
    return [c.strip() for c in text.split(",") if c.strip()] or None


def _parse_type3(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise InvariantViolation(f"[dgp] type3 must be true or false (1/0, yes/no), got {text!r}")
    return word in ("1", "true", "yes")


def _pair(key: str) -> Callable:
    def parse(text: str) -> tuple[float, float]:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2:
            raise InvariantViolation(f"[dgp.means] {key} must be 'control, treated', got {text!r}")
        return tuple(_number(f"[dgp.means] {key}")(p) for p in parts)

    return parse


_DGP_STRATA = ("at", "c", "nt", "def")


class _Option(NamedTuple):
    """One settable value: its flag, its INI (section, key), the parser
    that both texts go through, and its default. Its value lands under
    ``dest``, else under its name in ``_OPTIONS``. Options that share a
    ``dest`` are alternatives: any of their flags beats all of their
    keys, and two flags or two keys are an error."""

    flag: str | None
    key: tuple[str, str] | None
    parse: Callable
    default: object = None
    help: str = ""
    dest: str | None = None
    argparse: dict | None = None  # add_argument keywords, for a flag that is not one string


_OPTIONS = {
    "input": _Option("--input", ("input", "path"), str, help="CSV dataset path"),
    "config": _Option("--config", None, str, help="INI config file; a flag wins over its key"),
    **{
        role: _Option(f"--{role}", ("schema", role), str, help=f"{what} column name")
        for role, what in (
            ("y", "outcome"), ("d", "assignment"), ("m", "reaction indicator"), ("block", "block label"), ("weight", "sampling weight")
        )
    },
    "covariates": _Option("--covariates", ("schema", "covariates"), _parse_names, help="comma-separated covariate column names"),
    "preset": _Option(
        "--preset", ("assumption", "preset"), _parse_preset, None, "named assumption on the non-reactive effect",
        "assumption", {"choices": sorted(_PRESET_NAMES)},
    ),
    "grid": _Option(
        "--grid", ("assumption", "grid"), _spec(AssumptionSpec.grid, "LO:HI:STEP"), None,
        "LO:HI:STEP grid of non-reactive effect values", "assumption",
    ),
    "point": _Option(None, ("assumption", "point"), lambda t: AssumptionSpec.point(_number("assumption point")(t)), dest="assumption"),
    "interval": _Option(None, ("assumption", "interval"), _spec(AssumptionSpec.interval, "LO:HI"), dest="assumption"),
    "te_method": _Option(
        "--te-method", ("estimation", "te_method"), _parse_te_method, TEMethod.DIFF_IN_MEANS,
        "overall-effect estimator (default dim)", argparse={"choices": ["dim", "ols"]},
    ),
    "seed": _Option("--seed", ("bootstrap", "seed"), _number("seed", int), 0, "bootstrap seed"),
    "replicates": _Option("--replicates", ("bootstrap", "replicates"), _number("replicates", int), 2000, "bootstrap replicates"),
    "level": _Option(None, ("bootstrap", "level"), _number("level"), 0.95),
    "resample_unit": _Option(None, ("bootstrap", "resample_unit"), _parse_resample_unit, ResampleUnit.ROW),
    "out_table": _Option("--out-table", ("outputs", "table"), str, help="curve CSV output path"),
    "out_report": _Option("--out-report", ("outputs", "report"), str, help="JSON report output path; stdout if none (bounds, threshold)"),
    "out_chart": _Option("--out-chart", ("outputs", "chart"), str, help="SVG chart output path"),
    "type3": _Option("--type3", None, bool, False, "add outcome-through-reaction bounds", argparse={"action": "store_true"}),
    "from_moments": _Option(
        "--from-moments", None, lambda texts: tuple(map(_number("--from-moments"), texts)), None,
        "work from two published cell means instead of unit data", "input", {"nargs": 2, "metavar": ("MEAN_D1M1", "MEAN_D0M1")},
    ),
    "target": _Option("--target", None, _number("target"), 0.0, "target reactive-group effect (default 0)"),
    # simulate's options are named section.key
    "dgp.seed": _Option("--seed", ("dgp", "seed"), _number("[dgp] seed", int), 0, "simulation seed"),
    "dgp.n": _Option(None, ("dgp", "n"), _number("[dgp] n", int)),
    "dgp.noise_sd": _Option(None, ("dgp", "noise_sd"), _number("[dgp] noise_sd"), 0.0),
    "dgp.type3": _Option(None, ("dgp", "type3"), _parse_type3, False),
    **{
        f"dgp.strata.{k}": _Option(None, ("dgp.strata", k), _number(f"[dgp.strata] {k}"), 0.0 if k == "def" else None)
        for k in _DGP_STRATA
    },
    **{f"dgp.means.{k}": _Option(None, ("dgp.means", k), _pair(k), (0.0, 0.0) if k == "def" else None) for k in _DGP_STRATA},
    "data_out": _Option("--out-table", None, str, None, "dataset CSV output path", "out_table"),
    "truth_out": _Option("--out-report", None, str, None, "truth JSON output path", "out_report"),
}

_SCHEMA = ("y", "d", "m", "block", "weight", "covariates")

# each subcommand's help line, its options in --help order, and the dests
# it needs: a needed dest that none of its flags and keys gives is an error
_COMMANDS = {
    "analyze": (
        "bounds, sensitivity curve, combined region, report and chart",
        ("input", "config", *_SCHEMA, "preset", "grid", "point", "interval", "te_method",
         "seed", "replicates", "level", "resample_unit", "out_table", "out_report", "out_chart"),
        ("input", "assumption", "out_table", "out_report"),
    ),
    "bounds": ("bounds and naive contrasts only", ("input", "config", *_SCHEMA, "type3", "from_moments", "out_report"), ("input",)),
    "simulate": (
        "draw a synthetic dataset with known estimands",
        ("config", "dgp.seed", "dgp.n", "dgp.noise_sd", "dgp.type3", *(f"dgp.strata.{k}" for k in _DGP_STRATA),
         *(f"dgp.means.{k}" for k in _DGP_STRATA), "data_out", "truth_out"),
        ("dgp.n", *(f"dgp.{part}.{k}" for part in ("strata", "means") for k in ("at", "c", "nt")), "out_table", "out_report"),
    ),
    "threshold": (
        "non-reactive effect needed to reach a target",
        ("input", "config", *_SCHEMA, "target", "te_method", "out_report"),
        ("input",),
    ),
}

# every (section, key) any subcommand reads, so that one config file serves them all
_KEYS = {o.key for o in _OPTIONS.values() if o.key}
_SECTIONS = {section for section, _ in _KEYS}


def _edit_distance(a: str, b: str) -> int:
    """The fewest single-character insertions, deletions and substitutions
    that turn ``a`` into ``b`` (Levenshtein)."""
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        diagonal, row[0] = row[0], i
        for j, cb in enumerate(b, 1):
            diagonal, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, diagonal + (ca != cb))
    return row[-1]


def _misspelt_section(section: str) -> str | None:
    """The known section that ``section``, one no option reads, most
    likely misspells: the nearest known one, ignoring case, within one
    edit of a name of four characters or fewer and two of a longer one.
    None for a known section or one further from every known one, which
    may belong to another tool (``[dev]`` and ``[db]`` are two edits
    from ``[dgp]``)."""
    if section in _SECTIONS:
        return None
    near = [
        (distance, known)
        for known in _SECTIONS
        if (distance := _edit_distance(section.lower(), known)) <= (1 if len(known) <= 4 else 2)
    ]
    return min(near)[1] if near else None


def _read_config(path: str) -> configparser.ConfigParser:
    """The INI file at ``path``. A file configparser refuses, a byte
    that is not UTF-8, a misspelt section and a key no option reads in
    a section some option reads are validation errors that name the
    file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_file(io.StringIO(raw.decode("utf-8").removeprefix("\ufeff"), newline=None), source=path)
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise InvariantViolation(f"config {path}, line {line}: byte {exc.start} is not UTF-8") from None
    except configparser.Error as exc:
        errors = getattr(exc, "errors", None)
        line = errors[0][0] if errors else getattr(exc, "lineno", None)
        where = f", line {line}" if line else ""
        raise InvariantViolation(f"config {path}{where}: {exc}") from None
    for section in cp.sections():
        if intended := _misspelt_section(section):
            raise InvariantViolation(f"config {path}: unknown section [{section}]; did you mean [{intended}]?")
        for key in cp.options(section):  # [DEFAULT] keys show in every section
            if (section, key) not in _KEYS and key not in cp.defaults() and section in _SECTIONS:
                raise InvariantViolation(f"config {path}: unknown key {key!r} in [{section}]")
    return cp


def _needs(command: str, dest: str) -> str:
    """The error, and the --help line, of a value that ``command`` needs:
    each flag and then each key that gives ``dest``."""
    options = [o for name in _COMMANDS[command][1] if ((o := _OPTIONS[name]).dest or name) == dest]
    ways = [o.flag for o in options if o.flag] + [f"[{o.key[0]}] {o.key[1]}" for o in options if o.key]
    return f"{command} needs {' or '.join(ways)}"


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Value of every option of ``command``, by dest: the flag if given,
    else its config key, else its default. An empty text is not given; a
    dest the command needs that is not given is an error naming each flag
    and key that would give it."""
    cp = _read_config(args.config) if args.config else configparser.ConfigParser()
    groups: dict[str, list[str]] = {}
    for name in _COMMANDS[command][1]:
        groups.setdefault(_OPTIONS[name].dest or name, []).append(name)
    values = {}
    for dest, names in groups.items():
        options = [_OPTIONS[name] for name in names]
        flags = [(o, v) for name, o in zip(names, options) if o.flag and (v := getattr(args, name)) not in (None, "")]
        keys = [(o, v) for o in options if o.key and (v := cp.get(*o.key, fallback=""))]
        if len(flags) > 1:
            raise InvariantViolation(f"give either {' or '.join(o.flag for o, _ in flags)}, not both")
        if not flags and len(keys) > 1:
            given = " and ".join(f"[{o.key[0]}] {o.key[1]}" for o, _ in keys)
            raise InvariantViolation(f"config gives {given}; give only one")
        if flags or keys:
            option, text = (flags or keys)[0]
            values[dest] = option.parse(text)
        elif dest in _COMMANDS[command][2]:
            raise InvariantViolation(_needs(command, dest))
        else:
            values[dest] = options[0].default
    return values


# -- command implementations --------------------------------------------------


def _mt_json(ds: Dataset, p_hat: float, mt: Interval | TraceBoundsError) -> dict:
    if isinstance(mt, TraceBoundsError):
        return {"skipped": f"{type(mt).__name__}: {mt}"}
    entry = _interval_json(mt)
    entry["alpha_hat"], entry["pi_hat"] = mt_mixture(p_hat, strata_shares_monotone(ds))
    return entry


def _dataset_report(
    input_path: str, ds: Dataset, estimates: dict, trim: Interval, mt_entry: dict, derived: dict, naive: NaiveEstimates
) -> dict:
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
            **asdict(naive),
            "note": "as_treated and per_protocol condition on the post-treatment reaction and are not causal estimands",
        },
    }


def cmd_analyze(
    input_path: str, schema: dict, assumption: AssumptionSpec, te_method: TEMethod, bootstrap: BootstrapConfig,
    out_table: str, out_report: str, out_chart: str | None = None,
) -> dict:
    """Full pipeline: load the input, :func:`analyze` it, and write the
    curve table, the report and the chart if asked for.

    Returns the report dictionary after writing all requested outputs.
    """
    ds = load_csv(input_path, schema)
    res = analyze(ds, assumption, te_method, bootstrap)
    report = _dataset_report(
        input_path,
        ds,
        {
            "te_method": te_method.name,
            "te_hat": res.te.te_hat,
            "te_se": res.te.se,
            "p_hat": res.p_hat,
            "assumption": _assumption_json(assumption),
        },
        res.trim,
        _mt_json(ds, res.p_hat, res.mt),
        {
            "preset_interval": _interval_json(res.preset),
            "combined": "INFEASIBLE" if res.combined is None else _interval_json(res.combined),
        },
        naive_estimates(ds),
    )
    report["threshold_trace0"] = {
        "target_trace": 0.0,
        "value": res.threshold,
        "note": "everyone reacts under treatment; the non-reactive group is empty" if res.threshold is None else None,
    }
    report["curve"] = {
        "grid": _assumption_json(res.grid),
        "rows": len(res.curve.rows),
        "table": str(out_table),
    }
    report["bootstrap"] = {
        "seed": bootstrap.seed,
        "replicates": bootstrap.replicates,
        "level": bootstrap.level,
        "resample_unit": bootstrap.resample_unit.name,
        "failed_replicates": dict(res.failed_replicates),
    }

    with atomic_open(out_table) as fh:
        fh.write(_curve_csv(res.curve))
    _write_report(report, out_report)
    if out_chart:
        with atomic_open(out_chart) as fh:
            fh.write(render_chart(res.curve, res.combined))
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
        ds = load_csv(input_path, schema)
        p_hat = estimate_p_m1(ds)
        naive = naive_estimates(ds)
        trim, mt = full_sample_bounds(ds)
        mt_entry = _mt_json(ds, p_hat, mt)
        derived = {}
        if type3:
            t3 = type3_dim_bounds(conditional_mean(ds, 1, 1), conditional_mean(ds, 0, 1))
            derived["type3_bounds"] = _interval_json(t3)
        report = _dataset_report(input_path, ds, {"p_hat": p_hat}, trim, mt_entry, derived, naive)

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
            "strata": dict(zip(_DGP_STRATA, dgp.strata.as_tuple())),
            "means": dict(zip(_DGP_STRATA, map(list, (dgp.means.at, dgp.means.c, dgp.means.nt, dgp.means.defier)))),
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracebounds",
        description="Point and partial identification of effects among treatment-reactive units.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, names, needs) in _COMMANDS.items():
        options = [(name, _OPTIONS[name]) for name in names]
        keys_only = ", ".join(f"[{o.key[0]}] {o.key[1]}" for _, o in options if o.flag is None)
        lines = [_needs(command, dest) for dest in needs]  # one line each, as its error words it
        lines += [f"config keys without a flag: {keys_only}"] if keys_only else []
        epilog = "\n".join(textwrap.fill(line, 79, subsequent_indent="  ", break_on_hyphens=False) for line in lines)
        p = sub.add_parser(command, help=summary, epilog=epilog, formatter_class=argparse.RawDescriptionHelpFormatter)
        for name, o in options:
            if o.flag is None:
                continue
            text = o.help + (f"; config [{o.key[0]}] {o.key[1]}" if o.key else "")
            shape = o.argparse or {"metavar": o.flag[2:].upper().replace("-", "_")}
            p.add_argument(o.flag, dest=name, default=None, help=text, **shape)
    return parser


def _schema(v: dict) -> dict:
    return {role: v[role] for role in _SCHEMA if v[role]}


def _run_analyze(v: dict) -> int:
    boot = BootstrapConfig(v["replicates"], v["seed"], v["level"], v["resample_unit"])
    report = cmd_analyze(
        v["input"], _schema(v), v["assumption"], v["te_method"], boot, v["out_table"], v["out_report"], v["out_chart"]
    )
    combined = report["combined"] if isinstance(report["combined"], str) else "FEASIBLE"
    status = {"status": "ok", "combined": combined, "report": v["out_report"], "table": v["out_table"], "chart": v["out_chart"]}
    sys.stdout.write(_json_dumps(status) + "\n")
    return 0


def _run_bounds(v: dict) -> int:
    moments = v["input"] if isinstance(v["input"], tuple) else None  # --from-moments shares --input's dest
    cmd_bounds(None if moments else v["input"], _schema(v), v["type3"], moments, v["out_report"])
    return 0


def _run_simulate(v: dict) -> int:
    strata = StrataProbs(*(v[f"dgp.strata.{k}"] for k in _DGP_STRATA))
    means = OutcomeMeans(*(v[f"dgp.means.{k}"] for k in _DGP_STRATA))
    dgp = DGPConfig(v["dgp.n"], strata, means, v["dgp.noise_sd"], v["dgp.type3"], v["dgp.seed"])
    cmd_simulate(dgp, v["out_table"], v["out_report"])
    sys.stdout.write(_json_dumps({"status": "ok", "data": v["out_table"], "truth": v["out_report"]}) + "\n")
    return 0


def _run_threshold(v: dict) -> int:
    cmd_threshold(v["input"], _schema(v), v["target"], v["te_method"], v["out_report"])
    return 0


_RUNNERS = {"analyze": _run_analyze, "bounds": _run_bounds, "simulate": _run_simulate, "threshold": _run_threshold}


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
        return _RUNNERS[args.command](_resolve(args.command, args))
    except TraceBoundsError as exc:
        _emit_error(exc)
        return 2
    except OSError as exc:
        _emit_error(exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
