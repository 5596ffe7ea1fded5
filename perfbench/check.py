"""Output checker for the benchmark's CLI runs.

``check`` re-derives every point value of a run's report from the
public per-``Dataset`` functions applied to ``load_csv`` of the same
input, and checks the shape of the other outputs: one curve CSV row per
grid value, an SVG that parses as XML, bands that bracket their point
intervals, no failed replicate and no skipped mt bounds.

``reference_values`` extracts the values that depend on the bootstrap
stream (band endpoints) or on the simulate stream; ``compare`` matches
them against the values recorded in reference.json at the default
seed, so a changed Philox ``(seed, r)`` stream fails the check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

from tracebounds import (
    AssumptionSpec,
    combined_region,
    conditional_mean,
    estimate_p_m1,
    estimate_te_dim,
    estimate_te_ols,
    load_csv,
    mt_bounds,
    naive_estimates,
    no_assumption_bounds,
    preset_interval,
    simulate,
    strata_shares_monotone,
    threshold_trace0,
    trace0_from_trace,
    trace_from_trace0,
    type3_dim_bounds,
)

from workloads import Job, ingest_dgp

REL_TOL = 1e-12
_CURVE_HEADER = ["trace0", "trace_hat", "ci_lo", "ci_hi", "within_trim_bounds"]
_DEFAULT_GRID_ROWS = 21


def digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _num(v):
    """Report value to float: the report writes infinities as strings."""
    if isinstance(v, str):
        return float(v)
    return v


class _Problems(list):
    def close(self, what: str, got, want) -> None:
        got = _num(got)
        if got is None or want is None:
            if got is not want:
                self.append(f"{what}: report has {got!r}, expected {want!r}")
        elif not math.isclose(got, want, rel_tol=REL_TOL):
            self.append(f"{what}: report has {got!r}, re-derived {want!r}")

    def interval(self, what: str, entry: dict, iv, band: bool) -> None:
        if "skipped" in entry:
            self.append(f"{what}: skipped ({entry['skipped']})")
            return
        self.close(f"{what}.lo", entry["lo"], iv.lo)
        self.close(f"{what}.hi", entry["hi"], iv.hi)
        if band:
            lo, hi, ci_lo, ci_hi = (_num(entry[k]) for k in ("lo", "hi", "ci_lo", "ci_hi"))
            if ci_lo is None or ci_hi is None or not (ci_lo <= lo <= hi <= ci_hi):
                self.append(f"{what}: band [{ci_lo}, {ci_hi}] does not bracket [{lo}, {hi}]")

    def mt(self, entry: dict, ds, band: bool) -> None:
        self.interval("mt_bounds", entry, mt_bounds(ds), band)
        if "skipped" not in entry:
            shares = strata_shares_monotone(ds)
            self.close("mt_bounds.alpha_hat", entry["alpha_hat"], shares.at / estimate_p_m1(ds))
            self.close("mt_bounds.pi_hat", entry["pi_hat"], shares.c / (shares.c + shares.nt))

    def naive(self, entry: dict, ds) -> None:
        nv = naive_estimates(ds)
        for key in ("itt", "as_treated", "per_protocol", "dim_m1", "wald_late"):
            self.close(f"naive.{key}", entry[key], getattr(nv, key))


def _check_analyze(job: Job) -> list[str]:
    bad = _Problems()
    ex = job.expect
    rep = json.loads(job.outputs["report"].read_text())
    ds = load_csv(ex["input"], ex["schema"])
    if ex["te_method"] == "ols":
        est = estimate_te_ols(ds, use_covariates=True, use_block_fe=True)
    else:
        est = estimate_te_dim(ds)
    te, p = est.te_hat, estimate_p_m1(ds)
    trim = no_assumption_bounds(ds)

    if rep["n_units"] != job.size.n:
        bad.append(f"n_units: report has {rep['n_units']}, input has {job.size.n}")
    bad.close("te_hat", rep["te_hat"], te)
    bad.close("te_se", rep["te_se"], est.se)
    bad.close("p_hat", rep["p_hat"], p)
    bad.interval("no_assumption_bounds", rep["no_assumption_bounds"], trim, band=True)
    bad.mt(rep["mt_bounds"], ds, band=True)

    if ex["grid"] is None:
        spec = AssumptionSpec.zero()
        lo = trace0_from_trace(te, p, trim.hi)
        hi = trace0_from_trace(te, p, trim.lo)
        grid = AssumptionSpec.grid(lo, hi, (hi - lo) / (_DEFAULT_GRID_ROWS - 1))
    else:
        spec = grid = AssumptionSpec.grid(*ex["grid"])
    preset = preset_interval(te, p, spec)
    bad.interval("preset_interval", rep["preset_interval"], preset, band=True)
    combined = combined_region(preset, trim)
    if combined is None or rep["combined"] == "INFEASIBLE":
        if not (combined is None and rep["combined"] == "INFEASIBLE"):
            bad.append(f"combined: report has {rep['combined']!r}, re-derived {combined!r}")
    else:
        bad.interval("combined", rep["combined"], combined, band=False)
    bad.naive(rep["naive"], ds)
    bad.close("threshold_trace0", rep["threshold_trace0"]["value"], threshold_trace0(te, p, 0.0))

    boot = rep["bootstrap"]
    if boot["replicates"] != job.size.replicates or boot["seed"] != job.seed:
        bad.append(f"bootstrap: report ran R={boot['replicates']} seed={boot['seed']}")
    for key, n_failed in boot["failed_replicates"].items():
        if n_failed != 0:
            bad.append(f"bootstrap.failed_replicates.{key} = {n_failed}, expected 0")

    values = grid.grid_values()
    with open(job.outputs["table"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != _CURVE_HEADER:
        bad.append(f"curve header {rows[0]}")
    if len(rows) - 1 != len(values) or rep["curve"]["rows"] != len(values):
        bad.append(f"curve has {len(rows) - 1} rows (report says {rep['curve']['rows']}), grid has {len(values)}")
    for i, (row, t0) in enumerate(zip(rows[1:], values)):
        point = trace_from_trace0(te, p, t0)
        bad.close(f"curve[{i}].trace0", float(row[0]), t0)
        bad.close(f"curve[{i}].trace_hat", float(row[1]), point)
        ci_lo, ci_hi = float(row[2]), float(row[3])
        if not (math.isfinite(ci_lo) and math.isfinite(ci_hi) and ci_lo <= ci_hi):
            bad.append(f"curve[{i}]: band [{ci_lo}, {ci_hi}]")
        if row[4] != ("true" if trim.contains(point) else "false"):
            bad.append(f"curve[{i}].within_trim_bounds = {row[4]}")
    try:
        ET.parse(job.outputs["chart"])
    except ET.ParseError as exc:
        bad.append(f"chart does not parse as XML: {exc}")
    return bad


def _check_ingest(job: Job) -> list[str]:
    bad = _Problems()
    sim, truth = simulate(ingest_dgp(job.size.n, job.seed))
    ds = load_csv(job.outputs["data"])
    for col in ("y", "d", "m"):
        if not np.array_equal(getattr(ds, col), getattr(sim, col)):
            bad.append(f"trial.csv column {col} does not round-trip the simulated data")
    t = json.loads(job.outputs["truth"].read_text())
    for key in ("trace", "trace0", "te", "p_m1"):
        bad.close(f"truth.{key}", t[key], getattr(truth, key))

    rep = json.loads(job.outputs["report"].read_text())
    if rep["n_units"] != job.size.n:
        bad.append(f"n_units: report has {rep['n_units']}, simulated {job.size.n}")
    p = estimate_p_m1(ds)
    bad.close("p_hat", rep["p_hat"], p)
    bad.interval("no_assumption_bounds", rep["no_assumption_bounds"], no_assumption_bounds(ds), band=False)
    bad.mt(rep["mt_bounds"], ds, band=False)
    t3 = type3_dim_bounds(conditional_mean(ds, 1, 1), conditional_mean(ds, 0, 1))
    bad.interval("type3_bounds", rep["type3_bounds"], t3, band=False)
    bad.naive(rep["naive"], ds)
    return bad


def check(job: Job) -> list[str]:
    """Every mismatch between a run's outputs and their re-derivation."""
    if job.expect["kind"] == "analyze":
        return _check_analyze(job)
    return _check_ingest(job)


# -- reference values at the default seed ----------------------------------------


def _band(entry: dict) -> list:
    return [_num(entry[k]) for k in ("lo", "hi", "ci_lo", "ci_hi") if k in entry]


def reference_values(job: Job) -> dict:
    """The values of a run that reference.json pins at the default seed."""
    rep = json.loads(job.outputs["report"].read_text())
    out = {"p_hat": rep["p_hat"]}
    if job.expect["kind"] == "analyze":
        out["input_sha256"] = digest(job.expect["input"])
        out["te_hat"] = rep["te_hat"]
        for key in ("no_assumption_bounds", "mt_bounds", "preset_interval"):
            out[key] = _band(rep[key])
        with open(job.outputs["table"], newline="", encoding="utf-8") as fh:
            out["curve_bands"] = [[float(r[2]), float(r[3])] for r in list(csv.reader(fh))[1:]]
    else:
        out["truth_trace"] = json.loads(job.outputs["truth"].read_text())["trace"]
        for key in ("no_assumption_bounds", "mt_bounds", "type3_bounds"):
            out[key] = _band(rep[key])
    return out


def compare(got, want, what: str = "") -> list[str]:
    """Mismatches between two reference-value trees; floats to REL_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{what}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [m for k in want for m in compare(got[k], want[k], f"{what}.{k}" if what else k)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{what}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in compare(g, w, f"{what}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        return [] if math.isclose(got, want, rel_tol=REL_TOL) else [f"{what}: {got!r} != reference {want!r}"]
    return [] if got == want else [f"{what}: {got!r} != reference {want!r}"]
