"""``analyze`` resamples once for every band; the reference resamples once
per statistic. Both must give the same bands, curve and failure counts,
and the CLI and ``build_curve`` must give exactly what ``analyze`` gives.

``analyze`` reads its replicates off bootstrap counts, which sums
count·w·y once per row where the reference sums the drawn rows in draw
order, so band endpoints agree to a tolerance (relative 1e-12, plus
1e-12·max|y| for endpoints near zero); everything else is exact."""

import csv
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebounds import (
    AssumptionKind,
    AssumptionSpec,
    BootstrapConfig,
    Dataset,
    Interval,
    ResampleUnit,
    TEMethod,
    analyze,
    bootstrap_replicates,
    build_curve,
    estimate_p_m1,
    load_csv,
    mt_bounds,
    no_assumption_bounds,
    preset_interval,
    schema_for,
    te_point,
    trace0_from_trace,
    write_csv,
)
from tracebounds.cli import cmd_analyze
from tracebounds.errors import TraceBoundsError
from tracebounds.sensitivity import curve_from_replicates

_ASSUMPTIONS = [
    AssumptionSpec.zero(),
    AssumptionSpec.equal_effects(),
    AssumptionSpec.same_sign_smaller(),
    AssumptionSpec.opposite_sign(),
    AssumptionSpec.grid(-1.0, 1.0, 0.25),
]


def _dataset(kind: str, seed: int) -> Dataset:
    """Half the units treated; reaction counts fixed so the full sample
    is monotone. ``weak`` has a first stage of one unit, so resamples
    often reverse it and the monotone bounds fail on their own; ``rare``
    has one treated reactor, so resamples often lose it and both bounds
    fail while (te, p) still evaluates."""
    rng = np.random.default_rng(seed)
    half = int(rng.integers(40, 76)) if kind == "weak" else int(rng.integers(15, 40))
    d = rng.permutation(np.repeat([1, 0], half))
    k1, k0 = round(0.6 * half), round(0.3 * half)
    if kind == "weak":
        k1 = round(0.45 * half)
        k0 = k1 - 1
    elif kind == "rare":
        k1, k0 = 1, 0
    m = np.zeros(2 * half)
    m[rng.choice(np.flatnonzero(d == 1), k1, replace=False)] = 1.0
    m[rng.choice(np.flatnonzero(d == 0), k0, replace=False)] = 1.0
    y = np.round(rng.normal(0.0, 1.0, 2 * half) + d * m, 2)
    weight = rng.choice([0.5, 1.0, 1.5, 2.0], 2 * half) if kind in ("weighted", "blocked") else None
    block = [f"b{j}" for j in rng.integers(0, 6, 2 * half)] if kind == "blocked" else None
    return Dataset(y=y, d=d, m=m, weight=weight, block=block)


def _ends(iv):
    return iv.lo, iv.hi


def _band(iv, values, level):
    good = np.isfinite(values[:, 0])
    if not good.any():
        return iv
    tail = (1.0 - level) / 2.0
    return iv.with_ci(
        float(np.quantile(values[good, 0], tail, method="linear")),
        float(np.quantile(values[good, 1], 1.0 - tail, method="linear")),
    )


def _interval_entry(iv) -> dict:
    return {"lo": iv.lo, "hi": iv.hi, "kind": iv.kind.name, "ci_lo": iv.ci_lo, "ci_hi": iv.ci_hi}


def _close(got, want, scale: float) -> bool:
    if got is None or want is None or math.isinf(want):
        return got == want
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * scale)


def _assert_entry(got: dict, want: dict, scale: float) -> None:
    """Point interval and kind exact, band endpoints to the tolerance."""
    assert set(got) == set(want)
    assert {k: got[k] for k in ("lo", "hi", "kind")} == {k: want[k] for k in ("lo", "hi", "kind")}
    for key in ("ci_lo", "ci_hi"):
        assert _close(got[key], want[key], scale), (key, got[key], want[key])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["plain", "weighted", "blocked", "weak", "rare"]),
    data_seed=st.integers(0, 2**32 - 1),
    boot_seed=st.integers(0, 2**64 - 1),
    replicates=st.integers(20, 40),
    level=st.sampled_from([0.8, 0.9, 0.95]),
    te_method=st.sampled_from(list(TEMethod)),
    assumption=st.sampled_from(_ASSUMPTIONS),
    block_draws=st.booleans(),
)
def test_single_pass_matches_one_pass_per_statistic(
    kind, data_seed, boot_seed, replicates, level, te_method, assumption, block_draws
):
    unit = ResampleUnit.BLOCK if kind == "blocked" and block_draws else ResampleUnit.ROW
    boot = BootstrapConfig(replicates=replicates, seed=boot_seed, level=level, resample_unit=unit)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        generated = _dataset(kind, data_seed)
        write_csv(generated, tmp / "data.csv")
        schema = schema_for(generated)
        report = cmd_analyze(
            input_path=str(tmp / "data.csv"),
            schema=schema,
            assumption=assumption,
            te_method=te_method,
            bootstrap=boot,
            out_table=str(tmp / "curve.csv"),
            out_report=str(tmp / "report.json"),
        )
        with open(tmp / "curve.csv", newline="") as fh:
            table = list(csv.reader(fh))[1:]
        ds = load_csv(tmp / "data.csv", schema)

    # reference: one bootstrap pass per statistic
    scale = float(np.abs(ds.y).max())
    te_hat = te_point(ds, te_method)
    p_hat = estimate_p_m1(ds)
    trim_values, trim_failed = bootstrap_replicates(lambda d: _ends(no_assumption_bounds(d)), ds, boot)
    core, core_failed = bootstrap_replicates(lambda d: (te_point(d, te_method), estimate_p_m1(d)), ds, boot)
    trim = _band(no_assumption_bounds(ds), trim_values, level)
    _assert_entry(report["no_assumption_bounds"], _interval_entry(trim), scale)
    try:
        mt = mt_bounds(ds)
    except TraceBoundsError:
        mt = None
        mt_failed = None
        assert "skipped" in report["mt_bounds"]
    if mt is not None:
        mt_values, mt_failed = bootstrap_replicates(lambda d: _ends(mt_bounds(d)), ds, boot)
        entry = dict(report["mt_bounds"])
        del entry["alpha_hat"], entry["pi_hat"]
        _assert_entry(entry, _interval_entry(_band(mt, mt_values, level)), scale)
    assert report["bootstrap"]["failed_replicates"] == {
        "core": core_failed,
        "no_assumption_bounds": trim_failed,
        "mt_bounds": mt_failed,
    }
    if kind == "weak":
        assert mt_failed > trim_failed  # mt failed on replicates where trimming held
    if kind == "rare":
        assert trim_failed > core_failed

    los, his = [], []
    for te, p in core:
        if math.isfinite(te) and math.isfinite(p) and p > 0:
            try:
                iv = preset_interval(te, p, assumption)
            except TraceBoundsError:
                continue
            los.append(iv.lo)
            his.append(iv.hi)
    preset = preset_interval(te_hat, p_hat, assumption)
    if los:
        tail = (1.0 - level) / 2.0
        preset = preset.with_ci(
            -math.inf if np.isinf(los).any() else float(np.quantile(los, tail, method="linear")),
            math.inf if np.isinf(his).any() else float(np.quantile(his, 1.0 - tail, method="linear")),
        )
    _assert_entry(report["preset_interval"], _interval_entry(preset), scale)

    if assumption.kind is AssumptionKind.GRID:
        grid = assumption
    else:
        lo = trace0_from_trace(te_hat, p_hat, trim.hi)
        hi = trace0_from_trace(te_hat, p_hat, trim.lo)
        grid = AssumptionSpec.grid(lo, lo, 1.0) if hi <= lo else AssumptionSpec.grid(lo, hi, (hi - lo) / 20)
    curve = curve_from_replicates(grid, te_hat, p_hat, trim, core[:, 0], core[:, 1], level)
    assert [[float(v) for v in row[:2]] for row in table] == [[r.trace0, r.trace_hat] for r in curve.rows]
    for row, r in zip(table, curve.rows):
        assert _close(float(row[2]), r.ci_lo, scale) and _close(float(row[3]), r.ci_hi, scale)
    assert [row[4] == "true" for row in table] == [r.within_trim_bounds for r in curve.rows]

    # the library and the CLI read one engine run
    result = analyze(ds, assumption, te_method, boot)
    assert result.grid == grid
    assert build_curve(ds, grid, te_method=te_method, boot=boot) == result.curve
    assert [[float(v).hex() for v in row[:4]] + [row[4]] for row in table] == [
        [r.trace0.hex(), r.trace_hat.hex(), r.ci_lo.hex(), r.ci_hi.hex(), "true" if r.within_trim_bounds else "false"]
        for r in result.curve.rows
    ]


@pytest.mark.parametrize("te_method", list(TEMethod))
def test_analyze_sorts_the_control_arm_once(monkeypatch, te_method):
    # the full-sample bounds and the replicate engine read one Dataset.layout()
    calls = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        calls.append(args)
        return argsort(*args, **kwargs)

    ds = _dataset("blocked", 3)
    monkeypatch.setattr(np, "argsort", counted)
    result = analyze(ds, AssumptionSpec.zero(), te_method, BootstrapConfig(replicates=20, seed=1))
    assert isinstance(result.mt, Interval)
    assert len(calls) == 1
