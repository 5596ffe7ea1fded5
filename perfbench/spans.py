"""Span tracing of the tracebounds package from outside it.

``Tracer.install`` replaces the package's public functions, in every
module namespace that holds them, with wrappers that record a span:
(name, start, end, parent, counts). Because a function is looked up in
the namespace of the module that calls it, each function is patched in
all of them (``tracebounds.cli.bootstrap_replicates`` and
``tracebounds.sensitivity.bootstrap_replicates`` are the same wrapper).
Spans stay in memory and are written out once, when the run ends.

``layer_metrics`` turns the span files of one run into per-layer metrics. A
span's layer is the module that defines its function; its self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# Instrumented public functions, by the module that defines them.
_TARGETS = {
    "cli": ("main",),
    "inference": ("bootstrap_replicates", "percentile_ci"),
    "data": ("load_csv", "write_csv", "Dataset.take"),
    "bounds": (
        "no_assumption_bounds", "mt_bounds", "trimmed_mean", "naive_estimates",
        "type3_dim_bounds", "dim_m1",
    ),
    "estimators": (
        "estimate_te_dim", "estimate_te_ols", "estimate_p_m1", "te_point",
        "conditional_mean", "strata_shares_monotone",
    ),
    "sensitivity": (
        "build_curve", "preset_interval", "combined_region", "trace_from_trace0",
        "trace0_from_trace", "threshold_trace0",
    ),
    "chart": ("render_chart",),
    "oracle": ("simulate",),
}


def _count_bootstrap(result) -> dict:
    values, n_failed = result
    return {"replicates": int(values.shape[0]), "failed": int(n_failed)}


# Counts a span records from its function's result.
_COUNTERS = {
    "inference.bootstrap_replicates": _count_bootstrap,
    "data.load_csv": lambda ds: {"rows": int(ds.n)},
    "sensitivity.build_curve": lambda curve: {"rows": len(curve.rows)},
    "chart.render_chart": lambda svg: {"bytes": len(svg.encode("utf-8"))},
}


class Tracer:
    """Records spans of patched functions; single-threaded use only."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        counter = _COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every loaded ``tracebounds`` module namespace."""
        import tracebounds  # noqa: F401  (loads every layer)

        wrappers = {}
        for layer, names in _TARGETS.items():
            mod = sys.modules[f"tracebounds.{layer}"]
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                fn = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                if owner_name:
                    setattr(owner, attr, wrapper)
                else:
                    wrappers[id(fn)] = wrapper
        for modname, mod in list(sys.modules.items()):
            if modname != "tracebounds" and not modname.startswith("tracebounds."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# -- aggregation ---------------------------------------------------------------


def layer_metrics(span_files: list[str], wall_s: float) -> dict:
    """Per-layer metrics of one traced run made of ``span_files``.

    Times are shares of the traced run's wall time ``wall_s``; the rest
    of that wall time is interpreter start-up and argument handling,
    which no span covers.
    """
    by_name: dict = {}
    self_s = dict.fromkeys(_TARGETS, 0.0)
    n_spans = 0
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)
        n_spans += len(spans)
        child_time = [0.0] * len(spans)
        for _name, start, end, parent, _counts in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent, counts) in enumerate(spans):
            entry = by_name.setdefault(name, {"calls": 0, "seconds": 0.0, "counts": Counter()})
            entry["calls"] += 1
            entry["seconds"] += end - start
            entry["counts"].update(counts or {})
            self_s[name.partition(".")[0]] += end - start - child_time[i]

    def calls(name: str) -> int:
        return by_name.get(name, {}).get("calls", 0)

    def seconds(name: str) -> float:
        return by_name.get(name, {}).get("seconds", 0.0)

    def count(name: str, key: str) -> int:
        return by_name[name]["counts"][key] if name in by_name else 0

    boot = "inference.bootstrap_replicates"
    replicates = count(boot, "replicates")
    failed = count(boot, "failed")
    rows_read = count("data.load_csv", "rows")
    load_s = seconds("data.load_csv")
    out = {f"{layer}.self_share": s / wall_s for layer, s in self_s.items()}
    out.update(
        {
            "inference.passes": calls(boot),
            "inference.replicates": replicates,
            "inference.failed_replicates": failed,
            # a run that resamples nothing wastes no replicate
            "inference.useful_ratio": (replicates - failed) / replicates if replicates else 1.0,
            "data.take_share": seconds("data.take") / wall_s,
            "data.take_calls": calls("data.take"),
            "data.load_csv_share": load_s / wall_s,
            "data.write_csv_share": seconds("data.write_csv") / wall_s,
            "data.rows_read": rows_read,
            "data.read_rows_per_s": rows_read / load_s if load_s > 0 else 0.0,
            "bounds.trimmed_mean_share": seconds("bounds.trimmed_mean") / wall_s,
            "bounds.trimmed_mean_calls": calls("bounds.trimmed_mean"),
            "bounds.no_assumption_calls": calls("bounds.no_assumption_bounds"),
            "bounds.mt_calls": calls("bounds.mt_bounds"),
            "estimators.te_ols_share": seconds("estimators.estimate_te_ols") / wall_s,
            "estimators.te_ols_calls": calls("estimators.estimate_te_ols"),
            "estimators.p_m1_calls": calls("estimators.estimate_p_m1"),
            "sensitivity.build_curve_share": seconds("sensitivity.build_curve") / wall_s,
            "sensitivity.preset_interval_calls": calls("sensitivity.preset_interval"),
            "sensitivity.grid_rows": count("sensitivity.build_curve", "rows"),
            "chart.render_share": seconds("chart.render_chart") / wall_s,
            "chart.svg_bytes": count("chart.render_chart", "bytes"),
            "oracle.simulate_share": seconds("oracle.simulate") / wall_s,
            "trace.spans": n_spans,
        }
    )
    return out
