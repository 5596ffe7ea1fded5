"""Percentile bootstrap with replayable per-replicate randomness.

Replicate r draws from a counter-based generator keyed by (seed, r), so
the stream a replicate sees does not depend on execution order. Serial
and threaded runs, and reruns of a single replicate, agree bit for bit.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import AllReplicatesFailed, InvariantViolation, TraceBoundsError

_MASK64 = (1 << 64) - 1


class ResampleUnit(enum.Enum):
    ROW = "row"
    BLOCK = "block"


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 2000
    seed: int = 0
    level: float = 0.95
    resample_unit: ResampleUnit = ResampleUnit.ROW

    def __post_init__(self):
        for name in ("replicates", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvariantViolation(f"{name} must be an integer, got {value!r}")
        if self.replicates < 2:
            raise InvariantViolation(f"need at least 2 replicates, got {self.replicates}")
        if not (0.0 < self.level < 1.0):
            raise InvariantViolation(f"level must be in (0, 1), got {self.level}")
        if not (0 <= self.seed <= _MASK64):
            raise InvariantViolation("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class BootstrapResult:
    """Percentile interval plus the raw replicate statistics.

    ``values`` holds one entry per replicate in replicate order, NaN
    where evaluation failed; ``n_failed`` counts those NaNs. Failed
    replicates are excluded from the quantiles, never retried.
    """

    lo: float
    hi: float
    values: np.ndarray
    n_failed: int


_thread = threading.local()  # one reusable generator per thread
_ZEROS4 = np.zeros(4, dtype=np.uint64)


def replicate_draw(seed: int, r: int, size: int) -> np.ndarray:
    """Replicate ``r``'s draw of ``size`` units (rows, or whole blocks)
    with replacement, from a Philox generator keyed by ``(seed, r)``.

    The stream is that of ``Philox(key=(seed << 64) | r)``; resetting
    the key and counter of a per-thread generator avoids the entropy a
    new ``Philox`` collects for the seed it then ignores.
    """
    gen = getattr(_thread, "gen", None)
    if gen is None:
        gen = _thread.gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": np.array([r & _MASK64, seed & _MASK64], dtype=np.uint64)},
        "buffer": _ZEROS4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.integers(0, size, size)


def bootstrap_replicates(
    statistic: Callable[[Dataset], object],
    ds: Dataset,
    cfg: BootstrapConfig,
    threads: int = 1,
) -> tuple[np.ndarray, int]:
    """Evaluate ``statistic`` on ``cfg.replicates`` resamples.

    ``statistic`` may return a scalar or a fixed-length vector; it must
    evaluate cleanly on the original dataset (that run determines the
    output width and its failure propagates). Per replicate, rows are
    drawn with replacement (or whole blocks when the config says so).
    A :class:`TraceBoundsError` or a result of the wrong width fails the
    replicate (a NaN row); any other exception is a fault and propagates.
    A non-finite entry of a good result becomes NaN on its own.

    ``threads`` (at least 1) caps the threads; no more start than replicates.

    Returns ``(values, n_failed)`` where ``values`` has shape
    (replicates, width) and ``n_failed`` counts the NaNs in column 0.
    """
    if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)) or threads < 1:
        raise InvariantViolation(f"threads must be an integer of at least 1, got {threads!r}")
    width = np.atleast_1d(np.asarray(statistic(ds), dtype=np.float64)).shape[0]
    block_rows = None
    if cfg.resample_unit is ResampleUnit.BLOCK:  # the rows of each block, in code order
        codes, _ = ds.block_codes()
        block_rows = np.split(np.argsort(codes, kind="stable"), np.cumsum(np.bincount(codes))[:-1])

    def run_one(r: int) -> np.ndarray:
        if block_rows is None:
            idx = replicate_draw(cfg.seed, r, ds.n)
        else:
            idx = np.concatenate([block_rows[j] for j in replicate_draw(cfg.seed, r, len(block_rows))])
        try:
            out = np.atleast_1d(np.asarray(statistic(ds.take(idx)), dtype=np.float64))
        except TraceBoundsError:
            return np.full(width, np.nan)
        if out.shape != (width,):
            return np.full(width, np.nan)
        return np.where(np.isfinite(out), out, np.nan)

    if threads <= 1:
        rows = [run_one(r) for r in range(cfg.replicates)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # serial runs never load it

        with ThreadPoolExecutor(max_workers=min(threads, cfg.replicates)) as pool:
            rows = list(pool.map(run_one, range(cfg.replicates)))

    values = np.vstack(rows)
    n_failed = int(np.isnan(values[:, 0]).sum())
    return values, n_failed


def percentile_ci(
    statistic: Callable[[Dataset], float],
    ds: Dataset,
    cfg: BootstrapConfig,
    threads: int = 1,
) -> BootstrapResult:
    """Equal-tailed percentile interval for a scalar statistic.

    Quantiles interpolate linearly between order statistics of the
    successful replicates. Raises :class:`AllReplicatesFailed` when no
    replicate evaluates.
    """
    values, n_failed = bootstrap_replicates(statistic, ds, cfg, threads=threads)
    flat = values[:, 0]
    good = flat[np.isfinite(flat)]
    if good.size == 0:
        raise AllReplicatesFailed("no bootstrap replicate produced a value")
    lo, hi = percentile_band(good, good, cfg.level)
    return BootstrapResult(lo=lo, hi=hi, values=flat, n_failed=n_failed)


def _linear_quantile(values: np.ndarray, q: float):
    """``np.quantile(values, q, axis=0, method="linear")`` for a float
    ``q`` in [0, 1], bit for bit: the same partition of a copy, the same
    neighbouring order statistics and numpy's ``_lerp``, which takes a
    weight of 1/2 or more from the upper neighbour. A column holding a
    NaN gives NaN. numpy reaches its partition through ``np.unique``,
    which imports ``numpy.ma``; this path imports nothing.

    1-D values give a 0-d array, 2-D values one quantile per column."""
    n = values.shape[0]
    virtual = (n - 1) * q
    below = -1 if virtual >= n - 1 else math.floor(virtual)  # -1: the largest value
    above = -1 if below == -1 else below + 1
    t = virtual - below
    arr = values.copy()
    arr.partition(np.array(sorted({0, -1, below, above}), dtype=np.intp), axis=0)
    a, b = arr[below], arr[above]
    diff = b - a
    result = b - diff * (1 - t) if t >= 0.5 else a + diff * t
    return np.where(np.isnan(arr[-1]), arr[-1], result)  # NaNs partition last


def percentile_band(lo_values, hi_values, level: float):
    """Lower ``(1 - level) / 2`` quantile of ``lo_values`` and upper one of
    ``hi_values``, interpolating linearly between order statistics. An end
    whose values include an infinity (a half-line) keeps that infinity.

    1-D values give the two ends as floats; 2-D (replicates × rows) values
    give one band per column, as two arrays, with the infinity rule
    applied column by column."""
    tail = (1.0 - level) / 2.0
    lo_values = np.asarray(lo_values, dtype=np.float64)
    hi_values = np.asarray(hi_values, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # a column holding an infinity interpolates to NaN, replaced below
        ci_lo = _linear_quantile(lo_values, tail)
        ci_hi = _linear_quantile(hi_values, 1.0 - tail)
    ci_lo = np.where(np.isinf(lo_values).any(axis=0), -np.inf, ci_lo)
    ci_hi = np.where(np.isinf(hi_values).any(axis=0), np.inf, ci_hi)
    if ci_lo.ndim == 0:
        return float(ci_lo), float(ci_hi)
    return ci_lo, ci_hi
