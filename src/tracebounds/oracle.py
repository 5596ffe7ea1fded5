"""Synthetic data generation with known truth, plus brute-force checks.

The generating process draws a latent reaction stratum per unit, then a
fair-coin assignment, then the outcome as a stratum-by-arm mean plus
Gaussian noise. Because stratum membership is latent in real data but
known here, the reactive-group estimand can be computed exactly and
estimators can be validated against it. The brute-force helpers give
independent, assumption-free reference values for the trimming bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bounds import Side, TrimSpec, no_assumption_bounds, trimmed_mean
from .data import _CHUNK, Dataset
from .errors import (
    EmptyReactiveStratum,
    InvariantViolation,
    NoReactiveTreated,
    TooLarge,
)
from .estimators import conditional_mean, estimate_p_m1, estimate_te_dim
from .sensitivity import trace_from_trace0

# stratum order used throughout: always-reactor, treatment-only reactor,
# never-reactor, defier (reacts only under control)
_STRATA = ("at", "c", "nt", "def")
# m as a function of (stratum, d)
_M_TABLE = {
    "at": (1, 1),
    "c": (0, 1),
    "nt": (0, 0),
    "def": (1, 0),
}


@dataclass(frozen=True)
class StrataProbs:
    at: float
    c: float
    nt: float
    defier: float = 0.0

    def __post_init__(self):
        for name, v in (("at", self.at), ("c", self.c), ("nt", self.nt), ("defier", self.defier)):
            if not (0.0 <= v <= 1.0):
                raise InvariantViolation(f"stratum probability {name} must be in [0, 1], got {v}")
        total = self.at + self.c + self.nt + self.defier
        if abs(total - 1.0) > 1e-9:
            raise InvariantViolation(f"stratum probabilities must sum to 1, got {total}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.at, self.c, self.nt, self.defier)


@dataclass(frozen=True)
class OutcomeMeans:
    """Mean outcome per stratum and arm, as (control, treated) pairs."""

    at: tuple[float, float]
    c: tuple[float, float]
    nt: tuple[float, float]
    defier: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for name, pair in self._items():
            if len(pair) != 2 or not all(math.isfinite(v) for v in pair):
                raise InvariantViolation(f"means for {name} must be a finite (control, treated) pair")

    def _items(self):
        return (("at", self.at), ("c", self.c), ("nt", self.nt), ("def", self.defier))

    def table(self) -> np.ndarray:
        """(4, 2) array indexed by stratum order then arm."""
        return np.array([self.at, self.c, self.nt, self.defier], dtype=np.float64)


@dataclass(frozen=True)
class DGPConfig:
    n: int
    strata: StrataProbs
    means: OutcomeMeans
    noise_sd: float = 0.0
    type3: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvariantViolation(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise InvariantViolation(f"n must be at least 1, got {self.n}")
        if not (self.noise_sd >= 0 and math.isfinite(self.noise_sd)):
            raise InvariantViolation(f"noise_sd must be finite and nonnegative, got {self.noise_sd}")
        if self.seed < 0:
            raise InvariantViolation(f"seed must be nonnegative, got {self.seed}")
        if self.type3:
            # outcome can only occur through the reaction: the mean must be
            # zero in every (stratum, arm) cell where m would be 0
            tab = self.means.table()
            for si, s in enumerate(_STRATA):
                for arm in (0, 1):
                    if _M_TABLE[s][arm] == 0 and tab[si, arm] != 0.0:
                        raise InvariantViolation(
                            f"type3 requires a zero mean for stratum {s!r} in arm {arm}"
                        )


@dataclass(frozen=True)
class TruthRecord:
    """Population estimands of a :class:`DGPConfig`.

    ``trace0`` is None when no unit fails to react under treatment
    (p_m1 = 1), in which case the decomposition holds with a zero
    weight on the missing piece.
    """

    trace: float
    trace0: float | None
    te: float
    p_m1: float

    def __post_init__(self):
        t0 = 0.0 if self.trace0 is None else self.trace0
        gap = self.te - (self.trace * self.p_m1 + t0 * (1.0 - self.p_m1))
        if abs(gap) > 1e-9:
            raise InvariantViolation(f"decomposition identity violated by {gap}")


def true_estimands(cfg: DGPConfig) -> TruthRecord:
    """Exact population quantities implied by the configuration."""
    probs = cfg.strata.as_tuple()
    tab = cfg.means.table()
    effects = tab[:, 1] - tab[:, 0]

    # reactive under treatment: strata whose m(1) = 1
    react = [si for si, s in enumerate(_STRATA) if _M_TABLE[s][1] == 1]
    nonreact = [si for si, s in enumerate(_STRATA) if _M_TABLE[s][1] == 0]

    p_m1 = sum(probs[si] for si in react)
    if p_m1 == 0.0:
        raise EmptyReactiveStratum("the configuration puts no mass on reactive strata")
    trace = sum(probs[si] * effects[si] for si in react) / p_m1

    mass0 = sum(probs[si] for si in nonreact)
    trace0 = None if mass0 == 0.0 else sum(probs[si] * effects[si] for si in nonreact) / mass0

    te = float(sum(probs[si] * effects[si] for si in range(4)))
    return TruthRecord(trace=float(trace), trace0=trace0, te=te, p_m1=float(p_m1))


# the cell code 3 * d + m of each (stratum, arm), in the flat order of OutcomeMeans.table()
_CODE_OF_CELL = np.array([3 * arm + _M_TABLE[s][arm] for s in _STRATA for arm in (0, 1)], dtype=np.int8)


def _draw_cells(rng: np.random.Generator, probs, n: int) -> np.ndarray:
    """Each unit's flat (stratum, arm) index into a (4, 2) table, as int8:
    the strata as ``rng.choice(4, n, p=probs)`` draws them (uniforms placed
    in the cumulative probabilities), then the arms as one
    ``rng.integers(0, 2, n)`` call draws them, each ``_CHUNK`` rows at a
    time, as consecutive calls of a generator continue one stream."""
    cdf = np.array(probs, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    cell = np.empty(n, np.int8)
    for s in range(0, n, _CHUNK):
        part = cell[s : s + _CHUNK]
        part[:] = cdf.searchsorted(rng.random(part.size), side="right")
    for s in range(0, n, _CHUNK):
        part = cell[s : s + _CHUNK]
        part *= 2
        part += rng.integers(0, 2, part.size)  # int64, as one call draws them
    return cell


def draw_chunks(cfg: DGPConfig) -> tuple[np.ndarray, Iterator[tuple[slice, np.ndarray]]]:
    """The draw of :func:`simulate`, whose dataset it makes, for a caller
    that writes the units as they are drawn: an int8 array of every
    unit's (stratum, arm) index (:func:`_draw_cells`), drawn first as the
    stream requires, and a generator of each ``_CHUNK`` rows, in order,
    and their y. As it yields a chunk, the chunk's rows of the array hold
    their cell codes instead.

    Draw order is fixed (stratum, then assignment, then noise), each
    draw ``_CHUNK`` rows at a time giving the stream of one call, so a
    seed always reproduces the same units byte for byte. Both arms
    observe m. Under ``type3`` the outcome is exactly zero whenever
    m = 0, noise included."""
    rng = np.random.default_rng(cfg.seed)
    cell = _draw_cells(rng, cfg.strata.as_tuple(), cfg.n)
    means = cfg.means.table().ravel()

    def chunks() -> Iterator[tuple[slice, np.ndarray]]:
        for s in range(0, cfg.n, _CHUNK):
            at = cell[s : s + _CHUNK]
            y = means[at]
            if cfg.noise_sd > 0:
                y += rng.normal(0.0, cfg.noise_sd, size=y.size)
            at[:] = _CODE_OF_CELL[at]
            if cfg.type3:
                y[at % 3 == 0] = 0.0  # m = 0
            yield slice(s, s + at.size), y

    return cell, chunks()


def simulate(cfg: DGPConfig) -> tuple[Dataset, TruthRecord]:
    """Draw a dataset from the configuration (:func:`draw_chunks`); fully
    deterministic per seed. The dataset keeps y and the draw's int8
    array, which holds its cell codes once every chunk is drawn."""
    truth = true_estimands(cfg)
    codes, chunks = draw_chunks(cfg)
    y = np.empty(cfg.n)
    for rows, part in chunks:
        y[rows] = part
    return Dataset._adopt(y, None, None, codes=codes), truth


# -- brute-force references ---------------------------------------------------

_BRUTE_LIMIT = 20


def brute_force_trim_extremes(values, k: int) -> tuple[float, float]:
    """Exact minimum and maximum mean over all size-k subsets.

    Enumerates every subset, so the guard is tight: more than 20 values
    raises :class:`TooLarge`. This is the reference the trimming bounds
    are checked against on unit-weight integer trims.
    """
    v = [float(x) for x in values]
    n = len(v)
    if n > _BRUTE_LIMIT:
        raise TooLarge(f"brute force is capped at {_BRUTE_LIMIT} values, got {n}")
    if not (1 <= k <= n):
        raise InvariantViolation(f"subset size must be in [1, {n}], got {k}")
    lo = math.inf
    hi = -math.inf
    for comb in itertools.combinations(v, k):
        mean = sum(comb) / k
        if mean < lo:
            lo = mean
        if mean > hi:
            hi = mean
    return lo, hi


@dataclass(frozen=True)
class AppendixDResult:
    """Outcome of the dual-route bounds check.

    ``degenerate`` flags the p = 1 case where the non-reactive group is
    empty and the check holds vacuously. Truthiness is ``ok``.
    """

    ok: bool
    degenerate: bool
    max_abs_err: float

    def __bool__(self) -> bool:
        return self.ok


def check_appendix_d(ds: Dataset, tol: float = 1e-10) -> AppendixDResult:
    """Verify the two derivations of the trimming bounds coincide.

    Route one bounds the reactive-group effect directly. Route two
    bounds the non-reactive effect by trimming the control arm at the
    complementary share, then maps those endpoints through the exact
    decomposition. The lower non-reactive bound maps to the upper
    reactive bound and vice versa; both routes must agree within
    ``tol``.
    """
    p = estimate_p_m1(ds)
    if p == 0.0:
        raise NoReactiveTreated("no treated unit reacted")
    if p == 1.0:
        return AppendixDResult(ok=True, degenerate=True, max_abs_err=0.0)

    direct = no_assumption_bounds(ds)
    te = estimate_te_dim(ds).te_hat
    y1m0 = conditional_mean(ds, 1, 0)
    control = ds.d == 0
    cy = ds.y[control]
    cw = ds.weight[control]
    # bounds on the non-reactive effect: trim the control arm at share 1-p
    t0_lo = y1m0 - trimmed_mean(cy, cw, TrimSpec(1.0 - p, Side.HIGHEST))
    t0_hi = y1m0 - trimmed_mean(cy, cw, TrimSpec(1.0 - p, Side.LOWEST))
    mapped_hi = trace_from_trace0(te, p, t0_lo)
    mapped_lo = trace_from_trace0(te, p, t0_hi)
    err = float(max(abs(mapped_hi - direct.hi), abs(mapped_lo - direct.lo)))
    return AppendixDResult(ok=bool(err <= tol), degenerate=False, max_abs_err=err)
