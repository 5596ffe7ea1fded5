"""Dataset container and CSV ingestion.

A unit carries an outcome ``y``, a randomized assignment ``d`` in {0, 1},
and a binary post-treatment reaction indicator ``m``. ``m`` may be
unmeasured in the control arm (an empty CSV cell); treated units must
always carry it. Optional per-unit covariates, a block label, and a
positive sampling weight round out the record. Every mean computed in
this package is weight-aware.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import (
    InvariantViolation,
    MissingColumn,
    ParseError,
    RequirementUnmet,
)


class Analysis(enum.Enum):
    """Analyses a dataset can be validated against."""

    NO_ASSUMPTION_BOUNDS = "no_assumption_bounds"
    MT_BOUNDS = "mt_bounds"
    SENSITIVITY = "sensitivity"
    DIM = "dim"


@dataclass(frozen=True)
class Unit:
    """One experimental record.

    ``m`` is ``None`` when the reaction indicator was not measured for
    this unit. Inside a :class:`Dataset` that is allowed only for
    control units.
    """

    y: float
    d: int
    m: int | None = None
    x: tuple[float, ...] = ()
    block: str | None = None
    weight: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.y):
            raise InvariantViolation(f"y must be finite, got {self.y}")
        if self.d not in (0, 1):
            raise InvariantViolation(f"d must be 0 or 1, got {self.d!r}")
        if self.m is not None and self.m not in (0, 1):
            raise InvariantViolation(f"m must be 0, 1 or None, got {self.m!r}")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise InvariantViolation(f"weight must be positive and finite, got {self.weight}")
        for v in self.x:
            if not math.isfinite(v):
                raise InvariantViolation("covariates must be finite")


def _as_m_array(m, n: int) -> np.ndarray:
    """Coerce m to a float vector with NaN for missing entries."""
    if m is None:
        return np.full(n, np.nan)
    if isinstance(m, np.ndarray) and m.dtype.kind == "f":
        return m.astype(np.float64, copy=True)
    try:
        return np.asarray(m, dtype=np.float64).copy()
    except (TypeError, ValueError):
        return np.array([np.nan if v is None else float(v) for v in m], dtype=np.float64)


class Dataset:
    """Immutable column-oriented collection of units.

    Construction validates every structural invariant once; estimators
    then treat the arrays as trusted values. Row order is preserved and
    meaningful (trimming ties break by original position).

    Parameters
    ----------
    y, d, m : array-like, length n
        Outcome, assignment in {0, 1}, reaction indicator in {0, 1}
        with NaN or None marking a missing m (control arm only).
    x : array-like of shape (n, k), optional
        Covariate matrix. Defaults to zero columns.
    block : sequence of str or None, optional
        Block label per unit.
    weight : array-like, optional
        Positive sampling weights. Defaults to 1 for every unit.
    covariate_names : sequence of str, optional
        Names for the k covariate columns. Defaults to x1..xk.
    """

    __slots__ = ("_y", "_d", "_m", "_x", "_block", "_w", "_names", "_m_obs_ctrl")

    def __init__(self, y, d, m, x=None, block=None, weight=None, covariate_names=None):
        yv = np.asarray(y, dtype=np.float64).copy()
        if yv.ndim != 1:
            raise InvariantViolation("y must be one-dimensional")
        n = yv.shape[0]
        if n == 0:
            raise InvariantViolation("dataset must contain at least one unit")

        dv = np.asarray(d, dtype=np.float64)
        if dv.shape != (n,):
            raise InvariantViolation("d length does not match y")
        if not np.all((dv == 0.0) | (dv == 1.0)):
            bad = dv[~((dv == 0.0) | (dv == 1.0))][0]
            raise InvariantViolation(f"d must be 0 or 1, got {bad}")
        dv = dv.astype(np.int8)

        mv = _as_m_array(m, n)
        if mv.shape != (n,):
            raise InvariantViolation("m length does not match y")
        ok_m = np.isnan(mv) | (mv == 0.0) | (mv == 1.0)
        if not ok_m.all():
            raise InvariantViolation(f"m must be 0, 1 or missing, got {mv[~ok_m][0]}")

        if weight is None:
            wv = np.ones(n)
        else:
            wv = np.asarray(weight, dtype=np.float64).copy()
            if wv.shape != (n,):
                raise InvariantViolation("weight length does not match y")
            if not (np.isfinite(wv).all() and (wv > 0).all()):
                raise InvariantViolation("weights must be positive and finite")

        if x is None:
            xv = np.empty((n, 0))
        else:
            xv = np.asarray(x, dtype=np.float64).copy()
            if xv.ndim == 1:
                xv = xv.reshape(n, 1)
            if xv.shape[0] != n:
                raise InvariantViolation("covariate rows do not match y")
            if not np.isfinite(xv).all():
                raise InvariantViolation("covariates must be finite")
        k = xv.shape[1]

        if covariate_names is None:
            names = tuple(f"x{i + 1}" for i in range(k))
        else:
            names = tuple(str(s) for s in covariate_names)
            if len(names) != k:
                raise InvariantViolation("covariate_names length does not match covariate columns")

        if block is None:
            bv = None
        else:
            bv = np.array([None if b is None else str(b) for b in block], dtype=object)
            if bv.shape != (n,):
                raise InvariantViolation("block length does not match y")

        if not np.isfinite(yv).all():
            raise InvariantViolation("y must be finite")

        treated = dv == 1
        if not treated.any():
            raise InvariantViolation("dataset has no treated unit")
        if treated.all():
            raise InvariantViolation("dataset has no control unit")
        if np.isnan(mv[treated]).any():
            raise InvariantViolation("every treated unit must have m observed")

        for a in (yv, mv, wv, xv):
            a.setflags(write=False)
        dv.setflags(write=False)
        if bv is not None:
            bv.setflags(write=False)

        self._y = yv
        self._d = dv
        self._m = mv
        self._x = xv
        self._block = bv
        self._w = wv
        self._names = names
        self._m_obs_ctrl = not np.isnan(mv[~treated]).any()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_units(cls, units: Iterable[Unit]) -> "Dataset":
        units = list(units)
        if not units:
            raise InvariantViolation("dataset must contain at least one unit")
        k = len(units[0].x)
        for u in units:
            if len(u.x) != k:
                raise InvariantViolation("covariate vector length must be identical across units")
        return cls(
            y=[u.y for u in units],
            d=[u.d for u in units],
            m=[u.m for u in units],
            x=[u.x for u in units] if k else None,
            block=[u.block for u in units] if any(u.block is not None for u in units) else None,
            weight=[u.weight for u in units],
        )

    def take(self, indices) -> "Dataset":
        """Row subset/resample preserving all columns.

        Used heavily by the bootstrap; skips re-parsing but still
        enforces the both-arms invariant.
        """
        idx = np.asarray(indices, dtype=np.intp)
        d = self._d[idx]
        if not d.any():
            raise InvariantViolation("selection has no treated unit")
        if d.all():
            raise InvariantViolation("selection has no control unit")
        new = object.__new__(Dataset)
        m = self._m[idx]
        new._y = self._y[idx]
        new._d = d
        new._m = m
        new._x = self._x[idx]
        new._block = None if self._block is None else self._block[idx]
        new._w = self._w[idx]
        new._names = self._names
        new._m_obs_ctrl = not np.isnan(m[d == 0]).any()
        return new

    # -- accessors ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self._y.shape[0]

    @property
    def y(self) -> np.ndarray:
        return self._y

    @property
    def d(self) -> np.ndarray:
        return self._d

    @property
    def m(self) -> np.ndarray:
        """Reaction indicator as floats with NaN for missing."""
        return self._m

    @property
    def x(self) -> np.ndarray:
        return self._x

    @property
    def block(self) -> np.ndarray | None:
        return self._block

    @property
    def weight(self) -> np.ndarray:
        return self._w

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def n_treated(self) -> int:
        return int((self._d == 1).sum())

    @property
    def n_control(self) -> int:
        return int((self._d == 0).sum())

    @property
    def m_observed_in_control(self) -> bool:
        return self._m_obs_ctrl

    @property
    def units(self) -> tuple[Unit, ...]:
        out = []
        for i in range(self.n):
            mi = self._m[i]
            out.append(
                Unit(
                    y=float(self._y[i]),
                    d=int(self._d[i]),
                    m=None if np.isnan(mi) else int(mi),
                    x=tuple(float(v) for v in self._x[i]),
                    block=None if self._block is None else self._block[i],
                    weight=float(self._w[i]),
                )
            )
        return tuple(out)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (
            f"Dataset(n={self.n}, treated={self.n_treated}, control={self.n_control}, "
            f"covariates={len(self._names)}, m_observed_in_control={self._m_obs_ctrl})"
        )


# -- validation gate -------------------------------------------------------


def validate_for(ds: Dataset, analysis: Analysis) -> None:
    """Raise :class:`RequirementUnmet` if ``ds`` cannot support ``analysis``.

    Monotone by construction: a dataset accepted for the most demanding
    analyses (those needing m in both arms) is accepted for all.
    """
    if analysis in (Analysis.MT_BOUNDS, Analysis.DIM) and not ds.m_observed_in_control:
        raise RequirementUnmet(
            f"{analysis.value} requires the reaction indicator to be observed in the control arm"
        )
    return None


# -- CSV ingestion ---------------------------------------------------------

_DEFAULT_SCHEMA: Mapping[str, object] = {"y": "y", "d": "d", "m": "m"}


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(row, column, f"cannot parse {text!r} as a real number") from None


def load_csv(path, schema: Mapping[str, object] | None = None) -> Dataset:
    """Read a dataset from an RFC-4180 CSV file with a header row.

    Parameters
    ----------
    path : str or path-like
    schema : mapping, optional
        Keys ``y``, ``d``, ``m`` name the corresponding columns
        (defaults ``"y"``, ``"d"``, ``"m"``). Optional keys:
        ``covariates`` (list of column names), ``block``, ``weight``.

    An empty m cell marks a missing indicator; any other cell must
    parse as a number. Raises :class:`MissingColumn`,
    :class:`ParseError` (with row and column) or
    :class:`InvariantViolation`.
    """
    eff = dict(_DEFAULT_SCHEMA)
    if schema:
        eff.update(schema)
    y_col = str(eff["y"])
    d_col = str(eff["d"])
    m_col = str(eff["m"])
    cov_cols = [str(c) for c in eff.get("covariates", [])]
    block_col = eff.get("block")
    weight_col = eff.get("weight")

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(0, "", "file is empty, a header row is required")
        pos = {name: i for i, name in enumerate(header)}
        needed = [y_col, d_col, m_col] + cov_cols
        if block_col is not None:
            needed.append(str(block_col))
        if weight_col is not None:
            needed.append(str(weight_col))
        for name in needed:
            if name not in pos:
                raise MissingColumn(f"column {name!r} not found in header {header}")

        ys: list[float] = []
        ds_: list[int] = []
        ms: list[float] = []
        xs: list[list[float]] = []
        blocks: list[str | None] = []
        weights: list[float] = []

        def cell(fields: Sequence[str], col: str, row: int) -> str:
            i = pos[col]
            if i >= len(fields):
                raise ParseError(row, col, "row has too few fields")
            return fields[i]

        for rownum, fields in enumerate(reader, start=1):
            if not fields:
                continue  # tolerate a trailing blank line
            yt = cell(fields, y_col, rownum)
            y = _parse_float(yt, rownum, y_col)
            if not math.isfinite(y):
                raise InvariantViolation(f"row {rownum}: y must be finite, got {yt!r}")

            dt = cell(fields, d_col, rownum)
            dval = _parse_float(dt, rownum, d_col)
            if dval not in (0.0, 1.0):
                raise InvariantViolation(f"row {rownum}: d must be 0 or 1, got {dt!r}")

            mt = cell(fields, m_col, rownum).strip()
            if mt == "":
                mval = math.nan
            else:
                mval = _parse_float(mt, rownum, m_col)
                if mval not in (0.0, 1.0):
                    raise InvariantViolation(f"row {rownum}: m must be 0, 1 or empty, got {mt!r}")

            row_x = [_parse_float(cell(fields, c, rownum), rownum, c) for c in cov_cols]

            if block_col is not None:
                b = cell(fields, str(block_col), rownum)
                blocks.append(b if b != "" else None)
            if weight_col is not None:
                wt = cell(fields, str(weight_col), rownum)
                w = _parse_float(wt, rownum, str(weight_col))
                if not (math.isfinite(w) and w > 0):
                    raise InvariantViolation(f"row {rownum}: weight must be positive, got {wt!r}")
                weights.append(w)

            ys.append(y)
            ds_.append(int(dval))
            ms.append(mval)
            xs.append(row_x)

    return Dataset(
        y=ys,
        d=ds_,
        m=ms,
        x=xs if cov_cols else None,
        block=blocks if block_col is not None else None,
        weight=weights if weight_col is not None else None,
        covariate_names=cov_cols if cov_cols else None,
    )


@contextlib.contextmanager
def atomic_open(path) -> Iterator[TextIO]:
    """Text handle whose contents replace ``path`` when the block completes.

    Each call writes its own temporary file beside the target, removed on
    failure, so writers to one path never share it; the result gets the
    mode a plain ``open`` gives (0666 less the umask).
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    """Real to text at 17 significant digits, integers kept short."""
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return format(v, ".17g")


def write_csv(ds: Dataset, path) -> None:
    """Write a dataset so that ``load_csv`` recovers it exactly.

    Columns: y, d, m, then covariates under their stored names, then
    ``block`` when any unit has a label, then ``weight`` when any
    weight differs from 1. Reals are written with 17 significant
    digits so the text round-trips to the same float64. The write is
    atomic (temp file then rename).
    """
    header = ["y", "d", "m"]
    header += list(ds.covariate_names)
    has_block = ds.block is not None
    if has_block:
        header.append("block")
    has_weight = bool((ds.weight != 1.0).any())
    if has_weight:
        header.append("weight")

    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n):
            row = [_fmt(float(ds.y[i])), str(int(ds.d[i]))]
            mi = ds.m[i]
            row.append("" if np.isnan(mi) else str(int(mi)))
            row += [_fmt(float(v)) for v in ds.x[i]]
            if has_block:
                b = ds.block[i]
                row.append("" if b is None else str(b))
            if has_weight:
                row.append(_fmt(float(ds.weight[i])))
            writer.writerow(row)


def schema_for(ds: Dataset) -> dict:
    """Schema under which ``write_csv`` output loads back."""
    schema: dict = {"y": "y", "d": "d", "m": "m"}
    if ds.x.shape[1]:
        schema["covariates"] = list(ds.covariate_names)
    if ds.block is not None:
        schema["block"] = "block"
    if bool((ds.weight != 1.0).any()):
        schema["weight"] = "weight"
    return schema
