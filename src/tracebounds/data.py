"""Dataset container and CSV codec.

A unit carries an outcome ``y``, a randomized assignment ``d`` in {0, 1},
and a binary post-treatment reaction indicator ``m``. ``m`` may be
unmeasured in the control arm (an empty CSV cell); treated units must
always carry it. Optional per-unit covariates, a block label, and a
positive sampling weight round out the record. Every mean computed in
this package is weight-aware.
"""

from __future__ import annotations

import codecs
import collections
import contextlib
import csv
import io
import itertools
import math
import os
import tempfile
import warnings
from array import array
from typing import BinaryIO, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import InvariantViolation, MissingBlockLabels, MissingColumn, ParseError


def _require(ok: np.ndarray, values: np.ndarray, rule: str) -> None:
    """Raise for the first unit where ``ok`` fails, naming its value.

    ``ok`` and ``values`` have one row per unit (and may have a column axis).
    """
    if not ok.all():
        i = int(np.argmin(ok.ravel()))
        raise InvariantViolation(f"{rule}, got {float(values.ravel()[i])}", unit=i // (ok.size // len(ok)))


# rows at a time: the CSV codec, the cell table and simulate's draws each make no
# temporary of the dataset's length, only of this many rows
_CHUNK = 1 << 14

_M_OF_CELL = np.array([0.0, 1.0, np.nan, 0.0, 1.0, np.nan])  # the m of each cell code, NaN for missing


def _checkable(a) -> np.ndarray:
    """``a`` as an array whose values the d and m rules can check as they
    are: integers and booleans kept, anything else as float64."""
    a = np.asarray(a)
    return a if a.dtype.kind in "biu" else np.asarray(a, dtype=np.float64)


def _encode(d: np.ndarray, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Check the d and m rules (an error names the first offending unit)
    and write each unit's int8 cell code ``3 * d + m``, with m = 2 for a
    missing m, to ``out``, or to a new array once both rules hold.
    d and m may be of any integer, boolean or real type; no array of their
    length is made but the codes and flags of the checks."""
    _require((d == 0) | (d == 1), d, "d must be 0 or 1")
    _require(np.isnan(m) | (m == 0.0) | (m == 1.0), m, "m must be 0, 1 or missing")
    # fmin reads a NaN as m = 2, cast to int8 a buffer at a time
    out = np.fmin(m, 2.0, out=np.empty(d.shape, np.int8) if out is None else out, casting="unsafe")
    out += 3 * d.astype(np.int8, copy=False)
    return out


def _require_both_arms(codes: np.ndarray, what: str) -> None:
    """Raise unless the cell ``codes`` hold a treated and a control unit."""
    treated = np.count_nonzero(codes >= 3)
    if not treated:
        raise InvariantViolation(f"{what} has no treated unit")
    if treated == codes.size:
        raise InvariantViolation(f"{what} has no control unit")


def _numbered(block) -> tuple[np.ndarray, tuple]:
    """Block labels as int32 codes in order of first appearance, a missing
    label (None) as one more block, and the labels in code order."""
    if isinstance(block, str):
        raise InvariantViolation("block must be a sequence of labels, one per unit, not a str")
    number: dict = {}
    codes = np.fromiter((number.setdefault(None if b is None else str(b), len(number)) for b in block), np.int32)
    return codes, tuple(number)


def _renumbered(codes: np.ndarray, labels: tuple, idx: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The :func:`_numbered` pair of the rows ``idx``, from the codes alone."""
    codes = codes[idx]
    first = np.full(len(labels), codes.size)
    np.minimum.at(first, codes, np.arange(codes.size))  # each block's first row; size for an absent one
    order = np.argsort(first)
    codes = np.argsort(order).astype(np.int32)[codes]
    return codes, tuple(labels[i] for i in order[: np.count_nonzero(first < codes.size)])


class Dataset:
    """Immutable column-oriented collection of units.

    Construction validates every structural invariant once, and is the
    only place the per-unit rules are checked (an error names the first
    offending unit); estimators then treat the arrays as trusted values.
    Row order is preserved and meaningful (trimming ties break by
    original position). d and m are held as one checked int8 cell code
    per unit (:meth:`cell_codes`), and :attr:`d` and :attr:`m` are made
    from it on each call (an m of -0.0 reads back as 0.0). Weights are
    held only when given; otherwise every unit weighs 1 and
    :attr:`weight` is a zero-stride view of one 1.0, so a dataset of
    unit weights holds 9 bytes per unit. Nothing about
    a dataset changes after construction, so the table of its (d, m)
    cells and its arm layout are computed once, on first use, and kept
    (:meth:`cells`, :meth:`layout`); blocks are held as codes
    (:meth:`block_codes`).

    The public constructor copies the caller's arrays, so a dataset
    never shares memory with them. :func:`~tracebounds.oracle.simulate`
    and :func:`load_csv` build theirs from columns they have just made,
    which the dataset keeps without a copy.

    Parameters
    ----------
    y, d, m : array-like, length n
        Outcome, assignment in {0, 1}, reaction indicator in {0, 1}
        with NaN or None marking a missing m (control arm only).
    x : array-like of shape (n, k) or (n,), optional
        Covariate matrix, or one covariate. Defaults to zero columns.
    block : sequence of str or None, optional
        Block label per unit, numbered in order of first appearance; one
        str is refused, not split into one-character labels.
    weight : array-like, optional
        Positive sampling weights. Defaults to 1 for every unit, held as
        no column at all.
    covariate_names : sequence of str, optional
        Names for the k covariate columns. Defaults to x1..xk.
    """

    __slots__ = ("_y", "_codes", "_x", "_blocks", "_w", "_names", "_cells", "_layout")

    def __init__(self, y, d, m, x=None, block=None, weight=None, covariate_names=None):
        self._own(
            np.array(y, dtype=np.float64),
            d, m,  # encoded, never kept, so not copied
            None if x is None else np.array(x, dtype=np.float64),
            None if block is None else _numbered(block),
            None if weight is None else np.array(weight, dtype=np.float64),
            covariate_names,
        )

    @classmethod
    def _adopt(cls, y, d, m, x=None, block=None, weight=None, covariate_names=None, codes=None) -> "Dataset":
        """The dataset over columns made for it, which the caller hands
        over and no longer touches: y, x and weight as contiguous float64
        arrays and ``block`` as :func:`_numbered` makes it are kept as they
        are; d and m, each of any integer or real type and either a view
        into a larger table, are only encoded. ``codes``, int8 cell codes
        of d and m that hold to their rules (as :func:`_encode` writes
        them), is kept in place of d and m, which are then None. Checked
        as the constructor checks, with the same errors."""
        ds = object.__new__(cls)
        ds._own(y, d, m, x, block, weight, covariate_names, codes)
        return ds

    def _own(self, y, d, m, x, block, weight, covariate_names, codes=None) -> None:
        """Check the columns and keep them, read-only, converting only a
        column that is not float64 yet; d and m as their cell codes, with
        no n-length float array made for an integer d or m."""
        yv = np.asarray(y, dtype=np.float64)
        if yv.ndim != 1:
            raise InvariantViolation("y must be one-dimensional")
        n = yv.shape[0]
        if n == 0:
            raise InvariantViolation("dataset must contain at least one unit")

        if codes is None:
            dv = _checkable(d)
            mv = np.full(n, np.nan) if m is None else _checkable(m)
        wv = None if weight is None else np.asarray(weight, dtype=np.float64)
        columns = {"d": dv, "m": mv} if codes is None else {"cell codes": codes}
        for name, column in {**columns, "weight": wv, "block": None if block is None else block[0]}.items():
            if column is not None and column.shape != (n,):
                raise InvariantViolation(f"{name} length does not match y")
        xv = np.empty((n, 0)) if x is None else np.asarray(x, dtype=np.float64)
        if xv.ndim == 1:
            xv = xv.reshape(-1, 1)
        if xv.ndim != 2:
            raise InvariantViolation(f"covariates must be an (n, k) matrix or one column, got {xv.ndim} dimensions")
        if xv.shape[0] != n:
            raise InvariantViolation("covariate rows do not match y")
        k = xv.shape[1]

        if covariate_names is None:
            names = tuple(f"x{i + 1}" for i in range(k))
        else:
            names = tuple(str(s) for s in covariate_names)
            if len(names) != k:
                raise InvariantViolation("covariate_names length does not match covariate columns")

        # the per-unit rules, each raised here and nowhere else
        _require(np.isfinite(yv), yv, "y must be finite")
        if codes is None:
            codes = _encode(dv, mv)
        if wv is not None:
            _require(np.isfinite(wv) & (wv > 0), wv, "weight must be positive and finite")
        _require(np.isfinite(xv), xv, "covariates must be finite")

        _require_both_arms(codes, "dataset")
        # 5: d = 1, m missing; the m is NaN, named without an n-length array
        _require(codes != 5, np.broadcast_to(np.nan, (n,)), "treated units must have m observed")

        self._keep(yv, codes, xv, block, wv, names)

    def _keep(self, y, codes, x, blocks, w, names) -> None:
        """Hold checked columns, each made read-only, with no cell table
        or layout made yet; ``w`` is None for unit weights."""
        for a in (y, codes, x, w):
            if a is not None:
                a.setflags(write=False)
        if blocks is not None:
            blocks[0].setflags(write=False)
        self._y = y
        self._codes = codes
        self._x = x
        self._blocks = blocks
        self._w = w
        self._names = names
        self._cells: tuple[list[float], list[float]] | None = None
        self._layout: tuple[np.ndarray, int, int] | None = None

    # -- resampling --------------------------------------------------------

    def take(self, indices) -> "Dataset":
        """Row subset/resample preserving all columns. ``indices`` is a 1-D
        array of row numbers in [0, n) of any integer type, repeats allowed;
        booleans and reals are refused, not cast, and a negative row is not
        read from the end. Used heavily by the bootstrap; skips re-parsing
        but still enforces the both-arms invariant."""
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu":
            raise InvariantViolation(f"row indices must be integers, got an array of {idx.dtype}")
        if idx.ndim != 1:
            raise InvariantViolation(f"row indices must be a 1-D array, got a {idx.ndim}-D one")
        # one pass finds both ends: as unsigned, a negative row lies past the last
        if idx.size and idx.astype(np.intp, copy=False).view(np.uintp).max() >= self.n:
            raise InvariantViolation(f"row index {idx[(idx < 0) | (idx >= self.n)][0]} is outside [0, {self.n})")
        codes = self._codes[idx]
        _require_both_arms(codes, "selection")
        new = object.__new__(Dataset)
        blocks = None if self._blocks is None else _renumbered(*self._blocks, idx)
        new._keep(self._y[idx], codes, self._x[idx], blocks, None if self._w is None else self._w[idx], self._names)
        return new

    def cells(self) -> tuple[list[float], list[float]]:
        """The weight and the weighted y-sum of each (d, m) cell, at index
        ``3 * d + m`` with m = 2 for a missing m, as two lists of six Python
        floats. Each sum adds its cell's units in row order, by
        ``np.add.at`` a chunk of rows at a time (the order and the sums of
        ``np.bincount``), so no sum depends on the BLAS thread count; under
        unit weights these are exact counts and sums of ``1 * y``, which is
        y. Made on the first call and kept for this dataset."""
        if self._cells is None:
            codes, y, w = self._codes, self._y, self.weight
            weights, sums = np.zeros(6), np.zeros(6)
            for s in range(0, self.n, _CHUNK):
                rows = slice(s, s + _CHUNK)
                with np.errstate(over="ignore", invalid="ignore"):  # as np.bincount, which raises no flag
                    np.add.at(weights, codes[rows], w[rows])
                    np.add.at(sums, codes[rows], w[rows] * y[rows])
            self._cells = weights.tolist(), sums.tolist()
        return self._cells

    def layout(self) -> tuple[np.ndarray, int, int]:
        """The rows in the order the bounds and the replicate engine read
        them, and two offsets ``a`` and ``b``: ``order[:a]`` are the
        treated m = 1 rows and ``order[a:b]`` the treated m = 0 rows, each
        in row order, and ``order[b:]`` the control rows in the stable
        ascending order of y, so that a slice of the control arm, or of
        its m = 0 units, is read off either end as in
        :func:`~tracebounds.bounds.trimmed_mean`. Made on the first call
        and kept for this dataset; ``order`` is read-only, int32 below
        2**31 rows. Only the control arm's y is sorted."""
        if self._layout is None:
            codes = self._codes
            a = np.count_nonzero(codes == 4)
            b = a + np.count_nonzero(codes == 3)
            order = np.empty(self.n, np.int32 if self.n < 2**31 else np.intp)
            order[:a] = np.flatnonzero(codes == 4)
            order[a:b] = np.flatnonzero(codes == 3)
            control = order[b:]  # in row order, then in the stable order of y
            control[:] = np.flatnonzero(codes < 3)
            control[:] = control[np.argsort(self._y[codes < 3], kind="stable")]
            order.setflags(write=False)
            self._layout = order, a, b
        return self._layout

    def cell_codes(self) -> np.ndarray:
        """Each unit's (d, m) cell as a read-only int8 code, the index of :meth:`cells`."""
        return self._codes

    def block_codes(self) -> tuple[np.ndarray, tuple[str, ...]]:
        """Each unit's block as a read-only int32 code, numbered in order of
        first appearance (in a take too), and the labels in code order.
        Raises :class:`MissingBlockLabels` unless every unit has a label."""
        if self._blocks is None:
            raise MissingBlockLabels("the units carry no block label")
        if None in self._blocks[1]:
            raise MissingBlockLabels("a unit carries no block label")
        return self._blocks

    # -- accessors ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self._y.shape[0]

    @property
    def y(self) -> np.ndarray:
        return self._y

    @property
    def d(self) -> np.ndarray:
        """Assignment as read-only int8, made from the cell codes on each call."""
        d = (self._codes >= 3).view(np.int8)
        d.setflags(write=False)
        return d

    @property
    def m(self) -> np.ndarray:
        """Reaction indicator as read-only floats, NaN for missing, made on each call."""
        m = _M_OF_CELL[self._codes]
        m.setflags(write=False)
        return m

    @property
    def x(self) -> np.ndarray:
        return self._x

    @property
    def block(self) -> np.ndarray | None:
        """Each unit's block label (None if missing), made on each call and not kept."""
        return None if self._blocks is None else np.array(self._blocks[1], dtype=object)[self._blocks[0]]

    @property
    def has_blocks(self) -> bool:
        return self._blocks is not None

    @property
    def weight(self) -> np.ndarray:
        """Sampling weights, read-only; when none were given, one read-only
        view of a single 1.0 with stride 0, which holds no byte per unit
        (an index into it gathers ones of the index's length)."""
        return np.broadcast_to(1.0, (self.n,)) if self._w is None else self._w

    @property
    def has_weights(self) -> bool:
        """Whether weights were given, so that :attr:`weight` is held."""
        return self._w is not None

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def n_treated(self) -> int:
        return int(np.count_nonzero(self._codes >= 3))

    @property
    def n_control(self) -> int:
        return self.n - self.n_treated

    @property
    def m_observed_in_control(self) -> bool:
        # treated units always carry m, so the control arm decides
        return self.cells()[0][2] == 0.0

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (
            f"Dataset(n={self.n}, treated={self.n_treated}, control={self.n_control}, "
            f"covariates={len(self._names)}, m_observed_in_control={self.m_observed_in_control})"
        )


# -- CSV codec -----------------------------------------------------------

_DEFAULT_SCHEMA: Mapping[str, object] = {"y": "y", "d": "d", "m": "m"}
_SCHEMA_KEYS = frozenset(("y", "d", "m", "covariates", "block", "weight"))


class _MCells(dict):
    """An m cell's value, the cells ``write_csv`` writes looked up in C:
    blank marks a missing indicator, anything else is a number. NaN stands
    for missing in memory, so a literal one is refused, not read as blank."""

    def __missing__(self, text: str) -> float:
        if not text.strip():
            return math.nan
        v = float(text)
        if math.isnan(v):
            raise ValueError(text)
        return v


_m_value = _MCells({"": math.nan, "0": 0.0, "1": 1.0}).__getitem__


def _cell_error(fields: Sequence[str], row: int, cells) -> ParseError:
    """The error for the first of ``cells`` (role, column, index, parser)
    that ``fields`` lacks or that fails to parse."""
    for _, column, i, parse in cells:
        if i >= len(fields):
            return ParseError(row, column, "row has too few fields")
        try:
            parse(fields[i])
        except ValueError:
            what = "a number or a blank" if parse is _m_value else "a real number"
            return ParseError(row, column, f"cannot parse {fields[i]!r} as {what}")
    raise AssertionError("no cell of the row fails")


def load_csv(path, schema: Mapping[str, object] | None = None) -> Dataset:
    """Read a dataset from an RFC-4180 CSV file with a header row.

    Parameters
    ----------
    path : str or path-like
    schema : mapping, optional
        Keys ``y``, ``d``, ``m`` name the corresponding columns
        (defaults ``"y"``, ``"d"``, ``"m"``). Optional keys:
        ``covariates`` (list of column names), ``block``, ``weight``.
        Any other key, ``covariates`` as one str, or a column named for
        two roles (``covariates=["y"]``, a covariate listed twice, a
        covariate as the weight) raises :class:`InvariantViolation`
        before the file is opened.

    A blank m cell marks a missing indicator and an empty block cell a
    missing label; every other needed cell must parse as a number. Blank
    lines are skipped but keep their row numbers. Raises
    :class:`MissingColumn`, :class:`ParseError` (with row and column) or
    :class:`InvariantViolation` (with the row of the offending unit when
    a per-unit rule of :class:`Dataset` fails).

    The schema's roles have one order, whatever the file's column order:
    y, d, m, the covariates as listed, block, weight (:func:`_plan`). A
    row's cells are checked in it, so the first bad cell in that order is
    named, and each chunk's table holds them in it. The file is read
    once, ``_CHUNK`` rows at a time, into columns sized from a count of
    its line ends. ``np.loadtxt`` parses a chunk, and ``csv.reader`` and
    ``float`` one it refuses (:func:`_loadtxt_table`,
    :func:`_parse_rows`). The two routes read every file alike but one
    kind: an over-long field that ``np.loadtxt`` reads.
    """
    roles = _plan(schema)
    with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
        # np.loadtxt passes a blank line over but warns when one falls among the rows it is asked for
        warnings.filterwarnings("ignore", "Input line", UserWarning)
        try:
            return _read(fh, roles, *_scan(path))
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc) from None


def _plan(schema: Mapping[str, object] | None) -> list[tuple[str, str, object]]:
    """The roles of ``schema``, each (role, column, parser), in the one
    column order of the codec: a row's cells are checked, a chunk's table
    holds them and :func:`write_csv` writes them as y, d, m, the
    covariates, block, weight. A column named for two roles, which would
    be read as each of them, is refused."""
    eff = {**_DEFAULT_SCHEMA, **(schema or {})}
    for key in eff:
        if key not in _SCHEMA_KEYS:
            raise InvariantViolation(f"unknown schema key {key!r}; expected one of {sorted(_SCHEMA_KEYS)}")
    if isinstance(eff.get("covariates"), str):
        raise InvariantViolation("schema key 'covariates' must be a list of column names, not a str")
    roles = [("y", str(eff["y"]), float), ("d", str(eff["d"]), float), ("m", str(eff["m"]), _m_value)]
    roles += [("covariates", str(c), float) for c in eff.get("covariates", [])]
    roles += [(key, str(eff[key]), parse) for key, parse in (("block", str), ("weight", float)) if eff.get(key) is not None]
    names = [column for _, column, _ in roles]
    for name in names:
        if names.count(name) > 1:
            raise InvariantViolation(f"the schema names column {name!r} for {names.count(name)} roles; a column fills one")
    return roles


def _header_cells(fh: TextIO, roles, number) -> list:
    """Read the header of ``fh`` by ``readline``, as every read of it, so
    that ``fh.tell()`` works: (role, column, index, parser) for each role,
    a block label's parser numbering it by ``number``. A column a role
    reads must appear in it exactly once."""
    try:
        header = next(csv.reader(iter(fh.readline, "")), None)
    except csv.Error as exc:  # a field over the parser's size limit
        raise ParseError(0, None, str(exc)) from None
    if header is None:
        raise ParseError(0, "", "file is empty, a header row is required")
    pos = {name: i for i, name in enumerate(header)}
    for _, name, _ in roles:
        if name not in pos:
            raise MissingColumn(f"column {name!r} not found in header {header}")
        if header.count(name) > 1:
            raise ParseError(0, name, f"the header names this column {header.count(name)} times")
    return [(role, name, pos[name], number.__getitem__ if parse is str else parse) for role, name, parse in roles]


# Py_UNICODE_ISSPACE counts these as whitespace and np.loadtxt strips
# them around a number, but float() refuses them.
_SEPARATORS = b"\x1c\x1d\x1e\x1f"
# a line of a file opened with newline="" that holds no cell
_BLANK_LINES = frozenset(("\n", "\r\n", "\r"))


def _scan(path) -> tuple[int, bool, bool]:
    """The line ends of ``path`` (LF, CR and CRLF, each one, quoted ones
    too), at least its data rows as one of them ends the header; whether
    a line of it may be blank: a line end follows another, other than LF
    after CR; and whether it holds a byte of ``_SEPARATORS``."""
    ends, blank, separators, last = 0, False, False, b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            separators = separators or any(byte in chunk for byte in _SEPARATORS)
            a = np.frombuffer(last + chunk, np.uint8)  # the byte before the chunk, for the pair across
            lf, cr = a == 0x0A, a == 0x0D
            end = lf | cr
            crlf = np.count_nonzero(cr[:-1] & lf[1:])
            ends += np.count_nonzero(end[len(last) :]) - crlf
            blank = blank or np.count_nonzero(end[:-1] & end[1:]) > crlf
            last = chunk[-1:]
    return int(ends), bool(blank), separators


def _read(fh: TextIO, roles, bound: int, blank: bool, separators: bool) -> Dataset:
    """The dataset of the CSV file open as ``fh``, read a chunk at a time
    into columns of ``bound`` rows. A chunk's table holds the cells of the
    ``roles`` in their order, a block label as its code; y, the
    covariates, the block and the weight are kept from it, and d and m as
    their cell codes, or as read from the first chunk that breaks their
    rules on, for :class:`Dataset` to name them."""
    # label -> code: a label not seen yet takes the next number, in C
    number: collections.defaultdict[str, int] = collections.defaultdict(itertools.count().__next__)
    cells = _header_cells(fh, roles, number)
    body = fh.tell()
    # each role but d and m, its column and the column of a chunk's table it is filled from
    kept = [
        (role, np.empty(bound, np.int32 if role == "block" else np.float64), j)
        for j, (role, *_) in enumerate(cells)
        if role not in ("d", "m")
    ]
    codes = np.empty(bound, np.int8)
    dm = None  # d and m as read, once a chunk breaks their rules
    n = 0

    def row_of(unit: int) -> int:
        """The file row of ``unit``, parsed again up to it when a line may be blank."""
        if not blank:
            return unit + 1
        fh.seek(body)
        return _parse_rows(csv.reader(iter(fh.readline, "")), cells, unit + 1, lambda: 0)[1]

    while True:
        start = fh.tell()
        # loadtxt is not called once no row is left, since it warns when it finds none
        if next(itertools.filterfalse(_BLANK_LINES.__contains__, iter(fh.readline, "")), None) is None:
            break
        if n == bound:  # a row past the line ends that _scan counted
            raise InvariantViolation("the file grew while it was read")
        # loadtxt reads exactly max_rows rows, a quoted line end within its row, and
        # allocates that many before it reads one, so it is asked for no more than
        # the bound leaves
        take = min(_CHUNK, bound - n)
        part = None if separators else _loadtxt_table(fh, start, cells, number, take)
        if part is None:
            fh.seek(start)
            part = _parse_rows(csv.reader(iter(fh.readline, "")), cells, take, lambda: row_of(n - 1) if n else 0)[0]
        rows = slice(n, n + part.shape[0])
        if dm is None:
            try:
                _encode(part[:, 1], part[:, 2], codes[rows])
            except InvariantViolation:  # the file is refused; d and m are kept for its error
                dm = np.empty((bound, 2))
                dm[:n, 0], dm[:n, 1] = codes[:n] >= 3, _M_OF_CELL[codes[:n]]
        if dm is not None:
            dm[rows] = part[:, 1:3]
        for _, column, j in kept:
            column[rows] = part[:, j]
        n = rows.stop
        del part  # not held while the dataset is built

    codes.resize(n, refcheck=False)  # blank lines and quoted line ends counted in the bound
    held = collections.defaultdict(list)  # each role's kept columns, in the roles' order
    for role, column, _ in kept:
        column.resize(n, refcheck=False)
        held[role].append(column)
    x = held["covariates"]
    d, m = (None, None) if dm is None else dm[:n].T
    try:
        return Dataset._adopt(
            held["y"][0], d, m,
            x=np.column_stack(x) if x else None,
            block=(held["block"][0], tuple(label or None for label in number)) if "block" in held else None,
            weight=held["weight"][0] if "weight" in held else None,
            covariate_names=[column for role, column, *_ in cells if role == "covariates"],
            codes=codes if dm is None else None,
        )
    except InvariantViolation as exc:
        if exc.unit is not None:
            exc.row = row_of(exc.unit)
        raise


def _loadtxt_table(fh: TextIO, start: int, cells, number, take: int) -> np.ndarray | None:
    """``np.loadtxt``'s table of the ``cells`` of the ``take`` rows at
    ``start`` in ``fh``, in their order, a block label numbered by its
    parser, read again with m through ``_m_value`` if refused. None if
    refused again or if csv.reader and float may read otherwise: it holds
    an infinity (loadtxt's value of an over-long number), a NaN in m not
    from ``_m_value`` (a literal nan) or a new over-long label, a key of
    ``number``."""
    known = len(number)
    labels = {i: parse for role, _, i, parse in cells if role == "block"}
    m_at = cells[2][2]
    for converters in (labels, {**labels, m_at: _m_value}):
        fh.seek(start)
        try:
            part = np.loadtxt(
                iter(fh.readline, ""), delimiter=",", quotechar='"', comments=None, usecols=[i for _, _, i, _ in cells],
                converters=converters or None, ndmin=2, encoding="utf-8", max_rows=take,
            )
        except ValueError:  # a UnicodeDecodeError too, raised again by csv.reader
            continue
        if (
            not np.isinf((np.fmin.reduce(part, axis=None), np.fmax.reduce(part, axis=None))).any()  # NaN passed over
            and (m_at in converters or not np.isnan(part[:, 2].sum()))
            and all(len(label) <= csv.field_size_limit() for label in itertools.islice(number, known, None))
        ):
            return part
    return None


def _parse_rows(records, cells, take: int, row0) -> tuple[np.ndarray, int]:
    """The table :func:`_loadtxt_table` makes, of up to ``take`` rows of
    ``records``, a ``csv.reader``: each of the ``cells`` by its parser
    (``float``, ``_m_value`` or a label's numbering); and the rows read,
    blank ones too. The first bad cell or over-long field is a
    :class:`ParseError` at its file row, counted on from ``row0()``,
    called only then."""
    flat = array("d")
    k = rows = 0
    try:
        for k, fields in enumerate(records, start=1):
            if not fields:
                continue
            try:
                flat.extend([parse(fields[i]) for _, _, i, parse in cells])
            except (ValueError, IndexError):
                raise _cell_error(fields, row0() + k, cells) from None
            if (rows := rows + 1) == take:
                break
    except csv.Error as exc:  # a field over the parser's size limit
        raise ParseError(row0() + k + 1, None, str(exc)) from None
    return np.frombuffer(flat).reshape(rows, -1), k


def _decode_error(path, exc: UnicodeDecodeError) -> Exception:
    """The error for the first byte of ``path`` that is not UTF-8, naming
    the row and column it falls in and its offset.

    Text is decoded in blocks ahead of the CSV parser, so the rows before
    the byte are parsed here, 16 KiB of the file at a time: the parser
    takes a block's whole lines, and the rest (or a CR that an LF may
    follow) is held for the next; a field among them that the parser
    refuses comes first in the file and is named instead.
    """
    found: list[int] = []  # the byte's offset and value

    def text(fh: BinaryIO) -> Iterator[TextIO]:  # the lines before the byte, then "?" for it
        decode, held, end = codecs.getincrementaldecoder("utf-8-sig")().decode, [], False
        while not (found or end):
            block = fh.read(1 << 14)
            end = not block
            try:
                decoded = decode(block, end)
            except UnicodeDecodeError as bad:  # its object ends where the block does
                found.extend((fh.tell() - len(bad.object) + bad.start, bad.object[bad.start]))
                decoded = bad.object[: bad.start].decode() + "?"
            cut = len(decoded) if found or end else max(decoded.rfind("\n"), decoded.rfind("\r", 0, -1)) + 1
            if cut or found or end:
                yield io.StringIO("".join(held) + decoded[:cut], newline="")
                held.clear()
            held.append(decoded[cut:])

    row, record, header = -1, [], []
    with open(path, "rb") as fh:
        try:
            for row, record in enumerate(csv.reader(itertools.chain.from_iterable(text(fh)))):
                if row == 0:
                    header = record
        except csv.Error as err:
            return ParseError(row + 1, None, str(err))
    if not found:
        return exc  # the file changed since it was read
    column = header[len(record) - 1] if row > 0 and len(record) <= len(header) else None
    return ParseError(row, column, f"byte {found[0]} ({found[1]:#04x}) is not valid UTF-8")


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


def _row_formats(k: int, block: bool, weight: bool) -> np.ndarray:
    """The ``%`` template of one written row for each cell code: y, the
    code's d and m text, ``k`` covariates, the quoted block label and the
    weight, as chosen. A real takes 17 significant digits (an integer
    below 1e16 prints in full without a fraction, and -0.0 keeps its sign
    as ``-0``); a label is an argument, never template text, so a ``%``
    in it stays literal."""
    tail = ",%.17g" * k + (",%s" if block else "") + (",%.17g" if weight else "") + "\r\n"
    dm = ("0,0", "0,1", "0,", "1,0", "1,1", "1,")  # the d and m cells of each code, as one text
    return np.array([f"%.17g,{text}{tail}" for text in dm], dtype=object)


def _quote(text: str) -> str:
    """``text`` as one CSV field under the csv module's QUOTE_MINIMAL rule:
    quoted, with each quote doubled, when it holds a comma, a quote, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(ds: Dataset, path) -> None:
    """Write a dataset so that ``load_csv`` recovers it exactly.

    The columns are the roles of :func:`schema_for` in the order
    ``load_csv`` checks and holds them: y, d, m, the covariates under
    their stored names, ``block`` when any unit has a label, ``weight``
    when any weight differs from 1. Reals are written with 17 significant
    digits so the text round-trips to the same float64. Lines end in
    CRLF, and a header name or block label is quoted as ``csv.writer``
    quotes it; no other cell ever needs quoting. The write is atomic
    (temp file then rename). A header that would name a column twice,
    which ``load_csv`` refuses as a column named for two roles, raises
    :class:`InvariantViolation` before the target is opened.
    """
    schema = schema_for(ds)
    header = [column for _, column, _ in _plan(schema)]
    if "block" in schema:
        codes, labels = ds._blocks
        labels = np.array(["" if b is None else _quote(b) for b in labels], dtype=object)
    formats = _row_formats(ds.x.shape[1], "block" in schema, "weight" in schema)

    with atomic_open(path) as fh:
        fh.write(",".join(map(_quote, header)) + "\r\n")
        for start in range(0, ds.n, _CHUNK):
            rows = slice(start, start + _CHUNK)
            columns = [ds.y[rows].tolist()] + [ds.x[rows, j].tolist() for j in range(ds.x.shape[1])]
            if "block" in schema:
                columns.append(labels[codes[rows]].tolist())
            if "weight" in schema:
                columns.append(ds.weight[rows].tolist())
            size = len(columns[0])
            cells = [None] * (len(columns) * size)
            for j, column in enumerate(columns):  # row-major: the cells of each row in turn
                cells[j :: len(columns)] = column
            fh.write("".join(formats[ds.cell_codes()[rows]].tolist()) % tuple(cells))


def schema_for(ds: Dataset) -> dict:
    """Schema under which ``write_csv`` output loads back."""
    schema: dict = {"y": "y", "d": "d", "m": "m"}
    if ds.x.shape[1]:
        schema["covariates"] = list(ds.covariate_names)
    if ds.has_blocks:
        schema["block"] = "block"
    if ds.has_weights and bool((ds.weight != 1.0).any()):  # unit weights: no n-byte comparison
        schema["weight"] = "weight"
    return schema
