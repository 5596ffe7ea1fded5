"""Dataset container and CSV codec.

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
import io
import itertools
import math
import os
import tempfile
from array import array
from operator import itemgetter
from typing import Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import InvariantViolation, MissingBlockLabels, MissingColumn, ParseError, RequirementUnmet


class Analysis(enum.Enum):
    """Analyses a dataset can be validated against."""

    NO_ASSUMPTION_BOUNDS = "no_assumption_bounds"
    MT_BOUNDS = "mt_bounds"
    SENSITIVITY = "sensitivity"
    DIM = "dim"


def _require(ok: np.ndarray, values: np.ndarray, rule: str) -> None:
    """Raise for the first unit where ``ok`` fails, naming its value.

    ``ok`` and ``values`` have one row per unit (and may have a column axis).
    """
    if not ok.all():
        i = int(np.argmin(ok.ravel()))
        raise InvariantViolation(f"{rule}, got {float(values.ravel()[i])}", unit=i // (ok.size // len(ok)))


def _assignment(d: np.ndarray) -> np.ndarray:
    """``d`` as int8, under the rule that every unit's d is 0 or 1, which
    is checked on ``d`` as it comes (integers, booleans or reals)."""
    _require((d == 0) | (d == 1), d, "d must be 0 or 1")
    return d.astype(np.int8, copy=False)


def _wmean(y: np.ndarray, w: np.ndarray) -> float:
    return float(y @ w / w.sum())


def reaction_rate(m: np.ndarray, w: np.ndarray) -> float:
    """Weighted share of units with m = 1, clamped at 1: when every unit
    reacts, ``m @ w`` and ``w.sum()`` can round apart under weights that
    are not dyadic, putting the share an ulp above 1."""
    return min(float(m @ w / w.sum()), 1.0)


class Arm(NamedTuple):
    """The statistics of one arm that the estimators read, as Python
    scalars: its unit count, its weighted mean outcome, its weighted
    reaction rate and its m = 0 and m = 1 cell means (None for a cell
    with no unit). ``rate`` and ``cells`` are None when the arm misses
    an m."""

    n: int
    mean: float
    rate: float | None
    cells: tuple[float | None, float | None] | None


def _summarize(y: np.ndarray, m: np.ndarray, w: np.ndarray) -> Arm:
    """The :class:`Arm` of the gathered columns of one arm."""
    if np.isnan(m).any():
        return Arm(y.size, _wmean(y, w), None, None)
    cells = tuple(_wmean(y[c], w[c]) if (c := np.flatnonzero(m == value)).size else None for value in (0, 1))
    return Arm(y.size, _wmean(y, w), reaction_rate(m, w), cells)


class Dataset:
    """Immutable column-oriented collection of units.

    Construction validates every structural invariant once, and is the
    only place the per-unit rules are checked (an error names the first
    offending unit); estimators then treat the arrays as trusted values.
    Row order is preserved and meaningful (trimming ties break by
    original position). Since nothing about a dataset changes after
    construction, the summary of each arm and the numbering of the
    blocks are computed once, on first use, and kept (:meth:`arm`,
    :meth:`block_codes`).

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
        Block label per unit; one str is refused, not split into
        one-character labels.
    weight : array-like, optional
        Positive sampling weights. Defaults to 1 for every unit.
    covariate_names : sequence of str, optional
        Names for the k covariate columns. Defaults to x1..xk.
    """

    __slots__ = ("_y", "_d", "_m", "_x", "_block", "_w", "_names", "_arms", "_codes")

    def __init__(self, y, d, m, x=None, block=None, weight=None, covariate_names=None):
        self._own(
            np.array(y, dtype=np.float64),
            np.array(d),
            None if m is None else np.array(m, dtype=np.float64),  # None -> every m missing
            None if x is None else np.array(x, dtype=np.float64),
            block,
            None if weight is None else np.array(weight, dtype=np.float64),
            covariate_names,
        )

    @classmethod
    def _adopt(cls, y, d, m, x=None, block=None, weight=None, covariate_names=None) -> "Dataset":
        """The dataset over columns made for it, which the caller hands
        over and no longer touches: y, m, x and weight as contiguous
        float64 arrays are kept as they are, and d (of any integer or
        real type) is narrowed to int8. Checked as the constructor
        checks, with the same errors."""
        ds = object.__new__(cls)
        ds._own(y, d, m, x, block, weight, covariate_names)
        return ds

    def _own(self, y, d, m, x, block, weight, covariate_names) -> None:
        """Check the columns and keep them, read-only, converting only a
        column that is not float64 yet (d: not int8 yet)."""
        yv = np.asarray(y, dtype=np.float64)
        if yv.ndim != 1:
            raise InvariantViolation("y must be one-dimensional")
        n = yv.shape[0]
        if n == 0:
            raise InvariantViolation("dataset must contain at least one unit")

        dv = np.asarray(d)
        if dv.dtype.kind not in "biu":  # integers and booleans are checked as they are
            dv = np.asarray(dv, dtype=np.float64)
        if dv.shape != (n,):
            raise InvariantViolation("d length does not match y")
        mv = np.full(n, np.nan) if m is None else np.asarray(m, dtype=np.float64)
        if mv.shape != (n,):
            raise InvariantViolation("m length does not match y")
        wv = None if weight is None else np.asarray(weight, dtype=np.float64)
        if wv is not None and wv.shape != (n,):
            raise InvariantViolation("weight length does not match y")
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

        if block is None:
            bv = None
        elif isinstance(block, str):
            raise InvariantViolation("block must be a sequence of labels, one per unit, not a str")
        else:
            bv = np.array([None if b is None else str(b) for b in block], dtype=object)
            if bv.shape != (n,):
                raise InvariantViolation("block length does not match y")

        # the per-unit rules, each raised here and nowhere else
        _require(np.isfinite(yv), yv, "y must be finite")
        dv = _assignment(dv)
        _require(np.isnan(mv) | (mv == 0.0) | (mv == 1.0), mv, "m must be 0, 1 or missing")
        if wv is not None:
            _require(np.isfinite(wv) & (wv > 0), wv, "weight must be positive and finite")
        _require(np.isfinite(xv), xv, "covariates must be finite")

        treated = dv == 1
        if not treated.any():
            raise InvariantViolation("dataset has no treated unit")
        if treated.all():
            raise InvariantViolation("dataset has no control unit")
        _require(~(treated & np.isnan(mv)), mv, "treated units must have m observed")
        if wv is None:
            wv = np.ones(n)

        for a in (yv, dv, mv, wv, xv):
            a.setflags(write=False)
        if bv is not None:
            bv.setflags(write=False)

        self._y = yv
        self._d = dv
        self._m = mv
        self._x = xv
        self._block = bv
        self._w = wv
        self._names = names
        self._arms: list[Arm | None] = [None, None]
        self._codes: tuple[np.ndarray, tuple] | None = None

    # -- resampling --------------------------------------------------------

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
        new._y = self._y[idx]
        new._d = d
        new._m = self._m[idx]
        new._x = self._x[idx]
        new._block = None if self._block is None else self._block[idx]
        new._w = self._w[idx]
        new._names = self._names
        new._arms = [None, None]
        new._codes = None
        return new

    def arm(self, d: int) -> Arm:
        """The summary of the arm assigned ``d``, from one gather of its
        columns on the first call and kept for this dataset, whose arrays
        are read-only."""
        if d not in (0, 1):
            raise InvariantViolation(f"arm must be 0 or 1, got {d!r}")
        arm = self._arms[d]
        if arm is None:
            rows = np.flatnonzero(self._d == d)  # an index gathers faster than a mask of random rows
            y, m, w = self._y[rows], self._m[rows], self._w[rows]
            del rows  # not held while the cells are gathered
            arm = self._arms[d] = _summarize(y, m, w)
        return arm

    def block_codes(self) -> tuple[np.ndarray, tuple[str, ...]]:
        """Each unit's block as an integer code, and the block labels in
        code order: blocks are numbered in order of first appearance.
        Raises :class:`MissingBlockLabels` unless every unit has a label."""
        if self._block is None:
            raise MissingBlockLabels("the units carry no block label")
        codes, blocks = self._numbered_blocks()
        if None in blocks:
            raise MissingBlockLabels("a unit carries no block label")
        return codes, blocks

    def _numbered_blocks(self) -> tuple[np.ndarray, tuple]:
        """:meth:`block_codes` with a missing label numbered as one more
        block, from one pass over the labels on the first call, kept for
        this dataset."""
        if self._codes is None:
            labels = self._block.tolist()
            blocks = tuple(dict.fromkeys(labels))
            number = {b: i for i, b in enumerate(blocks)}
            codes = np.fromiter(map(number.__getitem__, labels), dtype=np.intp, count=len(labels))
            codes.setflags(write=False)
            self._codes = codes, blocks
        return self._codes

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
        return self.arm(1).n

    @property
    def n_control(self) -> int:
        return self.arm(0).n

    @property
    def m_observed_in_control(self) -> bool:
        # treated units always carry m, so the control arm decides
        return self.arm(0).cells is not None

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (
            f"Dataset(n={self.n}, treated={self.n_treated}, control={self.n_control}, "
            f"covariates={len(self._names)}, m_observed_in_control={self.m_observed_in_control})"
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


# -- CSV codec -----------------------------------------------------------

_DEFAULT_SCHEMA: Mapping[str, object] = {"y": "y", "d": "d", "m": "m"}
_SCHEMA_KEYS = frozenset(("y", "d", "m", "covariates", "block", "weight"))


def _m_value(text: str) -> float:
    """An m cell: blank marks a missing indicator, anything else is a
    number. NaN stands for missing in memory, so a literal one is refused
    rather than read as a blank."""
    if not text.strip():
        return math.nan
    v = float(text)
    if math.isnan(v):
        raise ValueError(text)
    return v


def _cell_error(fields: Sequence[str], row: int, cells) -> ParseError:
    """The error for the first of ``cells`` (column, index, parser) that
    ``fields`` lacks or that fails to parse."""
    for column, i, parse in cells:
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
        Any other key, or ``covariates`` as one str, raises
        :class:`InvariantViolation`.

    A blank m cell marks a missing indicator and an empty block cell a
    missing label; every other needed cell must parse as a number. Blank
    lines are skipped but keep their row numbers. Raises
    :class:`MissingColumn`, :class:`ParseError` (with row and column) or
    :class:`InvariantViolation` (with the row of the offending unit when
    a per-unit rule of :class:`Dataset` fails).

    Without a block column the numeric columns are parsed in one
    ``np.loadtxt`` call; any file that call refuses, or whose values
    :class:`Dataset` refuses, is read again row by row, so every error
    comes from the row reader.
    """
    roles, build = _plan(schema)
    if all(parse is not str for _, parse in roles):
        ds = _load_columns(path, roles, build)
        if ds is not None:
            return ds
    return _load_rows(path, roles, build)


def _plan(schema: Mapping[str, object] | None):
    """The (column, parser) roles of ``schema`` in the order a row's cells
    are checked (y, d, m, covariates, block, weight), and the builder of
    its :class:`Dataset` from the real columns (y, d, covariates, weight)
    and the m column, each an array of its own that the dataset keeps,
    and the block labels."""
    eff = dict(_DEFAULT_SCHEMA)
    if schema:
        eff.update(schema)
    for key in eff:
        if key not in _SCHEMA_KEYS:
            raise InvariantViolation(f"unknown schema key {key!r}; expected one of {sorted(_SCHEMA_KEYS)}")
    if isinstance(eff.get("covariates"), str):
        raise InvariantViolation("schema key 'covariates' must be a list of column names, not a str")
    cov_cols = [str(c) for c in eff.get("covariates", [])]
    block_col = None if eff.get("block") is None else str(eff["block"])
    weight_col = None if eff.get("weight") is None else str(eff["weight"])
    roles = [(str(eff["y"]), float), (str(eff["d"]), float), (str(eff["m"]), _m_value)]
    roles += [(c, float) for c in cov_cols]
    if block_col is not None:
        roles.append((block_col, str))
    if weight_col is not None:
        roles.append((weight_col, float))
    k = len(cov_cols)

    def build(reals: list[np.ndarray], m: np.ndarray, blocks: list | None) -> Dataset:
        return Dataset._adopt(
            y=reals[0],
            d=reals[1],
            m=m,
            x=np.column_stack(reals[2 : 2 + k]) if k else None,
            block=blocks,
            weight=reals[-1] if weight_col is not None else None,
            covariate_names=cov_cols if k else None,
        )

    return roles, build


def _header_cells(fh: TextIO, roles) -> list:
    """Read the header of ``fh``: (column, index, parser) for each role.
    A column a role reads must appear in it exactly once."""
    header = next(csv.reader(fh), None)
    if header is None:
        raise ParseError(0, "", "file is empty, a header row is required")
    pos = {name: i for i, name in enumerate(header)}
    for name, _ in roles:
        if name not in pos:
            raise MissingColumn(f"column {name!r} not found in header {header}")
        if header.count(name) > 1:
            raise ParseError(0, name, f"the header names this column {header.count(name)} times")
    return [(name, pos[name], parse) for name, parse in roles]


# Py_UNICODE_ISSPACE counts these as whitespace and np.loadtxt strips
# them around a number, but float() refuses them.
_SEPARATORS = b"\x1c\x1d\x1e\x1f"


def _has_separator(path) -> bool:
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            if len(chunk.translate(None, _SEPARATORS)) != len(chunk):
                return True
    return False


def _load_columns(path, roles, build) -> Dataset | None:
    """The dataset parsed by one ``np.loadtxt`` call, or None when the
    row reader must decide: no data row follows the header, loadtxt
    fails, an m cell reads as NaN (a literal ``nan``, which the row
    reader refuses), or :class:`Dataset` refuses the values.

    The needed columns are copied out of loadtxt's table, d narrowed
    to int8 on the way, and the table is dropped before the dataset
    makes its unit weights."""
    if _has_separator(path):
        return None
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            cells = _header_cells(fh, roles)
            # y, d, covariates, weight, then m last
            order = [i for _, i, parse in cells if parse is float] + [cells[2][1]]
            # loadtxt skips blank lines, and warns when nothing else is left
            first = next((line for line in fh if line.strip("\r\n")), None)
            if first is None:
                return None
            lines = itertools.chain((first,), fh)
            table = np.loadtxt(
                lines, delimiter=",", quotechar='"', comments=None, usecols=order, ndmin=2, encoding="utf-8"
            )
        except (ValueError, csv.Error):  # UnicodeDecodeError included
            return None
    if np.isnan(table[:, -1]).any():
        return None
    try:
        d = _assignment(table[:, 1])  # narrowed here, so that it is never copied as reals
    except InvariantViolation:
        return None
    *reals, m = [d if j == 1 else table[:, j].copy() for j in range(table.shape[1])]
    del table
    try:
        return build(reals, m, None)
    except InvariantViolation:
        return None


def _load_rows(path, roles, build) -> Dataset:
    """Row-by-row reader: every cell through ``float`` (m through
    ``_m_value``), locating each error by row and column. A byte that is
    not UTF-8 and a field over ``csv.field_size_limit()`` are
    :class:`ParseError` too, located by row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rownum = -1  # the header
        try:
            cells = _header_cells(fh, roles)
            rownum = 0
            reader = csv.reader(fh)

            # real-valued cells of a row go to one flat buffer, in the order y, d, covariates, weight
            reals = [i for _, i, parse in cells if parse is float]
            get_reals = itemgetter(*reals)
            m_at = cells[2][1]
            block_at = next((i for _, i, parse in cells if parse is str), None)
            flat = array("d")
            ms = array("d")
            blocks: list[str | None] = []
            blank_rows: list[int] = []
            for rownum, fields in enumerate(reader, start=1):
                if not fields:
                    blank_rows.append(rownum)
                    continue
                try:
                    flat.extend(map(float, get_reals(fields)))
                    ms.append(_m_value(fields[m_at]))
                    if block_at is not None:
                        blocks.append(fields[block_at] or None)
                except (ValueError, IndexError):
                    raise _cell_error(fields, rownum, cells) from None
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc) from None
        except csv.Error as exc:  # a field over the parser's size limit
            raise ParseError(rownum + 1, None, str(exc)) from None

    table = np.frombuffer(flat).reshape(-1, len(reals))
    columns = [table[:, j].copy() for j in range(len(reals))]
    try:
        return build(columns, np.frombuffer(ms), None if block_at is None else blocks)
    except InvariantViolation as exc:
        if exc.unit is not None:
            exc.row = exc.unit + 1
            for skipped in blank_rows:  # ascending: each blank row at or above pushes the unit down one
                if skipped <= exc.row:
                    exc.row += 1
        raise


def _decode_error(path, exc: UnicodeDecodeError) -> Exception:
    """The error for the first byte of ``path`` that is not UTF-8, naming
    the row and column it falls in and its offset.

    Text is decoded in blocks ahead of the CSV parser, so the rows before
    the byte are parsed here; a field among them that the parser refuses
    comes first in the file and is named instead.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as found:
        at = found.start
    else:
        return exc  # the file changed since it was read
    head = data[:at].decode("utf-8") + "?"  # "?" stands for the undecodable byte
    header: list[str] = []
    row, record = -1, []
    try:
        for row, record in enumerate(csv.reader(io.StringIO(head, newline=""))):
            if row == 0:
                header = record
    except csv.Error as err:
        return ParseError(row + 1, None, str(err))
    column = header[len(record) - 1] if row > 0 and len(record) <= len(header) else None
    return ParseError(row, column, f"byte {at} ({data[at]:#04x}) is not valid UTF-8")


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


_CHUNK = 1 << 14  # rows formatted at a time

# The d and m cells of a row as one text, indexed by 3 * d + the m code
# (m itself, or 2 for a missing m).
_DM_TEXT = np.array(["0,0", "0,1", "0,", "1,0", "1,1", "1,"], dtype=object)


def _row_format(k: int, block: bool, weight: bool) -> str:
    """The ``%`` template of one written row: y, the d and m text, ``k``
    covariates, the quoted block label and the weight, as chosen. A real
    takes 17 significant digits (an integer below 1e16 prints in full
    without a fraction, and -0.0 keeps its sign as ``-0``); a label is
    an argument, never template text, so a ``%`` in it stays literal."""
    return "%.17g,%s" + ",%.17g" * k + (",%s" if block else "") + (",%.17g" if weight else "") + "\r\n"


def _quote(text: str) -> str:
    """``text`` as one CSV field under the csv module's QUOTE_MINIMAL rule:
    quoted, with each quote doubled, when it holds a comma, a quote, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(ds: Dataset, path) -> None:
    """Write a dataset so that ``load_csv`` recovers it exactly.

    Columns: y, d, m, then covariates under their stored names, then
    ``block`` when any unit has a label, then ``weight`` when any
    weight differs from 1. Reals are written with 17 significant
    digits so the text round-trips to the same float64. Lines end in
    CRLF, and a header name or block label is quoted as ``csv.writer``
    quotes it; no other cell ever needs quoting. The write is atomic
    (temp file then rename). A header that would name a column twice,
    which ``load_csv`` refuses, raises :class:`InvariantViolation` before
    the target is opened.
    """
    schema = schema_for(ds)
    header = ["y", "d", "m", *ds.covariate_names]
    header += [name for name in ("block", "weight") if name in schema]
    for name in header:
        if header.count(name) > 1:
            raise InvariantViolation(f"the header would name column {name!r} {header.count(name)} times")
    if "block" in schema:
        codes, blocks = ds._numbered_blocks()
        labels = np.array(["" if b is None else _quote(b) for b in blocks], dtype=object)
    row = _row_format(ds.x.shape[1], "block" in schema, "weight" in schema)

    with atomic_open(path) as fh:
        fh.write(",".join(map(_quote, header)) + "\r\n")
        for start in range(0, ds.n, _CHUNK):
            rows = slice(start, start + _CHUNK)
            m = ds.m[rows]
            dm_codes = np.where(np.isnan(m), 2, m).astype(np.int8) + 3 * ds.d[rows]
            columns = [ds.y[rows].tolist(), _DM_TEXT[dm_codes].tolist()]
            columns += [ds.x[rows, j].tolist() for j in range(ds.x.shape[1])]
            if "block" in schema:
                columns.append(labels[codes[rows]].tolist())
            if "weight" in schema:
                columns.append(ds.weight[rows].tolist())
            size = len(columns[0])
            cells = [None] * (len(columns) * size)
            for j, column in enumerate(columns):  # row-major: the cells of each row in turn
                cells[j :: len(columns)] = column
            fh.write(row * size % tuple(cells))


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
