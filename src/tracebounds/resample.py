"""Count-based replicate engine behind ``analyze``.

A bootstrap replicate is a multinomial count vector over the sample
(Efron & Tibshirani 1993): drawing a row k times gives it weight k·w.
The rows are read in the order of :meth:`Dataset.layout`, in which
the control arm and its m = 0 pool ascend in y. Each replicate turns
the ``(seed, r)`` draw of :func:`replicate_draw` into counts with one
``bincount`` and reads every statistic ``analyze`` needs off
count-weighted sums: the average effect, the reactive share, the
(1, 1)-cell mean, both trimmed slices and the monotone mixture. The
slices come from ``bounds._slice_means``, the kernel of the
full-sample bounds too: one ``cumsum`` and a ``searchsorted`` from
each end of the ascending order, in which a row not drawn has weight
0. The adjusted regression is :func:`absorbed_wls` under the weights
count·w under row draws. Under block draws, which absorb the very
blocks they draw, a block's demeaned rows never change, so the engine
factors each block once (:func:`_block_factors`) and a replicate solves
one small QR of the drawn blocks' factors (:func:`_stacked_wls`): its
cost follows the block count, not the unit count. No resample is built
and nothing is sorted per replicate.

Each entry equals the per-``Dataset`` function on ``Dataset.take`` of
the same draw up to summation order (the reference adds duplicates in
draw order, the engine adds count·w·y once per row, and under block
draws the regression's rows are rotated block by block), and fails
where it fails: a resample that loses an arm blanks the row, p = 0 blanks
the trimming and monotone bounds, a first-stage gap below -1e-12
blanks the monotone bounds, a non-finite value blanks its own pair.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .bounds import BoundKind, Interval, _ordered_interval, _slice_means, mt_interval
from .data import Dataset
from .errors import EmptyCell, TraceBoundsError
from .estimators import TEMethod, _coefficient_count, _solve_r, absorbed_wls, ols_columns, shares_from_first_stage
from .inference import BootstrapConfig, ResampleUnit, replicate_draw

_NAN_PAIR = (math.nan, math.nan)


def _pair(make: Callable[[], Interval]) -> tuple[float, float]:
    """Bound endpoints as the per-``Dataset`` bound returns them, or NaNs
    where it would raise or come out non-finite."""
    try:
        iv = make()
    except TraceBoundsError:
        return _NAN_PAIR
    return (iv.lo, iv.hi) if math.isfinite(iv.lo) and math.isfinite(iv.hi) else _NAN_PAIR


def _block_factors(y: np.ndarray, X: np.ndarray, w: np.ndarray | None, codes: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """For each block, ``[R_b | z_b]``, shape (blocks, k, k + 1): the first
    k rows of the triangular factor of its rows of ``[X | y]``, demeaned
    under the weights ``w`` (None: every unit weighs 1) and scaled by
    ``sqrt(w)``, with rows of zeros below a block of fewer than k rows.
    ``R_b`` is the factor of its X part and ``z_b = Q_bᵀ y_b``; ``sizes``
    is each block's row count. The blocks of one size are gathered and
    factored by one stacked QR."""
    k = X.shape[1]
    wb = np.bincount(codes, w)
    # a mean by division, so that a column constant in a block (d in a block of one arm) demeans to exact zeros
    means = np.column_stack([np.bincount(codes, v if w is None else w * v) / wb for v in (*X.T, y)])
    order = np.argsort(codes, kind="stable")  # each block's rows, in row order, one block after another
    starts = np.cumsum(sizes) - sizes
    factors = np.zeros((sizes.size, k, k + 1))
    for size in np.flatnonzero(np.bincount(sizes)):  # np.unique would import numpy.ma
        same = np.flatnonzero(sizes == size)
        rows = order[starts[same, None] + np.arange(size)]  # (blocks, size)
        A = np.empty((same.size, size, k + 1))
        A[..., :k], A[..., k] = X[rows], y[rows]
        A -= means[same, None]
        if w is not None:
            A *= np.sqrt(w[rows])[..., None]
        factors[same, : min(size, k)] = np.linalg.qr(A, mode="r")[:, :k]
    return factors


def _stacked_wls(factors: np.ndarray, drawn: np.ndarray, rows: int) -> float:
    """:func:`absorbed_wls`' coefficient under block draws, from the block
    factors of :func:`_block_factors` and each block's count ``drawn``: a
    block drawn c times is c copies of its demeaned rows, whose least
    squares are those of ``sqrt(c)·[R_b | z_b]``, so one QR of those rows
    stacked over the drawn blocks gives the R and the ``Qᵀ y`` of the
    count-weighted design. The coefficient count and the rank rule are
    :func:`absorbed_wls`' own, with ``rows`` the drawn row count."""
    k = factors.shape[1]
    blocks = np.flatnonzero(drawn)
    p = _coefficient_count(k, blocks.size, rows)
    r = np.linalg.qr((factors[blocks] * np.sqrt(drawn[blocks])[:, None, None]).reshape(-1, k + 1), mode="r")
    return float(_solve_r(r[:k, :k], r[:k, k], rows, p)[0])


class ReplicateEngine:
    """Replicate rows of ``analyze`` for one dataset: trimming bounds
    (lo, hi), (te, p) and, ``with_mt``, monotone bounds (lo, hi), NaN
    where the per-``Dataset`` route fails on the same resample."""

    def __init__(self, ds: Dataset, te_method: TEMethod, cfg: BootstrapConfig, with_mt: bool):
        self._te_method = te_method
        self._cfg = cfg
        self._with_mt = with_mt
        rows, self._a, self._b = ds.layout()  # treated m=1 | treated m=0 | control by y
        self._y = ds.y[rows]
        # None: a replicate's weights are its counts, cast in about half the time of counts * 1.0
        self._w = ds.weight[rows] if ds.has_weights else None
        self._yc = self._y[self._b :]
        block = cfg.resample_unit is ResampleUnit.BLOCK
        self._units = len(ds.block_codes()[1]) if block else ds.n
        # each row's drawn unit, as intp: a gather converts an int32 index on every replicate
        self._unit_of = (ds.block_codes()[0][rows] if block else rows).astype(np.intp)
        if te_method is TEMethod.OLS_ADJUSTED:
            X, codes = ols_columns(ds, True, ds.has_blocks)
            if block:  # the regression absorbs the drawn blocks
                self._unit_rows = np.bincount(self._unit_of, minlength=self._units)  # rows a drawn block brings
                # None for unit weights, which would make n-length products here
                self._factors = _block_factors(ds.y, X, ds.weight if ds.has_weights else None, codes, self._unit_rows)
            else:
                self._X, self._codes = X[rows], codes[rows]
        if with_mt:
            cells = ds.cell_codes()[rows[self._b :]]  # control: the code is m
            self._c1 = (cells == 1).astype(np.float64)
            self._c1y = self._c1 * self._yc
            self._pool = np.flatnonzero(cells == 0)  # still sorted by y
            self._pool_y = self._yc[self._pool]

    def run(self) -> np.ndarray:
        """Rows of every replicate, shape (replicates, 6 with mt else 4)."""
        return np.array([self.row(r) for r in range(self._cfg.replicates)], dtype=np.float64)

    def row(self, r: int) -> list[float]:
        """Replicate ``r``: its draw as counts, every entry from count-weighted sums."""
        drawn = np.bincount(replicate_draw(self._cfg.seed, r, self._units), minlength=self._units)  # times each unit is drawn
        counts = drawn[self._unit_of]
        cw = counts.astype(np.float64) if self._w is None else counts * self._w
        a, b = self._a, self._b
        y, wc = self._y, cw[b:]
        w_t1 = cw[:a].sum()
        w_t = w_t1 + cw[a:b].sum()
        w_c = wc.sum()
        if w_t == 0 or w_c == 0:  # the resample lost an arm
            return [math.nan] * (6 if self._with_mt else 4)
        s_t1 = y[:a] @ cw[:a]
        p = w_t1 / w_t
        if self._te_method is TEMethod.DIFF_IN_MEANS:
            te = (s_t1 + y[a:b] @ cw[a:b]) / w_t - (self._yc @ wc) / w_c
        else:
            try:
                if self._cfg.resample_unit is ResampleUnit.BLOCK:
                    te = _stacked_wls(self._factors, drawn, int(drawn @ self._unit_rows))
                else:
                    te = absorbed_wls(y, self._X, cw, self._codes, y.size)[0]  # n rows drawn
            except TraceBoundsError:
                te = math.nan
        core = (float(te), float(p)) if math.isfinite(te) and math.isfinite(p) else _NAN_PAIR
        trim = mt = _NAN_PAIR  # p = 0: no reactive treated unit, both bounds undefined
        if p > 0:
            y1m1 = s_t1 / w_t1
            low, high = _slice_means(self._yc, wc, p)
            trim = _pair(lambda: _ordered_interval(float(y1m1 - high), float(y1m1 - low), BoundKind.NO_ASSUMPTION))
            if self._with_mt:
                mt = _pair(lambda: self._mt(wc, w_c, p, y1m1))
        return [*trim, *core, *mt] if self._with_mt else [*trim, *core]

    def _mt(self, wc: np.ndarray, w_c: float, p: float, y1m1: float) -> Interval:
        """``mt_bounds`` from the control weights."""
        w_c1 = self._c1 @ wc

        def pool_slices(pi: float) -> tuple[float, float]:
            pw = wc[self._pool]
            if not pw.any():
                raise EmptyCell("no control units with m=0 although the first stage implies some")
            return _slice_means(self._pool_y, pw, pi)

        shares = shares_from_first_stage(p, w_c1 / w_c)
        return mt_interval(y1m1, p, shares, lambda: (self._c1y @ wc) / w_c1, pool_slices)
