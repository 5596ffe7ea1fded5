"""Sample-analog estimators for the identified ingredients.

Everything here is a weighted mean or a ratio of weighted sums; the one
regression (``estimate_te_ols``, on the kernel ``absorbed_wls``) exists
so the average effect can be estimated with covariate and block
fixed-effect adjustment while the bounds machinery stays design-based.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import (
    EmptyCell,
    InvariantViolation,
    MissingM,
    MonotonicityViolatedEmpirically,
    OutOfRange,
    RankDeficient,
)

_MONO_TOL = 1e-12


class TEMethod(enum.Enum):
    DIFF_IN_MEANS = "diff_in_means"
    OLS_ADJUSTED = "ols_adjusted"


@dataclass(frozen=True)
class TEEstimate:
    """Average-effect estimate. ``se`` is present only for the adjusted
    regression route; the difference in means gets its uncertainty from
    the bootstrap."""

    te_hat: float
    se: float | None
    method: TEMethod


@dataclass(frozen=True)
class StrataShares:
    """Reaction strata shares under monotone reaction (no unit reacts
    under control but not under treatment)."""

    at: float  # reacts under both assignments
    c: float   # reacts only under treatment
    nt: float  # reacts under neither

    def __post_init__(self):
        for name, v in (("at", self.at), ("c", self.c), ("nt", self.nt)):
            if v < 0:
                raise InvariantViolation(f"share {name} must be nonnegative, got {v}")
        total = self.at + self.c + self.nt
        if abs(total - 1.0) > 1e-9:
            raise InvariantViolation(f"shares must sum to 1, got {total}")


def _wmean(y: np.ndarray, w: np.ndarray) -> float:
    return float(y @ w / w.sum())


def reaction_rate(m: np.ndarray, w: np.ndarray) -> float:
    """Weighted share of units with m = 1, clamped at 1: when every unit
    reacts, ``m @ w`` and ``w.sum()`` can round apart under weights that
    are not dyadic, putting the share an ulp above 1."""
    return min(float(m @ w / w.sum()), 1.0)


def _arm_statistics(ds: Dataset, d: int) -> dict:
    """Statistics of the arm assigned ``d`` from one gather of its
    columns, keyed as :meth:`Dataset.derived_together` remembers them:
    the weighted mean outcome, the reaction rate and the two (d, m) cell
    means. A cell mean the arm cannot give is the :class:`MissingM` or
    :class:`EmptyCell` that asking for it raises."""
    arm = np.flatnonzero(ds.d == d)  # an index gathers faster than a mask of random rows
    y, w, m = ds.y[arm], ds.weight[arm], ds.m[arm]
    stats: dict = {("arm_mean", d): _wmean(y, w), ("reaction_rate", d): reaction_rate(m, w)}
    missing = np.isnan(m).any()
    for value in (0, 1):
        if missing:
            stats["cell_mean", d, value] = MissingM(f"m is not observed for every unit with d={d}")
        elif (cell := np.flatnonzero(m == value)).size:
            stats["cell_mean", d, value] = _wmean(y[cell], w[cell])
        else:
            stats["cell_mean", d, value] = EmptyCell(f"no units with d={d}, m={value}")
    return stats


def arm_reaction_rate(ds: Dataset, d: int) -> float:
    """Weighted share of units with m = 1 in the arm assigned ``d``."""
    return ds.derived_together(("reaction_rate", d), lambda: _arm_statistics(ds, d))


def _arm_mean(ds: Dataset, d: int) -> float:
    """Weighted mean outcome of the arm assigned ``d``."""
    return ds.derived_together(("arm_mean", d), lambda: _arm_statistics(ds, d))


def estimate_te_dim(ds: Dataset) -> TEEstimate:
    """Weighted difference in mean outcomes, treated minus control."""
    return TEEstimate(te_hat=_arm_mean(ds, 1) - _arm_mean(ds, 0), se=None, method=TEMethod.DIFF_IN_MEANS)


def estimate_p_m1(ds: Dataset) -> float:
    """Weighted share of treated units with m = 1.

    Estimates the population probability of reacting under treatment;
    randomization makes the treated arm representative.
    """
    return arm_reaction_rate(ds, 1)


def conditional_mean(ds: Dataset, d: int, m: int) -> float:
    """Weighted mean outcome in the (d, m) cell.

    Raises :class:`MissingM` when the requested arm has unobserved m,
    :class:`EmptyCell` when no unit falls in the cell.
    """
    if d not in (0, 1) or m not in (0, 1):
        raise InvariantViolation("cell indices must be 0 or 1")
    return ds.derived_together(("cell_mean", d, m), lambda: _arm_statistics(ds, d))


def strata_shares_monotone(ds: Dataset) -> StrataShares:
    """Strata shares implied by the two arms under monotone reaction.

    The share reacting only under treatment is the first-stage gap
    Pr(m=1|d=1) - Pr(m=1|d=0). A gap below -1e-12 is treated as
    evidence against the model and raises
    :class:`MonotonicityViolatedEmpirically`; a gap within [-1e-12, 0)
    is floating-point noise and clips to zero.
    """
    if not ds.m_observed_in_control:
        raise MissingM("strata shares need m observed in both arms")
    return shares_from_first_stage(arm_reaction_rate(ds, 1), arm_reaction_rate(ds, 0))


def shares_from_first_stage(p1: float, p0: float) -> StrataShares:
    """Strata shares from the reaction rates Pr(m=1|d=1) and Pr(m=1|d=0),
    with the tolerance rule of :func:`strata_shares_monotone`."""
    c = p1 - p0
    if c < -_MONO_TOL:
        raise MonotonicityViolatedEmpirically(
            f"Pr(m=1|d=1)={p1:.6g} < Pr(m=1|d=0)={p0:.6g}; monotone reaction is rejected"
        )
    if c < 0:
        c = 0.0
    return StrataShares(at=p0, c=c, nt=1.0 - p1)


# -- adjusted TE regression --------------------------------------------------


def ols_columns(ds: Dataset, use_covariates: bool, use_block_fe: bool) -> tuple[np.ndarray, np.ndarray]:
    """Regressors ``[d, covariates]`` of the adjusted regression and each
    unit's integer group code: its block with ``use_block_fe``, else one
    group, whose intercept is the regression's own."""
    cols = [ds.d.astype(np.float64)]
    if use_covariates and ds.x.shape[1]:
        cols.append(ds.x)
    if not use_block_fe:
        return np.column_stack(cols), np.zeros(ds.n, dtype=np.intp)
    if ds.block is None:
        raise InvariantViolation("block fixed effects requested but units carry no block label")
    if any(b is None for b in ds.block):
        raise InvariantViolation("block fixed effects requested but some units lack a label")
    index: dict[str, int] = {}
    codes = np.fromiter((index.setdefault(b, len(index)) for b in ds.block), dtype=np.intp, count=ds.n)
    return np.column_stack(cols), codes


def absorbed_wls(
    y: np.ndarray, X: np.ndarray, w: np.ndarray, codes: np.ndarray, rows: int, with_se: bool = False
) -> tuple[float, float | None]:
    """Coefficient on the first column of ``X`` in the weighted least
    squares of ``y`` on ``X`` plus one intercept per group of ``codes``,
    and its HC2 standard error when ``with_se``.

    The group intercepts are absorbed (Frisch-Waugh-Lovell): every column
    is demeaned within its group under the weights ``w``, with one
    ``bincount`` per column, and QR runs on the ``sqrt(w)``-scaled
    residualized ``X`` alone, never on the normal equations. A weight of
    k·w stands for k copies of a row of weight w (a bootstrap count);
    ``rows`` is the row count with those copies, and a row of weight 0 or
    a group without weight takes no part. Raises :class:`RankDeficient`
    when ``rows`` is below the coefficient count (columns of ``X`` plus
    groups present) or a diagonal entry of R is negligible.

    HC2 inflates each squared residual by one minus the leverage, which
    is ``w_i / W_g`` (row i's share of its group's weight) plus the
    leverage of the residualized design.
    """
    groups = int(codes.max()) + 1
    wg = np.bincount(codes, w, minlength=groups)
    p = X.shape[1] + int(np.count_nonzero(wg))
    if rows < p:
        raise RankDeficient(f"{rows} rows cannot identify {p} coefficients")
    inv_wg = np.divide(1.0, wg, out=np.zeros(groups), where=wg > 0)
    sw = np.sqrt(w)

    def within(v: np.ndarray) -> np.ndarray:
        return (v - (np.bincount(codes, w * v, minlength=groups) * inv_wg)[codes]) * sw

    Xs = np.column_stack([within(X[:, j]) for j in range(X.shape[1])])
    ys = within(y)
    Q, R = np.linalg.qr(Xs)
    diag = np.abs(np.diag(R))
    if diag.min() <= max(rows, p) * np.finfo(np.float64).eps * max(diag.max(), 1.0):
        raise RankDeficient("design matrix is rank deficient after absorbing the group intercepts")

    beta = np.linalg.solve(R, Q.T @ ys)
    if not with_se:
        return float(beta[0]), None
    resid = ys - Xs @ beta
    lev = w * inv_wg[codes] + np.einsum("ij,ij->i", Q, Q)
    denom = np.clip(1.0 - lev, 1e-12, None)
    meat = Q.T @ (Q * (resid**2 / denom)[:, None])
    Rinv = np.linalg.inv(R)
    V = Rinv @ meat @ Rinv.T
    return float(beta[0]), float(np.sqrt(V[0, 0]))


def estimate_te_ols(ds: Dataset, use_covariates: bool = True, use_block_fe: bool = False) -> TEEstimate:
    """Weighted least squares of y on assignment, covariates and block
    intercepts, with a heteroskedasticity-robust standard error.

    The block intercepts (or the single intercept without them) are
    absorbed by :func:`absorbed_wls`, which solves via an orthogonal (QR)
    decomposition of the remaining columns. The reported standard error
    is the HC2 form: squared residuals inflated by one minus leverage.

    With no covariates and no block intercepts the coefficient on d
    equals the weighted difference in means up to numerical error.
    """
    X, codes = ols_columns(ds, use_covariates, use_block_fe)
    te, se = absorbed_wls(ds.y, X, ds.weight, codes, ds.n, with_se=True)
    return TEEstimate(te_hat=te, se=se, method=TEMethod.OLS_ADJUSTED)


def te_estimate(ds: Dataset, method: TEMethod) -> TEEstimate:
    """Average effect under the chosen route; the adjusted regression uses
    every covariate and, when units carry them, block fixed effects."""
    if method is TEMethod.DIFF_IN_MEANS:
        return estimate_te_dim(ds)
    return estimate_te_ols(ds, use_block_fe=ds.block is not None)


def te_point(ds: Dataset, method: TEMethod) -> float:
    """Point value of the average effect under the chosen route; the
    adjusted regression skips its standard error."""
    if method is TEMethod.DIFF_IN_MEANS:
        return estimate_te_dim(ds).te_hat
    X, codes = ols_columns(ds, True, ds.block is not None)
    return absorbed_wls(ds.y, X, ds.weight, codes, ds.n)[0]


# -- published-moment back-out -----------------------------------------------


def moments_to_te(pr_d1: float, pr_y1: float, pr_d1_given_y1: float) -> tuple[float, float, float]:
    """Recover arm-wise outcome rates and their difference from three
    published marginals of a binary-outcome experiment.

    Bayes' rule gives Pr(y=1|d=1) = Pr(d=1|y=1) Pr(y=1) / Pr(d=1) and
    the complementary expression for the control arm. Raises
    :class:`OutOfRange` when an input is not an interior probability or
    when an implied rate falls outside [0, 1].

    Returns ``(pr_y1_d1, pr_y1_d0, te)``.
    """
    for name, v in (("pr_d1", pr_d1), ("pr_y1", pr_y1), ("pr_d1_given_y1", pr_d1_given_y1)):
        if not (0.0 < v < 1.0):
            raise OutOfRange(f"{name} must lie strictly inside (0, 1), got {v}")
    pr_y1_d1 = pr_d1_given_y1 * pr_y1 / pr_d1
    pr_y1_d0 = (1.0 - pr_d1_given_y1) * pr_y1 / (1.0 - pr_d1)
    tol = 1e-12
    if not (-tol <= pr_y1_d1 <= 1.0 + tol):
        raise OutOfRange(f"implied Pr(y=1|d=1)={pr_y1_d1:.6g} falls outside [0, 1]")
    if not (-tol <= pr_y1_d0 <= 1.0 + tol):
        raise OutOfRange(f"implied Pr(y=1|d=0)={pr_y1_d0:.6g} falls outside [0, 1]")
    pr_y1_d1 = min(max(pr_y1_d1, 0.0), 1.0)
    pr_y1_d0 = min(max(pr_y1_d0, 0.0), 1.0)
    return pr_y1_d1, pr_y1_d0, pr_y1_d1 - pr_y1_d0
