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


def _observed(ds: Dataset, d: int) -> tuple[list[float], list[float]]:
    """The cell table of ``ds`` (:meth:`Dataset.cells`), once every unit
    of the arm assigned ``d`` is known to carry m; else :class:`MissingM`."""
    w, s = ds.cells()
    if w[3 * d + 2]:
        raise MissingM(f"m is not observed for every unit with d={d}")
    return w, s


def arm_reaction_rate(ds: Dataset, d: int) -> float:
    """Weighted share of units with m = 1 in the arm assigned ``d``.

    Raises :class:`MissingM` when the arm has unobserved m.
    """
    if d not in (0, 1):
        raise InvariantViolation(f"arm must be 0 or 1, got {d!r}")
    w, _ = _observed(ds, d)
    return w[3 * d + 1] / (w[3 * d] + w[3 * d + 1])


def estimate_te_dim(ds: Dataset) -> TEEstimate:
    """Weighted difference in mean outcomes, treated minus control, each
    arm's mean the sum of its three cells (:meth:`Dataset.cells`)."""
    w, s = ds.cells()
    treated, control = ((s[i] + s[i + 1] + s[i + 2]) / (w[i] + w[i + 1] + w[i + 2]) for i in (3, 0))
    return TEEstimate(te_hat=treated - control, se=None, method=TEMethod.DIFF_IN_MEANS)


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
    w, s = _observed(ds, d)
    if not w[3 * d + m]:
        raise EmptyCell(f"no units with d={d}, m={m}")
    return s[3 * d + m] / w[3 * d + m]


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
    unit's integer group code: its block with ``use_block_fe``
    (:meth:`Dataset.block_codes`, which raises :class:`MissingBlockLabels`
    unless every unit has a label), else one group, whose intercept is
    the regression's own."""
    cols = [ds.d.astype(np.float64)]
    if use_covariates and ds.x.shape[1]:
        cols.append(ds.x)
    codes = ds.block_codes()[0] if use_block_fe else np.zeros(ds.n, dtype=np.intp)
    return np.column_stack(cols), codes


def _coefficient_count(columns: int, groups: int, rows: int) -> int:
    """The coefficient count of :func:`absorbed_wls`, ``columns`` of X plus
    the ``groups`` with weight; :class:`RankDeficient` when ``rows`` rows,
    bootstrap copies counted, cannot identify them."""
    p = columns + groups
    if rows < p:
        raise RankDeficient(f"{rows} rows cannot identify {p} coefficients")
    return p


def _solve_r(R: np.ndarray, qty: np.ndarray, rows: int, p: int) -> np.ndarray:
    """The coefficients from the triangular factor R of the residualized
    design and the rotated outcome ``qty``; :class:`RankDeficient` when a
    diagonal entry of R is negligible against ``max(rows, p)`` ulps of the
    largest (or of 1)."""
    diag = np.abs(np.diag(R))
    if diag.min() <= max(rows, p) * np.finfo(np.float64).eps * max(diag.max(), 1.0):
        raise RankDeficient("design matrix is rank deficient after absorbing the group intercepts")
    return np.linalg.solve(R, qty)


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
    p = _coefficient_count(X.shape[1], int(np.count_nonzero(wg)), rows)
    inv_wg = np.divide(1.0, wg, out=np.zeros(groups), where=wg > 0)
    sw = np.sqrt(w)

    def within(v: np.ndarray) -> np.ndarray:
        return (v - (np.bincount(codes, w * v, minlength=groups) * inv_wg)[codes]) * sw

    Xs = np.column_stack([within(X[:, j]) for j in range(X.shape[1])])
    ys = within(y)
    Q, R = np.linalg.qr(Xs)
    beta = _solve_r(R, Q.T @ ys, rows, p)
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
    return estimate_te_ols(ds, use_block_fe=ds.has_blocks)


def te_point(ds: Dataset, method: TEMethod) -> float:
    """Point value of the average effect under the chosen route."""
    return te_estimate(ds, method).te_hat


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
