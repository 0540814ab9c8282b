"""Individual dynamic prediction with delta-method intervals, and model
evaluation via landmark C-index and prediction error.

The comparison baseline throughout is the "static" pseudo-value RMST
regression on baseline covariates with horizon tau = s_j + w: it predicts a
cumulative quantity from the start of follow-up, while the dynamic model
predicts the conditional RMST given survival to s_j.  Each model is scored
against references for its own estimand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from . import _kernels
from .basis import h_matrix
from .errors import InvalidInput, OutOfRange
from .gee import (IDENTITY, DynamicModelFit, _one_design_solver,
                  fit_landmark_model)
from .landmark import (_columns, _covariates_at, _landmark_error,
                       _pair_starts, build_landmark_dataset)
from .surv import _first_failing_window, as_survival_data

__all__ = [
    "PredictionResult",
    "EvalRow",
    "predict",
    "predict_landmark",
    "predict_values",
    "c_index",
    "prediction_error",
    "static_rmst_model",
    "evaluate_on_validation",
]


@dataclass(frozen=True)
class PredictionResult:
    s: float
    value: float
    se: float
    ci_lower: float
    ci_upper: float
    df: int
    alpha: float


@dataclass(frozen=True)
class EvalRow:
    """Evaluation summary for one landmark (a C-index is None when fewer
    than two subjects are at risk or no pair is usable; a PE is None when
    the landmark has no reference values)."""

    landmark: float
    c_index_dynamic: float | None
    c_index_static: float | None
    pe_dynamic: float | None
    pe_static: float | None
    reference_kind: str


def _check_range(fit, s):
    lo, hi = fit.grid[0], fit.grid[-1]
    if not lo <= s <= hi:
        raise OutOfRange(f"s={s} outside fitted landmark range [{lo}, {hi}]")


def _interval(fit, x, s, alpha):
    """Value of the linear predictor x @ beta through the link, with the
    delta-method standard error and a t-based confidence interval."""
    eta = float(x @ fit.beta)
    value = float(fit.link.ginv(eta))
    grad = float(fit.link.dginv(eta)) * x
    se = float(np.sqrt(max(grad @ fit.covariance @ grad, 0.0)))
    # the t quantile stats.t.ppf computes, without importing scipy.stats
    tq = float(special.stdtrit(fit.df, 1.0 - alpha / 2.0))
    return PredictionResult(s=float(s), value=value, se=se,
                            ci_lower=value - tq * se, ci_upper=value + tq * se,
                            df=fit.df, alpha=float(alpha))


def predict(fit: DynamicModelFit, covariates, s, alpha=0.05):
    """Predicted cRMST for covariate vector Z(s) at prediction time s, with
    the delta-method standard error and a t-based confidence interval."""
    if not 0.0 < alpha < 1.0:
        raise InvalidInput("alpha must be in (0, 1)")
    _check_range(fit, s)
    z = np.asarray(covariates, dtype=float)
    if z.shape != (fit.layout.n_paths - 1,):
        raise InvalidInput(
            f"expected {fit.layout.n_paths - 1} covariates, got {z.shape}"
        )
    zstar = np.concatenate(([1.0], z))
    return _interval(fit, h_matrix(fit.layout, s).T @ zstar, s, alpha)


def predict_landmark(fit: DynamicModelFit, covariates, alpha=0.05):
    """Prediction from a one-landmark (or static RMST) fit at its landmark."""
    return predict(fit, covariates, fit.grid[0], alpha=alpha)


def predict_values(fit, covariates, s=None):
    """Predicted values, without intervals, for each row of a covariate
    matrix at prediction time s (by default the fit's first landmark, the
    only one of a one-landmark fit)."""
    s = fit.grid[0] if s is None else s
    _check_range(fit, s)
    return _path_values(fit, covariates, fit.coefficient_path(s))


def _path_values(fit, covariates, path):
    """ginv([1, Z] beta(s)) for the rows of Z, given beta(s) = ``path``."""
    z = np.asarray(covariates, dtype=float)
    return fit.link.ginv(np.column_stack([np.ones(z.shape[0]), z]) @ path)


def c_index(predictions, survival, s, w):
    """Harrell concordance at landmark s among subjects at risk, with times
    administratively truncated at s + w.

    ``predictions`` holds one value per subject of ``survival`` (records
    or SurvivalData) at risk at s, in id order: the rows of the landmark
    dataset at s.  A pair is usable when the strictly smaller truncated time
    is an event; concordant when the longer-surviving subject has the larger
    predicted cRMST; prediction ties count one half.  Returns None when no
    usable pair exists.
    """
    preds = np.asarray(predictions, dtype=float)
    survival = as_survival_data(survival)
    at_risk = survival.time > s
    t, d = survival.time[at_risk], survival.status[at_risk]
    if t.size < 2:
        raise InvalidInput(f"fewer than 2 subjects at risk at s={s}")
    if preds.shape != t.shape:
        raise InvalidInput(f"{preds.size} predictions for {t.size} subjects "
                           f"at risk at s={s}")
    horizon = s + w
    tt = np.minimum(t, horizon)
    dd = np.where(t <= horizon, d, 0)
    usable, score = _kernels.concordance_stats(tt, dd, preds)
    if usable == 0:
        return None
    return score / usable


def prediction_error(predictions, references, kind="true_value"):
    """Mean absolute difference between predictions and reference values."""
    if kind not in ("true_value", "pseudo_value"):
        raise InvalidInput(f"unknown reference kind {kind!r}")
    p = np.asarray(predictions, dtype=float)
    r = np.asarray(references, dtype=float)
    if p.shape != r.shape:
        raise InvalidInput("predictions and references differ in length")
    return float(np.mean(np.abs(p - r)))


def static_rmst_model(survival, tau, longitudinal=None, link=IDENTITY,
                      covariate_names=None, extend_tail=False):
    """Pseudo-value RMST regression on baseline covariates with horizon tau
    (the Andersen-style model refit at each comparison horizon).

    Inputs are as for ``build_super_dataset``.  Time-dependent covariates
    are frozen at their time-0 values, so every subject needs a baseline
    measurement of each biomarker.
    """
    data = build_landmark_dataset(survival, longitudinal, 0.0, tau,
                                  covariate_names=covariate_names,
                                  extend_tail=extend_tail)
    return fit_landmark_model(data, link=link)


def _static_solver(surv, markers, names):
    """(rows, y -> beta): the subjects with Y > 0 and the identity-link beta
    of ``static_rmst_model`` on them, for any horizon's pseudo-values.
    Every horizon's fit has the design Z*_0 = [1, Z(0)] over those subjects
    and only the pseudo-values change, so the design is read and
    factorised once."""
    rows = np.flatnonzero(surv.time > 0.0)
    z, _, missing = _covariates_at(surv, markers, names, rows, [0.0])
    if missing is not None:
        raise missing
    return rows, _one_design_solver(np.column_stack([np.ones(rows.size), z]))


def evaluate_on_validation(dynamic_fit, train_survival, train_longitudinal,
                           val_survival, val_longitudinal, extend_tail=False,
                           truth=None):
    """Per-landmark comparison of the dynamic model against static RMST
    baselines trained on the training set, scored on the validation set.

    Without ``truth`` the references are validation pseudo-values (the
    unknown-truth case).  ``truth`` is a JointTruth of the validation
    subjects in ascending id order; the references are then each subject's
    true cRMST at (s_j, w) and true RMST at s_j + w, all read from one
    table of the subjects at risk at the first landmark.  A landmark with
    fewer than two validation subjects at risk gets C-index None, and PE
    None when it has no reference: fewer than two at risk for pseudo-values
    (they are undefined there), none at risk for true values.

    Every landmark is built at once: Z(s_j) of the validation subjects by
    one LOCF search, the static baselines' pseudo-values at all horizons
    s_j + w by one jackknife call, and the validation pseudo-value
    references by two.  Errors come in the order of one landmark at a
    time: Z(s_j), the static fit at s_j + w (at the first landmark also
    its time-0 design), the validation Z(0) at the first landmark, then the
    references.
    """
    names = dynamic_fit.covariate_names
    w = dynamic_fit.w
    grid = np.asarray(dynamic_fit.grid)
    n_lm = grid.size
    train = _columns(train_survival, train_longitudinal, names)[:2]
    val = _columns(val_survival, val_longitudinal, names)[:2]
    time, status = val[0].time, val[0].status
    kind = "pseudo_value" if truth is None else "true_value"
    # risk sets are nested, so every later landmark reads rows of the
    # subjects at risk at the first one, and validation subject i is at
    # risk at the first n_at[i] landmarks
    first = np.flatnonzero(time > grid[0])
    n_at = np.searchsorted(grid, time, side="left")
    if truth is not None:
        # column j holds cRMST(s_j, w), column J + j RMST(s_j + w)
        table = truth.subset(first).true_crmst(
            np.concatenate((grid, np.zeros(grid.size))),
            np.concatenate((np.full(grid.size, w), grid + w)))
    taus = [s_j + w for s_j in dynamic_fit.grid]
    hs = h_matrix(dynamic_fit.layout, grid)

    # the first landmark at which each check fails (n_lm when none)
    z_dyn, bad_z, missing = _covariates_at(*val, names,
                                           np.arange(time.size),
                                           dynamic_fit.grid, n_at)
    bad_static, static_error = _first_failing_window(
        train[0].time, train[0].status, 0.0, taus, extend_tail)
    # pseudo-value references exist at the landmarks with two or more at risk
    n_ref = 0
    if truth is None:
        n_ref = int(np.sum(np.sum(time[:, None] > grid, axis=0) > 1))
    bad_dyn, dyn_error = _first_failing_window(time, status, grid[:n_ref], w,
                                               extend_tail)
    bad_ref, ref_error = _first_failing_window(time, status, 0.0,
                                               taus[:n_ref], extend_tail)
    if bad_dyn <= bad_ref:  # at one landmark, (s_j, w) before (0, s_j + w)
        bad_ref, ref_error = bad_dyn, dyn_error
    bad_ref = bad_ref if bad_ref < n_ref else n_lm

    def error_at(j):
        """The first error at landmark j, one of those found above."""
        if bad_z == j:
            return missing
        if bad_static == j:
            return _landmark_error(static_error, 0.0)
        return ref_error

    if min(bad_z, bad_static) == 0:
        raise error_at(0)
    train_rows, solve = _static_solver(*train, names)
    val_z0, _, missing_0 = _covariates_at(*val, names, first, [0.0])
    if missing_0 is not None:
        raise missing_0
    if min(bad_z, bad_static, bad_ref) < n_lm:
        raise error_at(min(bad_z, bad_static, bad_ref))

    val_z0 = np.column_stack([np.ones(first.size), val_z0])
    static_pv = _kernels.jackknife_pseudo(
        train[0].time[train_rows], train[0].status[train_rows], 0.0, taus
    ).reshape(train_rows.size, n_lm)
    starts = _pair_starts(n_at)
    if n_ref:
        ref_starts = _pair_starts(np.minimum(n_at, n_ref))
        dyn_ref = _kernels.jackknife_pseudo(time, status, grid[:n_ref], w)
        at_0 = time > 0.0
        stat_ref = _kernels.jackknife_pseudo(
            time[at_0], status[at_0], 0.0, taus[:n_ref]
        ).reshape(-1, n_ref)
    rows_out = []
    for j, s_j in enumerate(dynamic_fit.grid):
        rows = np.flatnonzero(n_at > j)
        at_risk = time[first] > s_j
        dyn_pred = _path_values(dynamic_fit, z_dyn[starts[rows] + j],
                                hs[j] @ dynamic_fit.beta)
        # a contiguous copy of the column: BLAS may sum a strided vector in
        # another order
        stat_pred = val_z0[at_risk] @ solve(np.array(static_pv[:, j]))
        refs = None
        if truth is not None and rows.size:
            refs = table[at_risk, j], table[at_risk, grid.size + j]
        elif j < n_ref:
            # static pseudo-values cover every subject with Y > 0; keep
            # those at risk at s_j
            refs = (dyn_ref[ref_starts[rows] + j],
                    stat_ref[time[at_0] > s_j, j])
        pe_dyn = pe_stat = c_dyn = c_stat = None
        if refs is not None:
            pe_dyn = prediction_error(dyn_pred, refs[0], kind=kind)
            pe_stat = prediction_error(stat_pred, refs[1], kind=kind)
        if rows.size > 1:
            c_dyn = c_index(dyn_pred, val[0], s_j, w)
            c_stat = c_index(stat_pred, val[0], s_j, w)
        rows_out.append(EvalRow(
            landmark=float(s_j),
            c_index_dynamic=c_dyn,
            c_index_static=c_stat,
            pe_dynamic=pe_dyn,
            pe_static=pe_stat,
            reference_kind=kind,
        ))
    return rows_out
