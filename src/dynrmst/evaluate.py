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
from .gee import IDENTITY, DynamicModelFit, fit_landmark_model
from .landmark import _columns, _covariates_at, build_landmark_dataset
from .surv import as_survival_data, risk_set_pseudo

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
    z = np.asarray(covariates, dtype=float)
    return fit.link.ginv(np.column_stack([np.ones(z.shape[0]), z])
                         @ fit.coefficient_path(s))


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
    """
    names = dynamic_fit.covariate_names
    w = dynamic_fit.w
    grid = np.asarray(dynamic_fit.grid)
    train = _columns(train_survival, train_longitudinal, names)[:2]
    val = _columns(val_survival, val_longitudinal, names)[:2]
    time, status = val[0].time, val[0].status
    kind = "pseudo_value" if truth is None else "true_value"
    if truth is not None:
        # risk sets are nested, so every later landmark reads rows of this
        # table: column j holds cRMST(s_j, w), column J + j RMST(s_j + w)
        first = np.flatnonzero(time > grid[0])
        table = truth.subset(first).true_crmst(
            np.concatenate((grid, np.zeros(grid.size))),
            np.concatenate((np.full(grid.size, w), grid + w)))
    rows_out = []
    for j, s_j in enumerate(dynamic_fit.grid):
        tau = s_j + w
        rows = np.flatnonzero(time > s_j)
        dyn_pred = predict_values(
            dynamic_fit, _covariates_at(*val, names, rows, s_j), s_j)
        static_fit = static_rmst_model(train[0], tau, longitudinal=train[1],
                                       covariate_names=names,
                                       extend_tail=extend_tail)
        stat_pred = predict_values(static_fit,
                                   _covariates_at(*val, names, rows, 0.0))
        refs = None
        if truth is not None and rows.size:
            at_risk = time[first] > s_j
            refs = table[at_risk, j], table[at_risk, grid.size + j]
        elif truth is None and rows.size > 1:
            dyn_ref = risk_set_pseudo(time, status, s_j, w, extend_tail)[1]
            # static pseudo-values cover every subject with Y > 0; keep
            # those at risk at s_j
            at_0, pv = risk_set_pseudo(time, status, 0.0, tau, extend_tail)
            refs = dyn_ref, pv[time[at_0] > s_j]
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
