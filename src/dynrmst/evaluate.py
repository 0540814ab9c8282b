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

from . import _kernels
from ._special import stdtrit
from .basis import h_matrix
from .errors import InvalidInput, OutOfRange
from .gee import (IDENTITY, DynamicModelFit, _Block, _block_solver,
                  _check_size, fit_landmark_model)
from .landmark import (_columns, _covariates_at, _landmark_error,
                       _landmark_pairs, build_landmark_dataset)
from .surv import (_check_alpha, _check_finite, _check_window,
                   _first_failing_window, as_survival_data)

__all__ = [
    "PredictionResult",
    "EvalRow",
    "predict",
    "predict_landmark",
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


def predict(fit: DynamicModelFit, covariates, s, alpha=0.05):
    """Predicted cRMST with its delta-method standard error and t-based
    confidence interval: floats for a vector of P covariates at one time s,
    (m,) arrays for an (m, P) matrix at one s or m.  Row i takes
    x = H(s_i)' [1, Z_i], eta = x beta and se^2 = (g Cov) g, g = ginv'(eta) x;
    a batch row matches its one-row call to rounding (BLAS may sum a
    product of many rows in another order)."""
    _check_alpha(alpha)
    z, times = np.asarray(covariates, dtype=float), np.asarray(s, dtype=float)
    lo, hi = fit.grid[0], fit.grid[-1]
    outside = ~((lo <= times) & (times <= hi))
    if outside.any():
        s_out = s if times.ndim == 0 else times.flat[np.argmax(outside)]
        raise OutOfRange(f"s={s_out} outside fitted landmark range "
                         f"[{lo}, {hi}]")
    p, single = fit.layout.n_paths - 1, z.ndim == 1
    if z.ndim not in (1, 2) or z.shape[-1] != p:
        raise InvalidInput(f"expected {p} covariates, got {z.shape}")
    m = 1 if single else len(z)
    if times.ndim and (single or times.shape != (m,)):
        raise InvalidInput(f"expected one prediction time per row, got "
                           f"{times.shape} for {m}")
    if times.ndim:
        distinct, which = np.unique(times, return_inverse=True)
        h = h_matrix(fit.layout, distinct)[which]
    else:
        h = h_matrix(fit.layout, times)
    # one matrix-vector product H(s_i)' [1, Z_i] and one dot product
    # (g Cov) g per row, as in a one-row call; an overflow is refused by
    # the finite check below, with no numpy warning
    zstar = np.column_stack((np.ones(m), z.reshape(m, p)))
    with np.errstate(over="ignore", invalid="ignore"):
        x = (np.swapaxes(h, -1, -2) @ zstar[:, :, None])[:, :, 0]
        eta = x @ fit.beta
        grad = fit.link.dginv(eta)[:, None] * x
        se2 = ((grad @ fit.covariance)[:, None, :] @ grad[:, :, None])[:, 0, 0]
        tq = stdtrit(fit.df, 1.0 - alpha / 2.0)
        value, se = fit.link.ginv(eta), np.sqrt(np.maximum(se2, 0.0))
        out = (np.array(np.broadcast_to(times, (m,))), value, se,
               value - tq * se, value + tq * se)
    finite = np.logical_and.reduce([np.isfinite(a) for a in out[1:]])
    if not finite.all():
        i = int(np.argmin(finite))
        raise InvalidInput(f"prediction at s={times[i] if times.ndim else s}"
                           f" is not finite (value {float(value[i])}, se "
                           f"{float(se[i])}): the model or the covariates "
                           f"overflow")
    if single:
        out = (float(s), *(float(a[0]) for a in out[1:]))
    return PredictionResult(*out, df=fit.df, alpha=float(alpha))


def predict_landmark(fit: DynamicModelFit, covariates, alpha=0.05):
    """Prediction from a one-landmark (or static RMST) fit at its landmark."""
    return predict(fit, covariates, fit.grid[0], alpha=alpha)


def c_index(predictions, survival, s, w):
    """Harrell concordance at landmark s among subjects at risk, with times
    administratively truncated at s + w.

    ``predictions`` holds one value per subject of ``survival`` (records
    or SurvivalData) at risk at s, in id order: the rows of the landmark
    dataset at s.  A pair is usable when the strictly smaller truncated time
    is an event; concordant when the longer-surviving subject has the larger
    predicted cRMST; prediction ties count one half.  Returns None when no
    usable pair exists.  An invalid window (s, w) or non-finite predictions
    raise InvalidInput.
    """
    _check_window(s, w)
    preds = np.asarray(predictions, dtype=float)
    survival = as_survival_data(survival)
    at_risk = survival.time > s
    t, d = survival.time[at_risk], survival.status[at_risk]
    if t.size < 2:
        raise InvalidInput(f"fewer than 2 subjects at risk at s={s}")
    if preds.shape != t.shape:
        raise InvalidInput(f"{preds.size} predictions for {t.size} subjects "
                           f"at risk at s={s}")
    if not np.isfinite(preds).all():
        raise InvalidInput(f"predictions at s={s} are not finite")
    horizon = s + w
    tt = np.minimum(t, horizon)
    dd = np.where(t <= horizon, d, 0)
    usable, score = _kernels.concordance_stats(tt, dd, preds)
    if usable == 0:
        return None
    return score / usable


def prediction_error(predictions, references, kind="true_value"):
    """Mean absolute difference between predictions and reference values,
    all finite."""
    if kind not in ("true_value", "pseudo_value"):
        raise InvalidInput(f"unknown reference kind {kind!r}")
    p = np.asarray(predictions, dtype=float)
    r = np.asarray(references, dtype=float)
    if p.shape != r.shape:
        raise InvalidInput("predictions and references differ in length")
    if not (np.isfinite(p).all() and np.isfinite(r).all()):
        raise InvalidInput("predictions or references are not finite")
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
    """(rows, [y] -> beta): the subjects with Y > 0 and the identity-link
    beta of ``static_rmst_model`` on them, for any horizon's pseudo-values.
    Every horizon's fit has the one block Z*_0 = [1, Z(0)] over those
    subjects with H = I, and only the pseudo-values change, so the design
    is read and factorised once."""
    rows = np.flatnonzero(surv.time > 0.0)
    z, _, missing = _covariates_at(surv, markers, names, [0.0],
                                   np.zeros_like(rows), rows)
    if missing is not None:
        raise missing
    zstar = np.column_stack([np.ones(rows.size), z])
    _check_size(rows.size, rows.size, zstar.shape[1])
    return rows, _block_solver([_Block(zstar, None, np.eye(zstar.shape[1]),
                                       None)])


def evaluate_on_validation(dynamic_fit, train_survival, train_longitudinal,
                           val_survival, val_longitudinal, extend_tail=False,
                           truth=None):
    """Per-landmark comparison of the dynamic model against static RMST
    baselines trained on the training set, scored on the validation set.

    Without ``truth`` the references are validation pseudo-values (the
    unknown-truth case).  ``truth`` is a JointTruth of the validation
    subjects in ascending id order (InvalidInput when its subject count
    differs from theirs); the references are then each subject's
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
    references.  Then InvalidInput, at the first landmark with one, for
    training pseudo-values that overflow, a dynamic or static prediction not
    finite (as ``predict``), or reference pseudo-values that overflow.
    """
    names = dynamic_fit.covariate_names
    w = dynamic_fit.w
    grid = np.asarray(dynamic_fit.grid)
    n_lm = grid.size
    train = _columns(train_survival, train_longitudinal, names)[:2]
    val = _columns(val_survival, val_longitudinal, names)[:2]
    time, status = val[0].time, val[0].status
    kind = "pseudo_value" if truth is None else "true_value"
    if truth is not None and truth.c0.size != time.size:
        raise InvalidInput(f"truth holds {truth.c0.size} subjects for "
                           f"{time.size} validation subjects")
    # risk sets are nested, so every later landmark reads rows of the
    # subjects at risk at the first one; landmark j's rows of the
    # landmark-major Z(s_j) are offsets[j]:offsets[j + 1]
    landmark, position, offsets = _landmark_pairs(
        np.searchsorted(grid, time, side="left"), n_lm)
    first = position[:offsets[1]]
    if truth is not None:
        # column j holds cRMST(s_j, w), column J + j RMST(s_j + w)
        table = truth.subset(first).true_crmst(
            np.concatenate((grid, np.zeros(grid.size))),
            np.concatenate((np.full(grid.size, w), grid + w)))
    taus = [s_j + w for s_j in dynamic_fit.grid]
    hs = h_matrix(dynamic_fit.layout, grid)

    # the first landmark at which each check fails (n_lm when none)
    z_dyn, bad_z, missing = _covariates_at(*val, names, dynamic_fit.grid,
                                           landmark, position)
    bad_static, static_error = _first_failing_window(
        train[0].time, train[0].status, 0.0, taus, extend_tail)
    # pseudo-value references exist at the landmarks with two or more at risk
    n_ref = 0
    if truth is None:
        n_ref = int(np.sum(np.diff(offsets) > 1))
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
    val_z0, _, missing_0 = _covariates_at(*val, names, [0.0],
                                          np.zeros_like(first), first)
    if missing_0 is not None:
        raise missing_0
    if min(bad_z, bad_static, bad_ref) < n_lm:
        raise error_at(min(bad_z, bad_static, bad_ref))

    val_z0 = np.column_stack([np.ones(first.size), val_z0])
    static_pv = _kernels.jackknife_pseudo(
        train[0].time[train_rows], train[0].status[train_rows], 0.0, taus
    ).reshape(n_lm, train_rows.size)
    if n_ref:
        # the reference risk sets are those of the first n_ref landmarks,
        # so landmark j's values share the offsets of Z(s_j)
        dyn_ref = _kernels.jackknife_pseudo(time, status, grid[:n_ref], w)
        at_0 = time > 0.0
        stat_ref = _kernels.jackknife_pseudo(
            time[at_0], status[at_0], 0.0, taus[:n_ref]
        ).reshape(n_ref, -1)
    rows_out = []
    for j, s_j in enumerate(dynamic_fit.grid):
        lo, hi = offsets[j], offsets[j + 1]
        at_risk = time[first] > s_j
        _check_finite(static_pv[j], 0.0, taus[j])
        dyn_pred = dynamic_fit.link.ginv(
            np.column_stack([np.ones(hi - lo), z_dyn[lo:hi]])
            @ (hs[j] @ dynamic_fit.beta))
        stat_pred = val_z0[at_risk] @ solve([static_pv[j]])
        if not (np.isfinite(dyn_pred).all() and np.isfinite(stat_pred).all()):
            raise InvalidInput(f"prediction at s={s_j} is not finite: the "
                               f"model or the covariates overflow")
        refs = None
        if truth is not None and hi > lo:
            refs = table[at_risk, j], table[at_risk, grid.size + j]
        elif j < n_ref:
            # static pseudo-values cover every subject with Y > 0; keep
            # those at risk at s_j
            refs = dyn_ref[lo:hi], stat_ref[j, time[at_0] > s_j]
            _check_finite(refs[0], s_j, w)
            _check_finite(refs[1], 0.0, taus[j])
        pe_dyn = pe_stat = c_dyn = c_stat = None
        if refs is not None:
            pe_dyn = prediction_error(dyn_pred, refs[0], kind=kind)
            pe_stat = prediction_error(stat_pred, refs[1], kind=kind)
        if hi - lo > 1:
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
