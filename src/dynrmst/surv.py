"""Nonparametric survival estimation, conditional RMST via pseudo-observations,
and the two-sample cRMSTd test.

The conditional RMST mu(s, w) is the expected additional survival within the
window w for subjects still at risk at the prediction time s.  Two equivalent
Kaplan-Meier routes exist: restarting the estimator on the risk set at s, or
integrating the full-sample curve over [s, s+w] and dividing by S(s).  Both
are provided; the restart route is the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import _kernels
from .errors import EmptyRiskSet, InvalidInput, TailUndefined

__all__ = [
    "SurvivalRecord",
    "SurvivalData",
    "as_survival_data",
    "StepSurvivalCurve",
    "CRmstEstimate",
    "PseudoObservationSet",
    "CRmstdTestResult",
    "km_fit",
    "crmst_km",
    "crmst_km_ratio",
    "pseudo_observations",
    "risk_set_pseudo",
    "crmst_pseudo",
    "crmstd_test",
]


@dataclass(frozen=True)
class SurvivalRecord:
    """One subject: observed time Y = min(T, C) and event indicator."""

    id: object
    time: float
    status: int
    group: object = None
    covariates: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SurvivalData:
    """Columnar survival input, subjects sorted by ascending id.

    ``covariates`` maps each time-fixed covariate name to its column; NaN
    marks a value the subject does not have.  ``group`` holds each subject's
    group label, or is None when the input has no groups.
    """

    ids: np.ndarray
    time: np.ndarray
    status: np.ndarray
    covariates: dict = field(default_factory=dict)
    group: np.ndarray | None = None

    def subset(self, rows):
        """The subjects at ``rows``: a boolean mask or ascending positions."""
        return SurvivalData(self.ids[rows], self.time[rows], self.status[rows],
                            {n: c[rows] for n, c in self.covariates.items()},
                            None if self.group is None else self.group[rows])


def as_survival_data(survival, covariate_names=()):
    """SurvivalData from a list of SurvivalRecord (validated and sorted by
    id), with a float column for each named time-fixed covariate and the
    group labels when any record has one; a SurvivalData is returned
    unchanged."""
    if isinstance(survival, SurvivalData):
        return survival
    if not survival:
        raise InvalidInput("no records")
    ids = [r.id for r in survival]
    if len(set(ids)) != len(ids):
        raise InvalidInput("duplicate subject ids")
    try:
        recs = sorted(survival, key=lambda r: r.id)
    except TypeError:
        raise InvalidInput("subject ids must be mutually orderable") from None
    time = np.array([r.time for r in recs], dtype=float)
    status = np.array([r.status for r in recs], dtype=np.int64)
    if np.any(time < 0) or not np.all(np.isfinite(time)):
        raise InvalidInput("times must be finite and nonnegative")
    if not np.all((status == 0) | (status == 1)):
        raise InvalidInput("status must be 0 or 1")
    covariates = {n: np.array([r.covariates.get(n, np.nan) for r in recs],
                              dtype=float) for n in covariate_names}
    group = None
    if any(r.group is not None for r in recs):
        group = _objects(r.group for r in recs)
    return SurvivalData(_objects(r.id for r in recs), time, status, covariates,
                        group)


def _objects(items):
    """1-D object array of the items."""
    items = list(items)
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out


@dataclass(frozen=True)
class StepSurvivalCurve:
    """Right-continuous product-limit estimate with risk/event counts.

    ``start`` is the time origin (survival is 1 on [start, t_1)); ``last_observed``
    is the largest observed time among the subjects the curve was fitted on,
    beyond which the estimate is undefined unless survival has reached zero.
    """

    event_times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray
    start: float
    last_observed: float
    n_at_risk: int

    def survival_at(self, t):
        """S(t) for t >= start (right-continuous step lookup)."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.event_times, t, side="right")
        vals = np.concatenate(([1.0], self.survival))
        return vals[idx] if t.ndim else float(vals[idx])

    def integral(self, a, b, extend_tail=False):
        """Integral of the step function over [a, b], a >= start.

        Raises TailUndefined when b exceeds the last observed time while
        survival is still positive there, unless ``extend_tail``.
        """
        if b <= a:
            return 0.0
        if b > self.last_observed and not extend_tail:
            tail_surv = self.survival[-1] if self.event_times.size else 1.0
            if tail_surv > 0.0:
                raise TailUndefined(
                    f"curve support ends at {self.last_observed} with survival "
                    f"{tail_surv:.6g} > 0; cannot integrate to {b} "
                    f"(pass extend_tail=True to carry the curve forward)"
                )
        knots = np.concatenate(([a], np.clip(self.event_times, a, b), [b]))
        vals = np.concatenate(([1.0], self.survival))
        # value on [knots[k], knots[k+1]) is vals[k'] for the matching step
        steps = np.searchsorted(self.event_times, knots[:-1], side="right")
        return float(np.sum(vals[steps] * np.diff(knots)))


@dataclass(frozen=True)
class CRmstEstimate:
    s: float
    w: float
    value: float
    variance: float | None
    n_at_risk: int


@dataclass(frozen=True)
class PseudoObservationSet:
    """Per-subject jackknife pseudo-values of the cRMST at (s, w),
    ordered by ascending subject id."""

    s: float
    w: float
    entries: tuple  # of (subject id, pseudo-value)

    def values(self):
        return np.array([v for _, v in self.entries], dtype=float)

    def ids(self):
        return [i for i, _ in self.entries]


@dataclass(frozen=True)
class CRmstdTestResult:
    delta: float
    se: float
    z: float
    p_value: float
    ci_lower: float
    ci_upper: float
    alpha: float
    s: float
    w: float


def km_fit(records, start=0.0):
    """Product-limit curve over distinct event times > start, fitted on the
    risk set {i : Y_i > start} with S(start) := 1 (restart convention)."""
    data = as_survival_data(records)
    at_risk = data.time > start
    return _km_curve(data.time[at_risk], data.status[at_risk], start)


def _km_curve(t, d, start):
    n = t.size
    if n == 0:
        raise EmptyRiskSet(f"no subjects at risk after t={start}")
    ut, dk = np.unique(t[d == 1], return_counts=True)
    t_sorted = np.sort(t)
    yk = n - np.searchsorted(t_sorted, ut, side="left")
    surv = np.cumprod(1.0 - dk / yk)
    return StepSurvivalCurve(
        event_times=ut,
        survival=surv,
        at_risk=yk.astype(np.int64),
        events=dk.astype(np.int64),
        start=float(start),
        last_observed=float(t.max()),
        n_at_risk=int(n),
    )


def crmst_km(records, s, w, extend_tail=False):
    """cRMST by restarting the Kaplan-Meier estimator on the risk set at s."""
    _check_window(s, w)
    curve = km_fit(records, start=s)
    if curve.n_at_risk < 2:
        raise EmptyRiskSet(f"risk set at s={s} has {curve.n_at_risk} subject(s)")
    value = curve.integral(s, s + w, extend_tail=extend_tail)
    return CRmstEstimate(s=float(s), w=float(w), value=value, variance=None,
                         n_at_risk=curve.n_at_risk)


def crmst_km_ratio(records, s, w, extend_tail=False):
    """cRMST via the full-sample curve: integral_s^{s+w} S(t)dt / S(s).

    Algebraically identical to the restart route; kept as the second route
    of the equivalence invariant.
    """
    _check_window(s, w)
    data = as_survival_data(records)
    n_s = int(np.sum(data.time > s))
    if n_s < 2:
        raise EmptyRiskSet(f"risk set at s={s} has {n_s} subject(s)")
    curve = km_fit(data, start=0.0)
    s_at = curve.survival_at(s)
    value = curve.integral(s, s + w, extend_tail=extend_tail) / s_at
    return CRmstEstimate(s=float(s), w=float(w), value=value, variance=None,
                         n_at_risk=n_s)


def pseudo_observations(records, s, w, extend_tail=False):
    """Leave-one-out pseudo-values mu_i(s, w) = N_s * mu_KM - (N_s - 1) * mu_KM^{-i}
    for every member of the risk set at s."""
    data = as_survival_data(records)
    at_risk, pv = risk_set_pseudo(data.time, data.status, s, w, extend_tail)
    return PseudoObservationSet(s=float(s), w=float(w),
                                entries=tuple(zip(data.ids[at_risk].tolist(),
                                                  pv.tolist())))


def risk_set_pseudo(time, status, s, w, extend_tail=False):
    """Pseudo-values on the risk set {i : time_i > s} of id-sorted columns:
    returns (at-risk mask, pseudo-values of the at-risk subjects in order)."""
    _, error = _first_failing_window(time, status, s, w, extend_tail)
    if error is not None:
        raise error
    at_risk = time > s
    return at_risk, _kernels.jackknife_pseudo(time[at_risk], status[at_risk],
                                              float(s), float(w))


def _check_risk_set(size, s):
    """EmptyRiskSet unless the risk set at s has at least two subjects."""
    if size < 2:
        raise EmptyRiskSet(f"risk set at s={s} has {size} subject(s)")


def _first_failing_window(time, status, s, w, extend_tail=False):
    """(j, error): the first window (s_j, w_j) whose pseudo-values are
    undefined and the error that says why, or (number of windows, None).
    ``s`` and ``w`` are scalars or sequences, broadcast together, and the
    error names its window by the caller's own values.  Within a window the
    checks come in this order: the window itself, a risk set of fewer than
    two subjects, then, unless ``extend_tail``, a risk-set curve that ends
    before s + w with survival above zero.  The window checks run first,
    so the risk sets are looked at only before the first invalid window."""
    s_all, w_all = np.broadcast_arrays(np.asarray(s, dtype=float),
                                       np.asarray(w, dtype=float))
    valid = _valid_window(s_all.ravel(), w_all.ravel())
    n_valid = valid.size if valid.all() else int(np.argmin(valid))
    s_ok, w_ok = s_all.ravel()[:n_valid], w_all.ravel()[:n_valid]
    n_at = (time[:, None] > s_ok).sum(axis=0)
    fails = n_at < 2
    # the tail policy is enforced on the full risk-set curve, whose survival
    # reaches 0 exactly when every subject at the last time is an event; a
    # risk set of two or more holds the largest time, so its curve ends
    # there.  Leave-one-out curves are always carried forward.
    last = time.max(initial=-np.inf)
    if not extend_tail and np.any(status[time == last] == 0):
        fails |= s_ok + w_ok > last
    j = int(np.argmax(fails)) if fails.any() else n_valid
    if j == valid.size:
        return j, None
    s_j = s if np.ndim(s) == 0 else s[j]
    w_j = w if np.ndim(w) == 0 else w[j]
    if j == n_valid:
        return j, InvalidInput(
            f"invalid prediction time/window (s={s_j}, w={w_j})")
    if n_at[j] < 2:
        return j, EmptyRiskSet(f"risk set at s={s_j} has {n_at[j]} subject(s)")
    return j, TailUndefined(
        f"risk-set curve at s={s_j} ends at {last} with survival > 0; "
        f"cannot integrate to {s_j + w_j} (pass extend_tail=True to carry "
        f"the curve forward)")


def crmst_pseudo(records, s, w, extend_tail=False):
    """Pseudo-observation estimator: mean of the pseudo-values, with the
    jackknife variance sum (mu_i - mu)^2 / (N_s (N_s - 1))."""
    pset = pseudo_observations(records, s, w, extend_tail=extend_tail)
    return _estimate_from_pseudo(pset)


def _estimate_from_pseudo(pset):
    v = pset.values()
    mu, var = _jackknife_moments(v)
    return CRmstEstimate(s=pset.s, w=pset.w, value=mu, variance=var,
                         n_at_risk=v.size)


def _jackknife_moments(v):
    """(mean, jackknife variance of the mean) of the pseudo-values ``v``."""
    n = v.size
    mu = float(np.sum(v) / n)
    return mu, float(np.sum((v - mu) ** 2) / (n * (n - 1)))


def _difference(mu0, var0, mu1, var1):
    """(mu1 - mu0, its standard error) from two independent estimates."""
    return mu1 - mu0, float(np.sqrt(var0 + var1))


def crmstd_test(group0, group1, s, w, alpha=0.05, extend_tail=False):
    """Two-sided test of mu_1(s, w) - mu_0(s, w) = 0 with normal reference."""
    if not 0.0 < alpha < 1.0:
        raise InvalidInput("alpha must be in (0, 1)")
    est0 = crmst_pseudo(group0, s, w, extend_tail=extend_tail)
    est1 = crmst_pseudo(group1, s, w, extend_tail=extend_tail)
    delta, se = _difference(est0.value, est0.variance, est1.value,
                            est1.variance)
    if se == 0.0:
        z = 0.0 if delta == 0.0 else float(np.sign(delta)) * np.inf
    else:
        z = delta / se
    # the normal tail and quantile, without the scipy.stats distribution
    # object (norm.sf is ndtr(-x) and norm.ppf is ndtri)
    p = float(2.0 * special.ndtr(-abs(z)))
    zq = float(special.ndtri(1.0 - alpha / 2.0))
    return CRmstdTestResult(
        delta=delta, se=se, z=z, p_value=p,
        ci_lower=delta - zq * se, ci_upper=delta + zq * se,
        alpha=float(alpha), s=float(s), w=float(w),
    )


def _valid_window(s, w):
    """Whether each window (s, w) is one: s >= 0 and w > 0, both finite."""
    return (s >= 0) & (w > 0) & np.isfinite(s) & np.isfinite(w)


def _check_window(s, w):
    if not _valid_window(s, w):
        raise InvalidInput(f"invalid prediction time/window (s={s}, w={w})")
