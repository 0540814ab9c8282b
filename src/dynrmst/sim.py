"""Generative models and Monte Carlo harnesses.

Two data-generating families: two-arm piecewise-exponential designs with
uniform censoring (for the cRMSTd test), and a longitudinal-survival joint
model with a Weibull baseline whose log-hazard is linear or quadratic in
time per subject (for the dynamic landmark model).  Harnesses compute the
usual calibration metrics (bias, RMSE, Rel SE, CP, rejection rate) over
independent replicates.

Determinism: every replicate draws from its own
``SeedSequence(entropy=master_seed, spawn_key=(1, rep))`` stream, so results
are bitwise identical for any worker count.  The population draw of
``coefficient_mc`` uses ``spawn_key=(0,)``.  Replicates and that
population fit run numpy's bundled OpenBLAS on one thread, so results do
not depend on the number of cores either.  The process that starts a
worker pool takes that pin once, around the whole pool: forked workers
inherit one BLAS thread, and a worker never calls the OpenBLAS setter when
it already has one thread (see ``_blas``).  Joint-model draws do not depend
on how many subjects one working array holds (``_TABLE_CELLS``): every
hazard integral sums each panel's Gauss-Legendre nodes on its own, never
through a BLAS product whose last bit depends on a subject's row.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate, optimize, special

from . import _kernels
from ._blas import _one_blas_thread, _one_blas_thread_in_worker
from .errors import InvalidInput, NoConvergence
from .evaluate import evaluate_on_validation
from .gee import IDENTITY, _sandwich, _solve_super, fit_super_model
from .landmark import LongitudinalRecord, MarkerTable, build_super_dataset
from .surv import (SurvivalData, SurvivalRecord, _check_risk_set,
                   _check_window, _difference, _jackknife_moments)

__all__ = [
    "ScenarioSpec",
    "JointModelSpec",
    "JointTruth",
    "JointSample",
    "MetricsReport",
    "CoefficientMCResult",
    "PredictionRow",
    "scenario_spec",
    "simulate_scenario",
    "true_crmstd",
    "joint_spec",
    "simulate_joint",
    "calibrate_joint_censoring",
    "mc_metrics",
    "scenario_mc",
    "coefficient_mc",
    "prediction_experiment",
]

# composite Gauss-Legendre rule used for all hazard quadrature
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# panels over the follow-up window for cumulative-hazard tabulation
HAZARD_PANELS = 160
# panels (even, for Simpson) when integrating survival for true cRMST values
SURVIVAL_PANELS = 128
# hazard nodes in one working array (subjects x nodes), about 2 MB of floats
_TABLE_CELLS = 1 << 18
# panels tabulated at a time by the event-time bracket search
_BRACKET_PANELS = 8
INVERSION_TOL = 1e-12
INVERSION_MAX_ITER = 200


def _rng_of(seed):
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _rep_rng(master_seed, rep):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(1, rep))
    )


# ---------------------------------------------------------------------------
# two-arm piecewise-exponential designs


@dataclass(frozen=True)
class ScenarioSpec:
    """Two-arm design: exponential control, treatment via a piecewise-constant
    hazard ratio, independent uniform censoring per arm.

    ``hr_pieces`` is ((start_0, hr_0), (start_1, hr_1), ...) with start_0 = 0;
    each hazard ratio applies from its start time to the next.  ``censor_a``
    and ``censor_b`` are the U(0, .) upper bounds for the control and
    treatment arms (None = no censoring in that arm).
    """

    control_median: float
    hr_pieces: tuple
    censor_a: float | None
    censor_b: float | None
    n_per_arm: int

    def __post_init__(self):
        if self.control_median <= 0:
            raise InvalidInput("control_median must be positive")
        if self.n_per_arm < 2:
            raise InvalidInput("n_per_arm must be at least 2")
        pieces = tuple((float(a), float(h)) for a, h in self.hr_pieces)
        object.__setattr__(self, "hr_pieces", pieces)
        starts = [a for a, _ in pieces]
        if not pieces or pieces[0][0] != 0.0 or starts != sorted(set(starts)):
            raise InvalidInput("hr_pieces must start at 0 with increasing starts")
        if any(h <= 0 for _, h in pieces):
            raise InvalidInput("hazard ratios must be positive")
        for bound in (self.censor_a, self.censor_b):
            if bound is not None and bound <= 0:
                raise InvalidInput("censoring bounds must be positive")
        # each arm's (breaks, rates, cumulative hazard at the breaks), which
        # every inverse-transform draw reads
        object.__setattr__(self, "_arm_tables", tuple(
            (b, r, _pw_cum_at_breaks(b, r))
            for b, r in map(self.arm_hazard, (0, 1))))

    @property
    def control_rate(self):
        return np.log(2.0) / self.control_median

    def arm_hazard(self, arm):
        """(breaks, rates) of the piecewise-constant hazard for arm 0/1."""
        r = self.control_rate
        if arm == 0:
            return np.array([0.0]), np.array([r])
        breaks = np.array([a for a, _ in self.hr_pieces])
        rates = np.array([r * h for _, h in self.hr_pieces])
        return breaks, rates


def _pw_cum_at_breaks(breaks, rates):
    gaps = np.diff(breaks)
    return np.concatenate(([0.0], np.cumsum(rates[:-1] * gaps)))


def _pw_invert(breaks, rates, cum, e):
    """t with cumulative hazard(t) = e, for piecewise-constant rates with
    cumulative hazard ``cum`` at the breaks."""
    j = np.searchsorted(cum, e, side="right") - 1
    return breaks[j] + (e - cum[j]) / rates[j]


def _pw_surv_integral(breaks, rates, a, b):
    """Closed-form integral of exp(-cumhaz) over [a, b]."""
    if b <= a:
        return 0.0
    cum = _pw_cum_at_breaks(breaks, rates)
    total = 0.0
    edges = np.concatenate((breaks, [np.inf]))
    for j, r in enumerate(rates):
        lo, hi = max(a, edges[j]), min(b, edges[j + 1])
        if hi <= lo:
            continue
        s_lo = np.exp(-(cum[j] + r * (lo - breaks[j])))
        total += s_lo * (1.0 - np.exp(-r * (hi - lo))) / r
    return total


def _censor_bound_for(breaks, rates, target):
    """U(0, a) upper bound giving censoring probability ``target`` against the
    piecewise-exponential event distribution (closed form, no pilot draws)."""

    def rate(upper):
        return _pw_surv_integral(breaks, rates, 0.0, upper) / upper - target

    return float(optimize.brentq(rate, 1e-8, 1e8, xtol=1e-10))


_SCENARIO_PIECES = {
    1: ((0.0, 1.0),),
    2: ((0.0, 0.67),),
    3: ((0.0, 0.1), (5.0, 0.67), (15.0, 1.0)),
    4: ((0.0, 1.0), (10.0, 0.33)),
}


def scenario_spec(number, n_per_arm, censor_target=0.0, control_median=10.0):
    """Benchmark designs 1-4: no effect; constant HR 0.67; early-then-fading
    effect (0.1 / 0.67 / 1.0 switching at 5 and 15); delayed effect (1.0
    before 10, 0.33 after).  ``censor_target`` is the per-arm censoring
    fraction, hit exactly in expectation via closed-form calibration."""
    if number not in _SCENARIO_PIECES:
        raise InvalidInput(f"unknown scenario {number}")
    if not 0.0 <= censor_target < 1.0:
        raise InvalidInput("censor_target must be in [0, 1)")
    spec = ScenarioSpec(control_median=float(control_median),
                        hr_pieces=_SCENARIO_PIECES[number],
                        censor_a=None, censor_b=None, n_per_arm=int(n_per_arm))
    if censor_target > 0.0:
        a = _censor_bound_for(*spec.arm_hazard(0), censor_target)
        b = _censor_bound_for(*spec.arm_hazard(1), censor_target)
        spec = replace(spec, censor_a=a, censor_b=b)
    return spec


def _draw_arms(spec, rngs):
    """(time, status) arrays of the control arm, then the treatment arm,
    with one row of ``n_per_arm`` subjects per generator.  Each generator
    draws its control arm's event times and censoring times, then its
    treatment arm's; the draws are then transformed all at once."""
    bounds = (spec.censor_a, spec.censor_b)
    n = spec.n_per_arm
    e = np.empty((2, len(rngs), n))
    c = np.empty_like(e)
    for row, rng in enumerate(rngs):
        for arm, bound in enumerate(bounds):
            e[arm, row] = rng.exponential(size=n)
            if bound is not None:
                c[arm, row] = rng.uniform(0.0, bound, size=n)
    arms = []
    for arm, (table, bound) in enumerate(zip(spec._arm_tables, bounds)):
        t = _pw_invert(*table, e[arm])
        if bound is None:
            arms.append((t, np.ones(t.shape, dtype=np.int64)))
        else:
            arms.append((np.minimum(t, c[arm]), (t < c[arm]).astype(np.int64)))
    return arms


def simulate_scenario(spec, seed):
    """One dataset: (control records, treatment records), ids 'c<i>'/'t<i>'."""
    out = []
    for arm, (y, d) in enumerate(_draw_arms(spec, [_rng_of(seed)])):
        out.append([
            SurvivalRecord(id=f"{'ct'[arm]}{i:06d}", time=float(y[0, i]),
                           status=int(d[0, i]), group=arm)
            for i in range(spec.n_per_arm)
        ])
    return out[0], out[1]


def _true_crmst_arm(spec, arm, s, w):
    breaks, rates = spec.arm_hazard(arm)
    cum = _pw_cum_at_breaks(breaks, rates)
    j = np.searchsorted(breaks, s, side="right") - 1
    s_at = np.exp(-(cum[j] + rates[j] * (s - breaks[j])))
    return _pw_surv_integral(breaks, rates, s, s + w) / s_at


def true_crmstd(spec, s, w, method="monte_carlo", n_draws=1_000_000, seed=0):
    """Population cRMST difference (treatment minus control).

    ``monte_carlo`` averages min(T - s, w) over survivors at s from uncensored
    draws; ``closed_form`` integrates the piecewise-exponential survival
    functions exactly.
    """
    if method == "closed_form":
        return _true_crmst_arm(spec, 1, s, w) - _true_crmst_arm(spec, 0, s, w)
    if method != "monte_carlo":
        raise InvalidInput(f"unknown method {method!r}")
    rng = _rng_of(seed)
    mus = []
    for table in spec._arm_tables:
        t = _pw_invert(*table, rng.exponential(size=int(n_draws)))
        alive = t > s
        mus.append(float(np.mean(np.minimum(t[alive] - s, w))))
    return mus[1] - mus[0]


# ---------------------------------------------------------------------------
# longitudinal-survival joint model


@dataclass(frozen=True)
class JointModelSpec:
    """Weibull-baseline hazard linked to a per-subject biomarker trajectory.

    The trajectory is m_i(t) = (beta0 + b0) + (beta_t + b1) t [+ (beta_t2 +
    b2) t^2] + beta_x1 X1 + beta_x2 X2 with b ~ N(0, re_cov); the hazard is
    lam t^(lam-1) exp(eta + gamma1 X1 + gamma2 X2 + alpha m_i(t)).  Visits:
    one at t = 0 plus max_visits - 1 uniform on (0, max_followup), sorted and
    truncated at the observed time; measurements add N(0, error_sd^2) noise.
    """

    trajectory: str
    beta0: float
    beta_t: float
    beta_t2: float
    beta_x1: float
    beta_x2: float
    re_cov: tuple
    error_sd: float
    weibull_shape: float
    weibull_log_scale: float
    gamma1: float
    gamma2: float
    alpha: float
    x1_prob: float = 0.5
    x2_mean: float = 1.0
    x2_sd: float = 1.0
    max_visits: int = 10
    max_followup: float = 20.0
    censor_upper: float | None = None

    def __post_init__(self):
        if self.trajectory not in ("linear", "quadratic"):
            raise InvalidInput(f"unknown trajectory {self.trajectory!r}")
        d = np.array(self.re_cov, dtype=float)
        k = 3 if self.trajectory == "quadratic" else 2
        if d.shape != (k, k) or not np.allclose(d, d.T):
            raise InvalidInput(f"re_cov must be a symmetric {k}x{k} matrix")
        try:
            np.linalg.cholesky(d)
        except np.linalg.LinAlgError:
            raise InvalidInput("re_cov must be positive definite") from None
        object.__setattr__(self, "re_cov", tuple(map(tuple, d)))
        if self.weibull_shape <= 0 or self.error_sd <= 0:
            raise InvalidInput("weibull_shape and error_sd must be positive")
        if self.max_followup <= 0 or self.max_visits < 1:
            raise InvalidInput("max_followup/max_visits out of range")
        if self.censor_upper is not None and self.censor_upper <= 0:
            raise InvalidInput("censor_upper must be positive")


# off-diagonals of the random-effects covariances are correlations scaled by
# the marginal standard deviations (0.5 between intercept and slope in the
# linear model; 0.1 between every pair in the quadratic model)
_LINEAR_RE_COV = ((1.0, 0.1), (0.1, 0.04))
_QUADRATIC_RE_COV = (
    (1.0, 0.06, 0.005),
    (0.06, 0.36, 0.003),
    (0.005, 0.003, 0.0025),
)


def joint_spec(trajectory="linear", censor_upper=None, alpha=1.0):
    """Reference parameterization of the joint model (linear or quadratic
    trajectory); ``alpha`` scales the biomarker's effect on the hazard."""
    if trajectory == "linear":
        beta0, beta_t2, re_cov = 3.0, 0.0, _LINEAR_RE_COV
    elif trajectory == "quadratic":
        beta0, beta_t2, re_cov = 0.5, 0.1, _QUADRATIC_RE_COV
    else:
        raise InvalidInput(f"unknown trajectory {trajectory!r}")
    return JointModelSpec(
        trajectory=trajectory, beta0=beta0, beta_t=-0.2, beta_t2=beta_t2,
        beta_x1=1.0, beta_x2=-1.0, re_cov=re_cov, error_sd=float(np.sqrt(0.5)),
        weibull_shape=3.0, weibull_log_scale=-6.0, gamma1=1.0, gamma2=-1.0,
        alpha=float(alpha), censor_upper=censor_upper,
    )


@dataclass(frozen=True)
class JointTruth:
    """Per-subject hazard coefficients: h_i(t) = lam t^(lam-1)
    exp(c0 + c1 t + c2 t^2).  Everything the true conditional cRMST needs."""

    lam: float
    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray

    def subset(self, idx):
        return JointTruth(self.lam, self.c0[idx], self.c1[idx], self.c2[idx])

    def _hazard(self, t):
        """Hazard values -> (n, m) at times t shared by all subjects (m,) or
        per subject (n, m); the hazard is zero at t <= 0.

        The values are built in one (n, m) buffer: the exponent c1 t, plus
        c0, plus (c2 t) t, then its exp in place, then the factor
        lam t^(lam-1) (zero at t <= 0), which has the shape of t.  These
        are the sums and products of lam t^(lam-1) exp(c0 + c1 t + c2 t t)
        with their operands swapped, so every value is the same to the
        bit.  When every c2 is zero (the linear trajectory) the quadratic
        term is skipped: adding (0 t) t changes no exponent's exp.
        """
        positive = t > 0
        base = self.lam * np.where(positive, t, 1.0) ** (self.lam - 1.0)
        out = self.c1[:, None] * t
        out += self.c0[:, None]
        if self.c2.any():
            out += (self.c2[:, None] * t) * t
        np.exp(out, out=out)
        out *= np.where(positive, base, 0.0)
        return out

    def _cum_increments(self, left, right):
        """Integral of the hazard over each panel [left_p, right_p] -> (n, P),
        for panel edges shared by all subjects (P,) or per subject (n, P).

        The 10-node Gauss-Legendre rule of each panel is summed along its own
        contiguous axis, so no subject's result depends on its row or on how
        many subjects are in the call.
        """
        mid = (left + right) / 2.0
        half = (right - left) / 2.0
        flat = left.shape[:-1] + (-1,)
        t = (mid[..., None] + half[..., None] * _GL_NODES).reshape(flat)
        wt = (half[..., None] * _GL_WEIGHTS).reshape(flat)
        hv = self._hazard(t)
        hv *= wt
        return hv.reshape(self.c0.size, left.shape[-1],
                          _GL_NODES.size).sum(axis=2)

    def cumulative_hazard(self, t, panels=HAZARD_PANELS):
        """H_i(t_i) for per-subject times t (scalar broadcast allowed), over
        ``panels`` equal panels of each [0, t_i]."""
        t = np.broadcast_to(np.asarray(t, dtype=float), self.c0.shape)
        u = np.linspace(0.0, 1.0, panels + 1)
        out = np.empty(self.c0.size)
        for lo, hi in _chunks(self.c0.size, panels * _GL_NODES.size):
            edges = t[lo:hi, None] * u
            out[lo:hi] = self.subset(slice(lo, hi))._cum_increments(
                edges[:, :-1], edges[:, 1:]).sum(axis=1)
        return out

    def true_crmst(self, s, w, panels=SURVIVAL_PANELS):
        """E(min(T - s, w) | T > s) per subject, for one window (s, w) -> (n,)
        or for arrays of windows (s_j, w_j) -> (n, J).

        All windows are read from one cumulative-hazard table per subject.
        Its breakpoints b_k are every s_j and s_j + w_j; each gap between
        them is cut into an even number of panels no wider than
        w_j / ``panels`` for the narrowest window j that covers it (a gap
        no window covers gets none), its hazard increments come from the
        Gauss-Legendre rule, and G_k is the composite Simpson integral of
        exp(-(H(t) - H(b_k))) over the gap.  A window is the sum of
        exp(-(H(b_k) - H(s_j))) G_k over its gaps, so a single window is
        Simpson on ``panels`` uniform panels over [s, s + w], and the table
        never has many more panels than the windows have in total.
        """
        s, w = np.broadcast_arrays(np.asarray(s, dtype=float),
                                   np.asarray(w, dtype=float))
        scalar = s.ndim == 0
        s, w = s.ravel(), w.ravel()
        if s.size == 0 or np.any(s < 0) or not np.all(w > 0):
            raise InvalidInput("need windows with s >= 0 and w > 0")
        bounds = np.unique(np.concatenate((s, s + w)))
        first = np.searchsorted(bounds, s)
        stop = np.searchsorted(bounds, s + w)
        cover = np.full(bounds.size - 1, np.inf)
        for a, b, w_j in zip(first, stop, w):
            cover[a:b] = np.minimum(cover[a:b], w_j)
        # panels per gap: even, and no wider than w_j / panels of the
        # narrowest covering window (the tolerance keeps a gap of exactly
        # that many panels from rounding up)
        per_gap = 2 * np.ceil(np.diff(bounds) * panels / (2.0 * cover)
                              - 1e-9).astype(np.int64)
        out = np.empty((self.c0.size, s.size))
        for lo, hi in _chunks(self.c0.size,
                              int(per_gap.sum() * _GL_NODES.size)):
            sub = self.subset(slice(lo, hi))
            gap_int = np.zeros((hi - lo, per_gap.size))
            gap_inc = np.zeros((hi - lo, per_gap.size))
            for m in np.unique(per_gap[per_gap > 0]):
                k = np.flatnonzero(per_gap == m)
                edges = np.linspace(bounds[k], bounds[k + 1], m + 1, axis=1)
                inc = sub._cum_increments(
                    edges[:, :-1].ravel(), edges[:, 1:].ravel()
                ).reshape(hi - lo, k.size, m)
                dh = np.concatenate(
                    [np.zeros((hi - lo, k.size, 1)), np.cumsum(inc, axis=2)],
                    axis=2)
                gap_int[:, k] = integrate.simpson(np.exp(-dh), x=edges[None],
                                                  axis=2)
                gap_inc[:, k] = dh[:, :, -1]
            h_b = np.concatenate([np.zeros((hi - lo, 1)),
                                  np.cumsum(gap_inc, axis=1)], axis=1)
            for j, (a, b) in enumerate(zip(first, stop)):
                out[lo:hi, j] = np.sum(np.exp(-(h_b[:, a:b] - h_b[:, a:a + 1]))
                                       * gap_int[:, a:b], axis=1)
        return out[:, 0] if scalar else out

    def true_rmst(self, tau, panels=SURVIVAL_PANELS):
        """E(min(T, tau)) per subject."""
        return self.true_crmst(0.0, tau, panels=panels)


def _chunks(n, nodes):
    """(lo, hi) subject ranges sized so that a working array of ``nodes``
    hazard nodes per subject holds at most ``_TABLE_CELLS`` values."""
    size = max(1, _TABLE_CELLS // nodes)
    for lo in range(0, n, size):
        yield lo, min(lo + size, n)


def _bracket_panels(truth, e, edges):
    """Panel k of ``edges`` whose cumulative hazard brackets e_i, per subject.

    Returns (k, H_i(edges[k]), has_event).  k is the first table index with
    H_i > e_i, minus one; a subject with H_i(edges[-1]) = e_i exactly has its
    event in the last panel, and one with H_i(edges[-1]) < e_i has none.
    The table is built ``_BRACKET_PANELS`` panels at a time, only for
    subjects whose running sum has not yet passed e_i.  The running sum is
    the first column of each block's cumsum, so every H value is bitwise
    what one cumsum over the full table gives.
    """
    n = e.size
    panels = edges.size - 1
    k = np.full(n, panels - 1)
    h_k = np.empty(n)
    live = np.arange(n)
    run = np.zeros(n)
    for p in range(0, panels, _BRACKET_PANELS):
        q = min(p + _BRACKET_PANELS, panels)
        inc = truth.subset(live)._cum_increments(edges[p:q], edges[p + 1:q + 1])
        cum = np.cumsum(np.concatenate([run[:, None], inc], axis=1), axis=1)
        above = cum > e[live, None]
        crossed = above[:, -1]
        # column 0 is the running sum, still <= e_i, so j >= 1
        j = np.argmax(above[crossed], axis=1)
        k[live[crossed]] = p + j - 1
        h_k[live[crossed]] = cum[crossed, j - 1]
        live, run, last = live[~crossed], cum[~crossed, -1], cum[~crossed, -2]
        if live.size == 0:
            break
    h_k[live] = last
    has_event = np.ones(n, dtype=bool)
    has_event[live] = run == e[live]
    return k, h_k, has_event


def _invert_event_times(truth, e, max_t):
    """Solve H_i(T) = e_i on [0, max_t] by bracketed Newton iteration.

    Returns (times, has_event); subjects with H_i(max_t) < e_i have no event
    inside follow-up.  Residual |H_i(T) - e_i| is driven below 1e-12.  The
    brackets come from ``_bracket_panels`` on ``HAZARD_PANELS`` panels and the
    Newton solve runs on the subjects with an event; both go in chunks within
    the ``_TABLE_CELLS`` budget, and the times do not depend on chunk size.
    """
    n = truth.c0.size
    edges = np.linspace(0.0, max_t, HAZARD_PANELS + 1)
    k = np.empty(n, dtype=np.int64)
    h_k = np.empty(n)
    has_event = np.empty(n, dtype=bool)
    for lo, hi in _chunks(n, _BRACKET_PANELS * _GL_NODES.size):
        k[lo:hi], h_k[lo:hi], has_event[lo:hi] = _bracket_panels(
            truth.subset(slice(lo, hi)), e[lo:hi], edges)
    times = np.full(n, np.inf)
    for lo, hi in _chunks(n, _GL_NODES.size):
        ev = lo + np.flatnonzero(has_event[lo:hi])
        if ev.size:
            times[ev] = _newton(truth.subset(ev), e[ev], edges, k[ev], h_k[ev])
    return times, has_event


def _newton(sub, ee, edges, k, h_anchor):
    """T_i in panel k_i with H_i(T_i) = e_i, given h_anchor = H_i(edges[k_i]).
    Each iteration evaluates only the rows not yet converged."""
    anchor = edges[k]
    blo, bhi = edges[k], edges[k + 1]
    t = (blo + bhi) / 2.0

    def residual(part, rows, tt):
        return (h_anchor[rows] + part._cum_increments(anchor[rows, None],
                                                      tt[:, None])[:, 0]
                - ee[rows])

    live = np.arange(t.size)
    f = residual(sub, live, t)
    for _ in range(INVERSION_MAX_ITER):
        live = live[~(np.abs(f[live]) <= INVERSION_TOL)]
        if live.size == 0:
            break
        part = sub.subset(live)
        tl, fl = t[live], f[live]
        hi = np.where(fl > 0, tl, bhi[live])
        lo = np.where(fl <= 0, tl, blo[live])
        # Newton step from the hazard at t, safeguarded by the bracket
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = tl - fl / part._hazard(tl[:, None])[:, 0]
        bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
        cand = np.where(bad, (lo + hi) / 2.0, cand)
        blo[live], bhi[live], t[live] = lo, hi, cand
        f[live] = residual(part, live, cand)
    worst = float(np.max(np.abs(f)))
    if worst > 1e-8:
        raise NoConvergence(INVERSION_MAX_ITER, worst)
    return t


@dataclass(frozen=True)
class JointSample:
    """Columnar joint-model draw: survival outcome, baseline covariates,
    NaN-padded visit matrices, and the truth handles for each subject."""

    spec: JointModelSpec
    ids: np.ndarray
    time: np.ndarray
    status: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    visit_times: np.ndarray
    visit_values: np.ndarray
    truth: JointTruth

    @property
    def n(self):
        return self.ids.size

    def columns(self):
        """(SurvivalData, MarkerTable) of the sample, built straight from its
        arrays (ids are ascending and visits sorted, so no reordering)."""
        surv = SurvivalData(self.ids, self.time, self.status,
                            {"x1": self.x1, "x2": self.x2})
        seen = ~np.isnan(self.visit_times)
        offsets = np.concatenate(([0], np.cumsum(seen.sum(axis=1))))
        markers = MarkerTable({JOINT_COVARIATES[2]: (
            self.visit_times[seen], self.visit_values[seen], offsets)},
            self.ids)
        return surv, markers

    def to_records(self):
        """(survival records, longitudinal records) for the list-based API."""
        surv = [SurvivalRecord(id=int(i), time=float(t), status=int(d),
                               covariates={"x1": float(a), "x2": float(b)})
                for i, t, d, a, b in zip(self.ids, self.time, self.status,
                                         self.x1, self.x2)]
        seen = ~np.isnan(self.visit_times)
        visits = zip(self.ids[np.nonzero(seen)[0]], self.visit_times[seen],
                     self.visit_values[seen])
        long = [LongitudinalRecord(id=int(i), obs_time=float(t),
                                   values={JOINT_COVARIATES[2]: float(v)})
                for i, t, v in visits]
        return surv, long


def simulate_joint(spec, n, seed):
    """Draw n subjects: covariates, random effects, event time by numerical
    inversion of the cumulative hazard, visit schedule and noisy biomarker
    measurements.  Returns a JointSample (see ``to_records``)."""
    rng = _rng_of(seed)
    n = int(n)
    x1 = (rng.random(n) < spec.x1_prob).astype(float)
    x2 = rng.normal(spec.x2_mean, spec.x2_sd, size=n)
    chol = np.linalg.cholesky(np.array(spec.re_cov))
    b = rng.standard_normal((n, chol.shape[0])) @ chol.T
    b2 = b[:, 2] if spec.trajectory == "quadratic" else np.zeros(n)

    # trajectory m_i(t) = traj0 + traj1 t + traj2 t^2
    traj0 = spec.beta0 + b[:, 0] + spec.beta_x1 * x1 + spec.beta_x2 * x2
    traj1 = spec.beta_t + b[:, 1]
    traj2 = spec.beta_t2 + b2
    truth = JointTruth(
        lam=float(spec.weibull_shape),
        c0=spec.weibull_log_scale + spec.gamma1 * x1 + spec.gamma2 * x2
        + spec.alpha * traj0,
        c1=spec.alpha * traj1,
        c2=spec.alpha * traj2,
    )

    e = rng.exponential(size=n)
    t_event, has_event = _invert_event_times(truth, e, spec.max_followup)

    vt = np.empty((n, spec.max_visits))
    vt[:, 0] = 0.0
    if spec.max_visits > 1:
        vt[:, 1:] = np.sort(rng.uniform(0.0, spec.max_followup,
                                        size=(n, spec.max_visits - 1)), axis=1)
    noise = rng.normal(0.0, spec.error_sd, size=vt.shape)

    if spec.censor_upper is not None:
        c = np.minimum(rng.uniform(0.0, spec.censor_upper, size=n),
                       spec.max_followup)
    else:
        c = np.full(n, spec.max_followup)
    y = np.where(has_event, np.minimum(t_event, c), c)
    d = (has_event & (t_event < c)).astype(np.int64)

    observed = vt <= y[:, None]
    values = (traj0[:, None] + traj1[:, None] * vt + traj2[:, None] * vt * vt
              + noise)
    vt = np.where(observed, vt, np.nan)
    values = np.where(observed, values, np.nan)

    return JointSample(spec=spec, ids=np.arange(n), time=y, status=d,
                       x1=x1, x2=x2, visit_times=vt, visit_values=values,
                       truth=truth)


def calibrate_joint_censoring(spec, target, pilot_n=100_000, seed=0):
    """U(0, a) upper bound whose expected censoring fraction (administrative
    censoring included) hits ``target``, from one pilot draw of event times."""
    if not 0.0 < target < 1.0:
        raise InvalidInput("target must be in (0, 1)")
    pilot = simulate_joint(replace(spec, censor_upper=None), pilot_n, seed)
    admin = pilot.status == 0
    t = pilot.time
    base = float(np.mean(admin))
    if base >= target:
        raise InvalidInput(
            f"administrative censoring alone is {base:.3f} >= target {target}"
        )

    def expected(a):
        # P(censored_i) = 1 for administratively censored pilots, min(T_i/a, 1)
        # otherwise (C < T with C ~ U(0, a))
        p = np.where(admin, 1.0, np.minimum(t / a, 1.0))
        return float(np.mean(p)) - target

    return float(optimize.brentq(expected, 1e-6, 1e9, xtol=1e-10))


# ---------------------------------------------------------------------------
# Monte Carlo metrics and harnesses


@dataclass(frozen=True)
class MetricsReport:
    """Replicate-level calibration summary for one scalar estimand."""

    n_reps: int
    truth: float
    mean_estimate: float
    bias: float
    rel_bias: float
    rmse: float
    empirical_se: float
    mean_model_se: float
    rel_se: float
    coverage: float
    rejection_rate: float
    alpha: float


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise InvalidInput("alpha must be in (0, 1)")


def _check_runs(reps, workers, least):
    """Reject replicate and worker counts before any replicate runs."""
    if reps < least:
        raise InvalidInput(f"reps must be at least {least}, got {reps}")
    if workers < 1:
        raise InvalidInput(f"workers must be at least 1, got {workers}")


def mc_metrics(estimates, variances, truth, alpha=0.05):
    """bias / relative bias / RMSE / Rel SE / CP / rejection rate over
    replicates; rel_bias is NaN when truth is exactly 0 (undefined ratio)."""
    _check_alpha(alpha)
    est = np.asarray(estimates, dtype=float)
    var = np.asarray(variances, dtype=float)
    if est.shape != var.shape or est.ndim != 1 or est.size < 2:
        raise InvalidInput("need aligned 1-d estimate/variance arrays, >= 2 reps")
    if np.any(var < 0):
        raise InvalidInput("negative variance")
    se = np.sqrt(var)
    zq = float(special.ndtri(1.0 - alpha / 2.0))  # stats.norm.ppf
    mean_est = float(np.mean(est))
    bias = mean_est - truth
    emp_se = float(np.std(est, ddof=1))
    mean_se = float(np.mean(se))
    with np.errstate(divide="ignore", invalid="ignore"):
        reject = np.abs(est) / se > zq
    return MetricsReport(
        n_reps=est.size,
        truth=float(truth),
        mean_estimate=mean_est,
        bias=float(bias),
        rel_bias=float(bias / truth) if truth != 0.0 else float("nan"),
        rmse=float(np.sqrt(np.mean((est - truth) ** 2))),
        empirical_se=emp_se,
        mean_model_se=mean_se,
        rel_se=emp_se / mean_se if mean_se > 0 else float("nan"),
        coverage=float(np.mean(np.abs(est - truth) <= zq * se)),
        rejection_rate=float(np.mean(reject)),
        alpha=float(alpha),
    )


def _replicate_chunk(payload):
    fn, args, seed, lo, hi = payload
    return fn(*args, [_rep_rng(seed, rep) for rep in range(lo, hi)])


def _each_stream(rep, *args):
    """Chunk function running ``rep(*args[:-1], rng)`` for each stream of
    the chunk, ``args[-1]``, one replicate at a time."""
    *args, rngs = args
    return [rep(*args, rng) for rng in rngs]


def _replicate(fn, args, reps, seed, workers=1):
    """Run the replicates in chunks over ``workers`` processes, one call
    ``fn(*args, rngs)`` per chunk: ``rngs`` holds the chunk's replicate
    streams in replicate order, and ``fn`` returns a list with one output
    per stream.  Returns one array per element of an output, stacked in
    replicate order.  BLAS runs on one thread, pinned here, before any
    worker starts."""
    size = max(1, -(-reps // max(1, workers * 4)))
    payloads = [(fn, args, seed, lo, min(lo + size, reps))
                for lo in range(0, reps, size)]
    with _one_blas_thread():
        if workers <= 1:
            chunks = [_replicate_chunk(p) for p in payloads]
        else:
            with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_one_blas_thread_in_worker) as pool:
                chunks = list(pool.map(_replicate_chunk, payloads))
    outputs = [out for chunk in chunks for out in chunk]
    return tuple(np.array(col) for col in zip(*outputs))


def _scenario_chunk(spec, s, w, rngs):
    """(delta, se**2) of the cRMSTd test with carried-forward tails, for
    each stream's replicate.  Each replicate's arms are drawn from its own
    stream; the risk sets of all the arms go through one jackknife call,
    and each arm's mean and variance are taken over its own slice, so each
    pair is bitwise what ``crmstd_test`` gives on that replicate's arms.
    Raises ``EmptyRiskSet`` at the first arm, in replicate order, with
    fewer than two subjects at risk."""
    _check_window(s, w)
    (y0, d0), (y1, d1) = _draw_arms(spec, rngs)
    # one row per arm, in replicate order: control, treatment, control, ...
    y = np.stack((y0, y1), axis=1).reshape(-1, spec.n_per_arm)
    d = np.stack((d0, d1), axis=1).reshape(-1, spec.n_per_arm)
    at_risk = y > s
    sizes = at_risk.sum(axis=1).tolist()
    for size in sizes:
        _check_risk_set(size, s)
    starts = np.concatenate(([0], np.cumsum(sizes))).tolist()
    pv = _kernels.jackknife_pseudo(y[at_risk], d[at_risk], float(s),
                                   float(w), starts[:-1])
    moments = [_jackknife_moments(pv[lo:hi])
               for lo, hi in zip(starts[:-1], starts[1:])]
    out = []
    for control, treated in zip(moments[::2], moments[1::2]):
        delta, se = _difference(*control, *treated)
        out.append((delta, se**2))
    return out


def scenario_mc(spec, s, w, reps, seed, alpha=0.05, workers=1):
    """Replicated cRMSTd tests on one design; truth from the closed form."""
    _check_alpha(alpha)
    _check_runs(reps, workers, 2)
    deltas, variances = _replicate(_scenario_chunk, (spec, s, w), reps,
                                   seed, workers)
    truth = true_crmstd(spec, s, w, method="closed_form")
    return mc_metrics(deltas, variances, truth, alpha=alpha)


# covariate order of the joint design: baseline x1, x2, current biomarker
JOINT_COVARIATES = ("x1", "x2", "marker")


def _joint_dataset(columns, grid, w):
    return build_super_dataset(*columns, grid, w,
                               covariate_names=JOINT_COVARIATES,
                               extend_tail=True)


def _coefficient_rep(spec, grid, w, layout, n_subjects, rng):
    data = _joint_dataset(simulate_joint(spec, n_subjects, rng).columns(),
                          grid, w)
    # the covariances of fit_super_model and of sandwich_cov's
    # naive_rowwise mode, from one set of blocks and one bread
    blocks, beta = _solve_super(data, layout)[:2]
    cov_cl, cov_nv = _sandwich(blocks, IDENTITY, beta, data.n_subjects,
                               with_rowwise=True)
    return beta, np.diag(cov_cl), np.diag(cov_nv)


@dataclass(frozen=True)
class CoefficientMCResult:
    """Per-coefficient calibration of the clustered vs rowwise sandwich,
    against the large-population fit as truth."""

    beta_true: np.ndarray
    clustered: tuple  # MetricsReport per coefficient
    rowwise: tuple
    n_reps: int


def coefficient_mc(spec, grid, w, layout, n_subjects=500, reps=1000,
                   pop_size=100_000, seed=0, alpha=0.05, workers=1):
    """Sandwich-calibration experiment: fit the landmark super-model on
    ``reps`` fresh datasets of ``n_subjects``, and compare both sandwich
    modes against the coefficient vector of one ``pop_size``-subject fit."""
    _check_alpha(alpha)
    _check_runs(reps, workers, 2)
    grid = tuple(float(s) for s in grid)
    pop_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    )
    population = simulate_joint(spec, pop_size, pop_rng)
    with _one_blas_thread():  # beta alone: the sandwich is never read
        beta_true = _solve_super(
            _joint_dataset(population.columns(), grid, w), layout)[1]

    betas, var_cl, var_nv = _replicate(
        _each_stream, (_coefficient_rep, spec, grid, w, layout, n_subjects),
        reps, seed, workers)

    clustered = tuple(mc_metrics(betas[:, j], var_cl[:, j], beta_true[j], alpha)
                      for j in range(layout.q))
    rowwise = tuple(mc_metrics(betas[:, j], var_nv[:, j], beta_true[j], alpha)
                    for j in range(layout.q))
    return CoefficientMCResult(beta_true=beta_true, clustered=clustered,
                               rowwise=rowwise, n_reps=reps)


def _prediction_rep(spec, grid, w, layout, n_train, n_val, rng):
    """One train/validate replicate scored by ``evaluate_on_validation``
    against the validation subjects' true values."""
    train = simulate_joint(spec, n_train, rng).columns()
    val = simulate_joint(spec, n_val, rng)
    fit = fit_super_model(_joint_dataset(train, grid, w), layout)
    rows = evaluate_on_validation(fit, *train, *val.columns(), extend_tail=True,
                                  truth=val.truth)
    # a None C-index or PE (fewer than two at risk, or no usable pair)
    # becomes NaN, which the means in prediction_experiment skip
    return tuple(np.array([getattr(r, k) for r in rows], dtype=float)
                 for k in ("c_index_dynamic", "c_index_static",
                           "pe_dynamic", "pe_static"))


@dataclass(frozen=True)
class PredictionRow:
    """Mean out-of-sample performance at one landmark, dynamic vs static
    baseline; each model is scored against the truth of its own estimand."""

    landmark: float
    c_index_dynamic: float
    c_index_static: float
    pe_dynamic: float
    pe_static: float
    n_reps: int


def prediction_experiment(spec, grid, w, layout, n_train=500, n_val=300,
                          reps=200, seed=0, workers=1):
    """Train/validate replicates comparing the dynamic landmark model with a
    static baseline-covariate RMST regression refit at each horizon s_j + w."""
    _check_runs(reps, workers, 1)
    grid = tuple(float(s) for s in grid)
    c_dyn, c_stat, pe_dyn, pe_stat = _replicate(
        _each_stream, (_prediction_rep, spec, grid, w, layout, n_train, n_val),
        reps, seed, workers)
    return tuple(PredictionRow(
        landmark=s_j,
        c_index_dynamic=float(np.nanmean(c_dyn[:, j])),
        c_index_static=float(np.nanmean(c_stat[:, j])),
        pe_dynamic=float(np.nanmean(pe_dyn[:, j])),
        pe_static=float(np.nanmean(pe_stat[:, j])),
        n_reps=reps,
    ) for j, s_j in enumerate(grid))
