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
not depend on the number of cores either.  ``workers`` counts the calling
process: a harness call starts ``workers - 1`` pool processes, runs chunks
of replicates in the caller beside them, and reaps them before it returns
or raises.  The workers claim chunk indices from the front of one shared
counter and the caller claims them from the back, so a worker that starts
late takes fewer chunks; each worker sends all its outcomes in one message
once no chunk is left, and the caller reads them after its own chunks.
The caller takes the BLAS pin once, around the whole pool and
its own chunks: forked workers inherit one BLAS thread, and a worker never
calls the OpenBLAS setter when it already has one thread (see ``_blas``).
Each worker sets its affinity to its allowed CPUs minus the one the caller
runs on when it starts the pool, unless that leaves none: a forked worker
starts on the caller's CPU, and a host whose cpuset has
``sched_load_balance`` 0 never moves it, so without this the worker and
the caller would take turns on one CPU.  The caller's affinity never
changes, and placement touches no arithmetic, so no result changes.
Joint-model draws do not depend on how many subjects one working array
holds (``_TABLE_CELLS``): every hazard integral sums each panel's
Gauss-Legendre nodes on its own, never through a BLAS product whose last
bit depends on a subject's row.  Every short-axis sum runs in numpy's
pairwise order along a C-contiguous last axis: ``_node_sums`` adds a
panel's nodes as whole columns in that order, and ``_arm_moments`` sums the
rows of one C-contiguous array per risk-set size, so both are bitwise the
one-row sums they replace.  A sum along a non-contiguous axis is not
pairwise: batching ``true_crmst``'s windows through a fancy-indexed
(subjects, windows, gaps) array moved truth cells by one ulp until
``np.ascontiguousarray`` restored the bits.

Event times come from inverting each subject's cumulative hazard.  A
closed-form bound U_i >= H_i(max_t) (``_event_bound``, on 20 coarse
panels) rules out every subject with U_i (1 + 1e-5) < e_i: it has no
event, and no hazard table is built for it.  The other subjects' tables
stop at the panel where their running sum passes e_i.  Since no subject's
event time depends on another's, the replicates of one chunk make all
their random draws first, from their own streams, and share one
inversion (``_joint_samples``).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import numbers
import pickle
import traceback
from dataclasses import dataclass, fields, replace

import numpy as np

from . import _kernels
from ._blas import _current_cpu, _one_blas_thread, _start_worker
from ._special import brentq, ndtri
from .errors import InvalidInput, NoConvergence
from .evaluate import evaluate_on_validation
from .gee import IDENTITY, _sandwich, _solve_super, _super_fit
from .landmark import MarkerTable, build_super_dataset
from .surv import (SurvivalData, _check_alpha, _check_finite, _check_risk_set,
                   _check_window, _difference, _objects, _valid_window)

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

# composite Gauss-Legendre rule of the event-time inversion and of
# ``cumulative_hazard``
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# the rule of ``true_crmst``'s hazard increments (see its docstring)
_TRUTH_NODES, _TRUTH_WEIGHTS = np.polynomial.legendre.leggauss(4)
# panels over the follow-up window for cumulative-hazard tabulation
HAZARD_PANELS = 160
# panels (even, for Simpson) when integrating survival for true cRMST values
SURVIVAL_PANELS = 128
# hazard nodes in one working array (subjects x nodes), about 2 MB of floats
_TABLE_CELLS = 1 << 18
# panels tabulated at a time by the event-time bracket search
_BRACKET_PANELS = 8
# coarse panels of the closed-form bound on H_i(max_t), and its relative
# slack (see ``_event_bound``)
_BOUND_PANELS = 20
_BOUND_SLACK = 1e-5
INVERSION_TOL = 1e-12
INVERSION_MAX_ITER = 200


def _check_size(n, least, name):
    """InvalidInput unless ``n`` is an integer of at least ``least``."""
    if not isinstance(n, numbers.Integral) or n < least:
        raise InvalidInput(f"{name} must be an integer >= {least}, got {n!r}")


def _check_fields(spec, positive):
    """InvalidInput naming the first field of ``spec`` that holds a number
    that is not finite, or one of the fields ``positive`` that is not
    positive (text, integer and None fields are skipped)."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if value is None or isinstance(value, (str, numbers.Integral)):
            continue
        if not np.isfinite(value).all():
            raise InvalidInput(f"{f.name} must be finite, got {value!r}")
        if f.name in positive and value <= 0:
            raise InvalidInput(f"{f.name} must be positive, got {value!r}")


def _rng_of(seed, *spawn_key):
    """The generator of a nonnegative integer ``seed``, or of its child
    ``spawn_key``; a Generator without a key is used as it is."""
    if isinstance(seed, np.random.Generator) and not spawn_key:
        return seed
    _check_size(seed, 0, "seed")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=spawn_key))


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
        _check_size(self.n_per_arm, 2, "n_per_arm")
        pieces = tuple((float(a), float(h)) for a, h in self.hr_pieces)
        object.__setattr__(self, "hr_pieces", pieces)
        _check_fields(self, ("control_median", "censor_a", "censor_b"))
        starts = [a for a, _ in pieces]
        if not pieces or pieces[0][0] != 0.0 or starts != sorted(set(starts)):
            raise InvalidInput("hr_pieces must start at 0 with increasing starts")
        if any(h <= 0 for _, h in pieces):
            raise InvalidInput("hazard ratios must be positive")
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


def _pw_surv_integral(breaks, rates, cum, a, b):
    """Integral of exp(-cumhaz) over [a, b]; ``cum`` is H at the breaks."""
    if b <= a:
        return 0.0
    total = 0.0
    edges = np.concatenate((breaks, [np.inf]))
    for j, r in enumerate(rates):
        lo, hi = max(a, edges[j]), min(b, edges[j + 1])
        if hi <= lo:
            continue
        s_lo = np.exp(-(cum[j] + r * (lo - breaks[j])))
        total += s_lo * (1.0 - np.exp(-r * (hi - lo))) / r
    return total


def _censor_bound_for(table, target):
    """U(0, a) upper bound giving censoring probability ``target`` against an
    arm's piecewise-exponential ``_arm_tables`` entry (no pilot draws)."""

    def rate(upper):
        return _pw_surv_integral(*table, 0.0, upper) / upper - target

    return _censor_root(rate, 1e-8, 1e8, target)


def _censor_root(excess, lo, hi, target):
    """The censoring bound in [lo, hi] where the decreasing ``excess`` (the
    censoring fraction minus ``target``) is zero."""
    if not excess(lo) > 0 > excess(hi):
        raise InvalidInput(f"censoring target {target} needs a censoring "
                           f"bound outside [{lo:g}, {hi:g}]")
    return float(brentq(excess, lo, hi, xtol=1e-10))


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
    fraction, hit in expectation by closed-form calibration, except near 1:
    ``_pw_surv_integral`` cancels on a short piece and the root search stops
    at 1e-10, so in design 1 the bound is off by 1.2e-5 (relative) at
    1 - 1e-6 and by 7% at 1 - 1e-8, and 1 - 1e-16 gives 1.01e-7, not 2.9e-15.
    """
    if number not in _SCENARIO_PIECES:
        raise InvalidInput(f"unknown scenario {number}")
    if not 0.0 <= censor_target < 1.0:
        raise InvalidInput("censor_target must be in [0, 1)")
    spec = ScenarioSpec(control_median=float(control_median),
                        hr_pieces=_SCENARIO_PIECES[number],
                        censor_a=None, censor_b=None, n_per_arm=n_per_arm)
    if censor_target > 0.0:
        a, b = (_censor_bound_for(t, censor_target) for t in spec._arm_tables)
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
    """One SurvivalData of both arms, split by ``data.subset(data.group ==
    arm)``: control ids 'c<i>' in group 0 and treatment ids 't<i>' in group
    1, i zero-padded to six digits; rows in ascending id order."""
    (y0, d0), (y1, d1) = _draw_arms(spec, [_rng_of(seed)])
    n = spec.n_per_arm
    ids = _objects(f"{arm}{i:06d}" for arm in "ct" for i in range(n))
    # draw order is id order up to 10^6 per arm ('c1000000' < 'c200000')
    rows = np.argsort(ids, kind="stable") if n > 10**6 else slice(None)
    return SurvivalData(ids[rows], np.concatenate((y0[0], y1[0]))[rows],
                        np.concatenate((d0[0], d1[0]))[rows],
                        group=np.repeat(np.arange(2), n)[rows])


def _true_crmst_arm(spec, arm, s, w):
    breaks, rates, cum = spec._arm_tables[arm]
    j = np.searchsorted(breaks, s, side="right") - 1
    s_at = np.exp(-(cum[j] + rates[j] * (s - breaks[j])))
    return _pw_surv_integral(breaks, rates, cum, s, s + w) / s_at


def true_crmstd(spec, s, w):
    """Population cRMST difference (treatment minus control), integrating
    the piecewise-exponential survival functions exactly."""
    _check_window(s, w)
    return _true_crmst_arm(spec, 1, s, w) - _true_crmst_arm(spec, 0, s, w)


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
        _check_size(self.max_visits, 1, "max_visits")
        _check_fields(self, ("error_sd", "weibull_shape", "max_followup",
                             "censor_upper"))
        d = np.array(self.re_cov, dtype=float)
        k = 3 if self.trajectory == "quadratic" else 2
        if d.shape != (k, k) or not np.allclose(d, d.T):
            raise InvalidInput(f"re_cov must be a symmetric {k}x{k} matrix")
        try:
            np.linalg.cholesky(d)
        except np.linalg.LinAlgError:
            raise InvalidInput("re_cov must be positive definite") from None
        object.__setattr__(self, "re_cov", tuple(map(tuple, d)))
        if self.x2_sd < 0:
            raise InvalidInput("x2_sd must be nonnegative")


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

    def _cum_increments(self, left, right, nodes=_GL_NODES,
                        weights=_GL_WEIGHTS):
        """Integral of the hazard over each panel [left_p, right_p] -> (n, P),
        for panel edges shared by all subjects (P,) or per subject (n, P).

        Each panel takes the Gauss-Legendre rule of ``nodes`` and
        ``weights`` on [-1, 1]: 10 nodes by default, the rule of the
        event-time inversion and ``cumulative_hazard``, and 4 nodes in
        ``true_crmst``.  The rule of each panel is summed in numpy's
        pairwise order (``_node_sums``), so no subject's result depends on
        its row or on how many subjects are in the call.
        """
        mid = (left + right) / 2.0
        half = (right - left) / 2.0
        flat = left.shape[:-1] + (-1,)
        t = (mid[..., None] + half[..., None] * nodes).reshape(flat)
        wt = (half[..., None] * weights).reshape(flat)
        hv = self._hazard(t)
        hv *= wt
        return _node_sums(hv.reshape(self.c0.size, left.shape[-1],
                                     nodes.size))

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
        4-node Gauss-Legendre rule ``_TRUTH_NODES`` on each panel, and G_k
        is the composite Simpson integral of exp(-(H(t) - H(b_k))) over the
        gap (``_simpson``, which pins the float operations of scipy 1.17's
        ``integrate.simpson``, so the truth does not depend on the installed
        scipy).  A window is the sum of exp(-(H(b_k) - H(s_j))) G_k over its
        gaps, so a single window is Simpson on ``panels`` uniform panels
        over [s, s + w], and the table never has many more panels than the
        windows have in total.  The windows from the first breakpoint (every
        RMST) sum prefixes of one product, as each would alone.  Against a
        16,384-panel reference on 1,000 subjects, the cells of subjects at
        risk at s (Y > s) are within 1.8e-5; the error reaches 1.18e-2 only
        where conditional survival falls within one panel, in cells of
        subjects not at risk, which ``evaluate_on_validation`` does not read.
        The 4-node rule is far inside that bound: on the windows of
        ``prediction_experiment``'s grid (0 to 10 by 0.5, w = 5), at the
        read cells of 300 subjects, it is within 5.3e-15 of the 10-node rule
        of the event-time inversion, in both trajectories.
        """
        s, w = np.broadcast_arrays(np.asarray(s, dtype=float),
                                   np.asarray(w, dtype=float))
        scalar = s.ndim == 0
        s, w = s.ravel(), w.ravel()
        if s.size == 0:
            raise InvalidInput("need at least one window")
        for j in np.flatnonzero(~_valid_window(s, w))[:1]:
            _check_window(s[j], w[j])  # names the first invalid window
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
        # windows from bound 0 (every RMST) sum prefixes of one product
        n_from_0 = stop[first == 0].max(initial=0)
        out = np.empty((self.c0.size, s.size))
        for lo, hi in _chunks(self.c0.size,
                              int(per_gap.sum() * _TRUTH_NODES.size)):
            sub = self.subset(slice(lo, hi))
            gap_int = np.zeros((hi - lo, per_gap.size))
            gap_inc = np.zeros((hi - lo, per_gap.size))
            for m in np.unique(per_gap[per_gap > 0]):
                k = np.flatnonzero(per_gap == m)
                edges = np.linspace(bounds[k], bounds[k + 1], m + 1, axis=1)
                inc = sub._cum_increments(
                    edges[:, :-1].ravel(), edges[:, 1:].ravel(),
                    _TRUTH_NODES, _TRUTH_WEIGHTS
                ).reshape(hi - lo, k.size, m)
                dh = np.concatenate(
                    [np.zeros((hi - lo, k.size, 1)), np.cumsum(inc, axis=2)],
                    axis=2)
                gap_int[:, k] = _simpson(np.exp(-dh), edges[None])
                gap_inc[:, k] = dh[:, :, -1]
            h_b = np.concatenate([np.zeros((hi - lo, 1)),
                                  np.cumsum(gap_inc, axis=1)], axis=1)
            # H(b_0) is 0, so H(b_k) - H(b_0) is H(b_k) itself
            from_0_terms = (np.exp(-h_b[:, :n_from_0])
                            * gap_int[:, :n_from_0])
            for j, (a, b) in enumerate(zip(first, stop)):
                if a == 0:
                    terms = from_0_terms[:, :b]
                else:
                    terms = (np.exp(-(h_b[:, a:b] - h_b[:, a:a + 1]))
                             * gap_int[:, a:b])
                out[lo:hi, j] = np.sum(terms, axis=1)
        return out[:, 0] if scalar else out


def _simpson(y, x):
    """Composite Simpson integral of y over its last axis, at the points x
    (broadcast against y; an odd number of them, spacing free).

    The float operations, their order and the zero-spacing guards are those
    of scipy 1.17's ``integrate.simpson(y, x=x, axis=-1)`` for an even
    number of panels, so the result is that call's, bit for bit.
    """
    h = np.diff(x, axis=-1)
    h0, h1 = h[..., 0::2], h[..., 1::2]
    hsum, hprod = h0 + h1, h0 * h1
    h0divh1 = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    inv = np.true_divide(1.0, h0divh1, out=np.zeros_like(h0divh1),
                         where=h0divh1 != 0)
    ratio = np.true_divide(hsum, hprod, out=np.zeros_like(hsum),
                           where=hprod != 0)
    return np.sum(hsum / 6.0 * (y[..., :-2:2] * (2.0 - inv)
                                + y[..., 1:-1:2] * (hsum * ratio)
                                + y[..., 2::2] * (2.0 - h0divh1)), axis=-1)


def _node_sums(a):
    """Sums over the last axis of ``a`` (length m <= 128), bit for bit what
    ``a.sum(axis=-1)`` gives on a C-contiguous array, with one whole-array
    add per element of a row rather than numpy's loop per short row.

    numpy reduces such a row from its identity 0.0 in pairwise order: below
    8 elements in sequence; from 8 up, eight accumulators take elements 0-7
    and then every eighth element, are combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the remainder is
    added in order.  Adding the 0.0 to the first element first changes only
    the sign of a zero sum, as adding it last does.
    """
    m = a.shape[-1]
    col = [a[..., j] for j in range(m)]
    if m < 8:
        out = col[0] + 0.0
        for c in col[1:]:
            out += c
        return out
    tail = m - m % 8
    r = col[:8]
    for i in range(8, tail, 8):
        r = [r_j + c for r_j, c in zip(r, col[i:i + 8])]
    out = r[0] + 0.0
    out += r[1]
    out += r[2] + r[3]
    upper = r[4] + r[5]
    upper += r[6] + r[7]
    out += upper
    for c in col[tail:]:
        out += c
    return out


def _chunks(n, nodes):
    """(lo, hi) subject ranges sized so that a working array of ``nodes``
    hazard nodes per subject holds at most ``_TABLE_CELLS`` values."""
    size = max(1, _TABLE_CELLS // nodes)
    for lo in range(0, n, size):
        yield lo, min(lo + size, n)


def _event_bound(truth, edges):
    """U_i >= the table's H_i(edges[-1]), per subject, in closed form.

    The bound's coarse panels [a, b] run between every
    (panels / ``_BOUND_PANELS``)-th edge of the table, so each table panel
    lies inside one of them.  For t >= 0 the exponent c0 + c1 t + c2 t^2 is
    at most c0 + max(c1 a, c1 b) + max(c2 a^2, c2 b^2) on [a, b], and the
    integral of lam t^(lam-1) over [a, b] is b^lam - a^lam, so U_i, the sum
    over coarse panels of (b^lam - a^lam) exp(that maximum), bounds the
    exact H_i(edges[-1]).

    The table is a Gauss-Legendre sum with positive weights, so it is at
    most the same sum with the rule's value of the integral of
    lam t^(lam-1) in place of b^lam - a^lam.  The two differ only by the
    rule's error.  On the ``HAZARD_PANELS`` = 160 panels of the table that
    error is none for integer lam up to 20, negative for lam < 1, and at
    most 1.23e-6 of the whole for lam in (0, 30] (its largest near
    lam = 1.09, nearly all of it from the first panel, where t^(lam-1) is
    not smooth).  U_i is that tight only when c1 and c2 are near 0, and
    the rounding of either sum is orders of magnitude smaller, so a subject
    with U_i (1 + ``_BOUND_SLACK``) < e_i, a slack of 1e-5, has
    H_i(edges[-1]) < e_i in the table too.  A slack of 1e-6 would not do.
    """
    panels = edges.size - 1
    a = edges[np.linspace(0, panels, min(panels, _BOUND_PANELS) + 1)
              .round().astype(np.int64)]
    lin = truth.c1[:, None] * a
    quad = (truth.c2[:, None] * a) * a
    top = (truth.c0[:, None] + np.maximum(lin[:, :-1], lin[:, 1:])
           + np.maximum(quad[:, :-1], quad[:, 1:]))
    # a bound that overflows to inf rules no subject out
    with np.errstate(over="ignore"):
        return np.exp(top) @ np.diff(a ** truth.lam)


def _bracket_panels(truth, e, edges):
    """Panel k of ``edges`` whose cumulative hazard brackets e_i, per subject.

    Returns (k, H_i(edges[k]), has_event), where k and H_i(edges[k]) hold
    only for the subjects with an event.  k is the first table index with
    H_i > e_i, minus one; a subject with H_i(edges[-1]) = e_i exactly has
    its event in the last panel, and one with H_i(edges[-1]) < e_i has none.

    A subject whose closed-form bound U_i (``_event_bound``) has
    U_i (1 + ``_BOUND_SLACK``) < e_i has no event and gets no table.  For
    the others the table is built ``_BRACKET_PANELS`` panels at a time,
    only for subjects whose running sum has not yet passed e_i.  The
    running sum is the first column of each block's cumsum, so every H
    value is bitwise what one cumsum over the full table gives, and every
    output is what the full table gives.
    """
    n = e.size
    panels = edges.size - 1
    k = np.full(n, panels - 1)
    h_k = np.full(n, np.nan)
    has_event = ~(_event_bound(truth, edges) * (1.0 + _BOUND_SLACK) < e)
    live = np.flatnonzero(has_event)
    run = last = np.zeros(live.size)
    for p in range(0, panels, _BRACKET_PANELS):
        if live.size == 0:
            break
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
    h_k[live] = last
    has_event[live] = run == e[live]
    return k, h_k, has_event


def _invert_event_times(truth, e, max_t):
    """Solve H_i(T) = e_i on [0, max_t] by bracketed Newton iteration.

    Returns (times, has_event); subjects with H_i(max_t) < e_i have no event
    inside follow-up.  Residual |H_i(T) - e_i| is driven below 1e-12.  The
    brackets come from ``_bracket_panels`` on ``HAZARD_PANELS`` panels: a
    subject whose closed-form bound U_i on H_i(max_t) has U_i (1 + 1e-5) <
    e_i is ruled out there, with no event and no table, and the others'
    tables stop where their running sum passes e_i.  The Newton solve runs
    on the subjects with an event.  Both go in chunks within the
    ``_TABLE_CELLS`` budget, and each subject's time depends neither on the
    chunk size nor on the other subjects of the call.
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
    """One joint-model draw, as the CSV readers return its data: ``survival``
    is a SurvivalData with ids 0..n-1 and the covariates x1 and x2,
    ``markers`` a MarkerTable of the same ids whose "marker" column holds
    each subject's visits up to its observed time, and ``truth`` the
    subjects' hazard coefficients."""

    spec: JointModelSpec
    survival: SurvivalData
    markers: MarkerTable
    truth: JointTruth

    @property
    def n(self):
        return self.survival.ids.size


def _joint_draws(spec, n, rng):
    """Every random draw of one n-subject sample, in stream order: x1, x2,
    the random effects b, the exponential draws e, the visit times, the
    measurement noise and the censoring times.  None depends on the event
    times."""
    x1 = (rng.random(n) < spec.x1_prob).astype(float)
    x2 = rng.normal(spec.x2_mean, spec.x2_sd, size=n)
    chol = np.linalg.cholesky(np.array(spec.re_cov))
    b = rng.standard_normal((n, chol.shape[0])) @ chol.T
    e = rng.exponential(size=n)
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
    return x1, x2, b, e, vt, noise, c


def _joint_samples(spec, draws):
    """One JointSample per (n, generator or seed) pair of ``draws``, in
    order; a generator listed twice draws its samples one after the other.

    Every sample makes its random draws first (``_joint_draws``), then one
    ``_invert_event_times`` call gives the event times of all of them, and
    the rest is built once over all subjects.  A subject's event time does
    not depend on the other subjects of the call, and every other step is
    elementwise, so each sample is bitwise what ``simulate_joint`` gives
    on its stream alone."""
    for n, _ in draws:
        _check_size(n, 1, "n")
    bounds = np.cumsum([0] + [n for n, _ in draws])
    parts = [_joint_draws(spec, n, _rng_of(rng)) for n, rng in draws]
    # one sample's arrays are used as they are, not copied
    x1, x2, b, e, vt, noise, c = (
        col[0] if len(col) == 1 else np.concatenate(col)
        for col in zip(*parts))
    del parts
    n = e.size
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
    t_event, has_event = _invert_event_times(truth, e, spec.max_followup)

    y = np.where(has_event, np.minimum(t_event, c), c)
    d = (has_event & (t_event < c)).astype(np.int64)
    observed = vt <= y[:, None]
    values = (traj0[:, None] + traj1[:, None] * vt + traj2[:, None] * vt * vt
              + noise)
    # the observed visits of all subjects in row order, subject i's at
    # rows[i]:rows[i + 1]
    vt, values = vt[observed], values[observed]
    rows = np.concatenate(([0], np.cumsum(observed.sum(axis=1))))
    samples = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ids, a, b = np.arange(hi - lo), rows[lo], rows[hi]
        survival = SurvivalData(ids, y[lo:hi], d[lo:hi],
                                {"x1": x1[lo:hi], "x2": x2[lo:hi]})
        markers = MarkerTable({"marker": (vt[a:b], values[a:b],
                                          rows[lo:hi + 1] - a)}, ids)
        samples.append(JointSample(spec, survival, markers,
                                   truth.subset(slice(lo, hi))))
    return samples


def simulate_joint(spec, n, seed):
    """Draw n >= 1 subjects from a nonnegative integer seed or a Generator:
    covariates, random effects, event time by numerical inversion of the
    cumulative hazard, visit schedule and noisy biomarker measurements.
    The JointSample's ``survival`` and ``markers`` go to
    ``build_super_dataset`` and the CSV writers as they are."""
    return _joint_samples(spec, [(n, seed)])[0]


def calibrate_joint_censoring(spec, target, pilot_n=100_000, seed=0):
    """U(0, a) upper bound whose expected censoring fraction (administrative
    censoring included) hits ``target``, from one pilot draw of event times."""
    if not 0.0 < target < 1.0:
        raise InvalidInput("target must be in (0, 1)")
    pilot = simulate_joint(replace(spec, censor_upper=None), pilot_n,
                           seed).survival
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

    return _censor_root(expected, 1e-6, 1e9, target)


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


def _check_runs(reps, workers, least, seed):
    """Reject replicate and worker counts and seeds before any replicate."""
    _check_size(reps, least, "reps")
    _check_size(workers, 1, "workers")
    _check_size(seed, 0, "seed")


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
    zq = ndtri(1.0 - alpha / 2.0)
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
    return fn(*args, [_rng_of(seed, 1, rep) for rep in range(lo, hi)])


def _outcome(payload):
    """(True, a chunk's output, None) or (False, its error, its traceback as
    text)."""
    try:
        return True, _replicate_chunk(payload), None
    except Exception as exc:
        return False, exc, traceback.format_exc()


def _picklable(outcome):
    """``outcome``, or the failed outcome of the error pickling it raises."""
    try:
        pickle.dumps(outcome)
    except Exception as exc:
        return False, exc, traceback.format_exc()
    return outcome


class _RemoteTraceback(Exception):
    """The traceback of a chunk's error in the pool worker that ran it,
    chained in the caller as that error's cause."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _claim(ends, lock, front, workers=()):
    """The next chunk index, taken from the front (a pool worker) or the
    back (the caller) of the shared counter ``ends`` = [first unclaimed,
    one past the last unclaimed], or None when every chunk is claimed.
    The lock is held only to read and move the ends, never while a chunk
    runs; should a worker die holding it, a caller that passes its
    ``workers`` stops waiting once one of them has exited with a non-zero
    code (a worker that exits with 0 has released it)."""
    while not lock.acquire(timeout=0.1):
        if any(worker.exitcode for worker in workers):
            return None
    try:
        first, stop = ends
        if first == stop:
            return None
        if front:
            ends[0] = first + 1
            return first
        ends[1] = stop - 1
        return stop - 1
    finally:
        lock.release()


def _pool_worker(payloads, ends, lock, writer, caller_cpu):
    """A pool process: claim chunks from the front until none is left, then
    send every outcome, by chunk index, in one message.  An outcome that
    cannot be pickled is sent as the error pickling it raised, so that it
    costs no other outcome."""
    _start_worker(caller_cpu)
    outcomes = {}
    while (index := _claim(ends, lock, True)) is not None:
        outcomes[index] = _outcome(payloads[index])
    try:
        writer.send(outcomes)
    except Exception:  # pickling failed before a byte was written
        writer.send({i: _picklable(out) for i, out in outcomes.items()})


def _pooled_chunks(payloads, forked):
    """Every chunk's output in chunk order, run by ``forked`` pool workers
    and the calling process.  The workers claim chunks from the front of one
    shared counter and the caller claims them from the back, so a worker
    that is slow to start takes fewer chunks; each worker sends its outcomes
    in one message once no chunk is left.  Raises the error of the first
    failing chunk in chunk order, its cause the traceback of the worker that
    ran it, if one did; or, when a worker exits without reporting, an error
    naming its exit code; every worker has exited when this returns
    or raises.  Each worker leaves the CPU the caller runs on here, where it
    can (``_blas._start_worker``)."""
    ctx = multiprocessing.get_context()
    ends, lock = ctx.RawArray("q", [0, len(payloads)]), ctx.Lock()
    caller_cpu = _current_cpu()
    workers, readers, outcomes = [], [], {}
    try:
        for _ in range(forked):
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            worker = ctx.Process(target=_pool_worker, args=(
                payloads, ends, lock, writer, caller_cpu))
            worker.start()
            workers.append(worker)
            # the worker holds the only write end: the reader sees EOF when
            # the worker exits, and no later worker inherits it
            writer.close()
        while (index := _claim(ends, lock, False, workers)) is not None:
            outcomes[index] = _outcome(payloads[index])
        pending = dict(zip(readers, workers))
        while pending:
            for reader in multiprocessing.connection.wait(pending):
                worker = pending.pop(reader)
                try:
                    received = reader.recv()
                except EOFError:
                    worker.join()
                    raise RuntimeError(
                        f"pool worker {worker.pid} exited with code "
                        f"{worker.exitcode} before reporting its chunks"
                    ) from None
                for ok, out, text in received.values():
                    if not ok:
                        out.__cause__ = _RemoteTraceback(text)
                outcomes.update(received)
    except BaseException:
        for worker in workers:
            worker.terminate()
        raise
    finally:
        for worker in workers:
            worker.join()
        for reader in readers:
            reader.close()
    ordered = [outcomes[i] for i in range(len(payloads))]
    for ok, out, _ in ordered:
        if not ok:
            raise out
    return [out for _, out, _ in ordered]


def _replicate(fn, args, reps, seed, workers=1):
    """Run the replicates in chunks over ``workers`` processes, the caller
    being one of them, one call ``fn(*args, rngs)`` per chunk: ``rngs``
    holds the chunk's replicate streams in replicate order, and ``fn``
    returns a list with one output per stream.  Returns one array per
    element of an output, stacked in replicate order.  ``workers - 1``
    processes, and no more than there are chunks besides one, are started
    for the call and reaped before it returns or raises; they claim chunks
    from the front and the caller from the back, and each sends its
    outcomes in one message (``_pooled_chunks``).  BLAS runs on one thread,
    pinned here before any worker starts and held while the caller runs its
    chunks."""
    size = max(1, -(-reps // max(1, workers * 4)))
    payloads = [(fn, args, seed, lo, min(lo + size, reps))
                for lo in range(0, reps, size)]
    forked = min(workers, len(payloads)) - 1
    with _one_blas_thread():
        if forked < 1:
            chunks = [_replicate_chunk(p) for p in payloads]
        else:
            chunks = _pooled_chunks(payloads, forked)
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
    mu, var = _arm_moments(pv, np.array(starts[:-1]), np.array(sizes))
    _check_finite((mu, var), s, w)
    out = []
    for mu0, var0, mu1, var1 in zip(mu[::2], var[::2], mu[1::2], var[1::2]):
        delta, se = _difference(mu0, var0, mu1, var1)
        out.append((delta, se**2))
    return out


def _arm_moments(pv, starts, sizes):
    """(means, jackknife variances) of the pseudo-values of each arm k,
    ``pv[starts[k]:starts[k] + sizes[k]]``, as lists of floats, each bitwise
    what ``surv._jackknife_moments`` gives on that slice.  The arms of one
    risk-set size n are the rows of one C-contiguous (arms, n) array, whose
    sums along axis 1 run in the pairwise order of a 1-d sum."""
    mu = np.empty(sizes.size)
    var = np.empty(sizes.size)
    for n in np.unique(sizes).tolist():
        arms = np.flatnonzero(sizes == n)
        rows = pv[starts[arms, None] + np.arange(n)]
        with np.errstate(over="ignore", invalid="ignore"):  # caller checks
            mu[arms] = rows.sum(axis=1) / n
            rows -= mu[arms, None]
            var[arms] = (rows**2).sum(axis=1) / (n * (n - 1))
    return mu.tolist(), var.tolist()


def scenario_mc(spec, s, w, reps, seed, alpha=0.05, workers=1):
    """Replicated cRMSTd tests on one design; truth from the closed form."""
    _check_alpha(alpha)
    _check_runs(reps, workers, 2, seed)
    deltas, variances = _replicate(_scenario_chunk, (spec, s, w), reps,
                                   seed, workers)
    truth = true_crmstd(spec, s, w)
    return mc_metrics(deltas, variances, truth, alpha=alpha)


# covariate order of the joint design: baseline x1, x2, current biomarker
JOINT_COVARIATES = ("x1", "x2", "marker")


def _joint_dataset(sample, grid, w):
    return build_super_dataset(sample.survival, sample.markers, grid, w,
                               covariate_names=JOINT_COVARIATES,
                               extend_tail=True)


def _coefficient_chunk(spec, grid, w, layout, n_subjects, rngs):
    """(beta, clustered and rowwise sandwich variances) of each stream's
    replicate; the chunk's samples share one event-time inversion."""
    out = []
    for sample in _joint_samples(spec, [(n_subjects, rng) for rng in rngs]):
        data = _joint_dataset(sample, grid, w)
        # the covariances of fit_super_model and of sandwich_cov's
        # naive_rowwise mode, from one set of blocks and one bread
        blocks, beta = _solve_super(data, layout)[:2]
        cov_cl, cov_nv = _sandwich(blocks, IDENTITY, beta, data.n_subjects,
                                   with_rowwise=True)
        out.append((beta, np.diag(cov_cl), np.diag(cov_nv)))
    return out


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
    _check_runs(reps, workers, 2, seed)
    grid = tuple(float(s) for s in grid)
    population = simulate_joint(spec, pop_size, _rng_of(seed, 0))
    with _one_blas_thread():  # beta alone: the sandwich is never read
        beta_true = _solve_super(
            _joint_dataset(population, grid, w), layout)[1]

    betas, var_cl, var_nv = _replicate(
        _coefficient_chunk, (spec, grid, w, layout, n_subjects), reps, seed,
        workers)

    clustered = tuple(mc_metrics(betas[:, j], var_cl[:, j], beta_true[j], alpha)
                      for j in range(layout.q))
    rowwise = tuple(mc_metrics(betas[:, j], var_nv[:, j], beta_true[j], alpha)
                    for j in range(layout.q))
    return CoefficientMCResult(beta_true=beta_true, clustered=clustered,
                               rowwise=rowwise, n_reps=reps)


def _prediction_chunk(spec, grid, w, layout, n_train, n_val, rngs):
    """Each stream's train/validate replicate, scored by
    ``evaluate_on_validation`` against the validation subjects' true
    values.  Every stream draws its training sample, then its validation
    sample, and all the chunk's samples share one event-time inversion.
    The dynamic fit has no covariance: nothing here reads it."""
    samples = _joint_samples(spec, [(n, rng) for rng in rngs
                                    for n in (n_train, n_val)])
    out = []
    for train, val in zip(samples[::2], samples[1::2]):
        fit = _super_fit(_joint_dataset(train, grid, w), layout)
        rows = evaluate_on_validation(fit, train.survival, train.markers,
                                      val.survival, val.markers,
                                      extend_tail=True, truth=val.truth)
        # a None C-index or PE (fewer than two at risk, or no usable pair)
        # becomes NaN, which the means in prediction_experiment skip
        out.append(tuple(np.array([getattr(r, k) for r in rows], dtype=float)
                         for k in ("c_index_dynamic", "c_index_static",
                                   "pe_dynamic", "pe_static")))
    return out


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
    _check_runs(reps, workers, 1, seed)
    grid = tuple(float(s) for s in grid)
    c_dyn, c_stat, pe_dyn, pe_stat = _replicate(
        _prediction_chunk, (spec, grid, w, layout, n_train, n_val), reps,
        seed, workers)
    return tuple(PredictionRow(
        landmark=s_j,
        c_index_dynamic=float(np.nanmean(c_dyn[:, j])),
        c_index_static=float(np.nanmean(c_stat[:, j])),
        pe_dynamic=float(np.nanmean(pe_dyn[:, j])),
        pe_static=float(np.nanmean(pe_stat[:, j])),
        n_reps=reps,
    ) for j, s_j in enumerate(grid))
