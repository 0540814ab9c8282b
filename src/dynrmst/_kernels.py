"""The two hot kernels, in numpy: jackknife pseudo-values of the cRMST and
Harrell concordance pair counts.  ``tests/test_kernels.py`` checks both
against brute-force oracles, and the jackknife against its earlier
sort-and-branch form to the bit: the tabulated leave-one-out integrals are
the same float expressions, read by a gather instead of per-branch masks.
"""

from __future__ import annotations

import numpy as np


def jackknife_pseudo(times, status, s, w):
    """Leave-one-out pseudo-values of the conditional RMST over [s, s+w].

    ``times``/``status`` describe the risk set at ``s`` (every time must be
    > s, N >= 2).  The Kaplan-Meier curve is restarted at ``s`` and, where a
    leave-one-out curve ends before ``s + w`` with survival above zero, it
    is carried forward at its last value.  Returns one pseudo-value per
    input subject, in input order.

    Exactness: the result equals a brute-force refit of the Kaplan-Meier
    estimator with each subject removed, computed here in O(N log D) via
    prefix products over the D distinct event times.  One search gives each
    subject's count c of event times <= its time, and from the counts the
    at-risk sizes; a leave-one-out integral depends only on c and on
    whether the subject is an event inside the window, so it is tabulated
    once per distinct event time (D + 1 censored-like entries, D event
    entries) and read with one gather.
    """
    t = np.ascontiguousarray(times, dtype=np.float64)
    d = np.ascontiguousarray(status, dtype=np.int64)
    n = t.shape[0]
    horizon = s + w

    is_event = (d == 1) & (t < horizon)
    ut, dk = np.unique(t[is_event], return_counts=True)
    n_events = ut.shape[0]
    if n_events == 0:
        # flat curve: every leave-one-out curve is flat too
        return np.full(n, w, dtype=np.float64)

    # c[i] = number of distinct event times <= t[i]; subject i is at risk
    # at event time k exactly when k < c[i]
    c = np.searchsorted(ut, t, side="right")
    yk = n - np.cumsum(np.bincount(c, minlength=n_events + 1))[:n_events]
    dk = dk.astype(np.float64)
    ykf = yk.astype(np.float64)

    fk = 1.0 - dk / ykf
    sk = np.cumprod(fk)

    # interval lengths: [s, t_0), [t_0, t_1), ..., [t_{D-1}, s+w]
    l_pre = ut[0] - s
    lk = np.empty(n_events)
    lk[:-1] = np.diff(ut)
    lk[-1] = horizon - ut[-1]

    # adjusted factors after removing one at-risk subject
    with np.errstate(divide="ignore", invalid="ignore"):
        fprime = np.where(ykf > 1.0, (ykf - 1.0 - dk) / (ykf - 1.0), 1.0)
        g_event = np.where(ykf > 1.0, (ykf - dk) / (ykf - 1.0), 1.0)
    ak = np.cumprod(fprime)

    sl = sk * lk
    # cum_a[m] = l_pre + sum_{j<m} a_j * l_j   (m = 0..D)
    cum_a = np.cumsum(np.concatenate(([l_pre], ak * lk)))
    # suf_sl[m] = sum_{j>=m} s_j * l_j         (m = 0..D)
    suf_sl = np.zeros(n_events + 1)
    suf_sl[:-1] = np.cumsum(sl[::-1])[::-1]

    mu = l_pre + suf_sl[0]

    # leave-one-out integrals: entry c of the first D + 1 is a censored-like
    # subject (censored, or event at/after the horizon) with count c, entry
    # D + c an event subject at the (c-1)-th distinct event time
    loo = np.empty(2 * n_events + 1)
    # every event time <= Y_i gets the at-risk adjustment; c == 0: not at
    # risk at any event time, curve unchanged; c == D: no curve after Y_i
    loo[:n_events + 1] = cum_a
    loo[0] += suf_sl[0]
    loo[1:n_events] += ak[:-1] / sk[:-1] * suf_sl[1:n_events]

    # sk[m] == 0 can only happen at the last event time (risk set exhausted);
    # there the remaining curve covers just the final interval
    a_prev = np.concatenate(([1.0], ak[:-1]))
    tail = np.zeros(n_events)
    pos = sk > 0.0
    tail[pos] = suf_sl[:-1][pos] / sk[pos]
    if not pos[-1]:
        tail[-1] = lk[-1]
    loo[n_events + 1:] = cum_a[:-1] + a_prev * g_event * tail

    mu_loo = loo[c + n_events * is_event]
    return n * mu - (n - 1) * mu_loo


def concordance_stats(times, status, preds):
    """Harrell pair counts: (usable pairs, concordant + 0.5 * tied).

    A pair is usable when the smaller time is an event (strictly smaller;
    tied times are not usable).  Concordant means the longer-surviving
    subject has the larger prediction; prediction ties count one half.
    """
    t = np.asarray(times, dtype=np.float64)
    d = np.asarray(status, dtype=np.int64)
    p = np.asarray(preds, dtype=np.float64)

    shorter = (t[:, None] < t[None, :]) & (d[:, None] == 1)
    n_usable = int(shorter.sum())
    if n_usable == 0:
        return 0, 0.0
    pdiff = p[None, :] - p[:, None]
    score = float(np.sum(shorter & (pdiff > 0.0)) + 0.5 * np.sum(shorter & (pdiff == 0.0)))
    return n_usable, score
