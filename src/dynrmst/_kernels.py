"""The two hot kernels, in numpy: jackknife pseudo-values of the cRMST and
Harrell concordance pair counts.  ``tests/test_kernels.py`` checks both
against brute-force oracles.
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
    estimator with each subject removed, computed here in O(N log N) via
    prefix products over the distinct event times.
    """
    t = np.ascontiguousarray(times, dtype=np.float64)
    d = np.ascontiguousarray(status, dtype=np.int64)
    n = t.shape[0]
    horizon = s + w

    event_mask = (d == 1) & (t < horizon)
    ut, dk = np.unique(t[event_mask], return_counts=True)
    n_events = ut.shape[0]
    if n_events == 0:
        # flat curve: every leave-one-out curve is flat too
        return np.full(n, w, dtype=np.float64)

    t_sorted = np.sort(t)
    yk = n - np.searchsorted(t_sorted, ut, side="left")
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

    # leave-one-out integrals by subject type
    mu_loo = np.empty(n)
    is_event = (d == 1) & (t < horizon)

    # censored-like subjects (censored, or event at/after the horizon):
    # every event time <= Y_i gets the at-risk adjustment
    c = np.searchsorted(ut, t[~is_event], side="right")
    vals = cum_a[c]
    # c == 0: not at risk at any event time, curve unchanged
    vals[c == 0] += suf_sl[0]
    inner = (c >= 1) & (c <= n_events - 1)
    ci = c[inner]
    vals[inner] += ak[ci - 1] / sk[ci - 1] * suf_sl[ci]
    mu_loo[~is_event] = vals

    # event subjects at the m-th distinct event time
    m = np.searchsorted(ut, t[is_event])
    a_prev = np.where(m > 0, ak[np.maximum(m - 1, 0)], 1.0)
    # sk[m] == 0 can only happen at the last event time (risk set exhausted);
    # there the remaining curve covers just the final interval
    tail = np.zeros(m.shape[0])
    pos = sk[m] > 0.0
    tail[pos] = suf_sl[m[pos]] / sk[m[pos]]
    tail[~pos & (m == n_events - 1)] = lk[-1]
    mu_loo[is_event] = cum_a[m] + a_prev * g_event[m] * tail

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
