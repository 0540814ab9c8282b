"""The two hot kernels, in numpy: jackknife pseudo-values of the cRMST and
Harrell concordance pair counts.  ``tests/test_kernels.py`` checks both
against brute-force oracles (the pair counts with ``==``), and the
jackknife against its earlier sort-and-branch form to the bit: the
tabulated leave-one-out integrals are the same float expressions, read by a
gather instead of per-branch masks.
"""

from __future__ import annotations

import numpy as np

# (event row, subject) cells compared at a time by ``concordance_stats``:
# each boolean mask of a block is at most 256 kB
_PAIR_CELLS = 1 << 18


def jackknife_pseudo(times, status, s, w, starts=None):
    """Leave-one-out pseudo-values of the conditional RMST over [s, s+w].

    ``s`` and ``w`` are scalars or arrays of J windows, s nondecreasing;
    window j's risk set is {i : times_i > s_j}, of N_j >= 2 subjects or
    none.  A scalar window on the risk set at s (every time > s) is the
    case J = 1.  With ``starts``, ``s`` and ``w`` are scalars and
    ``times``/``status`` hold K risk sets at s one after another, risk set
    k beginning at offset ``starts[k]`` (``starts[0]`` is 0).  Either form
    returns its values one risk set after another, window after window or
    set after set, each in input order.  The
    Kaplan-Meier curve is restarted at ``s`` and, where a leave-one-out
    curve ends before ``s + w`` with survival above zero, it is carried
    forward at its last value.  The values of each risk set are bitwise
    those of a call on that risk set alone.

    Exactness: the result equals a brute-force refit of the Kaplan-Meier
    estimator with each subject removed, computed here in O(N log D) via
    prefix products over the D distinct event times.  One search gives each
    subject's count c of event times <= its time, and from the counts the
    at-risk sizes; a leave-one-out integral depends only on c and on
    whether the subject is an event inside the window, so it is tabulated
    once per distinct event time (D + 1 censored-like entries, D event
    entries) and read with one gather.  The tables have one row per risk
    set and D columns, D the most distinct event times of any risk set; a
    shorter row is padded with event times at s + w and no events.  Its
    padded intervals have length 0.0, so its prefix and suffix sums are
    those of the one-risk-set call, and its padded factors are 1.0, which
    reach only entries that no subject reads.  The risk sets of windows are
    nested, so one table of distinct event times and at-risk counts serves
    them all: window j's row is its slice inside (s_j, s_j + w_j).  The
    prefix sequences are taken with ``ufunc.accumulate``, the loop behind
    ``np.cumsum`` and ``np.cumprod`` without their wrappers' fixed cost.
    """
    t = np.ascontiguousarray(times, dtype=np.float64)
    d = np.ascontiguousarray(status, dtype=np.int64)
    n = t.shape[0]
    windows = starts is None
    if windows:
        # s and w as arrays of the windows' shape, without the fixed cost of
        # np.broadcast_arrays
        horizon = np.atleast_1d(np.add(s, w, dtype=np.float64))
        sw = np.empty((2, horizon.size))
        sw[0], sw[1] = s, w
        s, w = sw
        # the values are computed on an N x J grid, one column per window,
        # and returned at the cells of subjects at risk, window after window
        row = np.arange(s.size)
        at_risk = t[:, None] > s
        is_event = (d == 1) & (t < horizon.max())
    else:
        horizon = s + w
        is_event = (d == 1) & (t < horizon)
    ev = np.sort(t[is_event])
    # the distinct event times and their event counts, as np.unique gives
    # them but without its fixed cost, which dominates on a few dozen
    # subjects
    bounds = np.empty(ev.shape[0] + 1, dtype=bool)
    bounds[0] = bounds[-1] = True
    np.not_equal(ev[1:], ev[:-1], out=bounds[1:-1])
    first = np.flatnonzero(bounds)
    ut = ev[first[:-1]]
    dk = first[1:] - first[:-1]

    # c[i] = number of distinct event times <= t[i] in subject i's risk
    # set; subject i is at risk at event time k exactly when k < c[i]
    c = np.searchsorted(ut, t, side="right")
    if windows:
        r = ut.shape[0]
        # everyone with a time at or after an event time is at risk there,
        # in each window whose row holds that time
        y_all = n - np.add.accumulate(np.bincount(c, minlength=r + 1))[:r]
        lo = np.searchsorted(ut, s, side="right")
        hi = np.searchsorted(ut, horizon, side="left")
        per_set = hi - lo
        n_events = int(per_set.max())
        pad = np.arange(n_events) >= per_set[:, None]
        take = np.minimum(lo[:, None] + np.arange(n_events), r - 1)
        ut = np.where(pad, horizon[:, None], ut[take])
        dk = np.where(pad, 0, dk[take])
        # a padded entry has nobody at risk: count 1, so its factors are 1.0
        yk = np.where(pad, 1, y_all[take])
        sizes = at_risk.sum(axis=0)
        in_window = is_event[:, None] & (t[:, None] < horizon)
        # counts within each window's row, clipped on the cells of subjects
        # not at risk so that every cell reads an entry of its row
        c = np.maximum(c[:, None], lo)
        np.minimum(c, hi, out=c)
        c -= lo
    else:
        k = len(starts)
        sizes = np.diff(starts, append=n)
        row = np.repeat(np.arange(k), sizes)
        # the distinct event times of risk set j are the keys
        # j * r + (rank among all r distinct event times)
        r = ut.shape[0]
        ukey, counts = np.unique(row[is_event] * r + (c[is_event] - 1),
                                 return_counts=True)
        offset = np.searchsorted(ukey, np.arange(k) * r)
        c = np.searchsorted(ukey, row * r + c) - offset[row]
        per_set = np.diff(offset, append=ukey.shape[0])
        n_events = int(per_set.max())
        key_row = ukey // r
        cell = (key_row, np.arange(ukey.shape[0]) - offset[key_row])
        table = np.full((k, n_events), horizon)
        table[cell] = ut[ukey - key_row * r]
        ut = table
        dk = np.zeros((k, n_events), dtype=np.int64)
        dk[cell] = counts
        at_or_before = np.add.accumulate(np.bincount(
            row * (n_events + 1) + c, minlength=k * (n_events + 1)
        ).reshape(k, n_events + 1), axis=1)[:, :n_events]
        # a padded entry has nobody at risk: count 1, so its factors are 1.0
        yk = np.maximum(sizes[:, None] - at_or_before, 1)
        in_window = is_event
    if n_events:
        mu, loo = _loo_integrals(ut, dk, yk, s, horizon)
        # n_k mu - (n_k - 1) loo[k, at], in place: with J windows the
        # gather holds N x J values
        at = c + n_events * in_window
        at += row * loo.shape[1]
        out = loo.ravel()[at]
        # a window far longer than the follow-up overflows: callers check
        with np.errstate(over="ignore", invalid="ignore"):
            out *= (sizes - 1)[row]
            np.subtract((sizes * mu)[row], out, out=out)
    else:  # no events in any window: every curve is flat
        out = np.empty(c.shape)
    # a risk set with no event inside its window has a flat curve
    flat = per_set[row] == 0
    out[..., flat] = w[flat] if windows else w
    return out.T[at_risk.T] if windows else out


def _loo_integrals(ut, dk, yk, s, horizon):
    """(mu, loo) of each row of the D-column tables of distinct event times
    ``ut``, event counts ``dk`` and at-risk counts ``yk``: the Kaplan-Meier
    integral over [s, s + w], and the leave-one-out integrals, D + 1
    censored-like entries and D event entries.  The intermediate tables
    live only in this call, and are written in place where they can be:
    with J windows each is J x D."""
    rows, n_events = ut.shape
    dk = dk.astype(np.float64)
    ykf = yk.astype(np.float64)
    sk = np.multiply.accumulate(1.0 - dk / ykf, axis=1)

    # interval lengths: [s, t_0), [t_0, t_1), ..., [t_{D-1}, s+w]
    l_pre = ut[:, 0] - s
    lk = np.empty(ut.shape)
    np.subtract(ut[:, 1:], ut[:, :-1], out=lk[:, :-1])
    np.subtract(horizon, ut[:, -1], out=lk[:, -1])

    with np.errstate(divide="ignore", invalid="ignore"):
        # adjusted factors after removing one at-risk subject
        more = ykf > 1.0
        less_one = ykf - 1.0
        ak = np.multiply.accumulate(
            np.where(more, (less_one - dk) / less_one, 1.0), axis=1)
        g_event = np.where(more, (ykf - dk) / less_one, 1.0)
        del dk, ykf, more, less_one  # not read past here

        # suf_sl[m] = sum_{j>=m} s_j * l_j         (m = 0..D)
        suf_sl = np.zeros((rows, n_events + 1))
        suf_sl[:, :-1] = np.add.accumulate((sk * lk)[:, ::-1],
                                           axis=1)[:, ::-1]
        mu = l_pre + suf_sl[:, 0]

        # leave-one-out integrals: entry c of the first D + 1 is a
        # censored-like subject (censored, or event at/after the horizon)
        # with count c, entry D + c an event subject at the (c-1)-th
        # distinct event time.  The first D + 1 start as
        # cum_a[m] = l_pre + sum_{j<m} a_j * l_j   (m = 0..D)
        loo = np.empty((rows, 2 * n_events + 1))
        cum_a = loo[:, :n_events + 1]
        cum_a[:, 0] = l_pre
        np.multiply(ak, lk, out=cum_a[:, 1:])
        np.add.accumulate(cum_a, axis=1, out=cum_a)

        # an event's curve is cum_a up to its time, then the rest of the
        # full curve scaled by a_{m-1} * g_m / s_m; sk[m] == 0 can only
        # happen at the last event time (risk set exhausted), where the
        # remaining curve covers just the final interval
        tail = np.where(sk > 0.0, suf_sl[:, :-1] / sk, lk)
        g_event[:, 1:] *= ak[:, :-1]
        tail *= g_event
        np.add(cum_a[:, :-1], tail, out=loo[:, n_events + 1:])

        # every event time <= Y_i gets the at-risk adjustment; c == 0: not
        # at risk at any event time, curve unchanged; c == D: no curve
        # after Y_i.  In a padded row entry c = D_k gains 0.0 (suf_sl is 0
        # from D_k on), or NaN where S reaches 0 at its last event time; no
        # subject reads it then, as every subject at risk there is an event
        cum_a[:, 0] += suf_sl[:, 0]
        cum_a[:, 1:n_events] += (ak[:, :-1] / sk[:, :-1]
                                 * suf_sl[:, 1:n_events])

    return mu, loo


def concordance_stats(times, status, preds):
    """Harrell pair counts: (usable pairs, concordant + 0.5 * tied).

    A pair is usable when the smaller time is an event (strictly smaller;
    tied times are not usable).  Concordant means the longer-surviving
    subject has the larger prediction; prediction ties count one half.
    Predictions are finite (``evaluate.c_index`` checks them).

    The shorter time of a usable pair is an event, so only event rows are
    compared against every subject: O(E n) comparisons for E events, made
    in blocks of event rows of at most ``_PAIR_CELLS`` cells each, so no
    n x n mask is built.  The counts are integers, so the score is the
    same float for any block size.
    """
    t = np.asarray(times, dtype=np.float64)
    d = np.asarray(status, dtype=np.int64)
    p = np.asarray(preds, dtype=np.float64)

    events = np.flatnonzero(d == 1)
    usable = concordant = tied = 0
    step = max(1, _PAIR_CELLS // max(t.size, 1))
    for lo in range(0, events.size, step):
        rows = events[lo:lo + step, None]
        shorter = t[rows] < t
        usable += np.count_nonzero(shorter)
        p_row = p[rows]
        higher = p > p_row
        higher &= shorter
        concordant += np.count_nonzero(higher)
        equal = np.equal(p, p_row, out=higher)
        equal &= shorter
        tied += np.count_nonzero(equal)
    return int(usable), float(concordant + 0.5 * tied)
