"""Numpy kernels against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dynrmst import _kernels

# a 0/0 or a divide by zero that escapes np.errstate (say, in the padded
# jackknife tables) fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def reference_jackknife_pseudo(times, status, s, w):
    """The jackknife kernel as it was before it tabulated the leave-one-out
    integrals: a full sort for the at-risk counts, a second search and one
    masked branch per subject type.  ``_kernels.jackknife_pseudo`` must
    equal it to the bit."""
    t = np.ascontiguousarray(times, dtype=np.float64)
    d = np.ascontiguousarray(status, dtype=np.int64)
    n = t.shape[0]
    horizon = s + w

    event_mask = (d == 1) & (t < horizon)
    ut, dk = np.unique(t[event_mask], return_counts=True)
    n_events = ut.shape[0]
    if n_events == 0:
        return np.full(n, w, dtype=np.float64)

    t_sorted = np.sort(t)
    yk = n - np.searchsorted(t_sorted, ut, side="left")
    dk = dk.astype(np.float64)
    ykf = yk.astype(np.float64)

    fk = 1.0 - dk / ykf
    sk = np.cumprod(fk)

    l_pre = ut[0] - s
    lk = np.empty(n_events)
    lk[:-1] = np.diff(ut)
    lk[-1] = horizon - ut[-1]

    with np.errstate(divide="ignore", invalid="ignore"):
        fprime = np.where(ykf > 1.0, (ykf - 1.0 - dk) / (ykf - 1.0), 1.0)
        g_event = np.where(ykf > 1.0, (ykf - dk) / (ykf - 1.0), 1.0)
    ak = np.cumprod(fprime)

    sl = sk * lk
    cum_a = np.cumsum(np.concatenate(([l_pre], ak * lk)))
    suf_sl = np.zeros(n_events + 1)
    suf_sl[:-1] = np.cumsum(sl[::-1])[::-1]

    mu = l_pre + suf_sl[0]

    mu_loo = np.empty(n)
    is_event = (d == 1) & (t < horizon)

    c = np.searchsorted(ut, t[~is_event], side="right")
    vals = cum_a[c]
    vals[c == 0] += suf_sl[0]
    inner = (c >= 1) & (c <= n_events - 1)
    ci = c[inner]
    vals[inner] += ak[ci - 1] / sk[ci - 1] * suf_sl[ci]
    mu_loo[~is_event] = vals

    m = np.searchsorted(ut, t[is_event])
    a_prev = np.where(m > 0, ak[np.maximum(m - 1, 0)], 1.0)
    tail = np.zeros(m.shape[0])
    pos = sk[m] > 0.0
    tail[pos] = suf_sl[m[pos]] / sk[m[pos]]
    tail[~pos & (m == n_events - 1)] = lk[-1]
    mu_loo[is_event] = cum_a[m] + a_prev * g_event[m] * tail

    return n * mu - (n - 1) * mu_loo


def brute_force_pseudo(times, status, s, w):
    """Jackknife by literally refitting the product-limit curve n+1 times."""

    def crmst(t, d):
        t = np.asarray(t, dtype=float)
        d = np.asarray(d)
        horizon = s + w
        ut, dk = np.unique(t[(d == 1) & (t < horizon)], return_counts=True)
        if ut.size == 0:
            return w
        yk = np.array([(t >= u).sum() for u in ut], dtype=float)
        surv = np.cumprod(1.0 - dk / yk)
        knots = np.concatenate(([s], ut, [horizon]))
        vals = np.concatenate(([1.0], surv))
        return float(np.sum(vals * np.diff(knots)))

    n = len(times)
    full = crmst(times, status)
    out = np.empty(n)
    for i in range(n):
        keep = np.arange(n) != i
        out[i] = n * full - (n - 1) * crmst(times[keep], status[keep])
    return out


def brute_force_concordance(times, status, preds):
    usable = 0
    score = 0.0
    n = len(times)
    for i in range(n):
        for j in range(n):
            if status[i] == 1 and times[i] < times[j]:
                usable += 1
                if preds[j] > preds[i]:
                    score += 1.0
                elif preds[j] == preds[i]:
                    score += 0.5
    return usable, score


def random_risk_set(rng, max_n=60, tie_prob=0.5):
    n = int(rng.integers(2, max_n))
    t = rng.exponential(5.0, n)
    if rng.random() < tie_prob:
        t = np.round(t, int(rng.integers(0, 3)))
    t = np.maximum(t, 0.01) + 1.0
    d = rng.integers(0, 2, n).astype(np.int64)
    s = float(rng.uniform(0.0, 0.9))
    w = float(rng.uniform(0.5, 12.0))
    return t, d, s, w


def test_jackknife_matches_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(200):
        t, d, s, w = random_risk_set(rng)
        got = _kernels.jackknife_pseudo(t, d, s, w)
        want = brute_force_pseudo(t, d, s, w)
        assert_allclose(got, want, rtol=0, atol=1e-9)


def test_jackknife_hand_examples():
    # all events at 1,2,3 over [0,3]: curve drops 1/3 at each time, and the
    # pseudo-values recover the raw min(T_i, 3) exactly
    pv = _kernels.jackknife_pseudo(np.array([1.0, 2.0, 3.0]),
                                   np.array([1, 1, 1]), 0.0, 3.0)
    assert_allclose(pv, [1.0, 2.0, 3.0], atol=1e-12)
    # censoring at 2 shifts its own pseudo-value to the curve tail:
    # mu = 1*1 + 2/3*1 + 2/3*1 = 7/3, loo values 3, 2, 5/3 -> pseudo 1, 3, 3
    pv = _kernels.jackknife_pseudo(np.array([1.0, 2.0, 3.0]),
                                   np.array([1, 0, 1]), 0.0, 3.0)
    assert_allclose(pv, [1.0, 3.0, 3.0], atol=1e-12)


def test_jackknife_no_events_flat():
    pv = _kernels.jackknife_pseudo(np.array([4.0, 5.0, 6.0]),
                                   np.array([0, 0, 0]), 0.0, 2.0)
    assert_allclose(pv, [2.0, 2.0, 2.0], atol=0)


def test_event_at_horizon_is_censored_like():
    # an event exactly at s+w contributes no drop inside the window
    pv_event = _kernels.jackknife_pseudo(np.array([1.0, 3.0]),
                                         np.array([1, 1]), 0.0, 3.0)
    pv_cens = _kernels.jackknife_pseudo(np.array([1.0, 3.0]),
                                        np.array([1, 0]), 0.0, 3.0)
    assert_allclose(pv_event, pv_cens, atol=0)


def test_concordance_matches_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        t = np.round(rng.exponential(5.0, n), 1) + 0.1
        d = rng.integers(0, 2, n).astype(np.int64)
        p = np.round(rng.normal(size=n), 1)  # force prediction ties
        assert _kernels.concordance_stats(t, d, p) == brute_force_concordance(t, d, p)


def test_concordance_no_usable_pairs():
    t = np.array([2.0, 2.0, 2.0])
    usable, score = _kernels.concordance_stats(t, np.array([1, 1, 1]),
                                               np.array([1.0, 2.0, 3.0]))
    assert usable == 0 and score == 0.0


@st.composite
def risk_sets(draw, window=None):
    """(times, status, s, w) of a risk set at s.  Times sit on a lattice
    (step 1/2, 1/3 or a random one) so ties, also between an event and a
    censoring, are common, and they reach past s + w so events fall at and
    beyond the horizon.  ``exhaust`` makes every subject at the last time
    inside the window an event, so the curve reaches 0 there; ``no_events``
    leaves no event inside the window.  ``window`` = (s, step, w), with w a
    multiple of step and at least 2 steps, fixes the window and lattice, so
    that several risk sets share one (s, w); ``exhaust`` then keeps every
    time inside the window instead of widening it."""
    n = draw(st.integers(2, 30))
    if window is None:
        s = draw(st.sampled_from([0.0, 0.5, 1.25]))
        step = draw(st.sampled_from([0.5, 1.0 / 3.0,
                                     draw(st.floats(0.05, 2.0))]))
    else:
        s, step, w = window
    k = np.array(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)))
    t = s + k * step
    d = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                 dtype=np.int64)
    if window is None:
        w = step * draw(st.integers(1, 14))
    mode = draw(st.sampled_from(["free", "exhaust", "no_events"]))
    if mode == "exhaust":
        if window is None:
            w = max(w, t.max() - s + step)
        else:
            t = s + np.minimum(k, round(w / step) - 1) * step
        d[t == t.max()] = 1
    elif mode == "no_events":
        d[t < s + w] = 0
    return t, d, s, w


@st.composite
def shared_window_risk_sets(draw):
    """([(times, status), ...], s, w): 1 to 6 ``risk_sets`` cases on one
    (s, w), some of them cut to two subjects."""
    s = draw(st.sampled_from([0.0, 0.5, 1.25]))
    step = draw(st.sampled_from([0.5, 1.0 / 3.0, draw(st.floats(0.05, 2.0))]))
    w = step * draw(st.integers(2, 14))
    case = risk_sets((s, step, w))
    pair = case.map(lambda c: (c[0][:2], c[1][:2]))
    cases = draw(st.lists(st.one_of(case, pair), min_size=1, max_size=6))
    return [c[:2] for c in cases], s, w


# a tie of an event with a censoring; events at and after the horizon; the
# whole risk set dying at the last event time; no event at all
JACKKNIFE_EXAMPLES = [
    (np.array([1.5, 1.5, 2.0, 3.0]), np.array([1, 0, 1, 0]), 1.0, 2.0),
    (np.array([1.5, 3.0, 4.0, 2.0]), np.array([1, 1, 1, 0]), 1.0, 2.0),
    (np.array([1.5, 2.0, 2.5, 2.5]), np.array([0, 1, 1, 1]), 1.0, 4.0),
    (np.array([1.5, 2.0, 3.5]), np.array([0, 0, 1]), 1.0, 1.0),
]


def _with_examples(test):
    for case in JACKKNIFE_EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=300, deadline=None)
@_with_examples
@given(risk_sets())
def test_jackknife_is_the_reference_kernel_bitwise(case):
    t, d, s, w = case
    assert np.array_equal(_kernels.jackknife_pseudo(t, d, s, w),
                          reference_jackknife_pseudo(t, d, s, w))


@settings(max_examples=150, deadline=None)
@_with_examples
@given(risk_sets())
def test_jackknife_is_a_leave_one_out_refit(case):
    t, d, s, w = case
    assert_allclose(_kernels.jackknife_pseudo(t, d, s, w),
                    brute_force_pseudo(t, d, s, w), rtol=0, atol=1e-9)


@settings(max_examples=300, deadline=None)
@example(([c[:2] for c in JACKKNIFE_EXAMPLES], 1.0, 2.0))
@given(shared_window_risk_sets())
def test_risk_sets_in_one_call_are_each_alone_bitwise(case):
    sets, s, w = case
    times = np.concatenate([t for t, _ in sets])
    status = np.concatenate([d for _, d in sets])
    starts = np.cumsum([0] + [t.size for t, _ in sets[:-1]])
    want = np.concatenate([reference_jackknife_pseudo(t, d, s, w)
                           for t, d in sets])
    assert np.array_equal(
        _kernels.jackknife_pseudo(times, status, s, w, starts), want)


@st.composite
def window_grids(draw):
    """(times, status, s, w) of J windows on one set of subjects, with
    times on a lattice as in ``risk_sets``: a landmark grid (s increasing,
    one w) or horizons (one s, w increasing; s then is a scalar or
    repeated).  Landmarks and horizons sit on the lattice too, so times tie
    with both.  ``exhaust`` makes every subject at the last time an event,
    so the curves that reach it end at 0; ``gap`` leaves the first window
    without an event.  The windows are kept while two or more subjects are
    at risk, so the last landmark often holds just two."""
    n = draw(st.integers(2, 30))
    step = draw(st.sampled_from([0.5, 1.0 / 3.0, draw(st.floats(0.05, 2.0))]))
    t = step * np.array(draw(st.lists(st.integers(1, 16), min_size=n,
                                      max_size=n)))
    d = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                 dtype=np.int64)
    ks = np.array(sorted(draw(st.sets(st.integers(0, 16), min_size=2,
                                      max_size=8))))
    if draw(st.booleans()):
        s, w = step * ks, step * draw(st.integers(1, 14))
    else:
        s, w = step * draw(st.integers(0, 3)), step * (ks + 1)
        if draw(st.booleans()):
            s = np.full(w.size, s)
    mode = draw(st.sampled_from(["free", "exhaust", "gap"]))
    s_j, w_j = np.broadcast_arrays(s, w)
    if mode == "exhaust":
        d[t == t.max()] = 1
    elif mode == "gap":
        d[(t > s_j[0]) & (t < s_j[0] + w_j[0])] = 0
    n_risk = np.sum(t[:, None] > s_j, axis=0)
    assume(n_risk[0] >= 2)
    keep = int(np.sum(n_risk >= 2))  # s is nondecreasing: a prefix
    return (t, d, s[:keep] if np.ndim(s) else s,
            w[:keep] if np.ndim(w) else w)


@settings(max_examples=300, deadline=None)
# a landmark with an event at it, one whose risk set is the last two
# subjects, and horizons past the last time, where the curve ends at 0
@example((np.array([1.0, 2.0, 2.0, 3.0, 4.0]), np.array([1, 1, 0, 1, 1]),
          np.array([0.0, 1.0, 2.0]), 1.5))
@example((np.array([1.0, 2.0, 2.0, 3.0]), np.array([0, 1, 1, 1]), 0.5,
          np.array([1.0, 2.5, 5.0])))
@given(window_grids())
def test_windows_in_one_call_are_each_alone_bitwise(case):
    t, d, s, w = case
    s_j, w_j = np.broadcast_arrays(s, w)
    # subject i holds the first n_at[i] windows, in (subject, window) order
    n_at = np.searchsorted(s_j, t, side="left")
    first = np.add.accumulate(n_at) - n_at
    want = np.empty(n_at.sum())
    for j in range(s_j.size):
        at = t > s_j[j]
        want[first[at] + j] = reference_jackknife_pseudo(
            t[at], d[at], float(s_j[j]), float(w_j[j]))
    assert np.array_equal(_kernels.jackknife_pseudo(t, d, s, w), want)
    if s_j.size == 1:  # one window: the call on its risk set alone
        at = t > s_j[0]
        assert np.array_equal(_kernels.jackknife_pseudo(
            t[at], d[at], float(s_j[0]), float(w_j[0])), want)
