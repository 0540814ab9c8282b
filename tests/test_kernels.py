"""Numpy kernels against brute-force oracles."""

import numpy as np
from numpy.testing import assert_allclose

from dynrmst import _kernels


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
