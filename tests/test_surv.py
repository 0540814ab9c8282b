"""Survival estimation, cRMST routes, pseudo-observations, cRMSTd test."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from dynrmst import surv

from dynrmst.errors import EmptyRiskSet, InvalidInput, TailUndefined
from dynrmst.surv import (CRmstEstimate, SurvivalRecord, crmst_km, crmst_km_ratio, crmst_pseudo,
                          crmstd_test, km_fit, pseudo_observations)

# a 0/0 or a divide by zero that escapes np.errstate (say, in the padded
# jackknife tables) fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def records(times, status, prefix=""):
    return [SurvivalRecord(id=f"{prefix}{i}", time=float(t), status=int(d))
            for i, (t, d) in enumerate(zip(times, status))]


def random_records(rng, n=None, prefix=""):
    n = n or int(rng.integers(5, 60))
    t = np.maximum(rng.exponential(5.0, n), 1e-3)
    if rng.random() < 0.5:
        t = np.round(t, 2) + 0.01
    d = rng.integers(0, 2, n)
    return records(t, d, prefix)


class TestKmFit:
    def test_hand_computed_curve(self):
        # times 1e, 2c, 3e, 4e: S = 3/4, 3/4 * 1/2, 0
        curve = km_fit(records([1, 2, 3, 4], [1, 0, 1, 1]))
        assert_allclose(curve.event_times, [1, 3, 4])
        assert_allclose(curve.survival, [0.75, 0.375, 0.0])
        assert list(curve.at_risk) == [4, 2, 1]
        assert curve.n_at_risk == 4 and curve.last_observed == 4.0

    def test_restart_drops_early_subjects(self):
        recs = records([1, 2, 3, 4], [1, 0, 1, 1])
        curve = km_fit(recs, start=2.5)
        assert_allclose(curve.event_times, [3, 4])
        assert list(curve.at_risk) == [2, 1]
        assert curve.survival_at(2.7) == 1.0

    def test_tied_events_and_mixed_ties(self):
        # tie of event+censor at 2: censored subject still at risk at 2
        curve = km_fit(records([2, 2, 2, 5], [1, 1, 0, 1]))
        assert_allclose(curve.event_times, [2, 5])
        assert list(curve.at_risk) == [4, 1]
        assert_allclose(curve.survival, [0.5, 0.0])

    def test_empty_risk_set(self):
        with pytest.raises(EmptyRiskSet):
            km_fit(records([1, 2], [1, 1]), start=5.0)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            km_fit(records([1, -2], [1, 1]))
        with pytest.raises(InvalidInput):
            km_fit(records([1, 2], [1, 2]))
        with pytest.raises(InvalidInput):
            km_fit([SurvivalRecord(0, 1.0, 1), SurvivalRecord(0, 2.0, 1)])

    def test_mixed_id_types_are_invalid_input(self):
        with pytest.raises(InvalidInput, match="mutually orderable"):
            km_fit([SurvivalRecord(0, 1.0, 1), SurvivalRecord("a", 2.0, 1)])


class TestCurveIntegral:
    def test_step_integral_hand_value(self):
        curve = km_fit(records([1, 2, 3, 4], [1, 0, 1, 1]))
        # integral over [0, 3]: 1*1 + 0.75*2 = 2.5
        assert_allclose(curve.integral(0, 3), 2.5)
        # over [0.5, 3.5]: 1*0.5 + 0.75*2 + 0.375*0.5
        assert_allclose(curve.integral(0.5, 3.5), 0.5 + 1.5 + 0.1875)

    def test_tail_undefined_when_curve_ends_positive(self):
        curve = km_fit(records([1, 2], [1, 0]))
        with pytest.raises(TailUndefined):
            curve.integral(0, 5)
        # carried forward at the last value 0.5
        assert_allclose(curve.integral(0, 5, extend_tail=True), 1 + 0.5 * 4)

    def test_tail_fine_when_survival_reaches_zero(self):
        curve = km_fit(records([1, 2], [1, 1]))
        assert_allclose(curve.integral(0, 10), 1 + 0.5)


class TestRouteEquivalence:
    def test_random_datasets(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            recs = random_records(rng)
            s = float(rng.uniform(0, 2))
            w = float(rng.uniform(0.5, 10))
            if sum(r.time > s for r in recs) < 2:
                continue
            a = crmst_km(recs, s, w, extend_tail=True).value
            b = crmst_km_ratio(recs, s, w, extend_tail=True).value
            assert abs(a - b) <= 1e-10

    def test_window_monotone(self):
        rng = np.random.default_rng(32)
        recs = random_records(rng, n=40)
        values = [crmst_km(recs, 1.0, w, extend_tail=True).value
                  for w in (1.0, 2.0, 4.0, 8.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0 <= v <= w for v, w in zip(values, (1.0, 2.0, 4.0, 8.0)))


class TestScalingContract:
    def test_time_scale_equivariance(self):
        rng = np.random.default_rng(33)
        recs = random_records(rng, n=30)
        c = 3.7
        scaled = [SurvivalRecord(r.id, r.time * c, r.status) for r in recs]
        a = crmst_pseudo(recs, 1.0, 4.0, extend_tail=True)
        b = crmst_pseudo(scaled, c * 1.0, c * 4.0, extend_tail=True)
        assert_allclose(b.value, c * a.value, rtol=1e-12)
        assert_allclose(b.variance, c**2 * a.variance, rtol=1e-12)


class TestPseudoObservations:
    def test_uncensored_identity(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            t = np.maximum(rng.exponential(5.0, n), 0.01)
            recs = records(t, np.ones(n, dtype=int))
            s, w = 0.3, float(rng.uniform(1, 10))
            pset = pseudo_observations(recs, s, w, extend_tail=True)
            at_risk = np.sort([r.time for r in recs if r.time > s])
            # entries are id-ordered; ids here sort as strings
            want = {r.id: min(r.time - s, w) for r in recs if r.time > s}
            for sid, value in pset.entries:
                assert abs(value - want[sid]) <= 1e-10

    def test_mean_matches_km(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            recs = random_records(rng)
            s, w = 0.2, 5.0
            if sum(r.time > s for r in recs) < 2:
                continue
            est = crmst_pseudo(recs, s, w, extend_tail=True)
            km = crmst_km(recs, s, w, extend_tail=True)
            assert_allclose(est.value, km.value, atol=1e-10)

    def test_id_order_independence(self):
        recs = records([5, 1, 3, 2, 4], [1, 0, 1, 0, 1])
        shuffled = list(reversed(recs))
        a = pseudo_observations(recs, 0.0, 4.0, extend_tail=True)
        b = pseudo_observations(shuffled, 0.0, 4.0, extend_tail=True)
        assert a.entries == b.entries

    def test_covariates_are_not_read(self):
        recs = records([1, 2, 3], [1, 1, 0])
        labelled = [SurvivalRecord(r.id, r.time, r.status,
                                   covariates={"site": f"s{r.id}"})
                    for r in recs]
        assert (pseudo_observations(labelled, 0.0, 2.0).entries
                == pseudo_observations(recs, 0.0, 2.0).entries)

    def test_tail_policy_enforced(self):
        recs = records([1, 2, 3], [1, 1, 0])
        with pytest.raises(TailUndefined):
            pseudo_observations(recs, 0.0, 10.0)
        pseudo_observations(recs, 0.0, 10.0, extend_tail=True)

    def test_window_validation(self):
        recs = records([1, 2, 3], [1, 1, 1])
        for s, w in ((-1, 2), (1, 0), (1, -3), (np.inf, 1)):
            with pytest.raises(InvalidInput):
                pseudo_observations(recs, s, w)


class TestCRmstdTest:
    def test_symmetry_under_group_swap(self):
        rng = np.random.default_rng(36)
        g0 = random_records(rng, n=60, prefix="a")
        g1 = random_records(rng, n=60, prefix="b")
        r01 = crmstd_test(g0, g1, 0.5, 4.0, extend_tail=True)
        r10 = crmstd_test(g1, g0, 0.5, 4.0, extend_tail=True)
        assert_allclose(r01.delta, -r10.delta, rtol=1e-14)
        assert r01.p_value == r10.p_value
        assert_allclose(r01.ci_lower, -r10.ci_upper, rtol=1e-12)

    def test_identical_groups_null(self):
        rng = np.random.default_rng(37)
        g0 = random_records(rng, n=80, prefix="a")
        g1 = [SurvivalRecord("b" + str(i), r.time, r.status)
              for i, r in enumerate(g0)]
        res = crmstd_test(g0, g1, 0.5, 4.0, extend_tail=True)
        assert res.delta == 0.0 and res.p_value == 1.0

    def test_hand_computed_z(self):
        g0 = records([1, 2, 3, 4, 5], [1] * 5, "a")
        g1 = records([2, 3, 4, 5, 6], [1] * 5, "b")
        res = crmstd_test(g0, g1, 0.0, 6.0)
        e0 = crmst_pseudo(g0, 0.0, 6.0)
        e1 = crmst_pseudo(g1, 0.0, 6.0)
        assert_allclose(res.delta, e1.value - e0.value)
        assert_allclose(res.se, np.sqrt(e0.variance + e1.variance))
        assert_allclose(res.z, res.delta / res.se)

    @pytest.mark.parametrize("z", [0.0, 1.3, 40.0, np.inf])
    def test_normal_tail_and_quantile_are_scipy_stats_bitwise(self, z,
                                                              monkeypatch):
        # group "a" carries the variance and group "b" the difference; with
        # se = 0.5 the division gives z back exactly
        se, delta = (0.0, 1.0) if np.isinf(z) else (0.5, z * 0.5)
        est = {"a": CRmstEstimate(0.0, 1.0, 0.0, se**2, 10),
               "b": CRmstEstimate(0.0, 1.0, delta, 0.0, 10)}
        monkeypatch.setattr(surv, "crmst_pseudo",
                            lambda group, s, w, extend_tail: est[group])
        for alpha in (0.05, 0.2):
            res = surv.crmstd_test("a", "b", 0.0, 1.0, alpha=alpha)
            zq = float(stats.norm.ppf(1.0 - alpha / 2.0))
            assert res.z == z
            assert res.p_value == float(2.0 * stats.norm.sf(abs(z)))
            assert res.ci_lower == delta - zq * se
            assert res.ci_upper == delta + zq * se

    def test_alpha_validation(self):
        g = records([1, 2, 3], [1, 1, 1])
        with pytest.raises(InvalidInput):
            crmstd_test(g, g, 0.0, 1.0, alpha=1.5)
