"""Prediction, delta-method intervals, C-index, prediction error."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from dynrmst.basis import BasisLayout, SplineSpec
from dynrmst.errors import (DynRmstError, EmptyRiskSet, InvalidInput,
                            MissingCovariate, OutOfRange, SingularDesign,
                            TailUndefined)
from dynrmst.evaluate import (c_index, evaluate_on_validation, predict,
                              predict_landmark, predict_values,
                              prediction_error, static_rmst_model)
from dynrmst.gee import LOG, fit_super_model
from dynrmst.landmark import LongitudinalRecord, build_super_dataset
from dynrmst.sim import joint_spec, simulate_joint
from dynrmst.surv import SurvivalRecord, as_survival_data, risk_set_pseudo

# a 0/0 or a divide by zero that escapes np.errstate (say, in the padded
# jackknife tables) fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def fitted_model(rng, link=None, n=80):
    t = np.maximum(rng.exponential(6.0, n), 0.1)
    d = rng.integers(0, 2, n)
    surv = [SurvivalRecord(i, float(t[i]), int(d[i]),
                           covariates={"x": float(rng.normal())})
            for i in range(n)]
    data = build_super_dataset(surv, [], [0.0, 1.0, 2.0], 3.0,
                               covariate_names=["x"], extend_tail=True)
    layout = BasisLayout((SplineSpec((1.0,), (0.0, 2.0)), None))
    kwargs = {"link": link} if link is not None else {}
    return fit_super_model(data, layout, **kwargs)


class TestPredict:
    def test_value_is_linear_predictor(self):
        fit = fitted_model(np.random.default_rng(0))
        from dynrmst.basis import h_matrix

        res = predict(fit, [0.7], 1.5)
        zstar = np.array([1.0, 0.7])
        want = zstar @ (h_matrix(fit.layout, 1.5) @ fit.beta)
        assert_allclose(res.value, want, atol=1e-12)

    def test_interval_uses_t_quantile(self):
        fit = fitted_model(np.random.default_rng(1))
        res = predict(fit, [0.3], 1.0, alpha=0.10)
        tq = stats.t.ppf(0.95, fit.df)
        assert_allclose(res.ci_upper - res.value, tq * res.se, rtol=1e-12)

    def test_t_quantile_is_scipy_stats_bitwise(self):
        fit = fitted_model(np.random.default_rng(1))
        for df in (1, 2, 3, 7, 30, 118, 1000, 10**6):
            fit_df = replace(fit, n_subjects=df + fit.beta.size)
            for alpha in (1e-6, 0.001, 0.05, 0.1, 0.5, 0.9, 0.999):
                res = predict(fit_df, [0.3], 1.0, alpha=alpha)
                tq = float(stats.t.ppf(1.0 - alpha / 2.0, df))
                assert res.ci_lower == res.value - tq * res.se
                assert res.ci_upper == res.value + tq * res.se

    def test_delta_method_against_finite_difference(self):
        """The reported variance must equal g_vec' Cov g_vec where g_vec is
        the numerical gradient of the prediction wrt beta."""
        for link in (None, LOG):
            fit = fitted_model(np.random.default_rng(2), link=link)
            z, s = [0.4], 1.2
            from dynrmst.basis import h_matrix

            zstar = np.array([1.0, 0.4])
            x = h_matrix(fit.layout, s).T @ zstar

            def value(beta):
                return float(fit.link.ginv(x @ beta))

            h = 1e-6
            grad = np.array([
                (value(fit.beta + h * e) - value(fit.beta - h * e)) / (2 * h)
                for e in np.eye(fit.beta.size)
            ])
            want_se = np.sqrt(grad @ fit.covariance @ grad)
            assert_allclose(predict(fit, z, s).se, want_se, rtol=1e-4)

    def test_batch_values_match_scalar_predictions(self):
        z = np.random.default_rng(12).normal(size=(6, 1))
        for link in (None, LOG):
            fit = fitted_model(np.random.default_rng(2), link=link)
            want = [predict(fit, row, 1.2).value for row in z]
            assert_allclose(predict_values(fit, z, 1.2), want, rtol=1e-12)
            with pytest.raises(OutOfRange):
                predict_values(fit, z, 2.5)
        static = static_rmst_model(
            [SurvivalRecord(i, 1.0 + i, 1, covariates={"x": float(i % 3)})
             for i in range(10)], 4.0, extend_tail=True)
        assert_allclose(predict_values(static, z),
                        [predict_landmark(static, row).value for row in z],
                        rtol=1e-12)

    def test_out_of_range(self):
        fit = fitted_model(np.random.default_rng(3))
        with pytest.raises(OutOfRange):
            predict(fit, [0.0], 2.5)
        with pytest.raises(OutOfRange):
            predict(fit, [0.0], -0.1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 3.0, -1.0, float("nan")])
    def test_alpha_outside_unit_interval(self, alpha):
        fit = fitted_model(np.random.default_rng(5))
        with pytest.raises(InvalidInput, match="alpha"):
            predict(fit, [0.0], 1.0, alpha=alpha)
        with pytest.raises(InvalidInput, match="alpha"):
            predict_landmark(fit, [0.0], alpha=alpha)

    def test_covariate_length_check(self):
        fit = fitted_model(np.random.default_rng(4))
        with pytest.raises(InvalidInput):
            predict(fit, [0.0, 1.0], 1.0)


class TestCIndex:
    def records(self, times, status):
        return as_survival_data([SurvivalRecord(i, float(t), int(d))
                                 for i, (t, d) in enumerate(zip(times, status))])

    def test_hand_example(self):
        # at risk at s=0 all; pairs (0,1), (0,2), (1,2) usable; predictions
        # perfectly ordered -> c = 1
        recs = self.records([1, 2, 3], [1, 1, 1])
        assert c_index([1.0, 2.0, 3.0], recs, 0.0, 5.0) == 1.0
        assert c_index([3.0, 2.0, 1.0], recs, 0.0, 5.0) == 0.0
        assert c_index([1.0, 1.0, 1.0], recs, 0.0, 5.0) == 0.5

    def test_truncation_at_horizon(self):
        # event at 4 is beyond s + w = 3: recoded censored, pair unusable
        recs = self.records([2, 4], [1, 1])
        assert c_index([0.5, 0.9], recs, 0.0, 3.0) == 1.0
        recs2 = self.records([3.5, 4], [1, 1])
        assert c_index([0.5, 0.9], recs2, 0.0, 3.0) is None

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        recs = self.records(rng.exponential(5, 30) + 0.1,
                            rng.integers(0, 2, 30))
        preds = rng.normal(size=30)[recs.time > 0.5]
        a = c_index(preds, recs, 0.5, 4.0)
        b = c_index(np.exp(2.0 * preds), recs, 0.5, 4.0)
        assert a == b

    def test_risk_set_filter(self):
        recs = self.records([1, 5, 6], [1, 1, 1])
        # subject 0 not at risk at s=2: predictions cover the remaining pair
        assert c_index([1.0, 2.0], recs, 2.0, 10.0) == 1.0
        with pytest.raises(InvalidInput):
            c_index([0.0, 1.0, 2.0], recs, 2.0, 10.0)
        with pytest.raises(InvalidInput):
            c_index([0.0], self.records([1], [1]), 2.0, 1.0)

    def test_accepts_records(self):
        # records in any order give the same result as their id-sorted columns
        recs = [SurvivalRecord(i, t, 1)
                for i, t in ((2, 6.0), (0, 1.0), (1, 5.0))]
        assert c_index([1.0, 2.0], recs, 2.0, 10.0) == 1.0
        assert c_index([2.0, 1.0], recs, 2.0, 10.0) == 0.0


class TestPredictionError:
    def test_mean_absolute_difference(self):
        assert prediction_error([1.0, 2.0], [0.0, 4.0]) == 1.5
        with pytest.raises(InvalidInput):
            prediction_error([1.0], [1.0, 2.0])
        with pytest.raises(InvalidInput):
            prediction_error([1.0], [1.0], kind="bogus")


class TestStaticModel:
    def test_freezes_biomarker_at_baseline(self):
        surv = [SurvivalRecord(i, 5.0 + i, 1) for i in range(10)]
        long = [LongitudinalRecord(i, 0.0, {"m": float(i)}) for i in range(10)]
        long += [LongitudinalRecord(i, 2.0, {"m": 99.0}) for i in range(10)]
        fit = static_rmst_model(surv, 4.0, longitudinal=long,
                                covariate_names=["m"], extend_tail=True)
        # only the t=0 values can enter: a later value of 99 would destroy
        # the perfect ordering of m with survival time
        assert fit.grid == (0.0,)
        res = predict_landmark(fit, [0.0])
        assert np.isfinite(res.value)

    def test_evaluate_on_validation_shapes(self):
        spec = joint_spec("linear")
        train = simulate_joint(spec, 150, 1)
        val = simulate_joint(spec, 100, 2)
        tr_s, tr_l = train.to_records()
        va_s, va_l = val.to_records()
        grid = [0.0, 2.0, 4.0]
        data = build_super_dataset(tr_s, tr_l, grid, 5.0,
                                   covariate_names=["x1", "x2", "marker"],
                                   extend_tail=True)
        sp = SplineSpec((2.0,), (0.0, 4.0), standardization_scale=4.0)
        layout = BasisLayout(tuple(sp for _ in range(4)))
        fit = fit_super_model(data, layout)
        rows = evaluate_on_validation(fit, tr_s, tr_l, va_s, va_l,
                                      extend_tail=True)
        assert [r.landmark for r in rows] == grid
        for r in rows:
            assert r.reference_kind == "pseudo_value"
            assert r.pe_dynamic >= 0 and r.pe_static >= 0
            assert r.c_index_dynamic is None or 0 <= r.c_index_dynamic <= 1

    def joint_fit(self):
        spec = joint_spec("linear")
        train = simulate_joint(spec, 150, 1).columns()
        data = build_super_dataset(*train, [0.0, 2.0, 4.0], 5.0,
                                   covariate_names=["x1", "x2", "marker"],
                                   extend_tail=True)
        sp = SplineSpec((2.0,), (0.0, 4.0), standardization_scale=4.0)
        return train, fit_super_model(data, BasisLayout((sp,) * 4))

    def test_true_value_references(self):
        train, fit = self.joint_fit()
        val = simulate_joint(joint_spec("linear"), 80, 2)
        rows = evaluate_on_validation(fit, *train, *val.columns(),
                                      extend_tail=True, truth=val.truth)
        # the one truth table evaluation reads: the subjects at risk at the
        # first landmark, cRMST(s_j, 5) then RMST(s_j + 5) per landmark
        grid = np.array(fit.grid)
        first = val.time > grid[0]
        table = val.truth.subset(first).true_crmst(
            np.concatenate((grid, np.zeros(grid.size))),
            np.concatenate((np.full(grid.size, 5.0), grid + 5.0)))
        for j, r in enumerate(rows):
            s = r.landmark
            at_risk = val.time > s
            z = np.column_stack([val.x1, val.x2, val.visit_values[:, 0]])
            marker = [v[~np.isnan(t) & (t <= s)][-1]
                      for t, v in zip(val.visit_times, val.visit_values)]
            z_s = np.column_stack([val.x1, val.x2, marker])[at_risk]
            dyn = predict_values(fit, z_s, s)
            stat_fit = static_rmst_model(train[0], s + 5.0,
                                         longitudinal=train[1],
                                         covariate_names=fit.covariate_names,
                                         extend_tail=True)
            stat = predict_values(stat_fit, z[at_risk])
            assert r.reference_kind == "true_value"
            assert r.pe_dynamic == np.mean(np.abs(
                dyn - table[at_risk[first], j]))
            assert r.pe_static == np.mean(np.abs(
                stat - table[at_risk[first], grid.size + j]))

    def test_pseudo_value_references_match_static_oracle(self):
        train, fit = self.joint_fit()
        val = simulate_joint(joint_spec("linear"), 80, 2)
        val_surv = val.columns()[0]
        rows = evaluate_on_validation(fit, *train, *val.columns(),
                                      extend_tail=True)
        z = np.column_stack([val.x1, val.x2, val.visit_values[:, 0]])
        for r in rows:
            s = r.landmark
            at_risk = val.time > s
            stat_fit = static_rmst_model(train[0], s + 5.0,
                                         longitudinal=train[1],
                                         covariate_names=fit.covariate_names,
                                         extend_tail=True)
            stat = predict_values(stat_fit, z[at_risk])
            at_0, pv = risk_set_pseudo(val.time, val.status, 0.0, s + 5.0,
                                       extend_tail=True)
            assert r.reference_kind == "pseudo_value"
            assert r.pe_static == prediction_error(
                stat, pv[val.time[at_0] > s], kind="pseudo_value")
            assert r.c_index_static == c_index(stat, val_surv, s, 5.0)

    @staticmethod
    def without_baseline(markers, i):
        """The markers without subject i's first visit (its visit at 0)."""
        times, values, offsets = markers.columns["marker"]
        keep = np.ones(times.size, dtype=bool)
        keep[offsets[i]] = False
        counts = np.diff(offsets)
        counts[i] -= 1
        return replace(markers, columns={"marker": (
            times[keep], values[keep],
            np.concatenate(([0], np.cumsum(counts))))})

    @staticmethod
    def censored_at(surv, time):
        """The survival columns with every subject censored at ``time``."""
        status = np.where(surv.time > time, 0, surv.status)
        return replace(surv, time=np.minimum(surv.time, time), status=status)

    def broken_training(self, fault):
        """Training columns with one fault of the static baseline."""
        surv, markers = simulate_joint(joint_spec("linear"), 150, 1).columns()
        if fault == "no baseline marker":
            markers = self.without_baseline(markers, 3)  # the fourth subject
        elif fault == "tail":
            # censored at 8: the horizons 5 and 7 are defined, 9 is not
            surv = self.censored_at(surv, 8.0)
        elif fault == "constant covariate":
            surv = replace(surv, covariates={**surv.covariates,
                                             "x1": np.ones(surv.ids.size)})
        elif fault == "too few subjects":
            surv = surv.subset(np.arange(4))
        elif fault == "one subject":
            surv = surv.subset(np.arange(1))
        return surv, markers

    @pytest.mark.parametrize("fault, error", [
        ("no baseline marker", MissingCovariate),
        ("tail", TailUndefined),
        ("constant covariate", SingularDesign),
        ("too few subjects", InvalidInput),
        ("one subject", EmptyRiskSet),
    ])
    def test_static_baseline_errors_match_static_oracle(self, fault, error):
        _, fit = self.joint_fit()
        train = self.broken_training(fault)
        val = simulate_joint(joint_spec("linear"), 80, 2)
        extend_tail = fault != "tail"
        # the first error of the per-horizon static fits, in landmark order
        want = None
        for s in fit.grid:
            try:
                static_rmst_model(train[0], s + fit.w, longitudinal=train[1],
                                  covariate_names=fit.covariate_names,
                                  extend_tail=extend_tail)
            except DynRmstError as exc:
                want = exc
                break
        assert type(want) is error
        if fault == "tail":
            assert "cannot integrate to 9.0" in str(want)
        with pytest.raises(error) as got:
            evaluate_on_validation(fit, *train, *val.columns(),
                                   extend_tail=extend_tail, truth=val.truth)
        assert type(got.value) is error and str(got.value) == str(want)

    @pytest.mark.parametrize("train_fault, val_fault, error, message", [
        # the validation references fail at the second landmark (horizon
        # 7.0), the static fit at the third (horizon 9.0)
        ("tail", ("censored", 6.5), TailUndefined,
         "risk-set curve at s=2.0 ends at 6.5 with survival > 0; cannot "
         "integrate to 7.0 (pass extend_tail=True to carry the curve "
         "forward)"),
        # a missing validation marker at the first landmark, before both
        ("tail", ("no baseline marker", 5), MissingCovariate,
         "subject 5 has no observation of 'marker' at or before landmark "
         "0.0"),
        # the static fit's time-0 design before the first landmark's
        # references
        ("no baseline marker", ("censored", 3.0), MissingCovariate,
         "subject 3 has no observation of 'marker' at or before landmark "
         "0.0"),
    ])
    def test_errors_come_in_landmark_order(self, train_fault, val_fault,
                                           error, message):
        _, fit = self.joint_fit()
        train = self.broken_training(train_fault)
        val_surv, val_markers = simulate_joint(joint_spec("linear"), 80,
                                               2).columns()
        fault, arg = val_fault
        if fault == "censored":
            val_surv = self.censored_at(val_surv, arg)
        else:
            val_markers = self.without_baseline(val_markers, arg)
        with pytest.raises(error) as got:
            evaluate_on_validation(fit, *train, val_surv, val_markers)
        assert str(got.value) == message

    def test_too_few_at_risk_gives_no_c_index(self):
        train, fit = self.joint_fit()
        val = simulate_joint(joint_spec("linear"), 30, 2)
        # one validation subject is still at risk at the last landmark
        time = np.minimum(val.time, 3.0)
        time[0] = 10.0
        val = replace(val, time=time)
        rows = evaluate_on_validation(fit, *train, *val.columns(),
                                      extend_tail=True, truth=val.truth)
        assert rows[-1].c_index_dynamic is None
        assert rows[-1].c_index_static is None
        assert np.isfinite(rows[-1].pe_dynamic)
        assert all(r.c_index_dynamic is not None for r in rows[:-1])

    def censored_validation(self, n_after):
        """30 validation subjects censored at 3, the first ``n_after`` of
        them followed to 10 instead."""
        val = simulate_joint(joint_spec("linear"), 30, 2)
        time = np.minimum(val.time, 3.0)
        status = np.where(val.time > 3.0, 0, val.status)
        time[:n_after] = 10.0
        status[:n_after] = 0
        return replace(val, time=time, status=status)

    @pytest.mark.parametrize("n_after", [0, 1])
    def test_too_few_at_risk_gives_no_pseudo_value_pe(self, n_after):
        train, fit = self.joint_fit()
        val = self.censored_validation(n_after)
        rows = evaluate_on_validation(fit, *train, *val.columns(),
                                      extend_tail=True)
        assert [r.landmark for r in rows] == [0.0, 2.0, 4.0]
        last = rows[-1]
        assert last.reference_kind == "pseudo_value"
        assert (last.c_index_dynamic, last.c_index_static,
                last.pe_dynamic, last.pe_static) == (None,) * 4
        for r in rows[:-1]:
            assert np.isfinite(r.pe_dynamic) and np.isfinite(r.pe_static)

    def test_nobody_at_risk_gives_no_true_value_pe(self):
        train, fit = self.joint_fit()
        val = self.censored_validation(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = evaluate_on_validation(fit, *train, *val.columns(),
                                          extend_tail=True, truth=val.truth)
        assert rows[-1].pe_dynamic is None and rows[-1].pe_static is None
        assert rows[-1].c_index_dynamic is None
        for r in rows[:-1]:
            assert np.isfinite(r.pe_dynamic) and np.isfinite(r.pe_static)
