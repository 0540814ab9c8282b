"""Prediction, delta-method intervals, C-index, prediction error."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from dynrmst._special import stdtrit
from dynrmst.basis import BasisLayout, SplineSpec, h_matrix
from dynrmst.errors import (DynRmstError, EmptyRiskSet, InvalidInput,
                            MissingCovariate, OutOfRange, SingularDesign,
                            TailUndefined)
from dynrmst.evaluate import (c_index, evaluate_on_validation, predict,
                              predict_landmark, prediction_error,
                              static_rmst_model)
from dynrmst.gee import LOG, fit_super_model
from dynrmst.landmark import build_super_dataset
from dynrmst.sim import joint_spec, simulate_joint
from dynrmst.surv import SurvivalRecord, as_survival_data, risk_set_pseudo
from records import joint_records, marker_table

# a 0/0 or a divide by zero that escapes np.errstate (say, in the padded
# jackknife tables) fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def fitted_model(rng, link=None, n=80):
    t = np.maximum(rng.exponential(6.0, n), 0.1)
    d = rng.integers(0, 2, n)
    surv = [SurvivalRecord(i, float(t[i]), int(d[i]),
                           covariates={"x": float(rng.normal())})
            for i in range(n)]
    data = build_super_dataset(surv, None, [0.0, 1.0, 2.0], 3.0,
                               covariate_names=["x"], extend_tail=True)
    layout = BasisLayout((SplineSpec((1.0,), (0.0, 2.0)), None))
    kwargs = {"link": link} if link is not None else {}
    return fit_super_model(data, layout, **kwargs)


def path_values(fit, z, s):
    """ginv([1, Z] beta(s)) for the rows of Z: the value-only formula of
    ``evaluate_on_validation``."""
    z = np.asarray(z, dtype=float)
    return fit.link.ginv(np.column_stack([np.ones(z.shape[0]), z])
                         @ fit.coefficient_path(s))


class TestPredict:
    def test_value_is_linear_predictor(self):
        fit = fitted_model(np.random.default_rng(0))
        res = predict(fit, [0.7], 1.5)
        zstar = np.array([1.0, 0.7])
        want = zstar @ (h_matrix(fit.layout, 1.5) @ fit.beta)
        assert_allclose(res.value, want, atol=1e-12)

    def test_interval_uses_t_quantile(self):
        fit = fitted_model(np.random.default_rng(1))
        res = predict(fit, [0.3], 1.0, alpha=0.10)
        tq = stats.t.ppf(0.95, fit.df)
        assert_allclose(res.ci_upper - res.value, tq * res.se, rtol=1e-12)

    def test_t_quantile_is_scipy_stats_within_measured_ulps(self):
        """The interval is value -/+ t se with dynrmst's t quantile, which
        is stats.t.ppf's within the largest ulp distance measured per alpha
        on this grid (near p = 1/2 scipy's is the one off the quantile; see
        test_special)."""
        fit = fitted_model(np.random.default_rng(1))
        most = {}
        for df in (1, 2, 3, 7, 30, 118, 1000, 10**6):
            fit_df = replace(fit, n_subjects=df + fit.beta.size)
            for alpha in (1e-6, 0.001, 0.05, 0.1, 0.5, 0.9, 0.999):
                res = predict(fit_df, [0.3], 1.0, alpha=alpha)
                tq = stdtrit(df, 1.0 - alpha / 2.0)
                assert res.ci_lower == res.value - tq * res.se
                assert res.ci_upper == res.value + tq * res.se
                want = np.float64(stats.t.ppf(1.0 - alpha / 2.0, df))
                distance = abs(int(np.float64(tq).view(np.int64))
                               - int(want.view(np.int64)))
                most[alpha] = max(most.get(alpha, 0), distance)
        measured = {1e-6: 1, 0.001: 3, 0.05: 4, 0.1: 2, 0.5: 7, 0.9: 4,
                    0.999: 627}
        assert all(most[alpha] <= measured[alpha] for alpha in measured)

    def test_delta_method_against_finite_difference(self):
        """The reported variance must equal g_vec' Cov g_vec where g_vec is
        the numerical gradient of the prediction wrt beta."""
        for link in (None, LOG):
            fit = fitted_model(np.random.default_rng(2), link=link)
            z, s = [0.4], 1.2
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

    @pytest.mark.parametrize("link", [None, LOG], ids=["identity", "log"])
    def test_one_row_is_the_one_row_formula_bitwise(self, link):
        """x = H(s)' [1, z], eta = x beta, se^2 = (g Cov) g: the formula
        of the one-row prediction before batches, to the bit."""
        fit = fitted_model(np.random.default_rng(7), link=link)
        tq = stdtrit(fit.df, 0.975)
        for z, s in [([0.4], 1.2), ([-1.3], 0.0), ([2.1], 2.0), ([0.0], 1)]:
            x = h_matrix(fit.layout, s).T @ np.concatenate(([1.0], z))
            eta = float(x @ fit.beta)
            grad = float(fit.link.dginv(eta)) * x
            se = float(np.sqrt(max(grad @ fit.covariance @ grad, 0.0)))
            value = float(fit.link.ginv(eta))
            res = predict(fit, z, s)
            assert (res.value, res.se, res.ci_lower, res.ci_upper) == (
                value, se, value - tq * se, value + tq * se)
            assert type(res.value) is float and res.s == float(s)

    @pytest.mark.parametrize("link", [None, LOG], ids=["identity", "log"])
    @pytest.mark.parametrize("s", [
        1.2, [1.2] * 6, [0.0, 2.0, 1.2, 0.0, 0.7, 2.0]],
        ids=["one-s", "repeated-s", "mixed-s"])
    def test_batch_rows_match_one_row_calls(self, link, s):
        z = np.random.default_rng(12).normal(size=(6, 1))
        fit = fitted_model(np.random.default_rng(2), link=link)
        res = predict(fit, z, s, alpha=0.1)
        times = np.broadcast_to(s, (6,))
        rows = [predict(fit, row, s_i, alpha=0.1)
                for row, s_i in zip(z, times)]
        assert_allclose(res.s, times, rtol=0)
        for field in ("value", "se", "ci_lower", "ci_upper"):
            got = getattr(res, field)
            assert isinstance(got, np.ndarray) and got.shape == (6,)
            assert_allclose(got, [getattr(r, field) for r in rows],
                            rtol=1e-12)
        assert (res.df, res.alpha) == (rows[0].df, 0.1)

    def test_batch_of_a_one_landmark_fit_and_of_no_rows(self):
        z = np.random.default_rng(12).normal(size=(6, 1))
        static = static_rmst_model(
            [SurvivalRecord(i, 1.0 + i, 1, covariates={"x": float(i % 3)})
             for i in range(10)], 4.0, extend_tail=True)
        assert_allclose(predict_landmark(static, z).value,
                        [predict_landmark(static, row).value for row in z],
                        rtol=1e-12)
        empty = predict(static, np.empty((0, 1)), 0.0)
        assert empty.value.shape == empty.se.shape == empty.s.shape == (0,)

    def test_batch_out_of_range_names_the_first_s_outside(self):
        fit = fitted_model(np.random.default_rng(3))
        z = np.zeros((4, 1))
        with pytest.raises(OutOfRange) as err:
            predict(fit, z, [1.0, 2.5, -0.1, 3.0])
        assert str(err.value) == ("s=2.5 outside fitted landmark range "
                                  "[0.0, 2.0]")
        with pytest.raises(OutOfRange, match="s=nan outside"):
            predict(fit, z, [1.0, 1.0, np.nan, 1.0])

    @pytest.mark.parametrize("z, s", [
        (0.5, 1.0),                     # a number, not a vector
        (np.zeros((3, 2)), 1.0),        # two covariates, the model has one
        (np.zeros((3, 0)), 1.0),
        (np.zeros((2, 3, 1)), 1.0),
        (np.zeros((3, 1)), [1.0, 1.5]),  # two times for three rows
        (np.zeros((3, 1)), [[1.0]] * 3),
        (np.zeros(1), [1.0]),            # one row takes one time
    ])
    def test_batch_of_a_wrong_shape_is_invalid_input(self, z, s):
        fit = fitted_model(np.random.default_rng(4))
        with pytest.raises(InvalidInput, match="expected"):
            predict(fit, z, s)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_batch_covariate_not_finite_is_invalid_input(self, bad):
        # a batch with an infinite covariate gave inf before
        fit = fitted_model(np.random.default_rng(4))
        z = np.array([[0.5], [bad], [0.1]])
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(InvalidInput,
                              match="prediction at s=1.0 is not finite"):
            predict(fit, z, 1.0)
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(InvalidInput,
                              match="prediction at s=0.5 is not finite"):
            predict(fit, z, [2.0, 0.5, 1.0])

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_predictions_refused(self, bad):
        recs = self.records([1, 2, 3, 4], [1, 1, 0, 1])
        with pytest.raises(InvalidInput, match="not finite"):
            c_index([bad, 1.0, 2.0, 3.0], recs, 0.0, 10.0)

    @pytest.mark.parametrize("s, w", [
        (0.0, -1.0), (0.0, 0.0), (0.0, np.nan), (0.0, np.inf), (-1.0, 2.0),
        (np.nan, 2.0), (np.inf, 2.0)])
    def test_invalid_window_refused(self, s, w):
        # checked first, so an invalid window is named, not returned as None
        recs = self.records([1, 2, 3, 4, 5], [1, 1, 0, 1, 1])
        with pytest.raises(InvalidInput) as err:
            c_index([1.0, 2.0, 3.0, 4.0, 5.0], recs, s, w)
        assert str(err.value) == (f"invalid prediction time/window "
                                  f"(s={s}, w={w})")


class TestPredictionError:
    def test_mean_absolute_difference(self):
        assert prediction_error([1.0, 2.0], [0.0, 4.0]) == 1.5
        with pytest.raises(InvalidInput):
            prediction_error([1.0], [1.0, 2.0])
        with pytest.raises(InvalidInput):
            prediction_error([1.0], [1.0], kind="bogus")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_refused(self, bad):
        for p, r in (([bad, 1.0], [1.0, 2.0]), ([1.0, 2.0], [1.0, bad])):
            with pytest.raises(InvalidInput, match="not finite"):
                prediction_error(p, r)


class TestStaticModel:
    def test_freezes_biomarker_at_baseline(self):
        surv = [SurvivalRecord(i, 5.0 + i, 1) for i in range(10)]
        long = marker_table([(i, 0.0, float(i)) for i in range(10)]
                            + [(i, 2.0, 99.0) for i in range(10)])
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
        tr_s, tr_l = joint_records(train), train.markers
        va_s, va_l = joint_records(val), val.markers
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
        sample = simulate_joint(spec, 150, 1)
        train = sample.survival, sample.markers
        data = build_super_dataset(*train, [0.0, 2.0, 4.0], 5.0,
                                   covariate_names=["x1", "x2", "marker"],
                                   extend_tail=True)
        sp = SplineSpec((2.0,), (0.0, 4.0), standardization_scale=4.0)
        return train, fit_super_model(data, BasisLayout((sp,) * 4))

    @staticmethod
    def design_at(val, s):
        """The validation design (x1, x2, last marker at or before s) of
        every subject."""
        times, values, offsets = val.markers.columns["marker"]
        marker = [values[lo:hi][times[lo:hi] <= s][-1]
                  for lo, hi in zip(offsets[:-1], offsets[1:])]
        return np.column_stack([val.survival.covariates["x1"],
                                val.survival.covariates["x2"], marker])

    def test_true_value_references(self):
        train, fit = self.joint_fit()
        val = simulate_joint(joint_spec("linear"), 80, 2)
        rows = evaluate_on_validation(fit, *train, val.survival, val.markers,
                                      extend_tail=True, truth=val.truth)
        # the one truth table evaluation reads: the subjects at risk at the
        # first landmark, cRMST(s_j, 5) then RMST(s_j + 5) per landmark
        grid = np.array(fit.grid)
        first = val.survival.time > grid[0]
        table = val.truth.subset(first).true_crmst(
            np.concatenate((grid, np.zeros(grid.size))),
            np.concatenate((np.full(grid.size, 5.0), grid + 5.0)))
        for j, r in enumerate(rows):
            s = r.landmark
            at_risk = val.survival.time > s
            z = self.design_at(val, 0.0)
            z_s = self.design_at(val, s)[at_risk]
            dyn = path_values(fit, z_s, s)
            stat_fit = static_rmst_model(train[0], s + 5.0,
                                         longitudinal=train[1],
                                         covariate_names=fit.covariate_names,
                                         extend_tail=True)
            stat = path_values(stat_fit, z[at_risk], 0.0)
            assert r.reference_kind == "true_value"
            assert r.pe_dynamic == np.mean(np.abs(
                dyn - table[at_risk[first], j]))
            assert r.pe_static == np.mean(np.abs(
                stat - table[at_risk[first], grid.size + j]))

    @pytest.mark.parametrize("n_truth", [30, 80])
    def test_truth_of_other_subjects_refused(self, n_truth):
        train, fit = self.joint_fit()
        val = simulate_joint(joint_spec("linear"), 60, 2)
        truth = simulate_joint(joint_spec("linear"), n_truth, 3).truth
        with pytest.raises(InvalidInput, match=f"truth holds {n_truth} "
                           f"subjects for 60 validation subjects"):
            evaluate_on_validation(fit, *train, val.survival, val.markers,
                                   extend_tail=True, truth=truth)

    def test_pseudo_value_references_match_static_oracle(self):
        train, fit = self.joint_fit()
        val = simulate_joint(joint_spec("linear"), 80, 2)
        val_surv = val.survival
        rows = evaluate_on_validation(fit, *train, val_surv, val.markers,
                                      extend_tail=True)
        z = self.design_at(val, 0.0)
        for r in rows:
            s = r.landmark
            at_risk = val_surv.time > s
            stat_fit = static_rmst_model(train[0], s + 5.0,
                                         longitudinal=train[1],
                                         covariate_names=fit.covariate_names,
                                         extend_tail=True)
            stat = path_values(stat_fit, z[at_risk], 0.0)
            at_0, pv = risk_set_pseudo(val_surv.time, val_surv.status, 0.0,
                                       s + 5.0, extend_tail=True)
            assert r.reference_kind == "pseudo_value"
            assert r.pe_static == prediction_error(
                stat, pv[val_surv.time[at_0] > s], kind="pseudo_value")
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
        sample = simulate_joint(joint_spec("linear"), 150, 1)
        surv, markers = sample.survival, sample.markers
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
            evaluate_on_validation(fit, *train, val.survival, val.markers,
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
        val = simulate_joint(joint_spec("linear"), 80, 2)
        val_surv, val_markers = val.survival, val.markers
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
        time = np.minimum(val.survival.time, 3.0)
        time[0] = 10.0
        val = replace(val, survival=replace(val.survival, time=time))
        rows = evaluate_on_validation(fit, *train, val.survival, val.markers,
                                      extend_tail=True, truth=val.truth)
        assert rows[-1].c_index_dynamic is None
        assert rows[-1].c_index_static is None
        assert np.isfinite(rows[-1].pe_dynamic)
        assert all(r.c_index_dynamic is not None for r in rows[:-1])

    def censored_validation(self, n_after):
        """30 validation subjects censored at 3, the first ``n_after`` of
        them followed to 10 instead."""
        val = simulate_joint(joint_spec("linear"), 30, 2)
        time = np.minimum(val.survival.time, 3.0)
        status = np.where(val.survival.time > 3.0, 0, val.survival.status)
        time[:n_after] = 10.0
        status[:n_after] = 0
        return replace(val, survival=replace(val.survival, time=time,
                                             status=status))

    @pytest.mark.parametrize("n_after", [0, 1])
    def test_too_few_at_risk_gives_no_pseudo_value_pe(self, n_after):
        train, fit = self.joint_fit()
        val = self.censored_validation(n_after)
        rows = evaluate_on_validation(fit, *train, val.survival, val.markers,
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
            rows = evaluate_on_validation(fit, *train, val.survival,
                                          val.markers, extend_tail=True,
                                          truth=val.truth)
        assert rows[-1].pe_dynamic is None and rows[-1].pe_static is None
        assert rows[-1].c_index_dynamic is None
        for r in rows[:-1]:
            assert np.isfinite(r.pe_dynamic) and np.isfinite(r.pe_static)
