"""Simulation designs, numerical truth, and Monte Carlo metrics."""

import functools
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from types import SimpleNamespace
from numpy.testing import assert_allclose
from scipy import integrate, stats

from dynrmst import _blas, dataio, sim
from dynrmst.basis import BasisLayout, SplineSpec
from dynrmst.errors import EmptyRiskSet, InvalidInput
from dynrmst.gee import IDENTITY, fit_super_model, sandwich_cov
from dynrmst.surv import SurvivalData, _jackknife_moments, crmstd_test
from dynrmst._blas import _openblas_threads, _thread_functions
from dynrmst.sim import (_GL_NODES, _GL_WEIGHTS, JointModelSpec, JointTruth,
                         _invert_event_times, _true_crmst_arm,
                         calibrate_joint_censoring, coefficient_mc, joint_spec,
                         mc_metrics, prediction_experiment, scenario_mc,
                         scenario_spec, simulate_joint, simulate_scenario,
                         true_crmstd)
from records import joint_columns


def scenario_arms(spec, seed):
    """(control, treatment) SurvivalData of one ``simulate_scenario`` draw."""
    data = simulate_scenario(spec, seed)
    return tuple(data.subset(data.group == arm) for arm in (0, 1))


def monte_carlo_crmstd(spec, s, w, n_draws=1_000_000, seed=0):
    """The oracle of ``true_crmstd``: per arm, the mean of min(T - s, w)
    over the survivors at s of ``n_draws`` uncensored event times drawn by
    inverting the piecewise-exponential cumulative hazard."""
    rng = sim._rng_of(seed)
    mus = []
    for table in spec._arm_tables:
        t = sim._pw_invert(*table, rng.exponential(size=n_draws))
        mus.append(float(np.mean(np.minimum(t[t > s] - s, w))))
    return mus[1] - mus[0]


class TestScenarioDesigns:
    def test_control_median(self):
        spec = scenario_spec(1, 200_000)
        control, _ = scenario_arms(spec, 7)
        assert abs(np.median(control.time) - 10.0) < 0.15

    def test_null_scenario_arms_exchangeable(self):
        spec = scenario_spec(1, 20_000)
        control, treat = scenario_arms(spec, 11)
        ks = stats.ks_2samp(control.time, treat.time)
        assert ks.pvalue > 0.01

    @pytest.mark.parametrize("censor_target", [0.0, 0.3])
    def test_one_dataset_holds_both_arms_in_id_order(self, censor_target):
        spec = scenario_spec(3, 50, censor_target=censor_target)
        data = simulate_scenario(spec, 5)
        ids = data.ids.tolist()
        assert ids == sorted(ids) and len(set(ids)) == 100
        assert ids[:2] == ["c000000", "c000001"] and ids[50] == "t000000"
        assert data.group.tolist() == [0] * 50 + [1] * 50
        assert data.covariates == {}
        for arm, (y, d) in enumerate(sim._draw_arms(
                spec, [np.random.default_rng(5)])):
            part = data.subset(data.group == arm)
            assert part.time.tobytes() == y[0].tobytes()
            assert part.status.tobytes() == d[0].tobytes()

    def test_delayed_effect_coincides_before_split(self):
        # design 4 has hazard ratio 1 before t = 10
        spec = scenario_spec(4, 10)
        for s, w in ((0.0, 10.0), (2.0, 5.0), (0.0, 3.0)):
            assert_allclose(_true_crmst_arm(spec, 1, s, w),
                            _true_crmst_arm(spec, 0, s, w), rtol=1e-12)
        # and separates afterwards
        assert _true_crmst_arm(spec, 1, 5.0, 10.0) > \
            _true_crmst_arm(spec, 0, 5.0, 10.0)

    def test_exponential_memorylessness(self):
        # for a constant-hazard arm the conditional value cannot depend on s
        spec = scenario_spec(1, 10)
        r = spec.control_rate
        closed = (1.0 - np.exp(-r * 5.0)) / r
        for s in (0.0, 3.0, 12.0):
            assert_allclose(_true_crmst_arm(spec, 0, s, 5.0), closed,
                            rtol=1e-12)

    def test_censoring_fraction_hits_target(self):
        for number, target in ((2, 0.3), (3, 0.15)):
            spec = scenario_spec(number, 50_000, censor_target=target)
            for arm in scenario_arms(spec, 13):
                assert abs(np.mean(1 - arm.status) - target) < 0.02

    def test_truth_routes_agree(self):
        for number in (1, 2, 3, 4):
            spec = scenario_spec(number, 10)
            for s, w in ((0.0, 10.0), (5.0, 5.0), (5.0, 10.0)):
                cf = true_crmstd(spec, s, w)
                mc = monte_carlo_crmstd(spec, s, w, seed=1)
                assert abs(cf - mc) < 0.02  # ~3 MC standard errors at 1e6

    def test_spec_validation(self):
        with pytest.raises(InvalidInput):
            scenario_spec(5, 100)
        with pytest.raises(InvalidInput):
            scenario_spec(1, 1)
        with pytest.raises(InvalidInput):
            scenario_spec(1, 100, censor_target=1.0)
        with pytest.raises(InvalidInput, match="n_per_arm"):
            scenario_spec(1, 2.5)

    @pytest.mark.parametrize("field, value", [
        ("control_median", float("nan")), ("control_median", float("inf")),
        ("hr_pieces", ((0.0, float("inf")),)),
        ("hr_pieces", ((0.0, 1.0), (float("nan"), 0.5))),
        ("censor_a", float("inf")), ("censor_b", float("nan"))])
    def test_non_finite_scenario_parameters_are_named(self, field, value):
        with pytest.raises(InvalidInput, match=field):
            replace(scenario_spec(1, 10), **{field: value})
        if field == "control_median":
            with pytest.raises(InvalidInput, match=field):
                scenario_spec(1, 10, control_median=value)

    @pytest.mark.parametrize("target", [5e-324, 1e-12])
    def test_unreachable_censoring_target_is_invalid_input(self, target):
        with pytest.raises(InvalidInput, match="censoring bound"):
            scenario_spec(1, 10, censor_target=target)


class TestJointModel:
    def test_non_positive_definite_re_cov_rejected(self):
        with pytest.raises(InvalidInput):
            replace(joint_spec("linear"), re_cov=((1.0, 2.0), (2.0, 1.0)))
        with pytest.raises(InvalidInput):
            replace(joint_spec("linear"), re_cov=((1.0, 0.1),))

    @pytest.mark.parametrize("field", ["weibull_shape", "alpha", "beta0",
                                       "error_sd", "max_followup",
                                       "censor_upper"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_are_named(self, field, value):
        with pytest.raises(InvalidInput, match=field):
            replace(joint_spec("linear"), **{field: value})

    def test_negative_x2_sd_is_invalid_input(self):
        with pytest.raises(InvalidInput, match="x2_sd"):
            replace(joint_spec("linear"), x2_sd=-1.0)

    @pytest.mark.parametrize("n, seed, name", [
        (0, 1, "n"), (-5, 1, "n"), (2.5, 1, "n"), (3, -1, "seed"),
        (3, 1.5, "seed"), (3, None, "seed")])
    def test_size_and_seed_must_be_integers(self, n, seed, name):
        with pytest.raises(InvalidInput, match=f"^{name} must be"):
            simulate_joint(joint_spec("linear"), n, seed)

    def test_censoring_calibration_needs_a_pilot(self):
        with pytest.raises(InvalidInput, match="^n must be"):
            calibrate_joint_censoring(joint_spec("linear"), 0.3, pilot_n=0)

    def test_same_seed_is_bitwise_deterministic(self):
        spec = joint_spec("linear", censor_upper=40.0)
        a = joint_columns(simulate_joint(spec, 500, 42))
        b = joint_columns(simulate_joint(spec, 500, 42))
        for field in a:
            assert np.array_equal(a[field], b[field]), field
        c = simulate_joint(spec, 500, 43)
        assert not np.array_equal(a["time"], c.survival.time)

    def test_quadratic_trajectory_runs(self):
        sample = simulate_joint(joint_spec("quadratic"), 200, 3)
        assert sample.n == 200
        assert np.all(sample.survival.time <= sample.spec.max_followup)
        # baseline visit always observed
        times, _, offsets = sample.markers.columns["marker"]
        assert np.all(offsets[1:] > offsets[:-1])
        assert np.all(times[offsets[:-1]] == 0.0)

    def test_columns_write_and_read_back_bitwise(self, tmp_path):
        spec = joint_spec("linear")
        sample = simulate_joint(spec, 50, 5)
        surv, markers = sample.survival, sample.markers
        assert surv.ids.tolist() == list(range(50))
        assert markers.ids is surv.ids
        # the markers are the drawn visits up to each observed time
        vt = sim._joint_draws(spec, 50, np.random.default_rng(5))[4]
        observed = vt <= surv.time[:, None]
        times, values, offsets = markers.columns["marker"]
        assert times.tobytes() == vt[observed].tobytes()
        assert np.array_equal(offsets[1:] - offsets[:-1],
                              np.sum(observed, axis=1))
        dataio.write_survival(tmp_path / "surv.csv", surv)
        dataio.write_longitudinal(tmp_path / "long.csv", markers)
        back = dataio.read_survival(tmp_path / "surv.csv")
        # the reader's ids are the text of the written ids, in text order
        order = np.argsort(surv.ids.astype(str), kind="stable")
        assert back.ids.tolist() == surv.ids.astype(str)[order].tolist()
        for a, b in ((back.time, surv.time), (back.status, surv.status),
                     (back.covariates["x1"], surv.covariates["x1"]),
                     (back.covariates["x2"], surv.covariates["x2"])):
            assert a.tobytes() == b[order].tobytes()
        table = dataio.read_longitudinal(tmp_path / "long.csv")
        # every subject has a visit at 0, so the table has the reader's ids,
        # and its rows are the subjects' rows in text order
        assert table.ids.tolist() == back.ids.tolist()
        rows = np.concatenate([np.arange(offsets[i], offsets[i + 1])
                               for i in order])
        got_times, got_values, got_offsets = table.columns["marker"]
        assert got_times.tobytes() == times[rows].tobytes()
        assert got_values.tobytes() == values[rows].tobytes()
        assert np.array_equal(np.diff(got_offsets), np.diff(offsets)[order])

    @pytest.mark.parametrize("trajectory", ["linear", "quadratic"])
    @pytest.mark.parametrize("censor_upper", [None, 25.0])
    def test_chunked_draws_are_separate_samples_bitwise(self, trajectory,
                                                        censor_upper):
        spec = joint_spec(trajectory, censor_upper=censor_upper)
        sizes = (1, 7, 500)
        # three streams, then one stream drawing two samples in turn (a
        # prediction replicate's training and validation draws)
        shared = np.random.default_rng(99)
        chunk = sim._joint_samples(
            spec, [(n, np.random.default_rng(n)) for n in sizes]
            + [(7, shared), (500, shared)])
        alone = [simulate_joint(spec, n, np.random.default_rng(n))
                 for n in sizes]
        shared = np.random.default_rng(99)
        alone += [simulate_joint(spec, n, shared) for n in (7, 500)]
        assert len(chunk) == len(alone)
        for got, want in zip(chunk, alone):
            got_columns, want_columns = joint_columns(got), joint_columns(want)
            for field, array in want_columns.items():
                assert (got_columns[field].tobytes()
                        == array.tobytes()), (want.n, field)
            for c in ("c0", "c1", "c2"):
                assert (getattr(got.truth, c).tobytes()
                        == getattr(want.truth, c).tobytes())

    def test_censoring_calibration(self):
        spec = joint_spec("linear")
        a = calibrate_joint_censoring(spec, 0.30, pilot_n=50_000, seed=0)
        sample = simulate_joint(replace(spec, censor_upper=a), 50_000, 9)
        frac = float(np.mean(sample.survival.status == 0))
        assert abs(frac - 0.30) < 0.02


def reference_hazard(truth, t):
    """The hazard as one expression, lam t^(lam-1) exp(c0 + c1 t + c2 t t)
    (zero at t <= 0): ``JointTruth._hazard`` must equal it to the bit."""
    positive = t > 0
    base = truth.lam * np.where(positive, t, 1.0) ** (truth.lam - 1.0)
    return np.where(positive, base, 0.0) * np.exp(
        truth.c0[:, None] + truth.c1[:, None] * t
        + truth.c2[:, None] * t * t)


def reference_cum_increments(truth, left, right):
    """``JointTruth._cum_increments`` on ``reference_hazard``."""
    mid = (left + right) / 2.0
    half = (right - left) / 2.0
    flat = left.shape[:-1] + (-1,)
    t = (mid[..., None] + half[..., None] * _GL_NODES).reshape(flat)
    wt = (half[..., None] * _GL_WEIGHTS).reshape(flat)
    hv = reference_hazard(truth, t) * wt
    return hv.reshape(truth.c0.size, left.shape[-1], _GL_NODES.size).sum(axis=2)


@st.composite
def hazard_cases(draw):
    """A JointTruth with random coefficients (every c2 zero, or mixed) and
    times shared by all subjects, shape (m,), or per subject, shape (n, m),
    some of them <= 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    c2 = rng.normal(0.0, 0.1, n)
    if draw(st.booleans()):
        c2[:] = 0.0
    else:
        c2[rng.random(n) < 0.3] = 0.0
    truth = JointTruth(lam=draw(st.sampled_from([0.5, 1.0, 3.0,
                                                  draw(st.floats(0.2, 4.0))])),
                       c0=rng.normal(-4.0, 2.0, n), c1=rng.normal(0.0, 0.3, n),
                       c2=c2)
    shape = (m,) if draw(st.booleans()) else (n, m)
    t = rng.uniform(-2.0, 12.0, shape)
    t[rng.random(shape) < 0.1] = 0.0
    return truth, t


class TestHazardOracle:
    @settings(max_examples=200, deadline=None)
    @given(hazard_cases())
    def test_hazard_and_increments_are_the_reference_bitwise(self, case):
        truth, t = case
        assert np.array_equal(truth._hazard(t), reference_hazard(truth, t))
        left = np.sort(np.abs(t), axis=-1)
        right = left + np.abs(t)
        assert np.array_equal(truth._cum_increments(left, right),
                              reference_cum_increments(truth, left, right))

    @pytest.mark.parametrize("trajectory", ["linear", "quadratic"])
    def test_event_times_are_the_reference_runs(self, trajectory,
                                                 monkeypatch):
        spec = joint_spec(trajectory, censor_upper=25.0)
        got = simulate_joint(spec, 400, 11)
        monkeypatch.setattr(JointTruth, "_hazard", reference_hazard)
        monkeypatch.setattr(JointTruth, "_cum_increments",
                            reference_cum_increments)
        want = simulate_joint(spec, 400, 11)
        assert np.array_equal(got.survival.time, want.survival.time)
        assert np.array_equal(got.survival.status, want.survival.status)


def _full_table(truth, edges):
    """The cumulative hazard at every edge, for every subject."""
    inc = truth._cum_increments(edges[:-1], edges[1:])
    return np.concatenate([np.zeros((inc.shape[0], 1)),
                           np.cumsum(inc, axis=1)], axis=1)


def _full_table_bracket(truth, e, edges):
    """Reference bracket search: the whole cumulative-hazard table for every
    subject, then k = #{table entries <= e_i} - 1, clipped to the panels."""
    cum = _full_table(truth, edges)
    k = np.clip(np.sum(cum <= e[:, None], axis=1) - 1, 0, edges.size - 2)
    return k, cum[np.arange(k.size), k], cum[:, -1] >= e


@st.composite
def bound_cases(draw):
    """(truth, e, edges): a Weibull shape in [0.2, 4] (the worst rule error
    of the table is near 1.09), c1 all zero or mixed, c2 all zero, mixed
    or all negative, and draws e from 0.5 to 2 times H_i(max_t)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    lam = draw(st.sampled_from([1.09, 3.0, draw(st.floats(0.2, 4.0))]))
    # c1 and c2 down to 1e-9, where the bound is tight
    c1 = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-9.0, 0.0, n)
    c1[rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
    c2 = rng.normal(0.0, 0.1, n) * 10.0 ** rng.uniform(-9.0, 0.0, n)
    c2_kind = draw(st.sampled_from(["zero", "mixed", "negative"]))
    if c2_kind == "zero":
        c2[:] = 0.0
    elif c2_kind == "mixed":
        c2[rng.random(n) < 0.3] = 0.0
    else:
        c2 = -np.abs(c2)
    truth = JointTruth(lam=lam, c0=rng.normal(-4.0, 2.0, n), c1=c1, c2=c2)
    edges = np.linspace(0.0, draw(st.sampled_from([20.0, 1.0, 7.3])),
                        sim.HAZARD_PANELS + 1)
    e = _full_table(truth, edges)[:, -1] * rng.uniform(0.5, 2.0, n)
    return truth, e, edges


def _full_table_inversion(truth, e, max_t, panels=sim.HAZARD_PANELS):
    """Reference inversion: the full-table bracket and the Newton solve,
    8,192 subjects at a time."""
    n = truth.c0.size
    times, has_event = np.full(n, np.inf), np.zeros(n, dtype=bool)
    edges = np.linspace(0.0, max_t, panels + 1)
    for lo in range(0, n, 8192):
        sub = truth.subset(slice(lo, lo + 8192))
        ee = e[lo:lo + 8192]
        k, h_k, ev = _full_table_bracket(sub, ee, edges)
        has_event[lo:lo + 8192] = ev
        if np.any(ev):
            times[lo + np.flatnonzero(ev)] = sim._newton(
                sub.subset(ev), ee[ev], edges, k[ev], h_k[ev])
    return times, has_event


class TestEventTimeInversion:
    def test_quadrature_halving(self):
        truth = simulate_joint(joint_spec("quadratic"), 500, 6).truth
        rng = np.random.default_rng(6)
        t = rng.uniform(0.5, 20.0, 500)
        coarse = truth.cumulative_hazard(t, panels=160)
        fine = truth.cumulative_hazard(t, panels=320)
        rel = np.abs(coarse - fine) / np.maximum(np.abs(fine), 1.0)
        assert np.max(rel) <= 1e-9

    def test_residual_invariant(self):
        truth = simulate_joint(joint_spec("linear"), 2000, 7).truth
        rng = np.random.default_rng(7)
        e = rng.exponential(size=2000)
        t, has_event = _invert_event_times(truth, e, 20.0)
        sub = truth.subset(has_event)
        resid = np.abs(sub.cumulative_hazard(t[has_event]) - e[has_event])
        assert np.max(resid) <= 1e-8

    @pytest.mark.parametrize("trajectory", ["linear", "quadratic"])
    @pytest.mark.parametrize("alpha", [1.0, 0.3, -0.5])
    def test_samples_match_full_table_bitwise(self, trajectory, alpha,
                                              monkeypatch):
        # 10,000 subjects span several chunks of the lazy bracket search
        per_chunk = sim._TABLE_CELLS // (sim._BRACKET_PANELS * _GL_NODES.size)
        assert per_chunk < 10_000
        for censor_upper in (None, 25.0):
            spec = joint_spec(trajectory, censor_upper=censor_upper,
                              alpha=alpha)
            for n in (1, 7, 500, 3000, 10_000):
                with monkeypatch.context() as m:
                    m.setattr(sim, "_invert_event_times", _full_table_inversion)
                    want = simulate_joint(spec, n, n)
                got = joint_columns(simulate_joint(spec, n, n))
                for field, array in joint_columns(want).items():
                    assert got[field].tobytes() == array.tobytes(), (n, field)

    @staticmethod
    def newton_problem():
        """(truth, draws, edges, panels, anchors) of 2,000 subjects' events."""
        truth = simulate_joint(joint_spec("linear"), 2000, 2000).truth
        e = np.random.default_rng(2000).exponential(size=2000)
        edges = np.linspace(0.0, 20.0, sim.HAZARD_PANELS + 1)
        k, h_k, ev = sim._bracket_panels(truth, e, edges)
        return truth.subset(ev), e[ev], edges, k[ev], h_k[ev]

    def test_newton_evaluates_only_unconverged_rows(self, monkeypatch):
        sub, e, edges, k, h_k = self.newton_problem()
        rows = []
        increments = JointTruth._cum_increments

        def counted(truth, left, right):
            rows.append(truth.c0.size)
            return increments(truth, left, right)

        monkeypatch.setattr(JointTruth, "_cum_increments", counted)
        times = sim._newton(sub, e, edges, k, h_k)
        # the first residual covers every row, each later one only the rows
        # still above the tolerance, down to a handful
        assert rows[0] == e.size
        assert all(b <= a for a, b in zip(rows, rows[1:]))
        assert rows[-1] < e.size // 100
        monkeypatch.undo()
        residual = h_k + sub._cum_increments(edges[k][:, None],
                                             times[:, None])[:, 0] - e
        assert np.max(np.abs(residual)) <= sim.INVERSION_TOL

    def test_newton_time_does_not_depend_on_row(self):
        sub, e, edges, k, h_k = self.newton_problem()
        whole = sim._newton(sub, e, edges, k, h_k)
        # blocks of 7 put most subjects at another row of a shorter solve
        blocks = [sim._newton(sub.subset(slice(i, i + 7)), e[i:i + 7], edges,
                              k[i:i + 7], h_k[i:i + 7])
                  for i in range(0, e.size, 7)]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(bound_cases())
    def test_bound_rules_out_only_subjects_with_no_event(self, case):
        truth, e, edges = case
        bound = sim._event_bound(truth, edges) * (1.0 + sim._BOUND_SLACK)
        assert np.all(bound >= _full_table(truth, edges)[:, -1])
        k_ref, h_ref, ev_ref = _full_table_bracket(truth, e, edges)
        assert not ev_ref[bound < e].any()
        k, h_k, ev = sim._bracket_panels(truth, e, edges)
        assert np.array_equal(ev, ev_ref)
        assert np.array_equal(k[ev], k_ref[ev])
        assert h_k[ev].tobytes() == h_ref[ev].tobytes()

    def test_bound_rules_out_most_subjects_with_no_event(self):
        for trajectory in ("linear", "quadratic"):
            truth = simulate_joint(joint_spec(trajectory), 2000, 2000).truth
            e = np.random.default_rng(2000).exponential(size=2000)
            edges = np.linspace(0.0, 20.0, sim.HAZARD_PANELS + 1)
            bound = sim._event_bound(truth, edges)
            ruled = bound * (1.0 + sim._BOUND_SLACK) < e
            no_event = ~_full_table_bracket(truth, e, edges)[2]
            assert not ruled[~no_event].any()
            assert ruled.sum() >= 0.8 * no_event.sum() > 0

    def test_bracket_edge_cases(self):
        truth = simulate_joint(joint_spec("linear"), 40, 4).truth
        edges = np.linspace(0.0, 20.0, sim.HAZARD_PANELS + 1)
        inc = truth._cum_increments(edges[:-1], edges[1:])
        cum = np.concatenate([np.zeros((40, 1)), np.cumsum(inc, axis=1)],
                             axis=1)
        e = np.random.default_rng(4).exponential(size=40)
        e[0] = 0.0
        e[1] = cum[1, -1]  # event exactly at max_t: the last panel
        e[2] = cum[2, -1] * 2.0 + 1.0  # no event in follow-up
        e[3] = cum[3, sim._BRACKET_PANELS]  # equal to a block's first entry
        k, h_k, ev = sim._bracket_panels(truth, e, edges)
        k_ref, h_ref, ev_ref = _full_table_bracket(truth, e, edges)
        assert np.array_equal(ev, ev_ref) and not ev[2] and ev[1]
        assert np.array_equal(k[ev], k_ref[ev])
        assert h_k[ev].tobytes() == h_ref[ev].tobytes()
        assert k[0] == 0 and k[1] == sim.HAZARD_PANELS - 1
        assert k[3] == sim._BRACKET_PANELS
        t, has_event = _invert_event_times(truth, e, 20.0)
        t_ref, has_ref = _full_table_inversion(truth, e, 20.0)
        assert t.tobytes() == t_ref.tobytes()
        assert np.array_equal(has_event, has_ref) and t[2] == np.inf

    def test_tabulation_stays_within_the_cell_budget(self, monkeypatch):
        cells = []
        increments = JointTruth._cum_increments

        def recorded(self, left, right):
            cells.append(self.c0.size * left.shape[-1] * _GL_NODES.size)
            return increments(self, left, right)

        monkeypatch.setattr(JointTruth, "_cum_increments", recorded)
        simulate_joint(joint_spec("quadratic"), 10_000, 5)
        assert cells and max(cells) <= sim._TABLE_CELLS

    def test_truth_simpson_accuracy_contract(self):
        """Against an adaptive-quadrature oracle: near machine precision away
        from the stiff regime, and never worse than one panel width for
        subjects whose survival collapses within the first panel."""
        from scipy.integrate import quad

        truth = simulate_joint(joint_spec("linear"), 300, 8).truth
        s, w, panels = 5.0, 5.0, 128
        a = truth.true_crmst(s, w, panels=panels)

        def oracle(i):
            c0, c1, lam = truth.c0[i], truth.c1[i], truth.lam

            def cumhaz(t):
                return quad(lambda u: lam * u ** (lam - 1.0)
                            * np.exp(c0 + c1 * u), 0.0, t, limit=400)[0]

            h_s = cumhaz(s)
            return quad(lambda u: np.exp(-(cumhaz(s + u) - h_s)),
                        0.0, w, limit=400)[0]

        order = np.argsort(a)
        check = list(order[:3]) + list(order[-3:]) + list(order[::50])
        for i in check:
            err = abs(a[i] - oracle(i))
            if a[i] > 2.0:
                assert err <= 1e-7
            elif a[i] > 0.5:
                assert err <= 1e-6
            else:
                assert err <= w / panels


def window_oracle(truth, i, s, w):
    """Adaptive-quadrature cRMST of subject i over (s, w): the hazard over
    (s, s + u) by ``quad`` inside the ``quad`` over u."""
    from scipy.integrate import quad

    c0, c1, c2, lam = truth.c0[i], truth.c1[i], truth.c2[i], truth.lam

    def hazard(t):
        return lam * t ** (lam - 1.0) * np.exp(c0 + c1 * t + c2 * t * t)

    return quad(lambda u: np.exp(-quad(hazard, s, s + u, limit=400)[0]),
                0.0, w, limit=400)[0]


def uniform_simpson(truth, s, w, panels=128):
    """The single-window rule: hazard increments by the truth's
    Gauss-Legendre rule (``sim._TRUTH_NODES``) on a uniform grid of
    ``panels`` panels over [s, s + w], then Simpson."""
    edges = np.linspace(s, s + w, panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    t = (mid[:, None] + half[:, None] * sim._TRUTH_NODES).ravel()
    wt = (half[:, None] * sim._TRUTH_WEIGHTS).ravel()
    inc = (truth._hazard(t) * wt).reshape(truth.c0.size, panels,
                                          sim._TRUTH_NODES.size).sum(axis=2)
    dh = np.concatenate([np.zeros((truth.c0.size, 1)),
                         np.cumsum(inc, axis=1)], axis=1)
    return integrate.simpson(np.exp(-dh), x=edges, axis=1)


class TestTruthTable:
    def test_scalar_window_is_the_uniform_simpson_bitwise(self):
        truth = simulate_joint(joint_spec("linear"), 400, 8).truth
        for s, w in ((0.0, 5.0), (5.0, 5.0), (0.1, 0.3), (2.5, 7.3),
                     (1 / 3, 1 / 7), (9.5, 5.0)):
            assert np.array_equal(truth.true_crmst(s, w),
                                  uniform_simpson(truth, s, w))
        assert np.array_equal(truth.true_crmst(0.0, 12.5),
                              uniform_simpson(truth, 0.0, 12.5))

    def test_window_table_matches_quad_oracle(self):
        """cRMST windows (s_j, w) and RMST windows (0, s_j + w) from one call,
        within the graded bounds of the single-window contract."""
        truth = simulate_joint(joint_spec("linear"), 300, 8).truth
        s, w, panels = np.array([0.0, 2.5, 5.0, 10.0]), 5.0, 128
        table = truth.true_crmst(np.concatenate((s, np.zeros(s.size))),
                                 np.concatenate((np.full(s.size, w), s + w)),
                                 panels=panels)
        assert table.shape == (300, 2 * s.size)
        windows = [(s_j, w) for s_j in s] + [(0.0, s_j + w) for s_j in s]
        for j, (a, b) in enumerate(windows):
            col = table[:, j]
            order = np.argsort(col)
            for i in list(order[:2]) + list(order[-2:]) + list(order[::75]):
                err = abs(col[i] - window_oracle(truth, i, a, b))
                if col[i] > 2.0:
                    assert err <= 1e-7
                elif col[i] > 0.5:
                    assert err <= 1e-6
                else:
                    assert err <= w / panels

    @pytest.mark.parametrize("trajectory", ["linear", "quadratic"])
    def test_at_risk_cells_hold_the_stated_bound(self, trajectory):
        """The windows ``evaluate_on_validation`` reads, (s_j, w) and
        (0, s_j + w), at the cells of subjects at risk at s_j are within the
        docstring's 1.8e-5 of nested adaptive quadrature.  Each window is
        checked at its four highest-hazard subjects at risk (the least
        cRMST) and at every 60th of the others."""
        sample = simulate_joint(joint_spec(trajectory), 400, 1)
        truth, y = sample.truth, sample.survival.time
        grid, w = np.arange(0.0, 10.5, 2.5), 5.0
        windows = [(s_j, w) for s_j in grid] + [(0.0, s_j + w) for s_j in grid]
        table = truth.true_crmst(*np.transpose(windows))
        lowest = np.inf
        for j, (s_j, (a, b)) in enumerate(zip(np.tile(grid, 2), windows)):
            rows = np.flatnonzero(y > s_j)
            order = rows[np.argsort(table[rows, j])]
            for i in np.concatenate((order[:4], order[::60])):
                err = abs(table[i, j] - window_oracle(truth, i, a, b))
                assert err <= 1.8e-5
                lowest = min(lowest, table[i, j] / b)
        assert lowest < 0.1  # a subject whose survival falls within the window

    @pytest.mark.parametrize("trajectory", ["linear", "quadratic"])
    def test_truth_rule_is_the_ten_node_rule_at_read_cells(self, trajectory,
                                                          monkeypatch):
        """The 4-node rule of ``true_crmst`` against the 10-node rule of the
        inversion, on the 2J windows of a prediction replicate (grid 0:10
        by 0.5, w = 5) at the cells ``evaluate_on_validation`` reads.  Over
        seeds 0-39 of 300 subjects the two differed by at most 5.33e-15
        (3 ulps of a value near 10) in both trajectories."""
        sample = simulate_joint(joint_spec(trajectory), 300, 8)
        grid = np.arange(0.0, 10.25, 0.5)
        s = np.concatenate((grid, np.zeros(grid.size)))
        w = np.concatenate((np.full(grid.size, 5.0), grid + 5.0))
        read = sample.survival.time[:, None] > np.tile(grid, 2)
        four = sample.truth.true_crmst(s, w)
        monkeypatch.setattr(sim, "_TRUTH_NODES", _GL_NODES)
        monkeypatch.setattr(sim, "_TRUTH_WEIGHTS", _GL_WEIGHTS)
        ten = sample.truth.true_crmst(s, w)
        assert not np.array_equal(four, ten)
        assert np.abs(four - ten)[read].max() <= 5.4e-15

    def test_disjoint_windows_are_their_own_simpson_bitwise(self):
        """A narrow window refines only the gaps it covers: disjoint windows
        of different widths are each the single-window rule, and the gap
        between them is not integrated."""
        truth = simulate_joint(joint_spec("linear"), 200, 8).truth
        s, w = [0.0, 3.0, 7.5], [1.0, 0.2, 2.5]
        table = truth.true_crmst(s, w)
        for j, (a, b) in enumerate(zip(s, w)):
            assert np.array_equal(table[:, j], uniform_simpson(truth, a, b))

    @pytest.mark.parametrize("panels", [2, 4, 6, 10, 16, 32, 64, 100, 128])
    def test_simpson_is_scipy_simpson_bitwise(self, panels):
        """Gap groups of random non-uniform widths, each cut into ``panels``
        equal panels, as ``true_crmst`` lays them out."""
        rng = np.random.default_rng(panels)
        bounds = np.concatenate(([0.0], np.cumsum(rng.exponential(2.0, 7))))
        edges = np.linspace(bounds[:-1], bounds[1:], panels + 1, axis=1)
        y = np.exp(-np.cumsum(rng.uniform(0.0, 0.3, (50, 7, panels + 1)),
                              axis=2))
        assert np.array_equal(
            sim._simpson(y, edges[None]),
            integrate.simpson(y, x=edges[None], axis=2))

    def test_validation_windows_are_scipy_simpson_bitwise(self, monkeypatch):
        """The 2J windows ``evaluate_on_validation`` asks for, against the
        same call with scipy's rule put back in."""
        truth = simulate_joint(joint_spec("quadratic"), 300, 8).truth
        grid = np.linspace(0.0, 10.0, 6)
        s = np.concatenate((grid, np.zeros(grid.size)))
        w = np.concatenate((np.full(grid.size, 5.0), grid + 5.0))
        table = truth.true_crmst(s, w)
        monkeypatch.setattr(sim, "_simpson", lambda y, x: integrate.simpson(
            y, x=x, axis=2))
        assert np.array_equal(table, truth.true_crmst(s, w))

    def test_windows_must_be_positive(self):
        truth = simulate_joint(joint_spec("linear"), 5, 8).truth
        spec = scenario_spec(3, 10)
        inf, nan = float("inf"), float("nan")
        for s, w in ((0.0, 0.0), (-1.0, 2.0), ([1.0, 2.0], [1.0, -1.0]),
                     (nan, 2.0), (inf, 2.0), (1.0, inf), (1.0, nan),
                     ([1.0, nan], [1.0, 1.0])):
            with pytest.raises(InvalidInput, match="window"):
                truth.true_crmst(s, w)
        for s, w in ((inf, 2.0), (nan, 2.0), (1.0, inf), (-1.0, 2.0),
                     (1.0, 0.0)):
            with pytest.raises(InvalidInput, match="window"):
                true_crmstd(spec, s, w)

    @pytest.mark.parametrize("w", [1e-17, 1e-16])
    def test_window_below_an_ulp_of_s_is_refused(self, w):
        # 1 + w == 1: no gap of the table would get a panel
        truth = simulate_joint(joint_spec("linear"), 5, 8).truth
        with pytest.raises(InvalidInput) as err:
            truth.true_crmst(1.0, w)
        assert str(err.value) == f"invalid prediction time/window (s=1.0, w={w})"
        with pytest.raises(InvalidInput, match="window"):
            truth.true_crmst([0.0, 1.0], [5.0, w])

    def test_window_whose_end_overflows_is_refused(self):
        # s + w = 2e308: numpy warnings, then a bare ZeroDivisionError
        truth = simulate_joint(joint_spec("linear"), 5, 1).truth
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput) as err:
                truth.true_crmst(1e308, 1e308)
            assert str(err.value) == ("invalid prediction time/window "
                                      "(s=1e+308, w=1e+308)")
            with pytest.raises(InvalidInput, match="window"):
                truth.true_crmst([0.0, 1e308], [5.0, 1e308])


class TestMcMetrics:
    def test_hand_example(self):
        rep = mc_metrics([1.0, 3.0], [1.0, 1.0], truth=2.0)
        assert rep.n_reps == 2
        assert rep.bias == 0.0
        assert rep.rmse == 1.0
        assert_allclose(rep.empirical_se, np.sqrt(2.0))
        assert rep.mean_model_se == 1.0
        assert_allclose(rep.rel_se, np.sqrt(2.0))
        assert rep.coverage == 1.0  # |est - 2| = 1 <= 1.96
        assert rep.rejection_rate == 0.5  # only |3|/1 exceeds 1.96
        assert_allclose(rep.rel_bias, 0.0)

    def test_rel_bias_nan_at_zero_truth(self):
        rep = mc_metrics([0.1, -0.1], [1.0, 1.0], truth=0.0)
        assert np.isnan(rep.rel_bias)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            mc_metrics([1.0], [1.0], 0.0)
        with pytest.raises(InvalidInput):
            mc_metrics([1.0, 2.0], [1.0, -1.0], 0.0)
        with pytest.raises(InvalidInput):
            mc_metrics([1.0, 2.0], [1.0], 0.0)
        for alpha in (0.0, 1.0, 1.5, 3.0, -1.0, float("nan")):
            with pytest.raises(InvalidInput, match="alpha"):
                mc_metrics([1.0, 2.0], [1.0, 1.0], 0.0, alpha=alpha)


class TestScenarioMc:
    def test_small_run_sane_and_deterministic(self):
        spec = scenario_spec(2, 100, censor_target=0.3)
        a = scenario_mc(spec, 5.0, 5.0, reps=40, seed=17)
        b = scenario_mc(spec, 5.0, 5.0, reps=40, seed=17)
        assert a == b
        assert a.n_reps == 40
        assert 0.0 <= a.coverage <= 1.0
        assert a.truth == true_crmstd(spec, 5.0, 5.0)


def reference_draw_arms(spec, rng):
    """One replicate's arms drawn and transformed one arm at a time, as
    before the draws of a chunk were transformed together."""
    arms = []
    for arm, bound in ((0, spec.censor_a), (1, spec.censor_b)):
        breaks, rates = spec.arm_hazard(arm)
        cum = sim._pw_cum_at_breaks(breaks, rates)
        t = sim._pw_invert(breaks, rates, cum,
                           rng.exponential(size=spec.n_per_arm))
        if bound is None:
            arms.append((t, np.ones(spec.n_per_arm, dtype=np.int64)))
        else:
            c = rng.uniform(0.0, bound, size=spec.n_per_arm)
            arms.append((np.minimum(t, c), (t < c).astype(np.int64)))
    return arms


def reference_scenario_rep(spec, s, w, rng):
    """One scenario replicate scored as before replicates were scored a
    chunk at a time: its two arms through ``crmstd_test``.
    ``sim._scenario_chunk`` must give the same (delta, se**2) to the bit."""
    # each arm's columns in draw order, the id order of simulate_scenario
    arms = [SurvivalData(np.arange(y.size), y, d)
            for y, d in reference_draw_arms(spec, rng)]
    res = crmstd_test(*arms, s, w, extend_tail=True)
    return res.delta, res.se**2


def _streams(seed, reps):
    return [sim._rng_of(seed, 1, rep) for rep in range(reps)]


class TestScenarioChunk:
    def assert_is_the_reference(self, spec, s, w, seed, reps):
        want = [reference_scenario_rep(spec, s, w, rng)
                for rng in _streams(seed, reps)]
        got = sim._scenario_chunk(spec, s, w, _streams(seed, reps))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("number", [1, 2, 3, 4])
    @pytest.mark.parametrize("censor_target", [0.0, 0.3])
    def test_scenarios_are_crmstd_test_bitwise(self, number, censor_target):
        for n, s in ((10, 0.0), (60, 5.0), (200, 2.0)):
            spec = scenario_spec(number, n, censor_target=censor_target)
            self.assert_is_the_reference(spec, s, 5.0, seed=number + n,
                                         reps=25)

    def test_arm_with_no_event_in_the_window(self):
        # the treated arm's hazard is so small that it has no event in
        # (1, 2]: its pseudo-values are all w and its variance 0
        spec = sim.ScenarioSpec(control_median=2.0, hr_pieces=((0.0, 1e-9),),
                                censor_a=None, censor_b=3.0, n_per_arm=15)
        _, (y, d) = sim._draw_arms(spec, _streams(5, 10))
        assert not np.any((d == 1) & (y > 1.0) & (y <= 2.0))
        self.assert_is_the_reference(spec, 1.0, 1.0, seed=5, reps=10)

    @pytest.mark.parametrize("seed", [2, 4])
    def test_empty_risk_set_is_raised_at_the_first_replicate(self, seed):
        # with 4 subjects per arm about one replicate in six has an arm with
        # fewer than two at risk at s = 5; in these streams the first such
        # arm has 1 subject and a later one 0 (seed 2), or the other way
        # round (seed 4), so the message tells which replicate raised
        spec = scenario_spec(1, 4)
        for lo in range(0, 12, 3):
            with pytest.raises(EmptyRiskSet) as want:
                for rng in _streams(seed, 30)[lo:]:
                    reference_scenario_rep(spec, 5.0, 5.0, rng)
            with pytest.raises(EmptyRiskSet) as got:
                sim._scenario_chunk(spec, 5.0, 5.0, _streams(seed, 30)[lo:])
            assert str(got.value) == str(want.value)

    def test_invalid_window_is_rejected(self):
        with pytest.raises(InvalidInput, match="window"):
            sim._scenario_chunk(scenario_spec(1, 10), 1.0, 0.0,
                                _streams(0, 2))

    def test_fifty_arms_of_one_risk_set_size(self):
        # every draw is above s = 0, so all 2 x 25 arms hold 40 subjects and
        # their moments come from one (50, 40) array
        spec = scenario_spec(2, 40)
        arms = sim._draw_arms(spec, _streams(3, 25))
        assert all(np.all(y > 0.0) for y, _ in arms)
        self.assert_is_the_reference(spec, 0.0, 5.0, seed=3, reps=25)

    def test_every_arm_of_its_own_risk_set_size(self):
        # eight risk sets of eight sizes, each above numpy's 128-element
        # pairwise block
        spec = scenario_spec(3, 300, censor_target=0.3)
        sizes = [n for y, _ in sim._draw_arms(spec, _streams(10, 4))
                 for n in (y > 2.0).sum(axis=1).tolist()]
        assert len(set(sizes)) == 8 and min(sizes) > 128
        self.assert_is_the_reference(spec, 2.0, 5.0, seed=10, reps=4)

    def test_arm_moments_are_the_one_arm_moments_bitwise(self):
        rng = np.random.default_rng(6)
        sizes = rng.permutation(np.repeat(np.arange(2, 300, 7), 3))
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        pv = rng.normal(5.0, 3.0, sizes.sum()) * 10.0 ** rng.integers(
            -8, 8, sizes.sum())
        mu, var = sim._arm_moments(pv, starts, sizes)
        want = [_jackknife_moments(pv[a:a + n])
                for a, n in zip(starts.tolist(), sizes.tolist())]
        assert list(zip(mu, var)) == want


def test_node_sums_are_numpy_sums_bitwise():
    """``sim._node_sums`` is ``.sum(axis=-1)`` of a C-contiguous array, to
    the bit and the sign of zero, for every last-axis length up to 128."""
    rng = np.random.default_rng(26)
    for m in range(1, 129):
        a = rng.choice([-1.0, 1.0], (17, 3, m)) * 10.0 ** rng.uniform(
            -150, 150, (17, 3, m))
        a[0, 0] = -0.0  # numpy's sum of -0.0s is +0.0
        a[0, 1, ::2] = -0.0
        a[1] = rng.uniform(0.0, 1.0, (3, m))  # no cancellation
        want = a.sum(axis=-1)
        got = sim._node_sums(a)
        assert got.shape == want.shape, m
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), m


class TestCoefficientReplicate:
    def test_covariances_are_the_fit_and_rowwise_sandwich_bitwise(self):
        spec, grid, w = joint_spec("linear"), (0.0, 1.0, 2.0, 3.0), 5.0
        sp = SplineSpec((1.5,), (0.0, 3.0), standardization_scale=3.0)
        layout = BasisLayout((sp, None, sp, sp))
        [(beta, var_cl, var_nv)] = sim._coefficient_chunk(
            spec, grid, w, layout, 300, [np.random.default_rng(4)])
        data = sim._joint_dataset(
            simulate_joint(spec, 300, np.random.default_rng(4)), grid, w)
        fit = fit_super_model(data, layout)
        rowwise = sandwich_cov(data, layout, IDENTITY, fit.beta,
                               mode="naive_rowwise")
        assert np.array_equal(beta, fit.beta)
        assert np.array_equal(var_cl, np.diag(fit.covariance))
        assert np.array_equal(var_nv, np.diag(rowwise))


class TestPredictionExperiment:
    def test_worker_count_is_bitwise_invariant(self):
        sp = SplineSpec((2.0,), (0.0, 4.0), standardization_scale=4.0)
        args = (joint_spec("linear"), [0.0, 2.0, 4.0], 5.0,
                BasisLayout((sp,) * 4))
        kwargs = dict(n_train=150, n_val=60, reps=5, seed=11)
        one = prediction_experiment(*args, workers=1, **kwargs)
        assert [r.landmark for r in one] == [0.0, 2.0, 4.0]
        for workers in (2, 3):
            pooled = prediction_experiment(*args, workers=workers, **kwargs)
            assert multiprocessing.active_children() == []
            for a, b in zip(one, pooled):
                assert np.array_equal(
                    [a.c_index_dynamic, a.c_index_static, a.pe_dynamic,
                     a.pe_static],
                    [b.c_index_dynamic, b.c_index_static, b.pe_dynamic,
                     b.pe_static], equal_nan=True)
                assert a.n_reps == b.n_reps == 5

    def test_mean_pe_skips_replicates_with_nobody_at_risk(self):
        sp = SplineSpec((2.0,), (0.0, 4.0), standardization_scale=4.0)
        args = (joint_spec("linear"), (0.0, 2.0, 4.0), 5.0,
                BasisLayout((sp,) * 4))
        rows = prediction_experiment(*args, n_train=300, n_val=3, reps=8,
                                     seed=3)
        _, _, pe_dyn, pe_stat = sim._replicate(
            sim._prediction_chunk, (*args, 300, 3), 8, 3)
        # some replicate has fewer than two validation subjects at s = 4
        assert np.isnan(pe_dyn[:, 2]).any() and np.isnan(pe_stat[:, 2]).any()
        for j, row in enumerate(rows):
            assert row.pe_dynamic == np.nanmean(pe_dyn[:, j])
            assert row.pe_static == np.nanmean(pe_stat[:, j])
            assert np.isfinite([row.pe_dynamic, row.pe_static]).all()


def _blas_threads_chunk(spec, s, w, rngs):
    """Scenario replicates that report the BLAS thread count they ran
    with."""
    return [(float(_openblas_threads()[0]()), 1.0)] * len(rngs)


def _failing_chunk(*args):
    raise RuntimeError("replicate failed")


def _thread_counts(rngs):
    """The OpenBLAS and OS thread counts and the process id of the process
    running a chunk of replicates, once per replicate."""
    counts = (_openblas_threads()[0](), len(os.listdir("/proc/self/task")),
              os.getpid())
    return [counts] * len(rngs)


def _affinities(rngs):
    """The process id and the allowed CPUs, as a bit mask, of the process
    running a chunk of replicates, once per replicate."""
    return [(os.getpid(), _mask(os.sched_getaffinity(0)))] * len(rngs)


def _mask(cpus):
    return sum(1 << cpu for cpu in cpus)


def _replicate_numbers(rngs):
    """The replicate number of each stream."""
    return [(rng.bit_generator.seed_seq.spawn_key[-1],) for rng in rngs]


def _failing_chunks(rngs):
    """Chunks 1 and 5 (chunks of equal size) raise errors naming them; chunk
    1 sleeps first, so chunk 5 fails before it wherever it runs."""
    chunk = _replicate_numbers(rngs)[0][0] // len(rngs)
    if chunk == 1:
        time.sleep(0.05)
    if chunk in (1, 5):
        raise RuntimeError(f"chunk {chunk} failed")
    return [(0.0,)] * len(rngs)


def assert_reaped(pids):
    """No process of ``pids`` exists, not even as a zombie: each was
    reaped."""
    for pid in set(pids):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _must_not_run(*args):
    raise AssertionError("a replicate ran before the arguments were checked")


class TestHarnessArguments:
    @pytest.fixture(autouse=True)
    def no_replicates(self, monkeypatch):
        for name in ("_scenario_chunk", "_coefficient_chunk",
                     "_prediction_chunk", "_joint_samples"):
            monkeypatch.setattr(sim, name, _must_not_run)

    @pytest.mark.parametrize("bad", [
        {"alpha": 0.0}, {"alpha": 1.0}, {"alpha": 3.0}, {"alpha": float("nan")},
        {"reps": 1}, {"reps": 0}, {"workers": 0}, {"workers": -2}])
    def test_scenario_and_coefficient_mc(self, bad):
        kwargs = {"reps": 4, "seed": 0, "alpha": 0.05, "workers": 1, **bad}
        (name,) = bad
        with pytest.raises(InvalidInput, match=name):
            scenario_mc(scenario_spec(1, 10), 5.0, 5.0, **kwargs)
        with pytest.raises(InvalidInput, match=name):
            coefficient_mc(joint_spec("linear"), [0.0], 5.0, None,
                           pop_size=50, **kwargs)

    @pytest.mark.parametrize("bad", [{"reps": 0}, {"reps": -1},
                                     {"workers": 0}, {"workers": -2}])
    def test_prediction_experiment(self, bad):
        (name,) = bad
        with pytest.raises(InvalidInput, match=name):
            prediction_experiment(joint_spec("linear"), [0.0], 5.0, None,
                                  **{"reps": 2, "workers": 1, **bad})


class TestCallerIsAWorker:
    """With ``workers`` > 1 the caller runs chunks beside ``workers - 1``
    pool processes: results, errors and reaping are those of one process."""

    def test_scenario_mc_is_bitwise_invariant(self):
        spec = scenario_spec(2, 20)
        one = scenario_mc(spec, 5.0, 5.0, reps=30, seed=4, workers=1)
        for workers in (2, 3):
            assert scenario_mc(spec, 5.0, 5.0, reps=30, seed=4,
                               workers=workers) == one
            assert multiprocessing.active_children() == []

    def test_coefficient_mc_is_bitwise_invariant(self):
        sp = SplineSpec((1.5,), (0.0, 3.0), standardization_scale=3.0)
        args = (joint_spec("linear"), (0.0, 1.0, 2.0, 3.0), 5.0,
                BasisLayout((sp, None, sp, sp)))
        kwargs = dict(n_subjects=100, reps=7, pop_size=400, seed=2)
        one = coefficient_mc(*args, workers=1, **kwargs)
        for workers in (2, 3):
            pooled = coefficient_mc(*args, workers=workers, **kwargs)
            assert multiprocessing.active_children() == []
            assert np.array_equal(pooled.beta_true, one.beta_true)
            assert pooled.clustered == one.clustered
            assert pooled.rowwise == one.rowwise

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failing_chunk_raises(self, workers):
        # 48 replicates make chunks of 12, 6 or 4: chunk 5 exists only in
        # the pooled runs, where it can fail before chunk 1 does
        for _ in range(3):
            with pytest.raises(RuntimeError, match="^chunk 1 failed$"):
                sim._replicate(_failing_chunks, (), 48, 0, workers=workers)
            assert multiprocessing.active_children() == []

    def test_outputs_are_in_replicate_order(self):
        for workers in (1, 2, 3):
            (numbers,) = sim._replicate(_replicate_numbers, (), 23, 0,
                                        workers=workers)
            assert numbers.tolist() == list(range(23))


class TestBlasPin:
    def test_replicates_run_on_one_thread_and_count_is_restored(
            self, blas_threads, monkeypatch):
        threads = blas_threads()
        monkeypatch.setattr(sim, "_scenario_chunk", _blas_threads_chunk)
        for workers in (1, 2):
            rep = scenario_mc(scenario_spec(1, 10), 5.0, 5.0, reps=4, seed=0,
                              workers=workers)
            assert rep.mean_estimate == 1.0
            assert blas_threads() == threads

    def test_population_fit_runs_on_one_thread(self, blas_threads,
                                               monkeypatch):
        threads, seen = blas_threads(), []

        def fit(*args):
            seen.append(blas_threads())
            raise RuntimeError("population fit")

        monkeypatch.setattr(sim, "_solve_super", fit)
        with pytest.raises(RuntimeError, match="population fit"):
            coefficient_mc(joint_spec("linear"), [0.0], 5.0, None, pop_size=50,
                           reps=2)
        assert seen == [1]
        assert blas_threads() == threads

    def test_count_is_restored_when_a_replicate_raises(self, blas_threads,
                                                       monkeypatch):
        threads = blas_threads()
        monkeypatch.setattr(sim, "_prediction_chunk", _failing_chunk)
        with pytest.raises(RuntimeError, match="replicate failed"):
            prediction_experiment(joint_spec("linear"), [0.0], 5.0, None,
                                  reps=2)
        assert blas_threads() == threads

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc to count OS threads")
    def test_forked_workers_run_one_os_thread(self, blas_threads):
        # a forked worker that calls the OpenBLAS setter restarts its BLAS
        # thread server and runs with a second OS thread; the chunks the
        # caller runs share its process with the pool's threads
        blas, os_threads, pids = sim._replicate(_thread_counts, (), 16, 0,
                                                workers=2)
        forked = pids != os.getpid()
        assert forked.any()
        assert os_threads[forked].tolist() == [1] * forked.sum()
        assert blas.tolist() == [1] * 16
        assert_reaped(pids[forked])

    def test_spawned_workers_run_one_blas_thread(self, blas_threads,
                                                 monkeypatch):
        spec = scenario_spec(2, 20)
        serial = scenario_mc(spec, 5.0, 5.0, reps=8, seed=0, workers=1)
        monkeypatch.setattr(sim, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
        blas, _ = sim._replicate(_blas_threads_chunk, (spec, 5.0, 5.0), 4, 0,
                                 workers=2)
        assert blas.tolist() == [1.0] * 4
        assert scenario_mc(spec, 5.0, 5.0, reps=8, seed=0, workers=2) == serial

    def test_symbols_of_numpy_1_and_2_wheels(self):
        def lib(prefix):
            return SimpleNamespace(**{
                f"{prefix}get_num_threads64_": lambda: 3,
                f"{prefix}set_num_threads64_": lambda n: None})

        for prefix in ("scipy_openblas_", "openblas_"):
            get, put = _thread_functions(lib(prefix))
            assert get() == 3
        assert _thread_functions(lib("")) is None

    def test_pin_is_a_no_op_without_openblas(self, monkeypatch):
        spec = scenario_spec(2, 20)
        pinned = scenario_mc(spec, 5.0, 5.0, reps=4, seed=0)
        monkeypatch.setattr(_blas, "_openblas_threads", lambda: None)
        assert scenario_mc(spec, 5.0, 5.0, reps=4, seed=0) == pinned


placeable = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and two allowed CPUs")


class TestWorkerPlacement:
    """Pool workers leave the CPU the caller ran on when it started the
    pool; the caller's own affinity never changes."""

    @pytest.fixture
    def caller_cpus(self, monkeypatch):
        """The CPU each pool start read for its caller, in start order."""
        seen = []

        def spy():
            seen.append(_blas._current_cpu())
            return seen[-1]

        monkeypatch.setattr(sim, "_current_cpu", spy)
        return seen

    def assert_placed(self, pids, masks, cpu, allowed):
        forked = pids != os.getpid()
        assert forked.any()
        assert set(masks[forked].tolist()) == {_mask(allowed - {cpu})}
        assert set(masks[~forked].tolist()) <= {_mask(allowed)}
        assert_reaped(pids[forked])

    @placeable
    @pytest.mark.parametrize("workers", [2, 3])
    def test_forked_workers_leave_the_callers_cpu(self, caller_cpus,
                                                  workers):
        allowed = os.sched_getaffinity(0)
        pids, masks = sim._replicate(_affinities, (), 16, 0, workers=workers)
        (cpu,) = caller_cpus
        assert cpu in allowed
        self.assert_placed(pids, masks, cpu, allowed)
        assert os.sched_getaffinity(0) == allowed

    @placeable
    def test_spawned_workers_are_placed_alike(self, caller_cpus,
                                              monkeypatch):
        monkeypatch.setattr(sim, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
        allowed = os.sched_getaffinity(0)
        pids, masks = sim._replicate(_affinities, (), 8, 0, workers=2)
        (cpu,) = caller_cpus
        self.assert_placed(pids, masks, cpu, allowed)
        assert os.sched_getaffinity(0) == allowed

    @placeable
    def test_callers_affinity_is_kept_when_a_chunk_raises(self):
        allowed = os.sched_getaffinity(0)
        with pytest.raises(RuntimeError, match="^chunk 1 failed$"):
            sim._replicate(_failing_chunks, (), 48, 0, workers=2)
        assert multiprocessing.active_children() == []
        assert os.sched_getaffinity(0) == allowed

    @placeable
    def test_current_cpu_is_an_allowed_cpu(self):
        assert _blas._current_cpu() in os.sched_getaffinity(0)

    def test_no_cpu_without_sched_setaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        assert _blas._current_cpu() is None

    @pytest.mark.parametrize("allowed, cpu, placed", [
        ({0, 1, 2}, 1, [{0, 2}]),
        ({0}, 0, []),  # no CPU would be left
        ({0, 1}, None, []),  # the caller's CPU was not read
    ])
    def test_start_worker_places_only_where_a_cpu_is_left(
            self, monkeypatch, allowed, cpu, placed):
        calls = []
        monkeypatch.setattr(_blas, "_openblas_threads", lambda: None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(allowed),
                            raising=False)
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, cpus: calls.append((pid, set(cpus))),
                            raising=False)
        _blas._start_worker(cpu)
        assert calls == [(0, cpus) for cpus in placed]

    def test_start_worker_survives_a_refused_placement(self, monkeypatch):
        def refuse(pid, cpus):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(_blas, "_openblas_threads", lambda: None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        _blas._start_worker(0)
