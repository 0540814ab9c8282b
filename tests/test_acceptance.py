"""Acceptance gate: ten end-to-end criteria, each printing one PASS/FAIL line.

The heavy Monte Carlo criteria (3/4/5/7/8/10) are marked ``slow`` but run by
default; deselect with ``-m "not slow"`` for a quick gate.
"""

import os
import time

import numpy as np
import pytest

from dynrmst import dataio
from dynrmst.basis import BasisLayout, SplineSpec
from dynrmst.gee import IDENTITY, fit_super_model
from dynrmst.landmark import build_super_dataset
from dynrmst.sim import (JointTruth, _invert_event_times, coefficient_mc,
                         joint_spec, prediction_experiment, scenario_mc,
                         scenario_spec, simulate_joint)
from dynrmst.surv import SurvivalRecord, crmst_km, crmst_km_ratio, pseudo_observations
from gee_oracle import dense_design

SEED = 20260824
WORKERS = max(2, min(4, os.cpu_count() or 1))

slow = pytest.mark.slow


def report(criterion, passed, detail):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def random_survival(rng, n, censor=True, prefix=""):
    t = np.maximum(rng.exponential(5.0, n), 1e-3)
    if rng.random() < 0.5:
        t = np.round(t, 2) + 0.01
    d = rng.integers(0, 2, n) if censor else np.ones(n, dtype=np.int64)
    return [SurvivalRecord(id=f"{prefix}{i}", time=float(t[i]), status=int(d[i]))
            for i in range(n)]


# shared joint-model configuration for criteria 7 / 8 / 10
JOINT_GRID = tuple(np.arange(0.0, 10.0 + 1e-9, 0.5))
JOINT_W = 5.0
JOINT_SPLINE = SplineSpec((2.0, 4.0, 6.0, 8.0), (0.0, 10.0),
                          standardization_scale=10.0)
JOINT_LAYOUT = BasisLayout((JOINT_SPLINE,) * 4)


@pytest.fixture(scope="module")
def null_cell():
    """Criterion 3/5/10 shared run: null design, 2,000 replicates."""
    spec = scenario_spec(1, 100)
    return scenario_mc(spec, 5.0, 5.0, reps=2000, seed=SEED, workers=WORKERS)


@pytest.fixture(scope="module")
def coefficient_cell():
    """Criterion 7 run: 1,000 replicates vs a 100,000-subject population fit."""
    return coefficient_mc(joint_spec("linear"), JOINT_GRID, JOINT_W,
                          JOINT_LAYOUT, n_subjects=500, reps=1000,
                          pop_size=100_000, seed=SEED, workers=WORKERS)


def test_criterion_1_route_equivalence():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 1000:
        n = int(rng.integers(5, 201))
        recs = random_survival(rng, n)
        s = float(rng.uniform(0.0, 3.0))
        w = float(rng.uniform(0.5, 10.0))
        if sum(r.time > s for r in recs) < 2:
            continue
        a = crmst_km(recs, s, w, extend_tail=True).value
        b = crmst_km_ratio(recs, s, w, extend_tail=True).value
        worst = max(worst, abs(a - b))
        done += 1
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-10 and elapsed < 10.0,
           f"restart-KM vs ratio-form max |diff| {worst:.3e} over 1000 "
           f"datasets in {elapsed:.2f} s")


def test_criterion_2_no_censoring_identity():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    done = 0
    while done < 500:
        n = int(rng.integers(5, 101))
        recs = random_survival(rng, n, censor=False)
        s = float(rng.uniform(0.0, 2.0))
        w = float(rng.uniform(0.5, 10.0))
        if sum(r.time > s for r in recs) < 2:
            continue
        ids, values = pseudo_observations(recs, s, w, extend_tail=True)
        want = {r.id: min(r.time - s, w) for r in recs if r.time > s}
        worst = max(worst, max(abs(v - want[i]) for i, v in
                               zip(ids.tolist(), values.tolist())))
        done += 1
    report(2, worst <= 1e-10,
           f"uncensored pseudo-values vs min(T-s, w) max |diff| {worst:.3e} "
           "over 500 datasets")


@slow
def test_criterion_3_type_i_error(null_cell):
    rate = null_cell.rejection_rate
    report(3, abs(rate - 0.051) <= 0.015,
           f"null rejection rate {rate:.4f} (target 0.051 +/- 0.015, "
           f"{null_cell.n_reps} reps)")


@slow
def test_criterion_4_power_and_delayed_null():
    power = scenario_mc(scenario_spec(2, 500), 5.0, 10.0, reps=2000,
                        seed=SEED + 2, workers=WORKERS).rejection_rate
    delayed = scenario_mc(scenario_spec(4, 500), 5.0, 5.0, reps=2000,
                          seed=SEED + 3, workers=WORKERS).rejection_rate
    ok = abs(power - 0.898) <= 0.025 and abs(delayed - 0.05) <= 0.015
    report(4, ok,
           f"constant-HR power {power:.4f} (target 0.898 +/- 0.025); "
           f"delayed-effect null-window rate {delayed:.4f} "
           "(target 0.05 +/- 0.015)")


@slow
def test_criterion_5_coverage(null_cell):
    cp = null_cell.coverage
    report(5, abs(cp - 0.95) <= 0.015,
           f"95% CI coverage {cp:.4f} (target 0.95 +/- 0.015)")


def test_criterion_6_gee_oracle():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(30, 80))
        recs = [
            SurvivalRecord(i, float(max(rng.exponential(6.0), 0.1)),
                           int(rng.integers(0, 2)),
                           covariates={"x": float(rng.normal())})
            for i in range(n)
        ]
        data = build_super_dataset(recs, None, [0.0, 1.0, 2.0], 3.0,
                                   covariate_names=["x"], extend_tail=True)
        sp = SplineSpec((1.0,), (0.0, 2.0))
        layout = BasisLayout((sp, None))
        fit = fit_super_model(data, layout)
        x, y, _ = dense_design(data, layout)
        want = np.linalg.lstsq(x, y, rcond=None)[0]
        worst = max(worst, float(np.max(np.abs(fit.beta - want))))
    report(6, worst <= 1e-10,
           f"estimating-equation solution vs dense least squares max |diff| "
           f"{worst:.3e} over 100 super datasets")


@slow
def test_criterion_7_sandwich_calibration(coefficient_cell):
    cl = coefficient_cell.clustered[0]
    nv = coefficient_cell.rowwise[0]
    ok = (0.90 <= cl.rel_se <= 1.10 and 0.93 <= cl.coverage <= 0.96
          and nv.rel_se > 1.3 and nv.coverage < 0.91)
    report(7, ok,
           f"clustered intercept Rel SE {cl.rel_se:.3f} (in [0.90, 1.10]), "
           f"CP {cl.coverage:.3f} (in [0.93, 0.96]); rowwise Rel SE "
           f"{nv.rel_se:.3f} (> 1.3), CP {nv.coverage:.3f} (< 0.91)")


@slow
def test_criterion_8_dynamic_vs_static_ordering():
    rows = prediction_experiment(joint_spec("linear"), JOINT_GRID, JOINT_W,
                                 JOINT_LAYOUT, n_train=500, n_val=300,
                                 reps=200, seed=SEED + 5, workers=WORKERS)
    late = [r for r in rows if r.landmark >= 5.0]
    c_ok = all(r.c_index_dynamic >= r.c_index_static for r in late)
    pe_ok = all(r.pe_dynamic <= r.pe_static for r in late)
    margins = ", ".join(
        f"s={r.landmark:g}: dC={r.c_index_dynamic - r.c_index_static:+.4f} "
        f"dPE={r.pe_dynamic - r.pe_static:+.4f}" for r in late
    )
    report(8, c_ok and pe_ok,
           "dynamic C-index >= static and dynamic PE <= static at every "
           f"landmark >= 5 over 200 train/validate replicates ({margins})")


def test_criterion_9_hazard_inversion():
    rng = np.random.default_rng(SEED + 6)
    n = 10_000
    lam = 3.0
    # biomarker effect switched off: H(t) = exp(c0) t^lam, invertible exactly
    truth = JointTruth(lam=lam, c0=rng.normal(-6.0, 1.0, n),
                       c1=np.zeros(n), c2=np.zeros(n))
    e = rng.exponential(size=n)
    t, has_event = _invert_event_times(truth, e, 20.0)
    closed = (e * np.exp(-truth.c0)) ** (1.0 / lam)
    closed_has = closed <= 20.0
    agree = bool(np.all(has_event == closed_has))
    worst = float(np.max(np.abs(t[has_event] - closed[has_event])))

    sample = simulate_joint(joint_spec("linear"), 2000, SEED + 7)
    e2 = np.random.default_rng(SEED + 8).exponential(size=2000)
    t2, ev2 = _invert_event_times(sample.truth, e2, 20.0)
    resid = float(np.max(np.abs(
        sample.truth.subset(ev2).cumulative_hazard(t2[ev2]) - e2[ev2]
    )))
    report(9, agree and worst <= 1e-8 and resid <= 1e-8,
           f"closed-form Weibull vs numerical inversion max |diff| "
           f"{worst:.3e} on {n} draws; residual invariant max "
           f"{resid:.3e} on a full joint-model draw")


def _metrics_row(rep):
    return {
        "n_reps": rep.n_reps, "truth": rep.truth,
        "mean_estimate": rep.mean_estimate, "bias": rep.bias,
        "rel_bias": rep.rel_bias, "rmse": rep.rmse,
        "empirical_se": rep.empirical_se, "mean_model_se": rep.mean_model_se,
        "rel_se": rep.rel_se, "coverage": rep.coverage,
        "rejection_rate": rep.rejection_rate, "alpha": rep.alpha,
    }


@slow
def test_criterion_10_worker_count_determinism(tmp_path):
    # criterion-3 cell at full scale, two worker counts
    spec = scenario_spec(1, 100)
    paths = []
    for tag, workers in (("a", 1), ("b", 3)):
        rep = scenario_mc(spec, 5.0, 5.0, reps=2000, seed=SEED,
                          workers=workers)
        path = tmp_path / f"null_{tag}.csv"
        dataio.write_metrics_csv(path, [_metrics_row(rep)])
        paths.append(path)
    null_same = paths[0].read_bytes() == paths[1].read_bytes()

    # criterion-7 experiment at reduced scale, two worker counts
    paths = []
    for tag, workers in (("a", 1), ("b", 2)):
        res = coefficient_mc(joint_spec("linear"), JOINT_GRID, JOINT_W,
                             JOINT_LAYOUT, n_subjects=500, reps=50,
                             pop_size=20_000, seed=SEED, workers=workers)
        rows = []
        for j, (cl, nv) in enumerate(zip(res.clustered, res.rowwise)):
            rows.append({"coefficient": j, "beta_true": float(res.beta_true[j]),
                         **{f"clustered_{k}": v
                            for k, v in _metrics_row(cl).items()},
                         **{f"rowwise_{k}": v
                            for k, v in _metrics_row(nv).items()}})
        path = tmp_path / f"coef_{tag}.csv"
        dataio.write_metrics_csv(path, rows)
        paths.append(path)
    coef_same = paths[0].read_bytes() == paths[1].read_bytes()

    report(10, null_same and coef_same,
           f"metric files bitwise identical across worker counts "
           f"(null cell: {null_same}, coefficient experiment: {coef_same})")
