"""Property tests of the columnar landmark core, the pseudo-value tail
rule, the two Kaplan-Meier cRMST routes, the block super-model solver and
the joint-model simulator's independence of its chunk size."""

from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynrmst import sim
from dynrmst.basis import BasisLayout, SplineSpec
from dynrmst.errors import DynRmstError, NoConvergence, SingularDesign
from dynrmst.gee import IDENTITY, LOG, fit_super_model, sandwich_cov
from dynrmst.landmark import (LongitudinalRecord, MarkerTable, SuperDataset,
                              build_super_dataset)
from dynrmst.sim import joint_spec, simulate_joint
from dynrmst.surv import (SurvivalRecord, as_survival_data, crmst_km,
                          crmst_km_ratio, pseudo_observations)
from gee_oracle import dense_design, dense_sandwich, dense_solve

# obs times on a coarse lattice so ties with the landmark and between
# measurements of one subject are common
TIMES = st.integers(0, 8).map(lambda k: k / 2.0)


@st.composite
def marker_histories(draw):
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=2), min_size=n,
                        max_size=n, unique=True))
    records = [LongitudinalRecord(sid, draw(TIMES),
                                  {"m": float(draw(st.integers(-50, 50)))})
               for sid in ids for _ in range(draw(st.integers(0, 4)))]
    return ids, draw(st.permutations(records)), draw(TIMES)


@settings(max_examples=200, deadline=None)
@given(marker_histories())
def test_locf_matches_brute_force_lookup(case):
    ids, records, s = case
    assume(records)
    surv = as_survival_data([SurvivalRecord(sid, 10.0, 0) for sid in ids])
    table = MarkerTable.from_records(records, surv.ids)
    value = table.locf("m", np.arange(len(ids)), s)
    for i, sid in enumerate(surv.ids):
        # ties at s count as observed; equal times resolve to the larger value
        seen = sorted((r.obs_time, r.values["m"]) for r in records
                      if r.id == sid and r.obs_time <= s)
        if seen:
            assert value[i] == seen[-1][1]
        else:
            assert np.isnan(value[i])


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 120))
def test_records_and_columns_build_identical_arrays(seed, n):
    sample = simulate_joint(joint_spec("linear"), n, seed)
    grid = [0.0, 0.5, 1.5, 3.0]
    names = ["x1", "x2", "marker"]
    from_records = build_super_dataset(*sample.to_records(), grid, 5.0,
                                       covariate_names=names, extend_tail=True)
    from_columns = build_super_dataset(*sample.columns(), grid, 5.0,
                                       covariate_names=names, extend_tail=True)
    for a, b in zip(from_records.arrays(), from_columns.arrays()):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert list(from_records.subjects) == list(from_columns.subjects)


@st.composite
def small_samples(draw):
    n = draw(st.integers(1, 8))
    times = draw(st.lists(TIMES.map(lambda t: t + 0.5), min_size=n, max_size=n))
    status = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return ([SurvivalRecord(i, t, d) for i, (t, d) in enumerate(zip(times, status))],
            draw(TIMES), draw(st.integers(1, 8).map(lambda k: k / 2.0)))


def _raised(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except DynRmstError as exc:
        return type(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(small_samples())
def test_pseudo_tail_rule_matches_km_integral(case):
    records, s, w = case
    assert (_raised(pseudo_observations, records, s, w, extend_tail=False)
            == _raised(crmst_km, records, s, w, extend_tail=False))


@settings(max_examples=300, deadline=None)
@given(small_samples(), st.booleans())
def test_kaplan_meier_routes_agree(case, extend_tail):
    records, s, w = case
    kwargs = dict(extend_tail=extend_tail)
    raised = _raised(crmst_km, records, s, w, **kwargs)
    assert raised == _raised(crmst_km_ratio, records, s, w, **kwargs)
    if raised is None:
        restart = crmst_km(records, s, w, **kwargs)
        ratio = crmst_km_ratio(records, s, w, **kwargs)
        assert restart.n_at_risk == ratio.n_at_risk
        assert abs(restart.value - ratio.value) <= 1e-12 * w


LATTICE = st.integers(0, 10).map(lambda k: k / 2.0)
SPLINES = st.builds(
    SplineSpec,
    interior_knots=st.lists(st.sampled_from([1.0, 2.5, 4.0]), max_size=2,
                            unique=True).map(sorted).map(tuple),
    boundary_knots=st.just((0.0, 5.0)),
    standardization_scale=st.sampled_from([1.0, 5.0]))


@st.composite
def super_models(draw):
    """A layout mixing constant and spline paths, and a SuperDataset of
    subjects at risk at the first 1..J of 1-6 landmarks (so late landmarks
    often hold fewer rows than Z* has columns), with positive responses."""
    p = draw(st.integers(1, 3))
    layout = BasisLayout(tuple(draw(st.none() | SPLINES) for _ in range(p + 1)))
    grid = sorted(draw(st.sets(LATTICE, min_size=1, max_size=6)))
    n = draw(st.integers(layout.q + 1, layout.q + 30))
    n_at = np.array(draw(st.lists(st.integers(1, len(grid)), min_size=n,
                                  max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = np.concatenate(([0], np.cumsum(n_at)))
    lm = np.concatenate([grid[:k] for k in n_at])
    z = rng.normal(size=(lm.size, p))
    if draw(st.integers(0, 4)) == 0:
        z[:, draw(st.integers(0, p - 1))] = 0.0  # rank deficient
    y = np.exp(0.5 + 0.2 * z[:, 0] + 0.05 * lm + rng.normal(0.0, 0.3, lm.size))
    data = SuperDataset(landmarks=lm, pseudo_values=y, covariates=z,
                        cluster_starts=starts, subjects=np.arange(n),
                        landmark_grid=tuple(grid), w=5.0,
                        covariate_names=tuple(f"z{k}" for k in range(p)))
    return data, layout


def _relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@settings(max_examples=150, deadline=None)
@given(super_models(), st.sampled_from([IDENTITY, LOG]))
def test_block_solve_matches_dense_svd_solve(case, link):
    data, layout = case
    x, y, starts = dense_design(data, layout)
    block = _raised(fit_super_model, data, layout, link=link)
    assert block == _raised(dense_solve, x, y, link, 1e-6 * data.w)
    if block is not None:
        assert block in (SingularDesign, NoConvergence)
        return
    fit = fit_super_model(data, layout, link=link)
    beta = dense_solve(x, y, link, 1e-6 * data.w)
    # two double-precision solves agree only to about cond(X)^2 * 2.2e-16 on
    # the covariance, which inverts X'WX; both are held to the bounds below
    # where the weighted design sqrt(W) X has condition number under 1e3
    sv = np.linalg.svd(x * link.dginv(x @ beta)[:, None], compute_uv=False)
    if sv[0] / sv[-1] >= 1e3:
        return
    assert _relative(fit.beta, beta) <= 1e-10
    assert _relative(fit.covariance,
                     dense_sandwich(x, y, link, beta, starts)) <= 1e-8
    rowwise = sandwich_cov(data, layout, link, fit.beta, mode="naive_rowwise")
    assert _relative(rowwise, dense_sandwich(x, y, link, beta,
                                             np.arange(y.size + 1))) <= 1e-8


JOINT_FIELDS = ("time", "status", "x1", "x2", "visit_times", "visit_values")


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["linear", "quadratic"]),
       st.sampled_from([1.0, 0.3, -0.5]), st.sampled_from([None, 25.0]),
       st.integers(1, 3000), st.integers(0, 2**32 - 1))
# a BLAS matrix-vector sum in the Newton residual moved this sample's last
# bits with the chunk size
@example("linear", 1.0, None, 10_000, 10_000)
def test_joint_sample_does_not_depend_on_chunk_size(trajectory, alpha,
                                                    censor_upper, n, seed):
    spec = joint_spec(trajectory, censor_upper=censor_upper, alpha=alpha)
    samples = []
    for cells in (1 << 10, 1 << 14, 1 << 18):
        with mock.patch.object(sim, "_TABLE_CELLS", cells):
            samples.append(simulate_joint(spec, n, seed))
    for field in JOINT_FIELDS:
        want = getattr(samples[-1], field).tobytes()
        assert all(getattr(s, field).tobytes() == want for s in samples), field
