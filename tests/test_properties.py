"""Property tests of the columnar landmark core, the pseudo-value tail
rule, the two Kaplan-Meier cRMST routes, the block super-model solver, the
joint-model simulator's independence of its chunk size, the estimates'
independence of the time unit and of the order of the input rows, and
the CSV round trip of every column set the constructors accept."""

import warnings
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from dynrmst import _kernels, dataio, sim
from dynrmst.basis import BasisLayout, SplineSpec
from dynrmst.errors import (DynRmstError, InvalidInput, NoConvergence,
                            SingularDesign)
from dynrmst.evaluate import evaluate_on_validation
from dynrmst.gee import IDENTITY, LOG, fit_super_model, sandwich_cov
from dynrmst.landmark import (MarkerTable, SuperDataset,
                              build_landmark_dataset, build_super_dataset)
from dynrmst.sim import joint_spec, simulate_joint
from dynrmst.surv import (SurvivalData, SurvivalRecord, as_survival_data,
                          crmst_km, crmst_km_ratio, pseudo_observations)
from gee_oracle import dense_design, dense_sandwich, dense_solve
from records import (joint_columns, joint_marker_rows, joint_records,
                     marker_table)

# a 0/0 or a divide by zero that escapes np.errstate (say, in the padded
# jackknife tables) fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# obs times on a coarse lattice so ties with the landmark and between
# measurements of one subject are common
TIMES = st.integers(0, 8).map(lambda k: k / 2.0)


@st.composite
def marker_histories(draw):
    """(ids, rows, s, grid, n_at): 0-4 measurements (id, obs_time, value)
    per subject, a landmark s, and a landmark grid of which subject i (in id
    order) is at risk at the first n_at[i] landmarks."""
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=2), min_size=n,
                        max_size=n, unique=True))
    rows = [(sid, draw(TIMES), float(draw(st.integers(-50, 50))))
            for sid in ids for _ in range(draw(st.integers(0, 4)))]
    grid = sorted(draw(st.sets(TIMES, min_size=1, max_size=5)))
    n_at = draw(st.lists(st.integers(0, len(grid)), min_size=n, max_size=n))
    return ids, draw(st.permutations(rows)), draw(TIMES), grid, n_at


@settings(max_examples=200, deadline=None)
@given(marker_histories())
def test_locf_matches_brute_force_lookup(case):
    ids, rows, s, grid, n_at = case
    assume(rows)
    surv = as_survival_data([SurvivalRecord(sid, 10.0, 0) for sid in ids])
    table = marker_table(rows).align(surv.ids)

    def check(value, sid, s):
        # ties at s count as observed; equal times resolve to the larger value
        seen = sorted((t, v) for rid, t, v in rows if rid == sid and t <= s)
        if seen:
            assert value == seen[-1][1]
        else:
            assert np.isnan(value)

    value = table.locf("m", s, np.zeros(len(ids), dtype=np.int64),
                       np.arange(len(ids)))
    for i, sid in enumerate(surv.ids):
        check(value[i], sid, s)
    # the whole grid at once, landmark-major: subject i at the first n_at[i]
    # landmarks
    landmark, position = np.nonzero(np.arange(len(grid))[:, None]
                                    < np.array(n_at))
    values = table.locf("m", np.array(grid), landmark, position)
    assert values.size == sum(n_at)
    pairs = [(sid, s_j) for j, s_j in enumerate(grid)
             for sid, k in zip(surv.ids, n_at) if j < k]
    for value, (sid, s_j) in zip(values, pairs):
        check(value, sid, s_j)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 120))
def test_records_and_columns_build_identical_arrays(seed, n):
    """Survival records and a table built from marker rows give the
    simulator's columns' super dataset bitwise."""
    sample = simulate_joint(joint_spec("linear"), n, seed)
    grid = [0.0, 0.5, 1.5, 3.0]
    names = ["x1", "x2", "marker"]
    markers = marker_table(joint_marker_rows(sample), "marker")
    from_records = build_super_dataset(joint_records(sample), markers, grid,
                                       5.0, covariate_names=names,
                                       extend_tail=True)
    from_columns = build_super_dataset(sample.survival, sample.markers,
                                       grid, 5.0,
                                       covariate_names=names, extend_tail=True)
    for a, b in zip(from_records.arrays(), from_columns.arrays()):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert list(from_records.subjects) == list(from_columns.subjects)


@st.composite
def landmark_inputs(draw):
    """(survival records, marker table, grid, w, extend_tail) on the
    half-unit lattice: up to 10 subjects, so late landmarks hold few or
    none; a time-fixed covariate a subject may lack; markers measured at 0
    and later, or for some subjects only later; and a grid that may hold
    one invalid landmark."""
    n = draw(st.integers(1, 10))
    rare = st.integers(0, 6 * n).map(lambda k: k == 0)
    surv = [SurvivalRecord(i, draw(TIMES) + draw(TIMES) + 0.5,
                           draw(st.integers(0, 1)),
                           covariates={} if draw(rare) else {"x": 1.0 - i})
            for i in range(n)]
    markers = []
    for i in range(n):
        times = [] if draw(rare) else [0.0]
        times += draw(st.lists(TIMES, max_size=2))
        markers += [(i, t, float(k)) for k, t in enumerate(times)]
    grid = sorted(draw(st.sets(TIMES, min_size=1, max_size=4)))
    bad = draw(st.sampled_from([None, np.nan, np.inf, -0.5]))
    if bad is not None:
        grid.insert(draw(st.integers(0, len(grid))), bad)
    assume(not any(b <= a for a, b in zip(grid, grid[1:])))
    return (surv, marker_table(markers), grid,
            draw(st.integers(1, 16)) / 2.0, draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(landmark_inputs())
def test_grid_build_is_the_landmark_builds_in_turn(case):
    """A grid's build raises the error of the first landmark whose own build
    fails, and otherwise holds each landmark's build bitwise."""
    surv, markers, grid, w, extend_tail = case
    kwargs = dict(covariate_names=["x", "m"], extend_tail=extend_tail)
    want, error = [], None
    for s in grid:
        try:
            want.append(build_landmark_dataset(surv, markers, s, w, **kwargs))
        except DynRmstError as exc:
            error = exc
            break
    try:
        got = build_super_dataset(surv, markers, grid, w, **kwargs)
    except DynRmstError as exc:
        assert (type(exc), str(exc)) == (type(error), str(error))
        return
    assert error is None
    assert got.offsets[-1] == len(got)
    for j, one in enumerate(want):
        rows = slice(got.offsets[j], got.offsets[j + 1])
        assert got.pseudo_values[rows].tobytes() == one.pseudo_values.tobytes()
        assert got.covariates[rows].tobytes() == one.covariates.tobytes()
        assert list(got.subjects[got.cluster[rows]]) == list(one.subjects)


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
    # landmark-major: landmark j's rows are the subjects with n_at > j
    landmark, cluster = np.nonzero(np.arange(len(grid))[:, None] < n_at)
    offsets = np.searchsorted(landmark, np.arange(len(grid) + 1))
    lm = np.array(grid)[landmark]
    z = rng.normal(size=(lm.size, p))
    if draw(st.integers(0, 4)) == 0:
        z[:, draw(st.integers(0, p - 1))] = 0.0  # rank deficient
    y = np.exp(0.5 + 0.2 * z[:, 0] + 0.05 * lm + rng.normal(0.0, 0.3, lm.size))
    data = SuperDataset(pseudo_values=y, covariates=z, cluster=cluster,
                        offsets=offsets, subjects=np.arange(n),
                        landmark_grid=tuple(grid), w=5.0,
                        covariate_names=tuple(f"z{k}" for k in range(p)))
    return data, layout


def _relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@settings(max_examples=150, deadline=None)
@given(super_models(), st.sampled_from([IDENTITY, LOG]))
def test_block_solve_matches_dense_svd_solve(case, link):
    data, layout = case
    x, y, cluster = dense_design(data, layout)
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
                     dense_sandwich(x, y, link, beta, cluster)) <= 1e-8
    rowwise = sandwich_cov(data, layout, link, fit.beta, mode="naive_rowwise")
    assert _relative(rowwise, dense_sandwich(x, y, link, beta,
                                             np.arange(y.size))) <= 1e-8


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
            samples.append(joint_columns(simulate_joint(spec, n, seed)))
    for field, array in samples[-1].items():
        want = array.tobytes()
        assert all(s[field].tobytes() == want for s in samples), field


@st.composite
def quarter_samples(draw):
    """(times, status, s, w) on a lattice of quarters, so that scaling by
    any factor keeps every tie and every strict order."""
    n = draw(st.integers(2, 12))
    quarters = st.lists(st.integers(1, 40), min_size=n, max_size=n)
    times = np.array(draw(quarters)) / 4.0
    status = np.array(draw(st.lists(st.integers(0, 1), min_size=n,
                                     max_size=n)))
    return (times, status, draw(st.integers(0, 20)) / 4.0,
            draw(st.integers(1, 40)) / 4.0)


def _in_unit(case, factor):
    """Jackknife pseudo-values and restart-KM cRMST with every time, s and w
    multiplied by ``factor``."""
    times, status, s, w = case
    t, s, w = times * factor, s * factor, w * factor
    at_risk = t > s
    pv = _kernels.jackknife_pseudo(t[at_risk], status[at_risk], s, w)
    data = SurvivalData(np.arange(t.size), t, status)
    return pv, crmst_km(data, s, w, extend_tail=True).value


@settings(max_examples=300, deadline=None)
@given(quarter_samples(), st.integers(-12, 12),
       st.floats(1e-3, 1e3, allow_nan=False))
def test_estimates_scale_with_the_time_unit(case, k, factor):
    times, status, s, w = case
    assume(np.sum(times > s) >= 2)
    pv, km = _in_unit(case, 1.0)
    # a power of two scales every sum and difference exactly
    pv_k, km_k = _in_unit(case, 2.0**k)
    assert pv_k.tobytes() == (pv * 2.0**k).tobytes() and km_k == km * 2.0**k
    pv_f, km_f = _in_unit(case, factor)
    scale = factor * max(w, float(np.max(np.abs(pv))))
    assert np.max(np.abs(pv_f - pv * factor)) <= 1e-12 * scale
    assert abs(km_f - km * factor) <= 1e-12 * scale


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31), st.randoms(use_true_random=False))
def test_results_do_not_depend_on_the_order_of_records(seed, rnd):
    spec = joint_spec("linear")
    val = simulate_joint(spec, 60, seed + 1)
    pairs = [(joint_records(sample), joint_marker_rows(sample))
             for sample in (simulate_joint(spec, 120, seed), val)]
    inputs = [(recs, marker_table(rows, "marker")) for recs, rows in pairs]
    shuffled = [(rnd.sample(recs, len(recs)),
                 marker_table(rnd.sample(rows, len(rows)), "marker"))
                for recs, rows in pairs]
    grid, names = [0.0, 1.0, 2.5], ["x1", "x2", "marker"]
    data = [build_super_dataset(*pair[0], grid, 5.0, covariate_names=names,
                                extend_tail=True) for pair in (inputs, shuffled)]
    for a, b in zip(data[0].arrays(), data[1].arrays()):
        assert a.tobytes() == b.tobytes()
    assert list(data[0].subjects) == list(data[1].subjects)
    sp = SplineSpec((1.0,), (0.0, 2.5), standardization_scale=2.5)
    fit = fit_super_model(data[0], BasisLayout((sp,) * 4))
    for truth in (None, val.truth):
        want, got = (evaluate_on_validation(fit, *pair[0], *pair[1],
                                            extend_tail=True, truth=truth)
                     for pair in (inputs, shuffled))
        assert got == want


# text cells, some of which the CSV reader would read back as others: it
# strips cells and skips a line starting with '#', so the writers refuse
# such a group cell or id
CELLS = st.text("ab1 ,\"#\n", max_size=3)


def _read_back(ids, group=()):
    """Whether the reader reads these ids and group cells back as written."""
    return (all(t == t.strip() for t in [*ids, *group])
            and not any(t.startswith("#") for t in ids))


def _refused(write, path, data):
    """Whether ``write`` refuses ``data`` (InvalidInput, no file opened)."""
    try:
        write(path, data)
    except InvalidInput as exc:
        assert "would read back as another" in str(exc)
        assert not path.exists()
        return True
    return False
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(0.0, allow_infinity=False) | TIMES


def _ids(draw, n):
    """n ids in ascending order; in some draws an id may repeat."""
    return sorted(draw(st.lists(CELLS, min_size=n, max_size=n,
                                unique=draw(st.booleans()))))


@st.composite
def survival_columns(draw):
    n = draw(st.integers(1, 6))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    names = draw(st.lists(st.sampled_from(["x", "z"]), unique=True))
    return {"ids": _ids(draw, n), "time": column(NONNEGATIVE),
            "status": column(st.integers(0, 1)),
            "covariates": {name: column(FINITE) for name in names},
            "group": column(CELLS) if draw(st.booleans()) else None}


def _bitwise(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@settings(max_examples=50, deadline=None)
@given(survival_columns())
@example({"ids": ["a", "a"], "time": [1.0, 2.0], "status": [1, 0],
          "covariates": {}, "group": None})
@example({"ids": [" a", "#b", "c"], "time": [1.0, 2.0, 3.0],
          "status": [1, 0, 1], "covariates": {}, "group": None})
@example({"ids": ["a", "b"], "time": [1.0, 2.0], "status": [1, 0],
          "covariates": {}, "group": ["x", "y\n"]})
def test_accepted_survival_columns_round_trip_bit_exact(tmp_path_factory,
                                                        columns):
    """Every SurvivalData the constructor accepts with finite covariates (a
    CSV cell is never missing) comes back from write_survival and
    read_survival bit for bit, or, if the reader would read an id or a
    group cell back as another, write_survival refuses it."""
    try:
        data = SurvivalData(
            np.array(columns["ids"], dtype=object), np.array(columns["time"]),
            np.array(columns["status"], dtype=np.int64),
            {n: np.array(c) for n, c in columns["covariates"].items()},
            None if columns["group"] is None
            else np.array(columns["group"], dtype=object))
    except InvalidInput:
        reject()
    path = tmp_path_factory.mktemp("surv") / "surv.csv"
    readable = _read_back(columns["ids"], columns["group"] or ())
    assert _refused(dataio.write_survival, path, data) is not readable
    if not readable:
        return
    got = dataio.read_survival(path)
    assert got.ids.dtype == object and got.ids.tolist() == data.ids.tolist()
    assert _bitwise(got.time, data.time) and _bitwise(got.status, data.status)
    assert sorted(got.covariates) == sorted(data.covariates)
    assert all(_bitwise(got.covariates[n], c)
               for n, c in data.covariates.items())
    assert (got.group is None if data.group is None
            else got.group.tolist() == data.group.tolist())


@st.composite
def marker_columns(draw):
    """(ids, {name: (times, values, offsets)}): rows in (obs_time, value)
    order within a subject, and every subject with a row, as in the tables
    the reader returns."""
    n = draw(st.integers(1, 4))
    ids = _ids(draw, n)
    counts = {name: draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
              for name in ("m", "n")}
    for i in range(n):
        if not counts["m"][i] + counts["n"][i]:
            counts["m"][i] = 1
    columns = {}
    for name, per_subject in counts.items():
        if sum(per_subject):
            rows = [row for k in per_subject for row in sorted(draw(st.lists(
                st.tuples(NONNEGATIVE, FINITE), min_size=k, max_size=k)))]
            columns[name] = ([t for t, _ in rows], [v for _, v in rows],
                             [0, *accumulate(per_subject)])
    return ids, columns


@settings(max_examples=50, deadline=None)
@given(marker_columns())
@example((["a", "a"], {"m": ([0.0, 1.0], [1.0, 2.0], [0, 1, 2])}))
@example((["#a"], {"m": ([0.0], [1.0], [0, 1])}))
def test_accepted_marker_columns_round_trip_bit_exact(tmp_path_factory,
                                                      case):
    """Every MarkerTable the constructor accepts whose subjects all have a
    row comes back from write_longitudinal and read_longitudinal bit for
    bit, or, if the reader would read an id back as another,
    write_longitudinal refuses it."""
    ids, columns = case
    try:
        table = MarkerTable(
            {name: (np.array(times, dtype=float),
                    np.array(values, dtype=float),
                    np.array(offsets, dtype=np.int64))
             for name, (times, values, offsets) in columns.items()},
            np.array(ids, dtype=object))
    except InvalidInput:
        reject()
    path = tmp_path_factory.mktemp("long") / "long.csv"
    readable = _read_back(ids)
    assert _refused(dataio.write_longitudinal, path, table) is not readable
    if not readable:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rows are written in time order
        got = dataio.read_longitudinal(path)
    assert got.ids.dtype == object and got.ids.tolist() == table.ids.tolist()
    assert sorted(got.columns) == sorted(table.columns)
    for name, arrays in table.columns.items():
        assert all(map(_bitwise, got.columns[name], arrays))
