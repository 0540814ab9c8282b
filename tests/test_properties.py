"""Property tests of the columnar landmark core, the pseudo-value tail
rule and the two Kaplan-Meier cRMST routes."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynrmst.errors import DynRmstError
from dynrmst.landmark import (LongitudinalRecord, MarkerTable,
                              build_super_dataset)
from dynrmst.sim import joint_spec, simulate_joint
from dynrmst.surv import (SurvivalRecord, as_survival_data, crmst_km,
                          crmst_km_ratio, pseudo_observations)

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
