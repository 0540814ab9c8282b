"""Property tests of the columnar landmark core."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynrmst.landmark import (LongitudinalRecord, MarkerTable,
                              build_super_dataset)
from dynrmst.sim import joint_spec, simulate_joint
from dynrmst.surv import SurvivalRecord, as_survival_data

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
