"""Landmark dataset construction and the stacked super dataset."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dynrmst.errors import (DynRmstError, EmptyRiskSet, InvalidInput,
                            MissingCovariate, TailUndefined)
from dynrmst.landmark import (LongitudinalRecord, build_landmark_dataset,
                              build_super_dataset)
from dynrmst.surv import SurvivalRecord, pseudo_observations

# a 0/0 or a divide by zero that escapes np.errstate (say, in the padded
# jackknife tables) fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def survival4():
    return [
        SurvivalRecord("a", 8.0, 1, covariates={"x": 1.0}),
        SurvivalRecord("b", 3.0, 0, covariates={"x": 0.0}),
        SurvivalRecord("c", 6.0, 1, covariates={"x": 1.0}),
        SurvivalRecord("d", 9.0, 0, covariates={"x": 0.5}),
    ]


def marker(sid, pairs):
    return [LongitudinalRecord(sid, t, {"m": v}) for t, v in pairs]


class TestLocf:
    LONG = (marker("a", [(0.0, 1.0), (2.0, 2.0), (5.0, 3.0)])
            + marker("b", [(0.0, 4.0)])
            + marker("c", [(0.0, 5.0), (4.0, 6.0)])
            + marker("d", [(0.0, 7.0), (1.0, 8.0)]))

    def test_carries_last_value_forward(self):
        data = build_landmark_dataset(survival4(), self.LONG, 2.5, 4.0,
                                      extend_tail=True)
        assert data.covariate_names == ("x", "m")
        by_id = dict(zip(data.subjects, data.covariates[:, 1]))
        assert by_id["a"] == 2.0
        assert by_id["c"] == 5.0
        assert by_id["d"] == 8.0

    def test_tie_at_landmark_inclusive(self):
        data = build_landmark_dataset(survival4(), self.LONG, 2.0, 4.0,
                                      extend_tail=True)
        by_id = dict(zip(data.subjects, data.covariates[:, 1]))
        assert by_id["a"] == 2.0  # measurement exactly at s is used

    def test_idempotent_resolution(self):
        a = build_landmark_dataset(survival4(), self.LONG, 2.5, 4.0,
                                   extend_tail=True)
        b = build_landmark_dataset(survival4(), self.LONG, 2.5, 4.0,
                                   extend_tail=True)
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_missing_covariate_raises_with_context(self):
        long = marker("a", [(3.0, 1.0)])  # first measurement after s
        surv = [SurvivalRecord("a", 8.0, 1), SurvivalRecord("b", 9.0, 0)]
        with pytest.raises(MissingCovariate) as err:
            build_landmark_dataset(surv, long, 2.0, 4.0,
                                   covariate_names=["m"], extend_tail=True)
        assert "a" in str(err.value) and "m" in str(err.value)

    def test_missing_baseline_covariate(self):
        surv = [SurvivalRecord("a", 8.0, 1, covariates={"x": 1.0}),
                SurvivalRecord("b", 9.0, 0)]
        with pytest.raises(MissingCovariate):
            build_landmark_dataset(surv, [], 2.0, 4.0, covariate_names=["x"],
                                   extend_tail=True)

    def test_default_names_from_first_subject(self):
        # a key only later subjects carry is not a covariate, and is never
        # converted to float
        surv = survival4()
        surv[1] = SurvivalRecord("b", 3.0, 0,
                                 covariates={"x": 0.0, "site": "B"})
        data = build_landmark_dataset(surv, self.LONG, 2.0, 4.0,
                                      extend_tail=True)
        assert data.covariate_names == ("x", "m")


class TestRiskSet:
    def test_strict_inequality(self):
        surv = survival4()
        data = build_landmark_dataset(surv, [], 6.0, 2.0,
                                      covariate_names=["x"], extend_tail=True)
        assert list(data.subjects) == ["a", "d"]  # c has Y == s: excluded
        assert len(data) == 2

    def test_pseudo_values_match_surv_module(self):
        surv = survival4()
        data = build_landmark_dataset(surv, [], 2.0, 5.0,
                                      covariate_names=["x"], extend_tail=True)
        pset = pseudo_observations(surv, 2.0, 5.0, extend_tail=True)
        assert list(data.subjects) == pset.ids()
        assert_allclose(data.pseudo_values, pset.values())


    def test_tail_policy_enforced_per_landmark(self):
        # the largest time (d, Y=9) is censored, so each risk-set curve ends
        # above zero before s + w
        with pytest.raises(TailUndefined):
            build_super_dataset(survival4(), [], [1.0, 2.0], 10.0,
                                covariate_names=["x"])
        build_super_dataset(survival4(), [], [1.0, 2.0], 10.0,
                            covariate_names=["x"], extend_tail=True)


MISSING_C = "subject 'c' has no observation of 'm' at or before landmark 1.0"


class TestSuperDataset:
    LONG = TestLocf.LONG

    def test_row_ordering_and_clusters(self):
        data = build_super_dataset(survival4(), self.LONG, [1.0, 4.0, 7.0],
                                   2.0, extend_tail=True)
        assert list(data.subjects) == sorted(data.subjects)
        starts = data.cluster_starts
        for i in range(data.n_subjects):
            lms = data.landmarks[starts[i]:starts[i + 1]]
            assert list(lms) == sorted(lms)
        # a (Y=8): all 3 landmarks; b (Y=3): only s=1; c (Y=6): s=1,4; d: all
        assert dict(zip(data.subjects, np.diff(starts))) == \
            {"a": 3, "b": 1, "c": 2, "d": 3}

    def test_arrays_cluster_starts(self):
        data = build_super_dataset(survival4(), self.LONG, [1.0, 4.0], 2.0,
                                   extend_tail=True)
        lm, pv, z, starts = data.arrays()
        assert starts[0] == 0 and starts[-1] == len(data)
        assert starts.size == data.n_subjects + 1
        assert lm.shape == pv.shape == (len(data),)
        assert z.shape == (len(data), 2)  # x and m

    def test_grid_validation(self):
        with pytest.raises(InvalidInput):
            build_super_dataset(survival4(), self.LONG, [2.0, 1.0], 2.0)
        with pytest.raises(InvalidInput):
            build_super_dataset(survival4(), self.LONG, [1.0, 1.0], 2.0)
        with pytest.raises(InvalidInput):
            build_super_dataset(survival4(), self.LONG, [], 2.0)
        # a grid whose order check passes but whose windows are invalid
        for grid in ([0.0, np.nan, 1.0], [0.0, np.inf], [-1.0, 0.0]):
            with pytest.raises(InvalidInput, match="invalid prediction"):
                build_super_dataset(survival4(), self.LONG, grid, 2.0,
                                    extend_tail=True)

    def test_empty_risk_set_names_landmark(self):
        with pytest.raises(EmptyRiskSet) as err:
            build_super_dataset(survival4(), self.LONG, [1.0, 20.0], 2.0,
                                extend_tail=True)
        assert "20" in str(err.value)

    @pytest.mark.parametrize("grid, w, error, message", [
        # a missing marker at the first landmark before a tail, an empty risk
        # set or an invalid window at a later one
        ([1.0, 4.0, 7.5], 2.0, MissingCovariate, MISSING_C),
        ([1.0, 4.0, 20.0], 2.0, MissingCovariate, MISSING_C),
        ([1.0, np.nan], 2.0, MissingCovariate, MISSING_C),
        # within one landmark the pseudo-values fail first
        ([1.0, 4.0], 10.0, TailUndefined,
         "risk-set curve at s=1.0 ends at 9.0 with survival > 0; cannot "
         "integrate to 11.0 (pass extend_tail=True to carry the curve "
         "forward)"),
    ])
    def test_errors_come_in_landmark_order(self, grid, w, error, message):
        late_c = [r for r in self.LONG if (r.id, r.obs_time) != ("c", 0.0)]
        with pytest.raises(error) as err:
            build_super_dataset(survival4(), late_c, grid, w)
        assert str(err.value) == message
        # with c's marker, the later landmark's error
        with pytest.raises(DynRmstError) as err:
            build_super_dataset(survival4(), self.LONG, grid, w)
        assert type(err.value) is not MissingCovariate

    def test_cluster_label_invariance(self):
        """Renaming subjects permutes rows but leaves (pseudo, covariate)
        multisets per landmark unchanged."""
        surv = survival4()
        renamed = [SurvivalRecord("z" + r.id, r.time, r.status, r.group,
                                  r.covariates) for r in surv]
        long2 = [LongitudinalRecord("z" + r.id, r.obs_time, r.values)
                 for r in self.LONG]
        a = build_super_dataset(surv, self.LONG, [1.0, 4.0], 2.0,
                                extend_tail=True)
        b = build_super_dataset(renamed, long2, [1.0, 4.0], 2.0,
                                extend_tail=True)
        key = lambda d: sorted(zip(d.landmarks, d.pseudo_values,
                                   map(tuple, d.covariates)))
        assert key(a) == key(b)

    def test_out_of_order_longitudinal_input(self):
        shuffled = list(reversed(self.LONG))
        a = build_super_dataset(survival4(), self.LONG, [1.0, 4.0], 2.0,
                                extend_tail=True)
        b = build_super_dataset(survival4(), shuffled, [1.0, 4.0], 2.0,
                                extend_tail=True)
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)
