"""Landmark dataset construction and the stacked super dataset."""

from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dynrmst.errors import (DynRmstError, EmptyRiskSet, InvalidInput,
                            MissingCovariate, TailUndefined)
from dynrmst.landmark import (LongitudinalRecord, MarkerTable,
                              build_landmark_dataset, build_super_dataset)
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
        off = data.offsets
        # each landmark's rows are one slice, in ascending id order
        for j, s_j in enumerate(data.landmark_grid):
            ids = list(data.subjects[data.cluster[off[j]:off[j + 1]]])
            assert ids == sorted(ids)
            assert list(data.landmarks[off[j]:off[j + 1]]) == \
                [s_j] * (off[j + 1] - off[j])
        # a (Y=8): all 3 landmarks; b (Y=3): only s=1; c (Y=6): s=1,4; d: all
        assert [list(data.subjects[data.cluster[lo:hi]])
                for lo, hi in zip(off[:-1], off[1:])] == \
            [["a", "b", "c", "d"], ["a", "c", "d"], ["a", "d"]]
        assert dict(zip(data.subjects, np.bincount(data.cluster))) == \
            {"a": 3, "b": 1, "c": 2, "d": 3}

    def test_arrays_cluster_and_offsets(self):
        data = build_super_dataset(survival4(), self.LONG, [1.0, 4.0], 2.0,
                                   extend_tail=True)
        lm, pv, z, cluster = data.arrays()
        assert data.offsets[0] == 0 and data.offsets[-1] == len(data)
        assert data.offsets.size == len(data.landmark_grid) + 1
        assert np.array_equal(cluster, data.cluster)
        assert np.array_equal(np.unique(cluster), np.arange(data.n_subjects))
        assert lm.shape == pv.shape == cluster.shape == (len(data),)
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


AB = np.array(["a", "b"], dtype=object)


def ab_table(times=(0.0, 0.0, 1.0), values=(1.0, 2.0, 3.0), offsets=(0, 1, 3),
             ids=AB):
    """MarkerTable of biomarker 'm', built directly from its columns."""
    return MarkerTable({"m": (np.array(times), np.array(values),
                              np.array(offsets))}, ids)


def ab_measurements(subject=(0, 1, 1), times=(0.0, 0.0, 1.0),
                    values=(1.0, 2.0, 3.0)):
    """MarkerTable.from_columns of measurements of 'm' by subjects 'a', 'b'."""
    return MarkerTable.from_columns(AB, np.array(subject), np.array(times),
                                    np.array(["m"] * len(times), dtype=object),
                                    np.array(values))


OFFSETS = ("biomarker 'm': offsets do not split its times and values among "
           "2 subjects")
IDS = "subject ids must be a 1-D array in strictly ascending order"


class TestMarkerTableChecksItself:
    def test_valid_columns(self):
        assert ab_table().columns["m"][2].tolist() == [0, 1, 3]
        assert ab_measurements().ids is AB
        ab_table(times=(), values=(), offsets=(0, 0, 0))  # no rows
        ab_table(times=(1.0, 0.0, 1.0))  # each subject's rows start afresh
        ab_table(offsets=(0, 0, 3), times=(0.0, 0.0, 1.0))  # 'a' has none

    def test_names_with_trailing_nuls_are_their_own_biomarkers(self):
        # numpy compares a str operand as a fixed-width string, which drops
        # trailing NULs; a longitudinal CSV cell may hold one
        table = MarkerTable.from_columns(
            AB, np.array([0, 1, 1]), np.array([0.0, 0.0, 1.0]),
            np.array(["m", "m\x00", "\x00"], dtype=object),
            np.array([1.0, 2.0, 3.0]))
        assert sorted(table.columns) == ["\x00", "m", "m\x00"]
        assert [table.columns[n][1].tolist() for n in ("m", "m\x00", "\x00")] \
            == [[1.0], [2.0], [3.0]]

    @pytest.mark.parametrize("build, message", [
        (partial(ab_measurements, times=(0.0, -1.0, 1.0)),
         "subject 'b': column 'obs_time' cannot hold -1.0"),
        (partial(ab_measurements, values=(1.0, 2.0, np.inf)),
         "subject 'b': column 'value' cannot hold inf"),
        # a subject index past the ids made offsets for a third subject
        (partial(ab_measurements, subject=(0, 1, 2)), OFFSETS),
        (partial(ab_table, times=(0.0, np.nan, 1.0)),
         "subject 'b': column 'obs_time' cannot hold nan"),
        (partial(ab_table, values=(-np.inf, 2.0, 3.0)),
         "subject 'a': column 'value' cannot hold -inf"),
        (partial(ab_table, offsets=(0, 4, 3)), OFFSETS),
        (partial(ab_table, offsets=(1, 1, 3)), OFFSETS),
        (partial(ab_table, offsets=(0, 1, 2)), OFFSETS),
        (partial(ab_table, offsets=(0, 3)), OFFSETS),
        (partial(ab_table, values=(1.0, 2.0)), OFFSETS),
        # a subject's rows in (obs_time, value) order: LOCF reads the last
        # row at a tied time
        (partial(ab_table, times=(0.0, 2.0, 1.0)),
         "subject 'b': column 'obs_time' cannot hold 1.0"),
        (partial(ab_table, times=(0.0, 1.0, 1.0), values=(1.0, 3.0, 2.0)),
         "subject 'b': column 'value' cannot hold 2.0"),
        (partial(ab_table, ids=AB[::-1]), IDS),
        # not numpy's ValueError from np.bincount
        (partial(ab_measurements, subject=(0, -1, 1)),
         "biomarker 'm': subject index -1 is negative"),
        # not numpy's TypeError from np.bincount, even for whole floats
        (partial(ab_measurements, subject=(0, 1.5, 1)),
         "biomarker 'm': subject index has dtype float64, not an integer "
         "dtype"),
        (partial(ab_measurements, subject=(0, 1.0, 1)),
         "biomarker 'm': subject index has dtype float64, not an integer "
         "dtype"),
        (partial(ab_measurements, subject=(False, True, True)),
         "biomarker 'm': subject index has dtype bool, not an integer dtype"),
        (partial(ab_measurements, subject=np.array([0, 1, 1], dtype=object)),
         "biomarker 'm': subject index has dtype object, not an integer "
         "dtype"),
    ])
    def test_invalid_columns(self, build, message):
        with pytest.raises(InvalidInput) as err:
            build()
        assert str(err.value) == message


class TestRecordsAdapters:
    """The records adapters build columns, which apply the CSV readers'
    rule: obs_time finite and nonnegative, marker values finite, a
    time-fixed covariate finite or NaN for a missing value; InvalidInput
    names the subject and the column otherwise."""

    LONG = marker("a", [(0.0, 1.0)]) + marker("b", [(0.0, 2.0)]) + \
        marker("c", [(0.0, 3.0)]) + marker("d", [(0.0, 4.0)])

    @pytest.mark.parametrize("record, message", [
        (LongitudinalRecord("a", float("nan"), {"m": 2.0}),
         "subject 'a': column 'obs_time' cannot hold nan"),
        (LongitudinalRecord("b", float("inf"), {"m": 3.0}),
         "subject 'b': column 'obs_time' cannot hold inf"),
        (LongitudinalRecord("c", -float("inf"), {"m": 3.0}),
         "subject 'c': column 'obs_time' cannot hold -inf"),
        (LongitudinalRecord("b", 1.0, {"m": float("nan")}),
         "subject 'b': column 'value' cannot hold nan"),
        (LongitudinalRecord("d", 1.0, {"m": -float("inf")}),
         "subject 'd': column 'value' cannot hold -inf"),
        # a subject without survival record is checked too
        (LongitudinalRecord("z", 1.0, {"m": float("inf")}),
         "subject 'z': column 'value' cannot hold inf"),
        (LongitudinalRecord("a", -1.0, {"m": 1.0}),
         "subject 'a': column 'obs_time' cannot hold -1.0"),
    ])
    def test_marker_record(self, record, message):
        with pytest.raises(InvalidInput) as err:
            build_super_dataset(survival4(), self.LONG + [record], [0.0, 2.0],
                                2.0, extend_tail=True)
        assert str(err.value) == message

    def test_record_without_values_adds_no_row(self):
        """A record with no measurement has no cell to check, whatever its
        obs_time."""
        empty = LongitudinalRecord("c", float("nan"), {})
        got, want = (build_super_dataset(survival4(), long, [0.0, 2.0], 2.0,
                                         extend_tail=True)
                     for long in (self.LONG + [empty], self.LONG))
        for a, b in zip(got.arrays(), want.arrays()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("value, error, message", [
        (float("inf"), InvalidInput,
         "subject 'c': column 'x' cannot hold inf"),
        (-float("inf"), InvalidInput,
         "subject 'c': column 'x' cannot hold -inf"),
        # NaN is a missing value
        (float("nan"), MissingCovariate,
         "subject 'c' has no observation of 'x' at or before landmark 0.0"),
    ])
    def test_time_fixed_covariate(self, value, error, message):
        surv = survival4()
        surv[2] = SurvivalRecord("c", 6.0, 1, covariates={"x": value})
        with pytest.raises(error) as err:
            build_super_dataset(surv, [], [0.0, 2.0], 2.0, extend_tail=True)
        assert str(err.value) == message
