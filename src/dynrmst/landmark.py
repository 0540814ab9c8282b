"""Landmark dataset construction: the stacked super prediction dataset of
van Houwelingen, "Dynamic prediction by landmarking in event history
analysis" (Scand J Stat 2007), clustered by subject.

Input arrives as columns: a ``SurvivalData`` (or survival records,
converted once) and a ``MarkerTable`` or None for no biomarkers, as the CSV
readers and the simulators return them.  Both column types check themselves
when built, so columns from any source obey one rule.  The biomarker table
is aligned with the survival subjects by id.  The whole grid is then one
vectorized pass:
one jackknife call for the strict risk sets ``Y > s`` of every landmark,
and per biomarker one search that resolves it by last observation carried
forward (ties at the landmark count) at every landmark, in the
landmark-major row order that ``_landmark_pairs`` alone decides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import EmptyRiskSet, InvalidInput, MissingCovariate
from .surv import (SurvivalData, _check_cells, _check_finite, _check_ids,
                   _first_failing_window, as_survival_data)
# pseudo_observations is bound here for perfbench's instrumentation self-test
from .surv import pseudo_observations  # noqa: F401

__all__ = [
    "MarkerTable",
    "SuperDataset",
    "build_landmark_dataset",
    "build_super_dataset",
]


@dataclass(frozen=True)
class MarkerTable:
    """Biomarker measurements of the subjects ``ids`` (ascending):
    ``columns[name]`` is (times, values, offsets) with rows sorted by
    (subject, obs_time, value) and subject i's rows at
    ``offsets[i]:offsets[i + 1]``.  The constructor refuses ids not strictly
    ascending, offsets that do not split the rows, a negative or non-finite
    time or value, and a subject's rows out of (obs_time, value) order.
    """

    columns: dict
    ids: np.ndarray

    def __post_init__(self):
        n = _check_ids(self.ids)
        for name, (times, values, offsets) in self.columns.items():
            rows = offsets[-1] if np.shape(offsets) == (n + 1,) else -1
            if (rows < 0 or offsets[0] != 0 or (np.diff(offsets) < 0).any()
                    or not np.shape(times) == np.shape(values) == (rows,)):
                raise InvalidInput(f"biomarker {name!r}: offsets do not split "
                                   f"its times and values among {n} subjects")
            first = np.zeros(times.size, dtype=bool)  # a subject's first row
            first[offsets[:-1][np.diff(offsets) > 0]] = True
            t0, v0 = np.roll(times, 1), np.roll(values, 1)  # the row before
            _check_cells(self.ids, [
                ("obs_time", times,
                 (0 <= times) & (times < np.inf) & (first | (times >= t0))),
                ("value", values, np.isfinite(values)
                 & (first | (times != t0) | (values >= v0)))], offsets)

    @classmethod
    def from_columns(cls, ids, subject, times, names, values):
        """Table from one entry per measurement, in any order: ``subject``
        indexes the ascending ``ids``, ``names`` holds biomarker names and
        ``times`` the observation times."""
        columns = {}
        for name in sorted(set(names.tolist())):
            if subject.dtype.kind not in "iu":  # numpy would cast 1.0 to 1
                raise InvalidInput(f"biomarker {name!r}: subject index has "
                                   f"dtype {subject.dtype}, not an integer "
                                   f"dtype")
            # an object operand: numpy reads a str as a fixed-width string,
            # which drops trailing NULs, so 'm\x00' would match no row
            rows = np.flatnonzero(names == np.array(name, dtype=object))
            keys = (values[rows], times[rows], subject[rows])
            order = rows[np.lexsort(keys)]
            if subject[order[0]] < 0:  # the least: lexsort's last key
                raise InvalidInput(f"biomarker {name!r}: subject index "
                                   f"{subject[order[0]]} is negative")
            counts = np.bincount(subject[order], minlength=ids.size)
            columns[name] = (times[order], values[order],
                             np.concatenate(([0], np.cumsum(counts))))
        return cls(columns, ids)

    def align(self, ids):
        """The table of the subjects ``ids`` (ascending): rows of subjects not
        in ``ids`` are dropped, and a subject without rows gets none."""
        if self.ids is ids or (self.ids.size == ids.size
                               and np.array_equal(self.ids, ids)):
            return self
        position = {sid: i for i, sid in enumerate(self.ids.tolist())}
        pos = np.array([position.get(sid, -1) for sid in ids.tolist()],
                       dtype=np.int64)
        found = pos >= 0
        columns = {}
        for name, (times, values, offsets) in self.columns.items():
            first = offsets[pos[found]]
            counts = np.zeros(ids.size, dtype=np.int64)
            counts[found] = offsets[pos[found] + 1] - first
            starts = np.concatenate(([0], np.cumsum(counts)))
            # new row starts[i] + k is row first[i] + k of subject i
            take = (np.repeat(first - starts[:-1][found], counts[found])
                    + np.arange(starts[-1]))
            columns[name] = (times[take], values[take], starts)
        return MarkerTable(columns, ids)

    def locf(self, name, grid, landmark, position):
        """Last value of ``name`` at or before landmark ``grid[landmark[k]]``
        (``grid`` strictly increasing; a scalar is one landmark) for the
        subject at ``position[k]``, for each pair k; NaN where it has none.
        A measurement is keyed subject * (J + 1) + the first landmark at or
        after its time, so the keys ascend with the rows, and the count of
        rows keyed at or below a pair's key (one running count over all
        n (J + 1) keys) is one past the pair's last row."""
        times, values, offsets = self.columns[name]
        grid = np.atleast_1d(grid)
        stride = grid.size + 1
        n = offsets.size - 1
        subject = np.repeat(np.arange(n), np.diff(offsets))
        keys = subject * stride + np.searchsorted(grid, times, side="left")
        upto = np.bincount(keys, minlength=n * stride)
        np.cumsum(upto, out=upto)
        last = upto[position * stride + landmark] - 1
        found = last >= offsets[position]
        out = np.full(position.size, np.nan)
        out[found] = values[last[found]]
        return out


def _landmark_pairs(n_at, n_landmarks):
    """(landmark, position, offsets): pair k is the subject at position[k]
    at landmark[k], where the subject at position i is at risk at the first
    n_at[i] landmarks, and landmark j's pairs, positions ascending, are
    offsets[j]:offsets[j + 1]."""
    landmark, position = np.nonzero(np.arange(n_landmarks)[:, None] < n_at)
    return landmark, position, np.searchsorted(landmark,
                                               np.arange(n_landmarks + 1))


def _columns(survival, longitudinal, covariate_names=None):
    """(SurvivalData, MarkerTable, covariate names) of landmark input.  The
    default names are the time-fixed covariates of the first subject (every
    column of a SurvivalData), then the biomarkers."""
    fixed = covariate_names
    if fixed is None:
        fixed = (survival.covariates if isinstance(survival, SurvivalData)
                 else survival[0].covariates if survival else ())
    surv = as_survival_data(survival, fixed)
    if longitudinal is None:
        longitudinal = MarkerTable({}, surv.ids)
    if not isinstance(longitudinal, MarkerTable):
        raise InvalidInput("longitudinal input must be a MarkerTable or None")
    markers = longitudinal.align(surv.ids)
    names = covariate_names
    if names is None:
        names = list(fixed) + [n for n in markers.columns if n not in fixed]
    return surv, markers, tuple(names)


@dataclass(frozen=True)
class SuperDataset:
    """Stacked landmark datasets: landmark j's rows are ``offsets[j]:
    offsets[j + 1]``, one per subject at risk at s_j in ascending id order,
    with its pseudo-value, covariates Z(s_j) and ``cluster``, its index into
    ``subjects`` (the ascending ids of the subjects with a row)."""

    pseudo_values: np.ndarray
    covariates: np.ndarray
    cluster: np.ndarray
    offsets: np.ndarray
    subjects: np.ndarray
    landmark_grid: tuple
    w: float
    covariate_names: tuple

    def __len__(self):
        return self.pseudo_values.size

    @property
    def n_subjects(self):
        return self.subjects.size

    @property
    def landmarks(self):
        """Each row's landmark s_j."""
        return np.repeat(np.array(self.landmark_grid), np.diff(self.offsets))

    def arrays(self):
        """(landmarks, pseudo_values, Z matrix, cluster), aligned by row."""
        return self.landmarks, self.pseudo_values, self.covariates, self.cluster


def _covariates_at(surv, markers, names, grid, landmark, position):
    """(Z, j, error): Z(s) of each pair k, the subject at position[k] at
    landmark grid[landmark[k]], with the pairs landmark-major and ascending
    in position within a landmark; LOCF for names in the biomarker table,
    the time-fixed value otherwise.  j is the first landmark at which a
    subject lacks a value and error the MissingCovariate that names the
    lowest such id, then the first such name (len(grid) and None when no
    value is missing)."""
    z = np.full((landmark.size, len(names)), np.nan)
    for k, name in enumerate(names):
        if name in markers.columns:
            z[:, k] = markers.locf(name, np.asarray(grid, dtype=float),
                                   landmark, position)
        elif name in surv.covariates:
            z[:, k] = surv.covariates[name][position]
    missing = np.argwhere(np.isnan(z))
    if not missing.size:
        return z, len(grid), None
    pair, k = missing[0]  # the lowest landmark, then id, then name
    i, j = position[pair], int(landmark[pair])
    return z, j, MissingCovariate(surv.ids[i:i + 1].tolist()[0], names[k],
                                  grid[j])


def _landmark_error(error, s):
    """``error`` of the risk set at landmark s, an empty risk set named by
    its landmark."""
    if isinstance(error, EmptyRiskSet):
        return EmptyRiskSet(f"landmark s={s}: {error}")
    return error


def build_super_dataset(survival, longitudinal, grid, w, covariate_names=None,
                        extend_tail=False):
    """Stack the landmark datasets of a strictly increasing grid.

    ``survival`` is a SurvivalData or a list of SurvivalRecord (the input
    adapter for library callers); ``longitudinal`` a MarkerTable, aligned
    here with the survival subjects (measurements of subjects absent from
    ``survival`` are dropped), or None when there are no biomarkers.  A
    covariate name is time-dependent when it appears in the longitudinal
    data (LOCF at each landmark) and time-fixed otherwise.  A subject at
    risk at a landmark but lacking a required value raises MissingCovariate
    rather than being dropped.  Errors come in landmark order, and within a
    landmark as ``risk_set_pseudo`` raises them, then MissingCovariate;
    pseudo-values that overflow are refused after every other check.
    """
    grid = [float(s) for s in grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInput(f"landmark grid must be non-empty and strictly "
                           f"increasing, got {grid}")
    surv, markers, names = _columns(survival, longitudinal, covariate_names)

    # the covariates are resolved on the landmarks before the first whose
    # pseudo-values fail, so a missing value there is the first error
    n_ok, failure = _first_failing_window(surv.time, surv.status, grid, w,
                                          extend_tail)
    # risk sets are nested, so subject i is at risk at exactly the first
    # n_at[i] landmarks
    n_at = np.searchsorted(grid[:n_ok], surv.time, side="left")
    landmark, position, offsets = _landmark_pairs(n_at, n_ok)
    z, _, missing = _covariates_at(surv, markers, names, grid[:n_ok],
                                   landmark, position)
    if missing is not None:
        raise missing
    if failure is not None:
        raise _landmark_error(failure, grid[n_ok])
    pseudo = _check_finite(_kernels.jackknife_pseudo(
        surv.time, surv.status, grid, w), grid, w, offsets)
    kept = n_at > 0
    return SuperDataset(pseudo_values=pseudo, covariates=z,
                        cluster=(np.cumsum(kept) - 1)[position],
                        offsets=offsets, subjects=surv.ids[kept],
                        landmark_grid=tuple(grid), w=float(w),
                        covariate_names=names)


def build_landmark_dataset(survival, longitudinal, s_l, w, covariate_names=None,
                           extend_tail=False):
    """The landmark dataset at s_l alone, as a one-landmark SuperDataset."""
    return build_super_dataset(survival, longitudinal, [s_l], w,
                               covariate_names=covariate_names,
                               extend_tail=extend_tail)
