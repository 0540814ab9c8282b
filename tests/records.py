"""Survival records, marker rows and column arrays of a joint-model sample,
for the tests that check the survival records adapter and
``MarkerTable.from_columns`` against the columns the simulator hands out and
the tests that compare two samples bit for bit."""

import numpy as np

from dynrmst.landmark import MarkerTable
from dynrmst.surv import SurvivalRecord


def joint_columns(sample):
    """{name: array} of every column array of a JointSample: the survival
    ids, times, status and covariates, and the marker times, values and
    offsets."""
    surv = sample.survival
    times, values, offsets = sample.markers.columns["marker"]
    return {"ids": surv.ids, "time": surv.time, "status": surv.status,
            "x1": surv.covariates["x1"], "x2": surv.covariates["x2"],
            "marker_times": times, "marker_values": values,
            "marker_offsets": offsets}


def joint_records(sample):
    """One survival record per subject of a JointSample, with covariates x1
    and x2, in the sample's row order."""
    c = joint_columns(sample)
    return [SurvivalRecord(i, t, d, covariates={"x1": a, "x2": b})
            for i, t, d, a, b in zip(c["ids"].tolist(), c["time"].tolist(),
                                     c["status"].tolist(), c["x1"].tolist(),
                                     c["x2"].tolist())]


def joint_marker_rows(sample):
    """(subject id, obs_time, value) of each observed visit of a
    JointSample, in the sample's row order."""
    c = joint_columns(sample)
    subject = np.repeat(c["ids"], np.diff(c["marker_offsets"]))
    return list(zip(subject.tolist(), c["marker_times"].tolist(),
                    c["marker_values"].tolist()))


def marker_table(rows, name="m"):
    """MarkerTable.from_columns of (subject id, obs_time, value) rows of the
    biomarker ``name``, in any order, for the subjects with a row."""
    ids = np.empty(len(rows), dtype=object)
    ids[:] = [r[0] for r in rows]
    ids, subject = np.unique(ids, return_inverse=True)
    return MarkerTable.from_columns(
        ids, subject, np.array([r[1] for r in rows], dtype=float),
        np.full(len(rows), name, dtype=object),
        np.array([r[2] for r in rows], dtype=float))
