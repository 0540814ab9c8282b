"""Record lists and column arrays of a joint-model sample, for the tests
that check the records adapter against the columns the simulator hands out
and the tests that compare two samples bit for bit."""

import numpy as np

from dynrmst.landmark import LongitudinalRecord
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
    """(survival records, longitudinal records) of a JointSample: one
    survival record per subject with covariates x1 and x2, and one
    longitudinal record per observed visit, in the sample's row order."""
    c = joint_columns(sample)
    surv = [SurvivalRecord(i, t, d, covariates={"x1": a, "x2": b})
            for i, t, d, a, b in zip(c["ids"].tolist(), c["time"].tolist(),
                                     c["status"].tolist(), c["x1"].tolist(),
                                     c["x2"].tolist())]
    subject = np.repeat(c["ids"], np.diff(c["marker_offsets"]))
    visits = zip(subject.tolist(), c["marker_times"].tolist(),
                 c["marker_values"].tolist())
    long = [LongitudinalRecord(i, t, {"marker": v}) for i, t, v in visits]
    return surv, long
