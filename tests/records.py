"""Record lists of a joint-model sample, for the tests that check the
records adapter against the columns the simulator hands out."""

import numpy as np

from dynrmst.landmark import LongitudinalRecord
from dynrmst.surv import SurvivalRecord


def joint_records(sample):
    """(survival records, longitudinal records) of a JointSample: one
    survival record per subject with covariates x1 and x2, and one
    longitudinal record per observed visit, in the sample's row order."""
    surv = [SurvivalRecord(i, t, d, covariates={"x1": a, "x2": b})
            for i, t, d, a, b in zip(sample.ids.tolist(), sample.time.tolist(),
                                     sample.status.tolist(), sample.x1.tolist(),
                                     sample.x2.tolist())]
    seen = ~np.isnan(sample.visit_times)
    visits = zip(sample.ids[np.nonzero(seen)[0]].tolist(),
                 sample.visit_times[seen].tolist(),
                 sample.visit_values[seen].tolist())
    long = [LongitudinalRecord(i, t, {"marker": v}) for i, t, v in visits]
    return surv, long
