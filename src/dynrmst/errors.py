"""Exception types shared across the package."""


class DynRmstError(Exception):
    """Base class for all package errors."""


class InvalidInput(DynRmstError):
    """Malformed or out-of-domain input data."""


class EmptyRiskSet(DynRmstError):
    """Fewer than two subjects at risk at the requested prediction time."""


class TailUndefined(DynRmstError):
    """The survival curve ends (censored) before s + w and extrapolation
    was not requested."""


class MissingCovariate(DynRmstError):
    """A subject has no measurement at or before the landmark for a
    required time-dependent covariate."""

    def __init__(self, subject_id, name, landmark):
        self.subject_id = subject_id
        self.name = name
        self.landmark = landmark
        super().__init__(
            f"subject {subject_id!r} has no observation of {name!r} at or "
            f"before landmark {landmark}"
        )

    def __reduce__(self):  # rebuilt from its arguments, not its message
        args = (self.subject_id, self.name, self.landmark)
        return type(self), args, vars(self)


class SingularDesign(DynRmstError):
    """Rank-deficient design matrix."""


class SingularInformation(DynRmstError):
    """Information matrix is singular; sandwich covariance undefined."""


class NoConvergence(DynRmstError):
    """Estimating-equation solver did not converge."""

    def __init__(self, iterations, score_norm):
        self.iterations = iterations
        self.score_norm = score_norm
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(score norm {score_norm:.3e})"
        )

    def __reduce__(self):  # rebuilt from its arguments, not its message
        return type(self), (self.iterations, self.score_norm), vars(self)


class OutOfRange(DynRmstError):
    """Prediction time outside the fitted landmark grid."""
