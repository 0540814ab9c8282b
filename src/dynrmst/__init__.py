"""Dynamic restricted mean survival time analysis via pseudo-observations,
landmarking, and clustered estimating equations.

``import dynrmst`` loads no submodule and no numpy.  Each name in
``__all__`` but ``BACKEND`` is looked up in the submodule that defines it
(PEP 562) every time it is read from the package, so the first use of a
name loads its submodule, and a submodule's missing dependency (numpy)
fails there, not at ``import dynrmst``.  The package keeps no copy of a
name: ``dynrmst.X is dynrmst.<module>.X`` always, also after the
submodule's attribute is rebound.  The submodules themselves (``sim``,
``cli``, ...) are attributes that load on first use too.
"""

import importlib

__version__ = "0.1.0"
# the kernels are numpy only; the name stays for tools that record it
BACKEND = "python"

# each submodule and the names the package re-exports from it
_EXPORTS = {
    "basis": ("BasisLayout", "SplineSpec", "h_matrix", "ncs_eval",
              "spline_spec_from_df"),
    "errors": ("DynRmstError", "EmptyRiskSet", "InvalidInput",
               "MissingCovariate", "NoConvergence", "OutOfRange",
               "SingularDesign", "SingularInformation", "TailUndefined"),
    "evaluate": ("EvalRow", "PredictionResult", "c_index",
                 "evaluate_on_validation", "predict", "predict_landmark",
                 "prediction_error", "static_rmst_model"),
    "gee": ("IDENTITY", "LOG", "DynamicModelFit", "LinkSpec",
            "fit_landmark_model", "fit_super_model", "sandwich_cov"),
    "landmark": ("MarkerTable", "SuperDataset", "build_landmark_dataset",
                 "build_super_dataset"),
    "sim": ("CoefficientMCResult", "JointModelSpec", "JointSample",
            "JointTruth", "MetricsReport", "PredictionRow", "ScenarioSpec",
            "calibrate_joint_censoring", "coefficient_mc", "joint_spec",
            "mc_metrics", "prediction_experiment", "scenario_mc",
            "scenario_spec", "simulate_joint", "simulate_scenario",
            "true_crmstd"),
    "surv": ("CRmstdTestResult", "CRmstEstimate", "StepSurvivalCurve",
             "SurvivalData", "SurvivalRecord", "as_survival_data", "crmst_km",
             "crmst_km_ratio", "crmst_pseudo", "crmstd_test", "km_fit",
             "pseudo_observations"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "_blas", "_kernels", "_special", "cli",
                         "dataio"))

__all__ = sorted((*_SOURCE, "BACKEND"))


def __getattr__(name):
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"),
                       name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return list(__all__)
