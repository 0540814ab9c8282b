"""Dynamic restricted mean survival time analysis via pseudo-observations,
landmarking, and clustered estimating equations."""

from .basis import BasisLayout, SplineSpec, h_matrix, ncs_eval, spline_spec_from_df
from .errors import (DynRmstError, EmptyRiskSet, InvalidInput, MissingCovariate,
                     NoConvergence, OutOfRange, SingularDesign,
                     SingularInformation, TailUndefined)
from .evaluate import (EvalRow, PredictionResult, c_index, evaluate_on_validation,
                       predict, predict_landmark, prediction_error,
                       static_rmst_model)
from .gee import (IDENTITY, LOG, DynamicModelFit, LinkSpec,
                  fit_landmark_model, fit_super_model, sandwich_cov)
from .landmark import (MarkerTable, SuperDataset, build_landmark_dataset,
                       build_super_dataset)
from .sim import (CoefficientMCResult, JointModelSpec, JointSample, JointTruth,
                  MetricsReport, PredictionRow, ScenarioSpec,
                  calibrate_joint_censoring, coefficient_mc, joint_spec,
                  mc_metrics, prediction_experiment, scenario_mc, scenario_spec,
                  simulate_joint, simulate_scenario, true_crmstd)
from .surv import (CRmstdTestResult, CRmstEstimate, StepSurvivalCurve,
                   SurvivalData, SurvivalRecord, as_survival_data, crmst_km,
                   crmst_km_ratio, crmst_pseudo, crmstd_test, km_fit,
                   pseudo_observations)

__version__ = "0.1.0"
# the kernels are numpy only; the name stays for tools that record it
BACKEND = "python"
