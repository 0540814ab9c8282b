"""Command-line surface.

Subcommands: km, crmst, test, fit, predict, evaluate, simulate, mc.  Outputs
are CSV or JSON artifacts embedding the resolved configuration; any failure
prints a machine-readable JSON error record to stderr and exits 1 (with the
traceback too under ``--debug``); a malformed command line is an
``InvalidInput`` record like any other.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from fractions import Fraction

import numpy as np

from . import dataio
from ._blas import _one_blas_thread
from .basis import BasisLayout, SplineSpec
from .errors import DynRmstError, InvalidInput
from .evaluate import evaluate_on_validation, predict
from .gee import LOG, IDENTITY, DynamicModelFit, fit_super_model
from .landmark import build_super_dataset
from .sim import (joint_spec, scenario_mc, scenario_spec, simulate_joint,
                  simulate_scenario)
from .surv import crmst_km, crmst_pseudo, crmstd_test, km_fit

__all__ = ["main"]


def _parse_grid(text):
    """Landmarks from ``lo:hi:step`` (points lo + i * step computed exactly
    from the decimal text, so 0:1:0.1 holds 0.3) or a comma-separated list."""
    try:
        if ":" not in text:
            return [float(p) for p in text.split(",")]
        lo, hi, step = (Fraction(p) for p in text.split(":"))
    except ValueError:
        raise InvalidInput(f"malformed --grid {text!r}: expected lo:hi:step "
                           "or comma-separated numbers") from None
    if step <= 0:
        raise InvalidInput(f"--grid step must be positive, got {text!r}")
    return [float(lo + i * step) for i in range((hi - lo) // step + 1)]


def _parse_floats(text, option):
    """Comma-separated finite numbers given to ``option`` ('' gives ())."""
    try:
        values = tuple(dataio._parse_numbers(text.split(",")).tolist()
                       if text else ())
    except ValueError:
        values = (math.nan,)
    if not all(map(math.isfinite, values)):
        raise InvalidInput(f"malformed {option} {text!r}: expected "
                           "comma-separated finite numbers")
    return values


def _parse_assignments(pairs):
    out = {}
    for pair in pairs:
        name, sep, text = pair.partition("=")
        try:
            value = (float(dataio._parse_numbers([text])[0]) if sep
                     else math.nan)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise InvalidInput(f"expected name=<finite number>, got {pair!r}")
        out[name.strip()] = value
    return out


def _config_of(args):
    return {k: v for k, v in sorted(vars(args).items()) if k != "debug"}


def _emit_json(args, payload):
    if args.output:
        dataio.write_json_artifact(args.output, payload, config=_config_of(args))
    else:
        json.dump(payload, sys.stdout, indent=2, default=str)
        print()


def _link_of(name):
    return LOG if name == "log" else IDENTITY


def _cmd_km(args):
    curve = km_fit(dataio.read_survival(args.input), start=args.start)
    rows = [
        {"time": float(t), "survival": float(s), "at_risk": int(y),
         "events": int(d)}
        for t, s, y, d in zip(curve.event_times, curve.survival,
                              curve.at_risk, curve.events)
    ]
    if args.output:
        dataio.write_metrics_csv(args.output, rows or
                                 [{"time": curve.start, "survival": 1.0,
                                   "at_risk": curve.n_at_risk, "events": 0}],
                                 config=_config_of(args))
    else:
        json.dump(rows, sys.stdout, indent=2)
        print()
    return 0


def _cmd_crmst(args):
    data = dataio.read_survival(args.input)
    if args.method == "km":
        est = crmst_km(data, args.s, args.w, extend_tail=args.extend_tail)
    else:
        est = crmst_pseudo(data, args.s, args.w, extend_tail=args.extend_tail)
    _emit_json(args, {"s": est.s, "w": est.w, "value": est.value,
                      "variance": est.variance, "n_at_risk": est.n_at_risk,
                      "method": args.method})
    return 0


def _cmd_test(args):
    data = dataio.read_survival(args.input)
    labels = [None] if data.group is None else data.group.tolist()
    groups = sorted(set(labels), key=str)
    if len(groups) != 2:
        raise DynRmstError(f"need exactly 2 groups, found {groups}")
    g0, g1 = (data.subset(data.group == g) for g in groups)
    res = crmstd_test(g0, g1, args.s, args.w, alpha=args.alpha,
                      extend_tail=args.extend_tail)
    _emit_json(args, {"group0": groups[0], "group1": groups[1],
                      "delta": res.delta, "se": res.se, "z": res.z,
                      "p_value": res.p_value, "ci_lower": res.ci_lower,
                      "ci_upper": res.ci_upper, "alpha": res.alpha,
                      "s": res.s, "w": res.w})
    return 0


def _cmd_fit(args):
    survival = dataio.read_survival(args.input)
    longitudinal = (dataio.read_longitudinal(args.longitudinal)
                    if args.longitudinal else [])
    grid = _parse_grid(args.grid)
    names = args.covariates.split(",") if args.covariates else None
    data = build_super_dataset(survival, longitudinal, grid, args.w,
                               covariate_names=names,
                               extend_tail=args.extend_tail)
    boundary = _parse_floats(args.boundary, "--boundary") or (grid[0], grid[-1])
    scale = args.scale if args.scale else boundary[1] - boundary[0]
    spec = SplineSpec(interior_knots=_parse_floats(args.knots, "--knots"),
                      boundary_knots=boundary, standardization_scale=scale)
    layout = BasisLayout(tuple(spec for _ in range(len(data.covariate_names) + 1)))
    fit = fit_super_model(data, layout, link=_link_of(args.link))
    dataio.write_json_artifact(args.output, {"model": fit.to_dict()},
                               config=_config_of(args))
    return 0


def _load_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    return DynamicModelFit.from_dict(doc["model"])


def _cmd_predict(args):
    fit = _load_model(args.model)
    values = _parse_assignments(args.covariates)
    missing = [n for n in fit.covariate_names if n not in values]
    if missing:
        raise DynRmstError(f"missing covariate value(s): {missing}")
    z = np.array([values[n] for n in fit.covariate_names])
    res = predict(fit, z, args.s, alpha=args.alpha)
    _emit_json(args, {"s": res.s, "value": res.value, "se": res.se,
                      "ci_lower": res.ci_lower, "ci_upper": res.ci_upper,
                      "df": res.df, "alpha": res.alpha})
    return 0


def _cmd_evaluate(args):
    fit = _load_model(args.model)
    rows = evaluate_on_validation(
        fit,
        dataio.read_survival(args.train),
        dataio.read_longitudinal(args.train_longitudinal)
        if args.train_longitudinal else [],
        dataio.read_survival(args.val),
        dataio.read_longitudinal(args.val_longitudinal)
        if args.val_longitudinal else [],
        extend_tail=args.extend_tail,
    )
    # a None C-index or PE is written as an empty cell
    out = [
        {"landmark": r.landmark,
         "c_index_dynamic": r.c_index_dynamic,
         "c_index_static": r.c_index_static,
         "pe_dynamic": r.pe_dynamic, "pe_static": r.pe_static,
         "reference_kind": r.reference_kind}
        for r in rows
    ]
    dataio.write_metrics_csv(args.output, out, config=_config_of(args))
    return 0


def _cmd_simulate(args):
    if args.design == "scenario":
        spec = scenario_spec(args.scenario, args.n, censor_target=args.cen)
        g0, g1 = simulate_scenario(spec, args.seed)
        dataio.write_survival(args.output, g0 + g1, config=_config_of(args))
    else:
        spec = joint_spec(trajectory=args.trajectory,
                          censor_upper=args.censor_upper)
        sample = simulate_joint(spec, args.n, args.seed)
        surv, long = sample.to_records()
        dataio.write_survival(args.output, surv, config=_config_of(args))
        if args.longitudinal_output:
            dataio.write_longitudinal(args.longitudinal_output, long,
                                      config=_config_of(args))
    return 0


def _cmd_mc(args):
    spec = scenario_spec(args.scenario, args.n, censor_target=args.cen)
    report = scenario_mc(spec, args.s, args.w, args.reps, args.seed,
                         alpha=args.alpha, workers=args.workers)
    row = {"scenario": args.scenario, "n_per_arm": args.n, "cen": args.cen,
           "s": args.s, "w": args.w, "reps": report.n_reps,
           "seed": args.seed, "truth": report.truth,
           "mean_estimate": report.mean_estimate, "bias": report.bias,
           "rel_bias": report.rel_bias, "rmse": report.rmse,
           "empirical_se": report.empirical_se,
           "mean_model_se": report.mean_model_se, "rel_se": report.rel_se,
           "coverage": report.coverage,
           "rejection_rate": report.rejection_rate, "alpha": report.alpha}
    config = _config_of(args)
    config.pop("workers", None)  # worker count must not change the artifact
    if args.output:
        dataio.write_metrics_csv(args.output, [row], config=config)
    else:
        json.dump(row, sys.stdout, indent=2)
        print()
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as InvalidInput rather than printing
    usage and exiting 2; the subcommand parsers inherit the class."""

    def error(self, message):
        raise InvalidInput(f"{self.prog}: {message}")


@functools.cache
def _build_parser():
    """The argument parser, built once per process: a command runs the
    ``_cmd_<command>`` this module holds when it is called."""
    parser = _Parser(
        prog="dynrmst",
        description="Dynamic restricted-mean-survival-time analysis via "
                    "pseudo-observations and landmarking.")
    parser.add_argument("--debug", action="store_true",
                        help="print the traceback of a failure")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("km", help="Kaplan-Meier curve")
    p.add_argument("--input", required=True)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--output")

    p = sub.add_parser("crmst", help="conditional RMST at (s, w)")
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--method", choices=["pseudo", "km"], default="pseudo")
    p.add_argument("--extend-tail", action="store_true")
    p.add_argument("--output")

    p = sub.add_parser("test", help="two-sample cRMSTd test")
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--extend-tail", action="store_true")
    p.add_argument("--output")

    p = sub.add_parser("fit", help="fit the landmark super-model")
    p.add_argument("--input", required=True)
    p.add_argument("--longitudinal")
    p.add_argument("--grid", required=True,
                   help="lo:hi:step or comma-separated landmarks")
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--knots", default="", help="interior knots, comma-separated")
    p.add_argument("--boundary", default="", help="boundary knots lo,hi")
    p.add_argument("--scale", type=float, default=0.0)
    p.add_argument("--covariates", default="", help="covariate order")
    p.add_argument("--link", choices=["identity", "log"], default="identity")
    p.add_argument("--extend-tail", action="store_true")
    p.add_argument("--output", required=True)

    p = sub.add_parser("predict", help="predict cRMST from a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--covariates", nargs="+", required=True,
                   help="name=value pairs")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--output")

    p = sub.add_parser("evaluate", help="dynamic vs static out-of-sample")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--train-longitudinal")
    p.add_argument("--val", required=True)
    p.add_argument("--val-longitudinal")
    p.add_argument("--extend-tail", action="store_true")
    p.add_argument("--output", required=True)

    p = sub.add_parser("simulate", help="draw a synthetic dataset")
    p.add_argument("--design", choices=["scenario", "joint"], required=True)
    p.add_argument("--scenario", type=int, default=1)
    p.add_argument("--trajectory", choices=["linear", "quadratic"],
                   default="linear")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cen", type=float, default=0.0)
    p.add_argument("--censor-upper", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--longitudinal-output")

    p = sub.add_parser("mc",
                       help="replicated cRMSTd metrics for one design cell")
    p.add_argument("--scenario", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cen", type=float, default=0.0)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output")

    return parser


def main(argv=None):
    debug = False
    try:
        args = _build_parser().parse_args(argv)
        debug = args.debug
        with _one_blas_thread():
            return globals()[f"_cmd_{args.command}"](args)
    except Exception as exc:
        if debug:
            traceback.print_exc()
        error = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        json.dump({"error": error, "message": str(exc)}, sys.stderr)
        print(file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
