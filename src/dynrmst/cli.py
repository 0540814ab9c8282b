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
import re
import sys
import traceback
from dataclasses import asdict
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


def _number(kind):
    """argparse type: ``kind`` (float or int) of an option's text, which
    must also pass ``dataio._parse_numbers`` (no '1_0' digit grouping)."""
    def parse(text):
        dataio._parse_numbers([text])
        return kind(text)

    parse.__name__ = kind.__name__  # argparse names it: "invalid float value"
    return parse


_FLOAT, _INT = _number(float), _number(int)

# options whose value is a number or a list of numbers
_NUMERIC_OPTIONS = frozenset((
    "--alpha", "--boundary", "--cen", "--censor-upper", "--grid", "--knots",
    "--n", "--reps", "--s", "--scale", "--scenario", "--seed", "--start",
    "--w", "--workers"))
_NEGATIVE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _joined_values(argv):
    """``argv`` with each numeric option and a following value that looks
    like a negative number joined as ``--opt=value``: argparse reads a value
    such as '-1e-3' or '-0.5,4' as an option, so the option would lack one."""
    out = []
    for token in argv:
        if out and out[-1] in _NUMERIC_OPTIONS and _NEGATIVE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse_grid(text):
    """Landmarks from ``lo:hi:step`` (points lo + i * step computed exactly
    from the decimal text, so 0:1:0.1 holds 0.3) or a comma-separated list,
    every part a number by the rule of ``dataio._parse_numbers``."""
    try:
        if ":" not in text:
            return dataio._parse_numbers(text.split(",")).tolist()
        parts = text.split(":")
        dataio._parse_numbers(parts)  # Fraction alone takes '1_0' and '1/3'
        lo, hi, step = (Fraction(p) for p in parts)
    except ValueError:
        raise InvalidInput(f"malformed --grid {text!r}: expected lo:hi:step "
                           "or comma-separated numbers") from None
    if step <= 0:
        raise InvalidInput(f"--grid step must be positive, got {text!r}")
    return [float(lo + i * step) for i in range((hi - lo) // step + 1)]


def _parse_floats(text, option):
    """Comma-separated finite numbers given to ``option`` ('' gives ())."""
    try:
        return tuple(dataio._floats(text.split(",")).tolist() if text else ())
    except ValueError:
        raise InvalidInput(f"malformed {option} {text!r}: expected "
                           "comma-separated finite numbers") from None


def _parse_assignments(pairs):
    out = {}
    for pair in pairs:
        name, _, text = pair.partition("=")  # text '' when there is no '='
        try:
            out[name.strip()] = float(dataio._floats([text])[0])
        except ValueError:
            raise InvalidInput(f"expected name=<finite number>, got "
                               f"{pair!r}") from None
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
    columns = (curve.event_times, curve.survival, curve.at_risk, curve.events)
    rows = [{"time": t, "survival": s, "at_risk": y, "events": d}
            for t, s, y, d in zip(*(c.tolist() for c in columns))]
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
    _emit_json(args, {**asdict(est), "method": args.method})
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
                      **asdict(res)})
    return 0


def _cmd_fit(args):
    survival = dataio.read_survival(args.input)
    longitudinal = (dataio.read_longitudinal(args.longitudinal)
                    if args.longitudinal else None)
    grid = _parse_grid(args.grid)
    names = args.covariates.split(",") if args.covariates else None
    data = build_super_dataset(survival, longitudinal, grid, args.w,
                               covariate_names=names,
                               extend_tail=args.extend_tail)
    boundary = _parse_floats(args.boundary, "--boundary") or (grid[0], grid[-1])
    # a one-number boundary gives scale 0, and SplineSpec refuses the pair
    scale = args.scale if args.scale else boundary[-1] - boundary[0]
    spec = SplineSpec(interior_knots=_parse_floats(args.knots, "--knots"),
                      boundary_knots=boundary, standardization_scale=scale)
    layout = BasisLayout(tuple(spec for _ in range(len(data.covariate_names) + 1)))
    fit = fit_super_model(data, layout, link=_link_of(args.link))
    dataio.write_json_artifact(args.output, {"model": fit.to_dict()},
                               config=_config_of(args))
    return 0


def _load_model(path):
    """The fit in a ``fit`` artifact; InvalidInput naming the file when it
    is not JSON or its model document is malformed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # undecodable text or not JSON
        raise InvalidInput(f"{path}: not a JSON model artifact ({exc})") from None
    try:
        if not isinstance(doc, dict) or "model" not in doc:
            raise InvalidInput("no model document")
        return DynamicModelFit.from_dict(doc["model"])
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from None


def _cmd_predict(args):
    fit = _load_model(args.model)
    values = _parse_assignments(args.covariates)
    missing = [n for n in fit.covariate_names if n not in values]
    if missing:
        raise DynRmstError(f"missing covariate value(s): {missing}")
    z = np.array([values[n] for n in fit.covariate_names])
    _emit_json(args, asdict(predict(fit, z, args.s, alpha=args.alpha)))
    return 0


def _cmd_evaluate(args):
    fit = _load_model(args.model)
    rows = evaluate_on_validation(
        fit,
        dataio.read_survival(args.train),
        dataio.read_longitudinal(args.train_longitudinal)
        if args.train_longitudinal else None,
        dataio.read_survival(args.val),
        dataio.read_longitudinal(args.val_longitudinal)
        if args.val_longitudinal else None,
        extend_tail=args.extend_tail,
    )
    # a None C-index or PE is written as an empty cell
    dataio.write_metrics_csv(args.output, [asdict(r) for r in rows],
                             config=_config_of(args))
    return 0


def _cmd_simulate(args):
    if args.design == "scenario":
        spec = scenario_spec(args.scenario, args.n, censor_target=args.cen)
        dataio.write_survival(args.output, simulate_scenario(spec, args.seed),
                              config=_config_of(args))
    else:
        sample = simulate_joint(joint_spec(args.trajectory, args.censor_upper),
                                args.n, args.seed)
        dataio.write_survival(args.output, sample.survival,
                              config=_config_of(args))
        if args.longitudinal_output:
            dataio.write_longitudinal(args.longitudinal_output, sample.markers,
                                      config=_config_of(args))
    return 0


def _cmd_mc(args):
    spec = scenario_spec(args.scenario, args.n, censor_target=args.cen)
    report = scenario_mc(spec, args.s, args.w, args.reps, args.seed,
                         alpha=args.alpha, workers=args.workers)
    metrics = asdict(report)
    row = {"scenario": args.scenario, "n_per_arm": args.n, "cen": args.cen,
           "s": args.s, "w": args.w, "reps": metrics.pop("n_reps"),
           "seed": args.seed, **metrics}
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
    usage and exiting 2; the subcommand parsers inherit the class.  No
    option has a prefix spelling, so ``_joined_values`` knows them all."""

    __init__ = functools.partialmethod(argparse.ArgumentParser.__init__,
                                       allow_abbrev=False)

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
    p.add_argument("--start", type=_FLOAT, default=0.0)
    p.add_argument("--output")

    p = sub.add_parser("crmst", help="conditional RMST at (s, w)")
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=_FLOAT, required=True)
    p.add_argument("--w", type=_FLOAT, required=True)
    p.add_argument("--method", choices=["pseudo", "km"], default="pseudo")
    p.add_argument("--extend-tail", action="store_true")
    p.add_argument("--output")

    p = sub.add_parser("test", help="two-sample cRMSTd test")
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=_FLOAT, required=True)
    p.add_argument("--w", type=_FLOAT, required=True)
    p.add_argument("--alpha", type=_FLOAT, default=0.05)
    p.add_argument("--extend-tail", action="store_true")
    p.add_argument("--output")

    p = sub.add_parser("fit", help="fit the landmark super-model")
    p.add_argument("--input", required=True)
    p.add_argument("--longitudinal")
    p.add_argument("--grid", required=True,
                   help="lo:hi:step or comma-separated landmarks")
    p.add_argument("--w", type=_FLOAT, required=True)
    p.add_argument("--knots", default="", help="interior knots, comma-separated")
    p.add_argument("--boundary", default="", help="boundary knots lo,hi")
    p.add_argument("--scale", type=_FLOAT, default=0.0)
    p.add_argument("--covariates", default="", help="covariate order")
    p.add_argument("--link", choices=["identity", "log"], default="identity")
    p.add_argument("--extend-tail", action="store_true")
    p.add_argument("--output", required=True)

    p = sub.add_parser("predict", help="predict cRMST from a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--s", type=_FLOAT, required=True)
    p.add_argument("--covariates", nargs="+", required=True,
                   help="name=value pairs")
    p.add_argument("--alpha", type=_FLOAT, default=0.05)
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
    p.add_argument("--scenario", type=_INT, default=1)
    p.add_argument("--trajectory", choices=["linear", "quadratic"],
                   default="linear")
    p.add_argument("--n", type=_INT, required=True)
    p.add_argument("--cen", type=_FLOAT, default=0.0)
    p.add_argument("--censor-upper", type=_FLOAT, default=None)
    p.add_argument("--seed", type=_INT, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--longitudinal-output")

    p = sub.add_parser("mc",
                       help="replicated cRMSTd metrics for one design cell")
    p.add_argument("--scenario", type=_INT, required=True)
    p.add_argument("--n", type=_INT, required=True)
    p.add_argument("--cen", type=_FLOAT, default=0.0)
    p.add_argument("--s", type=_FLOAT, required=True)
    p.add_argument("--w", type=_FLOAT, required=True)
    p.add_argument("--reps", type=_INT, required=True)
    p.add_argument("--seed", type=_INT, default=0)
    p.add_argument("--alpha", type=_FLOAT, default=0.05)
    p.add_argument("--workers", type=_INT, default=1)
    p.add_argument("--output")

    return parser


def main(argv=None):
    debug = False
    try:
        args = _build_parser().parse_args(
            _joined_values(sys.argv[1:] if argv is None else argv))
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
