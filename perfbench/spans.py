"""In-memory spans and counters recorded around calls into dynrmst.

The package source is left untouched: ``Instrumentation`` replaces each
traced function at every module attribute through which callers reach it
(for example ``pseudo_observations`` is bound in both ``dynrmst.surv`` and
``dynrmst.landmark``) and puts the originals back on exit.  Spans nest by a
single-threaded call stack, so a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

ORIGINAL = "__perfbench_original__"
PACKAGE = "dynrmst"


@dataclass
class Span:
    name: str
    parent: int  # index into Recorder.spans, -1 for a root
    start: float
    end: float = float("nan")

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Spans in call order plus named integer counters."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        finally:
            self.close()


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.duration
    return [sp.duration - c for sp, c in zip(spans, child)]


def summarize(spans):
    """name -> {"calls", "s", "self_s"}.

    ``s`` sums only the outermost span of each name, so a name that nests
    inside itself is not counted twice; ``self_s`` sums every span's self time.
    """
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, sp in enumerate(spans):
        row = out[sp.name]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        p = sp.parent
        while p >= 0 and spans[p].name != sp.name:
            p = spans[p].parent
        if p < 0:
            row["s"] += sp.duration
    return dict(out)


# ---------------------------------------------------------------------------
# what to trace

def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _landmark_rows(args, kwargs, result):
    return {"landmark.rows": len(result)}


def _jackknife_subjects(args, kwargs, result):
    return {"subjects": len(args[0])}


def _usable_pairs(args, kwargs, result):
    return {"pairs": int(result[0])}


def _fit_counts(args, kwargs, result):
    if isinstance(result, tuple):  # fit_arrays: (beta, cov, iterations, norm)
        x = args[0] if args else kwargs["x"]
        return {"design_bytes": int(getattr(x, "nbytes", 0)),
                "gee.iterations": int(result[2])}
    n_rows = getattr(result, "n_rows", getattr(result, "n_subjects", 0))
    return {"design_bytes": int(n_rows) * int(result.beta.size) * 8,
            "gee.iterations": int(result.iterations)}


def _joint_subjects(args, kwargs, result):
    return {"subjects": int(result.n)}


def _truth_evals(args, kwargs, result):
    return {"subject_evals": int(args[0].c0.size)}


# (module, attribute, span name, counter function).  Counter keys without a
# dot are prefixed with the span name.  ``gee._sandwich`` is the one private
# function traced: the fit functions reach the sandwich only through it.
TARGETS = (
    ("dynrmst.dataio", "read_survival", "dataio.read", _file_bytes),
    ("dynrmst.dataio", "read_longitudinal", "dataio.read", _file_bytes),
    ("dynrmst.dataio", "write_survival", "dataio.write", _file_bytes),
    ("dynrmst.dataio", "write_longitudinal", "dataio.write", _file_bytes),
    ("dynrmst.dataio", "write_json_artifact", "dataio.write", _file_bytes),
    ("dynrmst.dataio", "write_metrics_csv", "dataio.write", _file_bytes),
    ("dynrmst.landmark", "build_super_dataset", "landmark.build_super_dataset", None),
    ("dynrmst.landmark", "build_landmark_dataset", "landmark.build_landmark_dataset",
     _landmark_rows),
    ("dynrmst.surv", "pseudo_observations", "surv.pseudo_observations", None),
    ("dynrmst.surv", "crmstd_test", "surv.crmstd_test", None),
    ("dynrmst._kernels", "jackknife_pseudo", "kernels.jackknife_pseudo",
     _jackknife_subjects),
    ("dynrmst._kernels", "concordance_stats", "kernels.concordance_stats",
     _usable_pairs),
    ("dynrmst.basis", "h_matrix", "basis.h_matrix", None),
    ("dynrmst.evaluate", "predict", "evaluate.predict", None),
    ("dynrmst.evaluate", "predict_landmark", "evaluate.predict_landmark", None),
    ("dynrmst.evaluate", "static_rmst_model", "evaluate.static_rmst_model", None),
    ("dynrmst.evaluate", "c_index", "evaluate.c_index", None),
    ("dynrmst.evaluate", "prediction_error", "evaluate.prediction_error", None),
    ("dynrmst.evaluate", "evaluate_on_validation", "evaluate.evaluate_on_validation",
     None),
    ("dynrmst.gee", "fit_super_model", "gee.fit", _fit_counts),
    ("dynrmst.gee", "fit_landmark_model", "gee.fit", _fit_counts),
    ("dynrmst.gee", "fit_arrays", "gee.fit", _fit_counts),
    ("dynrmst.gee", "_sandwich", "gee.sandwich", None),
    ("dynrmst.sim", "simulate_joint", "sim.simulate_joint", _joint_subjects),
    ("dynrmst.sim", "JointTruth.true_crmst", "sim.truth", _truth_evals),
    ("dynrmst.sim", "simulate_scenario", "sim.simulate_scenario", None),
    ("dynrmst.sim", "scenario_mc", "sim.harness", None),
    ("dynrmst.sim", "coefficient_mc", "sim.harness", None),
    ("dynrmst.sim", "prediction_experiment", "sim.harness", None),
    ("dynrmst.cli", "main", "cli.main", None),
)


def _wrap(recorder, name, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close()
        if count is not None:
            for key, value in count(args, kwargs, result).items():
                recorder.counters[key if "." in key else f"{name}.{key}"] += value
        return result

    setattr(wrapper, ORIGINAL, fn)
    return wrapper


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Instrumentation:
    """Context manager that installs the traced wrappers and restores the
    original attributes on exit, also when the body raises."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.patched = []  # (owner, attribute, original)

    def __enter__(self):
        # import every target module first: a module imported while patching
        # would bind wrappers that restore() does not know about
        modules = [importlib.import_module(t[0]) for t in TARGETS]
        try:
            for module, (_, attr, name, count) in zip(modules, TARGETS):
                if "." in attr:  # a method: patch the class attribute
                    cls_name, attr = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = vars(owner)[attr]
                    bindings = [(owner, attr)]
                else:
                    original = getattr(module, attr)
                    bindings = [(mod, key) for mod in _package_modules()
                                for key, value in vars(mod).items()
                                if value is original]
                wrapper = _wrap(self.recorder, name, original, count)
                for owner, key in bindings:
                    self.patched.append((owner, key, original))
                    setattr(owner, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self):
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self.restore()
        return False


def leftover_wrappers():
    """(owner, attribute) pairs still bound to a traced wrapper."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, ORIGINAL):
                found.append((mod.__name__, key))
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend((f"{mod.__name__}.{key}", k)
                             for k, v in vars(value).items() if hasattr(v, ORIGINAL))
    return found
