"""The two benchmark workloads: the analyst's CLI cycle and the Monte Carlo
harnesses.

Each workload has a set-up step, ``generate``, that writes its inputs from
the seed into a work directory (run in a fresh interpreter and timed as
``setup_s``), and a class that loads those inputs and runs one closed-loop
iteration at a time.  An iteration is a short list of named steps (the
measurement times each one and the reference probe between them); after
the steps, ``digest`` hashes everything the iteration produced, so
repeated iterations and different worker counts can be checked for
identical output.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

GRID_TEXT = "0:10:0.5"
GRID = tuple(0.5 * i for i in range(21))
W = 5.0
KNOTS = (2.0, 4.0, 6.0, 8.0)
COVARIATES = ("x1", "x2", "marker")

# sizes: each step takes about a second on a 2-core machine, so the probes
# around it see much the same host speed as the step
CLI_N_TRAIN = 1000
CLI_N_VAL = 120
CLI_PREDICT_QUERIES = 20
COEF = dict(n_subjects=500, reps=15, pop_size=10_000)
PRED = dict(n_train=500, n_val=300, reps=4)
SCEN = dict(scenario=1, n_per_arm=100, s=5.0, w=5.0, reps=1000)

BETA_RTOL = 1e-8


def _float_digest(h, values):
    for v in np.asarray(values, dtype=float).ravel():
        h.update(float(v).hex().encode())
        h.update(b",")


def joint_layout():
    from dynrmst.basis import BasisLayout, SplineSpec

    spec = SplineSpec(KNOTS, (GRID[0], GRID[-1]),
                      standardization_scale=GRID[-1] - GRID[0])
    return BasisLayout((spec,) * (len(COVARIATES) + 1))


# ---------------------------------------------------------------------------
# cli_fit_evaluate

def _draw_joint(rng, n, first_id):
    """Survival and biomarker rows from a Weibull model with a time-fixed
    linear predictor (closed-form event times) and a noisy linear marker."""
    x1 = (rng.random(n) < 0.5).astype(float)
    x2 = rng.normal(1.0, 1.0, n)
    b0 = rng.normal(0.0, 1.0, n)
    b1 = rng.normal(0.0, 0.2, n)
    eta = -7.0 + 0.5 * x1 - 0.5 * x2 + 0.5 * b0
    t = (rng.exponential(size=n) * np.exp(-eta)) ** (1.0 / 3.0)
    c = np.minimum(rng.uniform(0.0, 30.0, n), 20.0)
    y = np.minimum(t, c)
    d = (t <= c).astype(int)
    visits = np.concatenate([np.zeros((n, 1)),
                             np.sort(rng.uniform(0.0, 20.0, (n, 9)), axis=1)], axis=1)
    marker = (3.0 + b0 + x1 - x2)[:, None] + (-0.2 + b1)[:, None] * visits
    marker = marker + rng.normal(0.0, 0.5, visits.shape)
    surv = ["id,time,status,x1,x2"]
    long = ["id,obs_time,name,value"]
    rows = zip(y.tolist(), d.tolist(), x1.tolist(), x2.tolist(),
               visits.tolist(), marker.tolist())
    for sid, (yi, di, a, b, vts, mvs) in enumerate(rows, start=first_id):
        surv.append(f"{sid},{yi!r},{di},{a!r},{b!r}")
        long.extend(f"{sid},{vt!r},marker,{mv!r}"
                    for vt, mv in zip(vts, mvs) if vt <= yi)
    return "\n".join(surv) + "\n", "\n".join(long) + "\n"


class CliFitEvaluate:
    """``dynrmst.cli.main`` in-process: fit, a batch of predict queries,
    then evaluate."""

    pooled = False

    @staticmethod
    def generate(work, seed):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(0,)))
        for stem, n, first in (("train", CLI_N_TRAIN, 1),
                               ("val", CLI_N_VAL, CLI_N_TRAIN + 1)):
            surv, long = _draw_joint(rng, n, first)
            (work / f"{stem}.csv").write_text(surv)
            (work / f"{stem}_long.csv").write_text(long)
        queries = [{"s": float(rng.choice(GRID)), "x1": float(rng.integers(0, 2)),
                    "x2": float(rng.normal(1.0, 1.0)),
                    "marker": float(rng.normal(3.0, 1.0))}
                   for _ in range(CLI_PREDICT_QUERIES)]
        (work / "inputs.json").write_text(json.dumps({"queries": queries}))

    def __init__(self, work, pool):  # the CLI path starts no pool
        from dynrmst import cli

        self.cli = cli
        self.work = work
        p = {k: str(work / k) for k in ("train.csv", "train_long.csv",
                                        "val.csv", "val_long.csv")}
        self.model = work / "model.json"
        self.eval_csv = work / "evaluate.csv"
        self.fit_argv = ["fit", "--input", p["train.csv"],
                         "--longitudinal", p["train_long.csv"],
                         "--grid", GRID_TEXT, "--w", repr(W),
                         "--knots", ",".join(repr(k) for k in KNOTS),
                         "--covariates", ",".join(COVARIATES), "--extend-tail",
                         "--output", str(self.model)]
        queries = json.loads((work / "inputs.json").read_text())["queries"]
        self.predict_outputs = [work / f"predict_{i}.json" for i in range(len(queries))]
        self.predict_argvs = [
            ["predict", "--model", str(self.model), "--s", repr(q["s"]),
             "--covariates", *(f"{c}={q[c]!r}" for c in COVARIATES),
             "--output", str(out)]
            for q, out in zip(queries, self.predict_outputs)]
        self.eval_argv = ["evaluate", "--model", str(self.model),
                          "--train", p["train.csv"],
                          "--train-longitudinal", p["train_long.csv"],
                          "--val", p["val.csv"],
                          "--val-longitudinal", p["val_long.csv"],
                          "--extend-tail", "--output", str(self.eval_csv)]

    def _main(self, argv):
        code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"dynrmst {argv[0]} exited with {code}")

    def _predict_all(self):
        for argv in self.predict_argvs:
            self._main(argv)

    def steps(self, workers):
        return [("fit", lambda: self._main(self.fit_argv)),
                ("predict", self._predict_all),
                ("evaluate", lambda: self._main(self.eval_argv))]

    def digest(self):
        h = hashlib.sha256()
        for path in [self.model, *self.predict_outputs, self.eval_csv]:
            h.update(path.read_bytes())
        return h.hexdigest()

    def stage_values(self, stages):
        """Per-layer stage times from one iteration's step times."""
        return {"fit_s": stages["fit"], "evaluate_s": stages["evaluate"],
                "predict_ms": stages["predict"] * 1e3 / len(self.predict_argvs)}

    def checks(self):
        """The fitted beta against an independent least-squares solve on a
        design rebuilt from build_super_dataset and h_matrix."""
        from dynrmst import dataio
        from dynrmst.basis import h_matrix
        from dynrmst.landmark import build_super_dataset

        beta = np.array(json.loads(self.model.read_text())["model"]["beta"])
        data = build_super_dataset(
            dataio.read_survival(self.work / "train.csv"),
            dataio.read_longitudinal(self.work / "train_long.csv"),
            GRID, W, covariate_names=list(COVARIATES), extend_tail=True)
        lm, pv, z, _ = data.arrays()
        zstar = np.column_stack([np.ones(lm.size), z])
        layout = joint_layout()
        x = np.empty((lm.size, layout.q))
        for s in GRID:
            rows = lm == s
            x[rows] = zstar[rows] @ h_matrix(layout, s)
        ref = np.linalg.lstsq(x, pv, rcond=None)[0]
        rel = float(np.linalg.norm(beta - ref) / np.linalg.norm(ref))
        return [("beta_matches_lstsq", rel <= BETA_RTOL,
                 f"relative error {rel:.3e} (limit {BETA_RTOL:g})")]


# ---------------------------------------------------------------------------
# Monte Carlo harnesses

def _report_values(rep):
    return [rep.n_reps, rep.truth, rep.mean_estimate, rep.bias, rep.rel_bias,
            rep.rmse, rep.empirical_se, rep.mean_model_se, rep.rel_se,
            rep.coverage, rep.rejection_rate, rep.alpha]


class MonteCarlo:
    """The three replicated harnesses of ``dynrmst.sim``, one step each:
    ``coefficient_mc`` (criterion-7 shape: event-time inversion in
    ``simulate_joint`` plus SVD super-model fits), ``prediction_experiment``
    (criterion 8: truth quadrature in ``sim``) and ``scenario_mc``
    (criterion-3 null cell: thousands of small record-based
    ``crmstd_test`` calls)."""

    pooled = True
    # Untraced worker counts (``steps(None)``).  The coefficient harness runs
    # single-process: with two forked workers each running multithreaded
    # OpenBLAS on two cores it takes about 1x or 3x its usual time, the slow
    # mode persisting for seconds.  The traced run's pooled pass gives every
    # harness two workers, so sim.pool.speedup shows that defect.
    WORKERS = {"coefficient": 1, "prediction": 2, "scenario": 2}

    @staticmethod
    def generate(work, seed):
        (work / "inputs.json").write_text(json.dumps({"seed": int(seed)}))

    def __init__(self, work, pool):
        from dynrmst.sim import joint_spec, scenario_spec

        self.seed = json.loads((work / "inputs.json").read_text())["seed"]
        self.pool = pool
        self.joint = joint_spec("linear")
        self.scenario = scenario_spec(SCEN["scenario"], SCEN["n_per_arm"])
        self.layout = joint_layout()
        self.results = {}

    def _coefficient(self, workers):
        from dynrmst import sim

        res = sim.coefficient_mc(self.joint, GRID, W, self.layout, seed=self.seed,
                                 workers=workers, **COEF)
        return [*res.beta_true,
                *(v for rep in res.clustered + res.rowwise for v in _report_values(rep))]

    def _prediction(self, workers):
        from dynrmst import sim

        rows = sim.prediction_experiment(self.joint, GRID, W, self.layout,
                                         seed=self.seed, workers=workers, **PRED)
        return [v for r in rows for v in (r.landmark, r.c_index_dynamic,
                                          r.c_index_static, r.pe_dynamic,
                                          r.pe_static, r.n_reps)]

    def _scenario(self, workers):
        from dynrmst import sim

        values = _report_values(sim.scenario_mc(
            self.scenario, SCEN["s"], SCEN["w"], SCEN["reps"], self.seed,
            workers=workers))
        # rel_bias (index 4) is NaN by definition when the truth is 0
        if not all(math.isfinite(v) for v in values[:4] + values[5:]):
            raise RuntimeError("non-finite Monte Carlo metric")
        return values

    def steps(self, workers):
        """``workers``: one count for every harness, or None for WORKERS."""
        def step(name, harness):
            n = min(self.WORKERS[name], self.pool) if workers is None else workers

            def run():
                self.results[name] = harness(n)
            return name, run

        return [step("coefficient", self._coefficient),
                step("prediction", self._prediction),
                step("scenario", self._scenario)]

    def digest(self):
        h = hashlib.sha256()
        for name in self.WORKERS:
            _float_digest(h, self.results[name])
        return h.hexdigest()

    def stage_values(self, stages):
        return {f"{name}_s": stages[name] for name in self.WORKERS}

    def checks(self):
        return []


WORKLOADS = {
    "cli_fit_evaluate": CliFitEvaluate,
    "monte_carlo": MonteCarlo,
}
