"""Where each metric's value comes from, by name.

``BENCHMARK.json`` at the repository root declares every metric's name,
unit and direction; ``run.py`` attaches the declared units to the values
computed here, refuses a declared name that has no value, and prints the
values nobody declared (raw seconds) beside the result.
"""

from __future__ import annotations

import statistics

# name -> source.  Sources: ("calls"|"s"|"self_s", span name),
# ("self_prefix", span-name prefix), ("counter", key) or ("extra", key).
PER_LAYER = {
    "dataio.read.calls": ("calls", "dataio.read"),
    "dataio.read.s": ("s", "dataio.read"),
    "dataio.read.bytes": ("counter", "dataio.read.bytes"),
    "dataio.write.s": ("s", "dataio.write"),
    "dataio.write.bytes": ("counter", "dataio.write.bytes"),
    "landmark.build_super_dataset.s": ("s", "landmark.build_super_dataset"),
    "landmark.build_landmark_dataset.calls":
        ("calls", "landmark.build_landmark_dataset"),
    "landmark.build_landmark_dataset.self_s":
        ("self_s", "landmark.build_landmark_dataset"),
    "landmark.rows": ("counter", "landmark.rows"),
    "surv.pseudo_observations.calls": ("calls", "surv.pseudo_observations"),
    "surv.pseudo_observations.self_s": ("self_s", "surv.pseudo_observations"),
    "surv.crmstd_test.calls": ("calls", "surv.crmstd_test"),
    "surv.crmstd_test.self_s": ("self_s", "surv.crmstd_test"),
    "kernels.jackknife_pseudo.calls": ("calls", "kernels.jackknife_pseudo"),
    "kernels.jackknife_pseudo.s": ("s", "kernels.jackknife_pseudo"),
    "kernels.jackknife_pseudo.subjects":
        ("counter", "kernels.jackknife_pseudo.subjects"),
    "kernels.concordance_stats.calls": ("calls", "kernels.concordance_stats"),
    "kernels.concordance_stats.s": ("s", "kernels.concordance_stats"),
    "kernels.concordance_stats.pairs": ("counter", "kernels.concordance_stats.pairs"),
    "basis.h_matrix.calls": ("calls", "basis.h_matrix"),
    "basis.h_matrix.s": ("s", "basis.h_matrix"),
    "evaluate.predict.calls": ("calls", "evaluate.predict"),
    "evaluate.predict.s": ("s", "evaluate.predict"),
    "evaluate.static_rmst_model.calls": ("calls", "evaluate.static_rmst_model"),
    "evaluate.static_rmst_model.s": ("s", "evaluate.static_rmst_model"),
    "evaluate.c_index.calls": ("calls", "evaluate.c_index"),
    "evaluate.c_index.s": ("s", "evaluate.c_index"),
    "evaluate.self_s": ("self_prefix", "evaluate."),
    "gee.fit.calls": ("calls", "gee.fit"),
    "gee.fit.s": ("s", "gee.fit"),
    "gee.fit.design_bytes": ("counter", "gee.fit.design_bytes"),
    "gee.sandwich.calls": ("calls", "gee.sandwich"),
    "gee.sandwich.s": ("s", "gee.sandwich"),
    "gee.iterations": ("counter", "gee.iterations"),
    "sim.simulate_joint.calls": ("calls", "sim.simulate_joint"),
    "sim.simulate_joint.s": ("s", "sim.simulate_joint"),
    "sim.simulate_joint.subjects": ("counter", "sim.simulate_joint.subjects"),
    "sim.truth.calls": ("calls", "sim.truth"),
    "sim.truth.s": ("s", "sim.truth"),
    "sim.truth.subject_evals": ("counter", "sim.truth.subject_evals"),
    "sim.simulate_scenario.s": ("s", "sim.simulate_scenario"),
    "sim.harness.self_s": ("self_s", "sim.harness"),
    "sim.pool.speedup": ("extra", "pool_speedup"),
    "cli.self_s": ("self_s", "cli.main"),
    "stage.fit_s": ("extra", "fit_s"),
    "stage.predict_ms": ("extra", "predict_ms"),
    "stage.evaluate_s": ("extra", "evaluate_s"),
    "stage.coefficient_s": ("extra", "coefficient_s"),
    "stage.prediction_s": ("extra", "prediction_s"),
    "stage.scenario_s": ("extra", "scenario_s"),
    "trace.overhead_frac": ("extra", "overhead_frac"),
}

TIME_FIELDS = ("s", "self_s", "self_prefix")


def end_to_end(setup_s, samples, probe_s, peak_rss_mb):
    """Median set-up time and medians over the timed iterations of one run.

    ``wall_ref`` and ``cpu_ref`` (an iteration's wall and CPU time in units
    of the reference probe's time) are steady on a host whose speed drifts;
    the raw seconds and the probe time come with them.
    """
    def med(key):
        return statistics.median(s[key] for s in samples)

    return {
        "setup_s": setup_s,
        "wall_ref": med("wall_ref"),
        "cpu_ref": med("cpu_ref"),
        "peak_rss_mb": peak_rss_mb,
        "wall_s": med("wall"),
        "cpu_s": med("cpu"),
        "probe_ms": statistics.median(probe_s) * 1e3,
    }


def _source_value(source, summary, counters, extra):
    kind, key = source
    if kind == "counter":
        return counters.get(key, 0)
    if kind == "extra":
        return extra.get(key, 0)
    if kind == "self_prefix":
        return sum(row["self_s"] for name, row in summary.items()
                   if name.startswith(key))
    return summary.get(key, {}).get(kind, 0)


def layer_values(summary, counters, extra):
    """Raw per-layer values of one traced iteration (layers the workload does
    not reach read 0)."""
    return {name: _source_value(source, summary, counters, extra)
            for name, source in PER_LAYER.items()}


def per_layer(traced, extra):
    """Per-layer metrics: medians over traced iterations for times, the
    (repeating) first value for counts.  ``traced`` holds one
    (summary, counters) pair per traced iteration."""
    rows = [layer_values(s, c, extra) for s, c in traced]
    return {name: statistics.median(r[name] for r in rows)
            if source[0] in TIME_FIELDS else rows[0][name]
            for name, source in PER_LAYER.items()}


def counts_of(summary, counters):
    """Every deterministic count of one traced iteration."""
    out = {f"{name}.calls": row["calls"] for name, row in summary.items()}
    out.update(counters)
    return out
