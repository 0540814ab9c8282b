"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert all(w["why"].strip() and "\n" not in w["why"] for w in BENCH["workloads"])


def test_every_declared_metric_has_a_source():
    samples = [{"wall": 2.0, "cpu": 1.0, "wall_ref": 200.0, "cpu_ref": 100.0},
               {"wall": 3.0, "cpu": 1.5, "wall_ref": 250.0, "cpu_ref": 125.0}]
    computed = metrics.end_to_end(1.0, samples, [0.01, 0.012], 100.0)
    declared = [m["name"] for m in BENCH["end_to_end"]]
    assert set(declared) <= set(computed)
    assert computed["wall_ref"] == 225.0 and computed["wall_s"] == 2.5
    assert list(metrics.PER_LAYER) == [m["name"] for m in BENCH["per_layer"]]


class _Steps:
    """A workload whose two steps take fixed times on a fake clock."""

    def __init__(self, clock):
        self.clock = clock

    def _advance(self, seconds):
        self.clock[0] += seconds

    def steps(self, workers):
        return [("a", lambda: self._advance(2.0)), ("b", lambda: self._advance(1.0))]

    def digest(self):
        return "same"


def test_steps_are_scaled_by_the_probes_around_them(monkeypatch):
    now = [0.0]
    probes = iter([1.0, 3.0, 2.0])  # before a, between a and b, after b
    monkeypatch.setattr(measure.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(measure, "reference_probe", lambda: next(probes))
    run = measure.Run()
    out = run.timed(_Steps(now), 1, measure.ReferenceClock())
    assert out["wall"] == 3.0 and out["stages"] == {"a": 2.0, "b": 1.0}
    assert out["wall_ref"] == pytest.approx(2.0 / 2.0 + 1.0 / 2.5)
    assert run.failures == [] and run.attempted == 1


def _tree():
    # root [0, 10] > a [1, 4] > c [2, 3];  root > b [5, 9];  second root [20, 22]
    return [spans.Span("root", -1, 0.0, 10.0), spans.Span("a", 0, 1.0, 4.0),
            spans.Span("c", 1, 2.0, 3.0), spans.Span("b", 0, 5.0, 9.0),
            spans.Span("root", -1, 20.0, 22.0)]


def test_self_times_on_synthetic_tree():
    tree = _tree()
    selfs = spans.self_times(tree)
    assert selfs == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert sum(selfs) == sum(sp.duration for sp in tree if sp.parent < 0)


def test_summary_does_not_double_count_nested_same_name():
    tree = [spans.Span("f", -1, 0.0, 8.0), spans.Span("f", 0, 1.0, 3.0),
            spans.Span("g", 1, 1.5, 2.0)]
    row = spans.summarize(tree)["f"]
    assert row == {"calls": 2, "s": 8.0, "self_s": 7.5}


def _bound_attributes():
    import dynrmst.cli  # noqa: F401  (every traced module is loaded)
    import dynrmst.dataio  # noqa: F401
    from dynrmst.sim import JointTruth

    state = {(m.__name__, k): v for m in spans._package_modules()
             for k, v in vars(m).items() if callable(v)}
    state[("JointTruth", "true_crmst")] = vars(JointTruth)["true_crmst"]
    return state


def test_every_wrapped_attribute_is_restored():
    before = _bound_attributes()
    recorder = spans.Recorder()
    with spans.Instrumentation(recorder) as inst:
        assert len(inst.patched) > len(spans.TARGETS)  # several bindings per target
        import dynrmst.landmark
        import dynrmst.surv
        assert hasattr(dynrmst.landmark.pseudo_observations, spans.ORIGINAL)
        assert hasattr(dynrmst.surv.pseudo_observations, spans.ORIGINAL)
    after = _bound_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert spans.leftover_wrappers() == []


def test_restored_when_the_body_raises():
    with pytest.raises(RuntimeError):
        with spans.Instrumentation(spans.Recorder()):
            raise RuntimeError("boom")
    assert spans.leftover_wrappers() == []


def test_traced_calls_are_counted():
    from dynrmst import surv
    from dynrmst.surv import SurvivalRecord

    g0 = [SurvivalRecord(id=i, time=1.0 + i, status=i % 2) for i in range(6)]
    g1 = [SurvivalRecord(id=i, time=1.5 + i, status=1) for i in range(6)]
    recorder = spans.Recorder()
    with spans.Instrumentation(recorder), recorder.span("iteration"):
        surv.crmstd_test(g0, g1, 0.5, 3.0, extend_tail=True)  # via the module
    summary = spans.summarize(recorder.spans)
    assert summary["surv.crmstd_test"]["calls"] == 1
    assert summary["surv.pseudo_observations"]["calls"] == 2
    assert recorder.counters["kernels.jackknife_pseudo.subjects"] == 12
    roots = [sp for sp in recorder.spans if sp.parent < 0]
    assert [sp.name for sp in roots] == ["iteration"]
    assert sum(spans.self_times(recorder.spans)) == pytest.approx(roots[0].duration)
