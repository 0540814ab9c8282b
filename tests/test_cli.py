"""Command-line contracts: artifacts, round trips, input diagnostics."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynrmst
from dynrmst import cli, dataio, sim
from dynrmst.cli import _parse_grid, main
from dynrmst.errors import InvalidInput
from dynrmst.gee import DynamicModelFit
from dynrmst.evaluate import predict
from dynrmst.surv import SurvivalRecord, crmstd_test


def run(argv):
    return main([str(a) for a in argv])


def scenario_csv(tmp_path, name="scen.csv", scenario=2, n=100, cen=0.3, seed=3):
    path = tmp_path / name
    assert run(["simulate", "--design", "scenario", "--scenario", scenario,
                "--n", n, "--cen", cen, "--seed", seed,
                "--output", path]) == 0
    return path


def joint_csvs(tmp_path, n=200, seed=1, stem="joint"):
    surv = tmp_path / f"{stem}_surv.csv"
    long = tmp_path / f"{stem}_long.csv"
    assert run(["simulate", "--design", "joint", "--n", n, "--seed", seed,
                "--output", surv, "--longitudinal-output", long]) == 0
    return surv, long


def fitted_model_path(tmp_path, surv, long):
    model = tmp_path / "model.json"
    assert run(["fit", "--input", surv, "--longitudinal", long,
                "--grid", "0:4:1", "--w", "5", "--knots", "1,2,3",
                "--covariates", "x1,x2,marker", "--extend-tail",
                "--output", model]) == 0
    return model


class TestSimulateAndTest:
    def test_json_contract_matches_in_process(self, tmp_path):
        data = scenario_csv(tmp_path)
        out = tmp_path / "test.json"
        assert run(["test", "--input", data, "--s", 0, "--w", 10,
                    "--extend-tail", "--output", out]) == 0
        lines = out.read_text().splitlines()
        doc = json.loads("\n".join(l for l in lines if not l.startswith("#")))
        assert set(doc) >= {"delta", "se", "z", "p_value", "ci_lower",
                            "ci_upper", "group0", "group1"}
        columns = dataio.read_survival(data)
        g0 = columns.subset(columns.group == doc["group0"])
        g1 = columns.subset(columns.group == doc["group1"])
        res = crmstd_test(g0, g1, 0.0, 10.0, extend_tail=True)
        assert doc["delta"] == res.delta
        assert doc["p_value"] == res.p_value

    def test_config_comment_embedded(self, tmp_path):
        data = scenario_csv(tmp_path)
        first = data.read_text().splitlines()[0]
        assert first.startswith("# config:")
        cfg = json.loads(first.split("# config:", 1)[1])
        assert cfg["scenario"] == 2 and cfg["seed"] == 3

    def test_group_count_enforced(self, tmp_path, capsys):
        path = tmp_path / "one_group.csv"
        dataio.write_survival(path, [SurvivalRecord(i, 1.0 + i, 1, group=0)
                                     for i in range(5)])
        assert run(["test", "--input", path, "--s", 0, "--w", 2]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "2 groups" in err["message"]


class TestFitPredictRoundTrip:
    def test_cli_predict_matches_in_process_bit_exactly(self, tmp_path, capsys):
        surv, long = joint_csvs(tmp_path)
        model = fitted_model_path(tmp_path, surv, long)
        assert run(["predict", "--model", model, "--s", 2.5,
                    "--covariates", "x1=1", "x2=0.3", "marker=2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)

        with open(model) as fh:
            fit = DynamicModelFit.from_json(json.dumps(json.load(fh)["model"]))
        res = predict(fit, [1.0, 0.3, 2.0], 2.5)
        assert doc["value"] == res.value
        assert doc["se"] == res.se
        assert doc["ci_lower"] == res.ci_lower

    def test_predict_alpha_outside_unit_interval(self, tmp_path, capsys):
        surv, long = joint_csvs(tmp_path)
        model = fitted_model_path(tmp_path, surv, long)
        assert run(["predict", "--model", model, "--s", 1, "--alpha", 3,
                    "--covariates", "x1=1", "x2=0.3", "marker=2.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err == {"error": "InvalidInput",
                       "message": "alpha must be in (0, 1)"}

    def test_predict_missing_covariate(self, tmp_path, capsys):
        surv, long = joint_csvs(tmp_path)
        model = fitted_model_path(tmp_path, surv, long)
        assert run(["predict", "--model", model, "--s", 1,
                    "--covariates", "x1=1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "marker" in err["message"]

    def test_evaluate_writes_metric_rows(self, tmp_path):
        surv, long = joint_csvs(tmp_path)
        vsurv, vlong = joint_csvs(tmp_path, n=150, seed=2, stem="val")
        model = fitted_model_path(tmp_path, surv, long)
        out = tmp_path / "eval.csv"
        assert run(["evaluate", "--model", model, "--train", surv,
                    "--train-longitudinal", long, "--val", vsurv,
                    "--val-longitudinal", vlong, "--extend-tail",
                    "--output", out]) == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        assert "pe_dynamic" in header and "c_index_static" in header
        assert len(lines) == 1 + 5  # header + one row per landmark 0..4

    def test_evaluate_with_too_few_at_risk_writes_empty_cells(self, tmp_path):
        surv, long = joint_csvs(tmp_path)
        vsurv, vlong = joint_csvs(tmp_path, n=30, seed=2, stem="val")
        # every validation subject censored at 3: nobody at risk at s = 4
        val = dataio.read_survival(vsurv)
        columns = (c.tolist() for c in val.covariates.values())
        covariates = [dict(zip(val.covariates, values))
                      for values in zip(*columns)]
        records = [SurvivalRecord(sid, min(t, 3.0), d if t <= 3.0 else 0,
                                  covariates=cov)
                   for sid, t, d, cov in zip(val.ids, val.time.tolist(),
                                             val.status.tolist(), covariates)]
        dataio.write_survival(vsurv, records)
        model = fitted_model_path(tmp_path, surv, long)
        out = tmp_path / "eval.csv"
        assert run(["evaluate", "--model", model, "--train", surv,
                    "--train-longitudinal", long, "--val", vsurv,
                    "--val-longitudinal", vlong, "--extend-tail",
                    "--output", out]) == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == ("landmark,c_index_dynamic,c_index_static,"
                            "pe_dynamic,pe_static,reference_kind")
        assert lines[-1] == "4,,,,,pseudo_value"
        assert "nan" not in out.read_text()


def test_fit_and_evaluate_run_on_one_blas_thread(tmp_path, monkeypatch,
                                                 blas_threads):
    threads, seen = blas_threads(), []

    def recording(fn):
        def wrapper(*args, **kwargs):
            seen.append((fn.__name__, blas_threads()))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fit_super_model", "evaluate_on_validation"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    surv, long = joint_csvs(tmp_path)
    model = fitted_model_path(tmp_path, surv, long)
    assert blas_threads() == threads
    assert run(["evaluate", "--model", model, "--train", surv,
                "--train-longitudinal", long, "--val", surv,
                "--val-longitudinal", long, "--extend-tail",
                "--output", tmp_path / "eval.csv"]) == 0
    assert seen == [("fit_super_model", 1), ("evaluate_on_validation", 1)]
    assert blas_threads() == threads


class TestInputDiagnostics:
    def write(self, tmp_path, text, name="bad.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_bad_status_names_line(self, tmp_path, capsys):
        path = self.write(tmp_path,
                          "id,time,status\na,1.0,1\nb,2.0,2\n")
        assert run(["crmst", "--input", path, "--s", 0, "--w", 1]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "line 3" in err["message"] and "status" in err["message"]

    def test_duplicate_id_names_line(self, tmp_path):
        path = self.write(tmp_path, "id,time,status\na,1.0,1\na,2.0,1\n")
        with pytest.raises(InvalidInput, match="line 3.*duplicate"):
            dataio.read_survival(path)

    def test_non_utf8_byte_is_an_error_record(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("id,time,status\na,1.0,1\nJos\u00e9,2.0,0\n"
                         .encode("latin-1"))
        assert run(["km", "--input", path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput"
        assert err["message"].startswith(f"{path}: line 3: not UTF-8")

    def test_missing_column(self, tmp_path, capsys):
        path = self.write(tmp_path, "id,time\na,1.0\n")
        assert run(["crmst", "--input", path, "--s", 0, "--w", 1]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "status" in err["message"]

    def test_wrong_field_count_names_line(self, tmp_path):
        path = self.write(tmp_path, "id,time,status\na,1.0,1\nb,2.0\n")
        with pytest.raises(InvalidInput, match="line 3"):
            dataio.read_survival(path)

    def test_non_numeric_value_names_column(self, tmp_path):
        path = self.write(tmp_path, "id,time,status\na,soon,1\n")
        with pytest.raises(InvalidInput, match="time"):
            dataio.read_survival(path)

    def test_out_of_order_longitudinal_warns_but_loads(self, tmp_path):
        path = self.write(
            tmp_path,
            "id,obs_time,name,value\na,2.0,m,1.0\na,1.0,m,2.0\n",
            name="long.csv")
        with pytest.warns(UserWarning, match="out of time order"):
            table = dataio.read_longitudinal(path)
        i = table.ids.tolist().index("a")
        times, _, offsets = table.columns["m"]
        times = times[offsets[i]:offsets[i + 1]].tolist()
        assert times == sorted(times)

    def test_non_finite_numbers_name_line_and_column(self, tmp_path):
        cases = [("id,time,status,x\na,1.0,1,0.5\nb,2.0,0,nan\n", "line 3", "x"),
                 ("id,time,status\na,inf,1\n", "line 2", "time")]
        for text, line, column in cases:
            path = self.write(tmp_path, text)
            with pytest.raises(InvalidInput, match=f"{line}.*{column!r}"):
                dataio.read_survival(path)
        path = self.write(tmp_path, "id,obs_time,name,value\na,0.0,m,-inf\n",
                          name="long.csv")
        with pytest.raises(InvalidInput, match="line 2.*'value'"):
            dataio.read_longitudinal(path)

    def test_fit_with_nan_marker_is_an_error_record(self, tmp_path, capsys):
        surv, long = joint_csvs(tmp_path)
        lines = long.read_text().splitlines()
        lines[-1] = ",".join(lines[-1].split(",")[:3] + ["nan"])
        long.write_text("\n".join(lines) + "\n")
        model = tmp_path / "model.json"
        assert run(["fit", "--input", surv, "--longitudinal", long,
                    "--grid", "0:4:1", "--w", "5", "--extend-tail",
                    "--output", model]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput"
        assert f"line {len(lines)}" in err["message"]

    def test_grid_points_are_exact(self):
        assert _parse_grid("0:1:0.1")[3] == 0.3
        assert _parse_grid("0:1:0.1") == [i / 10 for i in range(11)]
        assert _parse_grid("0:10:0.5") == [0.5 * i for i in range(21)]
        assert _parse_grid("1,2.5") == [1.0, 2.5]

    @pytest.mark.parametrize("grid", ["0:10:0", "0:10:-1", "0:10", "0:a:1",
                                      "0:10:nan", "1,x", "1,1_0", "0:1_0:0.5",
                                      "0:1:1/3"])
    def test_bad_grid_is_an_error_record(self, tmp_path, capsys, grid):
        surv, long = joint_csvs(tmp_path, n=50)
        assert run(["fit", "--input", surv, "--grid", grid, "--w", "5",
                    "--output", tmp_path / "model.json"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput" and "grid" in err["message"]

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "2_5"])
    def test_bad_predict_covariate_is_an_error_record(self, tmp_path, capsys,
                                                      value):
        surv, long = joint_csvs(tmp_path)
        model = fitted_model_path(tmp_path, surv, long)
        assert run(["predict", "--model", model, "--s", 1, "--covariates",
                    "x1=1", f"x2={value}", "marker=2.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidInput" and "x2" in err["message"]

    @pytest.mark.parametrize("option, value", [("--knots", "x"),
                                               ("--knots", "1,nan"),
                                               ("--knots", "0_2"),
                                               ("--boundary", "0,")])
    def test_bad_knot_list_is_an_error_record(self, tmp_path, capsys, option,
                                              value):
        surv, long = joint_csvs(tmp_path, n=50)
        assert run(["fit", "--input", surv, "--grid", "0:4:1", "--w", "5",
                    option, value, "--output", tmp_path / "model.json"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput" and option in err["message"]

    def test_unexpected_exception_is_an_error_record(self, tmp_path, capsys,
                                                     monkeypatch):
        def broken(args):
            raise ValueError("could not convert string to float: 'x'")

        monkeypatch.setattr(cli, "_cmd_fit", broken)
        argv = ["fit", "--input", tmp_path / "surv.csv", "--grid", "0:4:1",
                "--w", "5", "--output", tmp_path / "model.json"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and "x" in err["message"]
        assert run(["--debug", *argv]) == 1
        captured = capsys.readouterr().err
        assert captured.startswith("Traceback")
        assert json.loads(captured.splitlines()[-1])["error"] == "ValueError"

    @pytest.mark.parametrize("argv, text", [
        (["fit", "--input", "s.csv", "--grid", "0:4:1", "--w", "abc",
          "--output", "m.json"], "argument --w: invalid float value: 'abc'"),
        (["fit", "--grid", "0:4:1", "--w", "5", "--output", "m.json"],
         "the following arguments are required: --input"),
        (["km", "--input", "s.csv", "--frobnicate"], "--frobnicate"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
    ])
    def test_usage_error_is_an_error_record(self, capsys, argv, text):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidInput" and text in err["message"]

    @pytest.mark.parametrize("argv, text", [
        (["crmst", "--input", "s.csv", "--s", "1_0", "--w", "2.5"],
         "argument --s: invalid float value: '1_0'"),
        (["simulate", "--design", "joint", "--n", "1_0", "--output", "s.csv"],
         "argument --n: invalid int value: '1_0'"),
    ])
    def test_underscore_digit_grouping_is_an_error_record(self, capsys, argv,
                                                          text):
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput" and text in err["message"]
        with pytest.raises(InvalidInput):
            cli._build_parser().parse_args(argv)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--help"])
        assert exc.value.code == 0
        assert "--longitudinal" in capsys.readouterr().out

    def test_missing_file_is_reported(self, tmp_path, capsys):
        assert run(["crmst", "--input", tmp_path / "nope.csv",
                    "--s", 0, "--w", 1]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "OSError"


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(dynrmst.__file__).resolve().parents[1])
    code = ("import sys, dynrmst, dynrmst.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class TestMcCommand:
    def test_row_contents_and_worker_invariance(self, tmp_path):
        out1 = tmp_path / "mc1.csv"
        out2 = tmp_path / "mc2.csv"
        base = ["mc", "--scenario", 1, "--n", 60, "--s", 2, "--w", 5,
                "--reps", 30, "--seed", 5]
        assert run(base + ["--workers", 1, "--output", out1]) == 0
        assert run(base + ["--workers", 2, "--output", out2]) == 0

        def body(path):
            # config comments embed the (differing) output paths; everything
            # else must be byte-identical across worker counts
            return [l for l in path.read_bytes().splitlines()
                    if not l.startswith(b"#")]

        assert body(out1) == body(out2)
        lines = out1.read_text().splitlines()
        assert "workers" not in lines[0]  # config omits the worker count
        header = lines[1].split(",")
        row = dict(zip(header, lines[2].split(",")))
        assert row["scenario"] == "1" and row["reps"] == "30"
        assert 0.0 <= float(row["coverage"]) <= 1.0

    @pytest.mark.parametrize("option, value", [("--reps", 0), ("--reps", 1),
                                               ("--workers", 0),
                                               ("--alpha", 3)])
    def test_bad_argument_is_an_error_record_before_any_replicate(
            self, tmp_path, capsys, monkeypatch, option, value):
        def replicate(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim, "_scenario_chunk", replicate)
        argv = {"--scenario": 1, "--n": 60, "--s": 2, "--w": 5, "--reps": 30,
                option: value}
        assert run(["mc", *(x for kv in argv.items() for x in kv)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidInput"
        assert option[2:] in err["message"]


class TestKmAndCrmst:
    def test_km_csv(self, tmp_path):
        data = scenario_csv(tmp_path, scenario=1, n=50, cen=0.0, seed=9)
        out = tmp_path / "km.csv"
        assert run(["km", "--input", data, "--output", out]) == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        surv_col = header.index("survival")
        values = [float(l.split(",")[surv_col]) for l in lines[1:]]
        assert values == sorted(values, reverse=True)
        assert values[-1] == 0.0  # uncensored: curve reaches zero

    def test_crmst_methods_agree(self, tmp_path, capsys):
        data = scenario_csv(tmp_path, scenario=1, n=80, cen=0.3, seed=4)
        results = {}
        for method in ("pseudo", "km"):
            assert run(["crmst", "--input", data, "--s", 1, "--w", 5,
                        "--method", method, "--extend-tail"]) == 0
            results[method] = json.loads(capsys.readouterr().out)
        assert np.isclose(results["pseudo"]["value"], results["km"]["value"],
                          atol=1e-10)
        assert results["pseudo"]["variance"] > 0


@pytest.fixture(scope="module")
def model_text(tmp_path_factory):
    """The text of a valid ``fit`` artifact (grid 0..4, three covariates)."""
    tmp = tmp_path_factory.mktemp("model")
    return fitted_model_path(tmp, *joint_csvs(tmp)).read_text()


def _set(path, value):
    """A mutation of the model document that sets (or, for value None,
    removes) the field at ``path``."""
    def mutate(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        if value is None:
            del doc[last]
        else:
            doc[last] = value
    return mutate


def _whole_model(value):
    def mutate(doc):
        doc["model"] = value
    return mutate


def _short_beta(doc):
    doc["model"]["beta"].pop()


def _nan_beta(doc):
    doc["model"]["beta"][1] = float("nan")


def _boolean_beta(doc):
    # np.array([True, 0.5]) is a float array, so only a per-entry check
    # tells the boolean from the number 1.0
    doc["model"]["beta"][0] = True


class TestMalformedModel:
    """``predict`` on a valid artifact with one field changed ends in an
    InvalidInput record that names the file and the field."""

    CASES = {
        "layout_missing": (_set(("model", "layout"), None), "layout"),
        "model_is_a_list": (_whole_model([1, 2]), "model"),
        "beta_one_short": (_short_beta, "beta"),
        "beta_a_string": (_set(("model", "beta"), "1.0"), "beta"),
        "beta_nan": (_nan_beta, "beta"),
        "beta_holds_a_boolean": (_boolean_beta, "beta"),
        "covariance_not_square": (_set(("model", "covariance"), [[1.0]]),
                                  "covariance"),
        "grid_empty": (_set(("model", "grid"), []), "grid"),
        "grid_holds_a_string": (_set(("model", "grid"), [0.0, "1"]), "grid"),
        "grid_not_increasing": (_set(("model", "grid"), [0.0, 2.0, 1.0]),
                                "grid"),
        "n_subjects_a_string": (_set(("model", "n_subjects"), "5"),
                                "n_subjects"),
        "n_subjects_not_above_q": (_set(("model", "n_subjects"), 3),
                                   "n_subjects"),
        "w_negative": (_set(("model", "w"), -1), "w"),
        "knot_not_finite": (_set(("model", "layout", 0, "boundary_knots"),
                                 [0.0, float("inf")]), "boundary_knots"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_is_an_invalid_input_record(self, case, model_text, tmp_path,
                                        capsys):
        mutate, field = self.CASES[case]
        doc = json.loads(model_text)
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["predict", "--model", path, "--s", 1, "--covariates",
                    "x1=1", "x2=0.3", "marker=2.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidInput"
        assert err["message"].startswith(f"{path}: ")
        assert field in err["message"]

    def test_text_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["predict", "--model", path, "--s", 1, "--covariates",
                    "x1=1", "x2=0.3", "marker=2.0"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput"
        assert err["message"].startswith(f"{path}: ")

    def test_valid_model_reads_back_unchanged(self, model_text):
        doc = json.loads(model_text)["model"]
        assert DynamicModelFit.from_dict(doc).to_dict() == doc
