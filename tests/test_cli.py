"""Command-line contracts: artifacts, round trips, input diagnostics."""

import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dynrmst
from dynrmst import cli, dataio, errors, sim
from dynrmst.cli import _parse_grid, main
from dynrmst.errors import DynRmstError, InvalidInput
from dynrmst.gee import DynamicModelFit
from dynrmst.evaluate import predict
from dynrmst.surv import SurvivalData, crmstd_test


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


TOO_LONG = ("window (s=1.0, w={w}) is too long: its pseudo-values or their "
            "variance overflow")


def error_record_alone(argv, capsys):
    """The error record of a run that must exit 1 with nothing on stdout
    and no warning (a warning becomes an error record of its own)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)


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
        dataio.write_survival(path, SurvivalData(
            np.arange(5), 1.0 + np.arange(5.0), np.ones(5, dtype=np.int64),
            group=np.zeros(5, dtype=np.int64)))
        assert run(["test", "--input", path, "--s", 0, "--w", 2]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "2 groups" in err["message"]


# sha256 of every line after the ``# config:`` line (which embeds the
# output paths) of each ``simulate`` artifact below: a change to the
# simulators or the writers that moves one byte of a file fails here
SIMULATE_DIGESTS = {
    "scenario.csv":
        "dcc0b1cda7001507841083f578d90a78012084cc2ab748e84c1d70e3fa122665",
    "joint.csv":
        "5bf670b3f34a43a086043572b41cbcd9f3ebf071edd368c8c2abb318357a4204",
    "joint_long.csv":
        "73ee353d7d86f9135d7c48d2de63d18092a3a49c4029a0e60e568044bef34c51",
}


def _pinned_scenario(tmp_path):
    path = tmp_path / "scenario.csv"
    assert run(["simulate", "--design", "scenario", "--scenario", 3,
                "--cen", 0.2, "--n", 40, "--seed", 11, "--output", path]) == 0
    return path


def _pinned_joint(tmp_path):
    surv, long = tmp_path / "joint.csv", tmp_path / "joint_long.csv"
    assert run(["simulate", "--design", "joint", "--trajectory", "quadratic",
                "--censor-upper", 25, "--n", 40, "--seed", 11,
                "--output", surv, "--longitudinal-output", long]) == 0
    return surv, long


def test_simulate_artifacts_keep_their_bytes(tmp_path):
    _pinned_scenario(tmp_path)
    _pinned_joint(tmp_path)
    digests = {}
    for name in SIMULATE_DIGESTS:
        config, body = (tmp_path / name).read_bytes().split(b"\n", 1)
        assert config.startswith(b"# config: ")
        digests[name] = hashlib.sha256(body).hexdigest()
    assert digests == SIMULATE_DIGESTS


# sha256 of the stdout JSON (which holds no configuration and no path) of
# each command below on the ``simulate`` scenario artifact pinned above
STDOUT_DIGESTS = {
    "crmst pseudo":
        "d10aded295fd7ed3b96e54b217692d8a1a70d5ffbf357b2517a94c50f439e162",
    "crmst km":
        "660b04b4d1ff350a114da91d521a630c46e7a41791e07549b921db7f348b30a6",
    "test":
        "d27c5f2bd42d23bc7dcbc5f4d2de9936587c26777e011fa62082549514410b06",
}


def test_crmst_and_test_stdout_keep_their_bytes(tmp_path, capsys):
    data = _pinned_scenario(tmp_path)
    capsys.readouterr()
    window = ["--input", data, "--s", 1, "--w", 4]
    digests = {}
    for key, argv in [("crmst pseudo", ["crmst", *window]),
                      ("crmst km", ["crmst", *window, "--method", "km"]),
                      ("test", ["test", *window])]:
        assert run(argv) == 0
        out = capsys.readouterr().out.encode()
        digests[key] = hashlib.sha256(out).hexdigest()
    assert digests == STDOUT_DIGESTS


# sha256 of the analyst path on the ``simulate`` joint artifact pinned
# above: each ``fit`` model from its ``"model"`` key on (the ``"config"``
# object before it embeds the paths), ``predict`` stdout at a landmark and
# between landmarks, and the ``evaluate`` CSV after its ``# config:`` line
ANALYST_DIGESTS = {
    "fit identity":
        "8ce4ffd5f3020f9cd3bec2c873a0aa5ca81b933e1fb654818d9aafa0c9702d0d",
    "predict identity s=2":
        "8b8ca86afaf59ad5e6a23908ca94f09e1dccd8e7ca1b7ba64c65cb451bda6b7f",
    "predict identity s=2.5":
        "72737727aaf75ddb94a23e8915021b9eb7f91b9bb06bbfb53cfaa36e2636e5df",
    "fit log":
        "faa57d06b45d1dced07cf3ae477985a89ca9b68eafa29a49fcf46c6b73eb77c3",
    "predict log s=2":
        "dc177879e202da87955011023e57b4d71ac957a059575deab9d65c2f997a4614",
    "predict log s=2.5":
        "9d3076db215422930f86398fb2ffbe843566582e7897a474bd07c43e380c8353",
    "evaluate":
        "d19b56c39e034ac336ff608026a310acef2578641ecbb1640938f28972b4c13c",
}


def test_fit_predict_and_evaluate_keep_their_bytes(tmp_path, capsys):
    surv, long = _pinned_joint(tmp_path)
    digests = {}
    for link in ("identity", "log"):
        model = tmp_path / f"model_{link}.json"
        assert run(["fit", "--input", surv, "--longitudinal", long,
                    "--grid", "0:4:1", "--w", 5, "--knots", 2,
                    "--covariates", "x1,x2,marker", "--link", link,
                    "--extend-tail", "--output", model]) == 0
        head, key, body = model.read_bytes().partition(b'\n  "model": ')
        assert b'"config"' in head and b'"config"' not in body
        digests[f"fit {link}"] = hashlib.sha256(key + body).hexdigest()
        capsys.readouterr()
        for s in (2, 2.5):
            assert run(["predict", "--model", model, "--s", s,
                        "--covariates", "x1=1", "x2=0.3", "marker=2.0"]) == 0
            out = capsys.readouterr().out.encode()
            digests[f"predict {link} s={s}"] = hashlib.sha256(out).hexdigest()
    metrics = tmp_path / "eval.csv"
    assert run(["evaluate", "--model", tmp_path / "model_identity.json",
                "--train", surv, "--train-longitudinal", long, "--val", surv,
                "--val-longitudinal", long, "--extend-tail",
                "--output", metrics]) == 0
    config, body = metrics.read_bytes().split(b"\n", 1)
    assert config.startswith(b"# config: ")
    digests["evaluate"] = hashlib.sha256(body).hexdigest()
    assert digests == ANALYST_DIGESTS


@pytest.mark.parametrize("argv, text", [
    (["simulate", "--design", "joint", "--n", -5], "n must be"),
    (["simulate", "--design", "joint", "--n", 0], "n must be"),
    (["simulate", "--design", "joint", "--n", 5, "--seed", -1],
     "seed must be"),
    (["simulate", "--design", "scenario", "--n", 5, "--seed", -1],
     "seed must be"),
    (["simulate", "--design", "joint", "--n", 5, "--censor-upper", "nan"],
     "censor_upper must be finite"),
    (["simulate", "--design", "joint", "--n", 5, "--censor-upper", "inf"],
     "censor_upper must be finite"),
    (["mc", "--scenario", 1, "--n", 20, "--s", 1, "--w", 2, "--reps", 2,
      "--seed", -2], "seed must be"),
])
def test_bad_size_seed_or_parameter_is_an_error_record(tmp_path, capsys,
                                                       argv, text):
    out = tmp_path / "out.csv"
    assert run([*argv, "--output", out]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInput" and text in err["message"]
    assert not out.exists()


class TestFitPredictRoundTrip:
    def test_cli_predict_matches_in_process_bit_exactly(self, tmp_path, capsys):
        surv, long = joint_csvs(tmp_path)
        model = fitted_model_path(tmp_path, surv, long)
        assert run(["predict", "--model", model, "--s", 2.5,
                    "--covariates", "x1=1", "x2=0.3", "marker=2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)

        with open(model) as fh:
            fit = DynamicModelFit.from_dict(json.load(fh)["model"])
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
        dataio.write_survival(vsurv, replace(
            val, time=np.minimum(val.time, 3.0),
            status=np.where(val.time <= 3.0, val.status, 0)))
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

    def test_fit_with_an_overflowing_covariate_is_an_error_record(
            self, tmp_path, capsys):
        # x1 = 1e308 overflows the design rows, whose SVD would raise
        # numpy's LinAlgError
        surv, long = joint_csvs(tmp_path, n=60, seed=4)
        lines = surv.read_text().splitlines()
        cells = lines[3].split(",")
        assert lines[1].split(",")[3] == "x1" and cells[0] == "1"
        lines[3] = ",".join(cells[:3] + ["1e308"] + cells[4:])
        surv.write_text("\n".join(lines) + "\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["fit", "--input", surv, "--longitudinal", long,
                        "--grid", "0:4:1", "--w", "5", "--knots", "1,2,3",
                        "--covariates", "x1,x2,marker", "--extend-tail",
                        "--output", tmp_path / "model.json"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InvalidInput",
                       "message": "design matrix is not finite: a covariate "
                                  "value is too large to fit"}

    def test_fit_whose_svd_overflows_is_an_invalid_input_record(
            self, tmp_path, capsys):
        # x2 = 1e308 leaves the design finite, but its largest singular
        # value overflows to inf: too large to fit, not rank deficient
        surv, long = joint_csvs(tmp_path, n=60, seed=4)
        lines = surv.read_text().splitlines()
        cells = lines[3].split(",")
        assert lines[1].split(",")[4] == "x2" and cells[0] == "1"
        lines[3] = ",".join(cells[:4] + ["1e308"] + cells[5:])
        surv.write_text("\n".join(lines) + "\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["fit", "--input", surv, "--longitudinal", long,
                        "--grid", "0:4:1", "--w", "5", "--extend-tail",
                        "--output", tmp_path / "model.json"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InvalidInput",
                       "message": "design matrix is not finite: a covariate "
                                  "value is too large to fit"}

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

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_is_an_error_record(self, tmp_path, capsys,
                                                 scale):
        # refused by SplineSpec before the fit, with no numpy warning
        surv, long = joint_csvs(tmp_path, n=50)
        model = tmp_path / "model.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["fit", "--input", surv, "--longitudinal", long,
                        "--grid", "0:4:1", "--w", "5", "--knots", "1,2,3",
                        "--scale", scale, "--extend-tail",
                        "--output", model]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InvalidInput",
                       "message": "knots and standardization_scale must be "
                                  "finite"}
        assert not model.exists()

    @pytest.mark.parametrize("start", ["nan", "inf"])
    def test_non_finite_km_start_is_an_error_record(self, tmp_path, capsys,
                                                    start):
        assert run(["km", "--input", scenario_csv(tmp_path),
                    "--start", start]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "InvalidInput",
            "message": f"km start must be finite, got {float(start)}"}

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

    @pytest.mark.parametrize("method", ["km", "pseudo"])
    def test_crmst_window_below_an_ulp_of_s_is_an_error_record(
            self, tmp_path, capsys, method):
        # 1 + 1e-17 == 1: km gave 0.0 and pseudo 1e-17 for this no-window
        assert run(["crmst", "--input", scenario_csv(tmp_path), "--s", 1,
                    "--w", "1e-17", "--method", method]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "InvalidInput",
            "message": "invalid prediction time/window (s=1.0, w=1e-17)"}

    def test_fit_window_below_an_ulp_of_s_is_an_error_record(self, tmp_path,
                                                             capsys):
        surv, _ = joint_csvs(tmp_path, n=50)
        model = tmp_path / "model.json"
        assert run(["fit", "--input", surv, "--grid", "1,2", "--w", "1e-17",
                    "--covariates", "x1", "--output", model]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "InvalidInput",
            "message": "invalid prediction time/window (s=1.0, w=1e-17)"}
        assert not model.exists()

    @pytest.mark.parametrize("command", ["crmst", "test"])
    @pytest.mark.parametrize("option, value", [("--s", "-1e-3"),
                                               ("--w", "-.5"),
                                               ("--s", "-inf")])
    def test_negative_window_value_reaches_the_window_check(
            self, tmp_path, capsys, command, option, value):
        argv = {"--s": 1.0, "--w": 2.0, option: value}
        assert run([command, "--input", scenario_csv(tmp_path),
                    "--s", argv["--s"], "--w", argv["--w"]]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "InvalidInput",
            "message": f"invalid prediction time/window "
                       f"(s={float(argv['--s'])}, w={float(argv['--w'])})"}

    def test_negative_boundary_knot_reaches_the_fit(self, tmp_path, capsys):
        surv, long = joint_csvs(tmp_path, n=100)
        model = tmp_path / "model.json"
        assert run(["fit", "--input", surv, "--longitudinal", long,
                    "--grid", "0:4:1", "--w", "5", "--boundary", "-0.5,4",
                    "--covariates", "x1,x2,marker", "--extend-tail",
                    "--output", model]) == 0
        fit = cli._load_model(model)
        assert fit.layout.specs[0].boundary_knots == (-0.5, 4.0)
        # one boundary number is refused by the spline check, not IndexError
        assert run(["fit", "--input", surv, "--grid", "0:4:1", "--w", "5",
                    "--boundary", "-0.5", "--output", model]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "InvalidInput",
            "message": "boundary_knots must be an increasing pair"}

    @pytest.mark.parametrize("argv, option", [
        (["fit", "--input", "s.csv", "--grid", "0:4:1", "--w", "5",
          "--bound", "-0.5,4", "--output", "m.json"], "--bound -0.5,4"),
        (["fit", "--input", "s.csv", "--grid", "0:4:1", "--w", "5",
          "--bound=-0.5,4", "--output", "m.json"], "--bound=-0.5,4"),
        (["--deb", "crmst", "--input", "s.csv", "--s", "1", "--w", "2"],
         "--deb"),
    ])
    def test_an_option_prefix_is_not_the_option(self, capsys, argv, option):
        # argparse took unique prefixes, so --bound=-0.5,4 fitted while
        # --bound -0.5,4 lacked a value: neither is an option now
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "InvalidInput",
            "message": f"dynrmst: unrecognized arguments: {option}"}

    def test_a_required_option_prefix_leaves_it_missing(self, tmp_path,
                                                        capsys):
        assert run(["crmst", "--inp", scenario_csv(tmp_path), "--s", 1,
                    "--w", 2]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "InvalidInput",
            "message": "dynrmst crmst: the following arguments are "
                       "required: --input"}

    @pytest.mark.parametrize("argv", [
        ["crmst", "--input", "s.csv", "--s", "--w", "2"],
        ["crmst", "--input", "s.csv", "--w", "2", "--s"],
        ["crmst", "--input", "s.csv", "--s", "-x", "--w", "2"],
    ])
    def test_option_without_a_value_keeps_its_message(self, capsys, argv):
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "InvalidInput",
            "message": "dynrmst crmst: argument --s: expected one argument"}

    # w = 1e308 overflows the jackknife values (the model gave NaN); at
    # 1e300 the values hold but their variance or the sandwich overflows
    SANDWICH = "sandwich covariance is not finite: the pseudo-values or " \
               "the covariates are too large to fit"

    @pytest.mark.parametrize("w", ["1e308", "1e300"])
    def test_crmst_window_too_long_is_an_error_record(self, tmp_path, capsys,
                                                      w):
        surv, _ = joint_csvs(tmp_path)
        assert error_record_alone(
            ["crmst", "--input", surv, "--s", 1, "--w", w, "--extend-tail"],
            capsys) == {"error": "InvalidInput",
                        "message": TOO_LONG.format(w=float(w))}

    @pytest.mark.parametrize("w", ["1e308", "1e300"])
    def test_test_window_too_long_is_an_error_record(self, tmp_path, capsys,
                                                     w):
        assert error_record_alone(
            ["test", "--input", scenario_csv(tmp_path), "--s", 1, "--w", w,
             "--extend-tail"], capsys) == {
                 "error": "InvalidInput",
                 "message": TOO_LONG.format(w=float(w))}

    @pytest.mark.parametrize("w", ["1e308", "1e300"])
    def test_fit_window_too_long_is_an_error_record(self, tmp_path, capsys,
                                                    w):
        surv, _ = joint_csvs(tmp_path)
        model = tmp_path / "model.json"
        err = error_record_alone(
            ["fit", "--input", surv, "--grid", "1,2", "--w", w,
             "--covariates", "x1", "--extend-tail", "--output", model],
            capsys)
        message = (TOO_LONG.format(w=float(w)) if w == "1e308"
                   else self.SANDWICH)
        assert err == {"error": "InvalidInput", "message": message}
        assert not model.exists()

    # s + w = 2e308 overflows: crmst ended in EmptyRiskSet and numpy
    # warnings before
    END_OVERFLOWS = {"error": "InvalidInput",
                     "message": "invalid prediction time/window "
                                "(s=1e+308, w=1e+308)"}

    def test_crmst_window_whose_end_overflows_is_an_error_record(
            self, tmp_path, capsys):
        surv, _ = joint_csvs(tmp_path, n=50)
        assert error_record_alone(
            ["crmst", "--input", surv, "--s", "1e308", "--w", "1e308"],
            capsys) == self.END_OVERFLOWS

    def test_test_window_whose_end_overflows_is_an_error_record(
            self, tmp_path, capsys):
        assert error_record_alone(
            ["test", "--input", scenario_csv(tmp_path), "--s", "1e308",
             "--w", "1e308", "--extend-tail"], capsys) == self.END_OVERFLOWS

    @pytest.mark.parametrize("w, error", [("1e100", "NoConvergence"),
                                          ("1e200", "InvalidInput")])
    def test_log_link_on_huge_pseudo_values_fails_quietly(self, tmp_path,
                                                          capsys, w, error):
        # exp(eta) and the score overflow in the scoring, at 1e100 in the
        # step halving's candidates and at 1e200 from the start: numpy
        # warnings came before the record
        surv, _ = joint_csvs(tmp_path, n=500)
        model = tmp_path / "model.json"
        err = error_record_alone(
            ["fit", "--input", surv, "--grid", "0:2:1", "--w", w,
             "--covariates", "x1", "--link", "log", "--extend-tail",
             "--output", model], capsys)
        assert err["error"] == error
        if error == "InvalidInput":
            assert err["message"] == self.SANDWICH
        assert not model.exists()

    def test_evaluate_window_too_long_is_an_error_record(self, tmp_path,
                                                         capsys):
        surv, long = joint_csvs(tmp_path)
        doc = json.loads(fitted_model_path(tmp_path, surv, long).read_text())
        doc["model"]["w"] = 1e308
        model = tmp_path / "long_window.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "eval.csv"
        # the static baseline's training pseudo-values at (0, 0 + 1e308)
        # overflow first
        assert error_record_alone(
            ["evaluate", "--model", model, "--train", surv,
             "--train-longitudinal", long, "--val", surv,
             "--val-longitudinal", long, "--extend-tail", "--output", out],
            capsys) == {"error": "InvalidInput",
                        "message": "window (s=0.0, w=1e+308) is too long: "
                                   "its pseudo-values or their variance "
                                   "overflow"}
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--help"])
        assert exc.value.code == 0
        assert "--longitudinal" in capsys.readouterr().out

    def test_missing_file_is_reported(self, tmp_path, capsys):
        assert run(["crmst", "--input", tmp_path / "nope.csv",
                    "--s", 0, "--w", 1]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "OSError"


# One replicate of each pool-run chunk, as a forked worker runs it.
REPLICATE_CHUNKS = """
from dynrmst import sim
from dynrmst.basis import BasisLayout, SplineSpec
sp = SplineSpec((2.0,), (0.0, 4.0), standardization_scale=4.0)
args = (sim.joint_spec("linear"), (0.0, 2.0, 4.0), 5.0, BasisLayout((sp,) * 4))
sim._scenario_chunk(sim.scenario_spec(1, 30), 1.0, 2.0, [sim._rng_of(0, 1, 0)])
sim._coefficient_chunk(*args, 150, [sim._rng_of(0, 1, 0)])
sim._prediction_chunk(*args, 150, 60, [sim._rng_of(0, 1, 0)])
"""

# Run first in a fresh interpreter: every import of scipy fails, as in an
# install of numpy alone.
BLOCK_SCIPY = """
import sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}")
sys.meta_path.insert(0, NoScipy())
import dynrmst.cli
"""


def test_every_command_runs_with_scipy_unimportable(tmp_path):
    """Importing the package, every command at a tiny size (simulate and
    mc with and without --cen) and every replicate chunk a pool worker runs
    succeed in a fresh interpreter where scipy cannot be imported, and leave
    no scipy module loaded."""
    scen, joint, joint_long, model = (tmp_path / name for name in (
        "scen.csv", "joint.csv", "joint_long.csv", "model.json"))
    mc = ["mc", "--scenario", 1, "--n", 20, "--s", 1, "--w", 2, "--reps", 2]
    commands = {
        "simulate": ["simulate", "--design", "joint", "--n", 200, "--seed", 1,
                     "--output", joint, "--longitudinal-output", joint_long],
        "simulate --cen": ["simulate", "--design", "scenario", "--scenario",
                           2, "--n", 60, "--cen", 0.3, "--seed", 3,
                           "--output", scen],
        "km": ["km", "--input", scen],
        "crmst": ["crmst", "--input", scen, "--s", 0, "--w", 5],
        "test": ["test", "--input", scen, "--s", 0, "--w", 10,
                 "--extend-tail"],
        "fit": ["fit", "--input", joint, "--longitudinal", joint_long,
                "--grid", "0:4:1", "--w", "5", "--knots", "1,2,3",
                "--covariates", "x1,x2,marker", "--extend-tail",
                "--output", model],
        "predict": ["predict", "--model", model, "--s", 2.5, "--covariates",
                    "x1=1", "x2=0.3", "marker=2.0"],
        "evaluate": ["evaluate", "--model", model, "--train", joint,
                     "--train-longitudinal", joint_long, "--val", joint,
                     "--val-longitudinal", joint_long, "--extend-tail",
                     "--output", tmp_path / "eval.csv"],
        "mc": mc,
        "mc --cen": [*mc, "--cen", 0.3],
    }
    cases = {"import": "", "chunks": REPLICATE_CHUNKS}
    cases.update({name: "with redirect_stdout(io.StringIO()): assert "
                        f"dynrmst.cli.main({[str(a) for a in argv]!r}) == 0"
                  for name, argv in commands.items()})
    src = str(Path(dynrmst.__file__).resolve().parents[1])
    for case, body in cases.items():
        code = (f"{BLOCK_SCIPY}import io\n"
                "from contextlib import redirect_stdout\n"
                f"{body}\nprint(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], text=True,
                             capture_output=True, cwd=tmp_path,
                             env={**os.environ, "PYTHONPATH": src})
        assert (case, out.returncode, out.stderr) == (case, 0, "")
        assert (case, out.stdout) == (case, "[]\n")


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(dynrmst.__path__)))
def test_every_name_in_all_resolves(module):
    """A name left in ``__all__`` after its definition went fails no import,
    only ``from dynrmst.<module> import *``."""
    mod = importlib.import_module(f"dynrmst.{module}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


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

    @pytest.mark.parametrize("w, workers", [("1e308", 1), ("1e200", 2)])
    def test_window_too_long_is_an_error_record(self, capsys, w, workers):
        # NaN metrics and numpy warnings before: at 1e308 the jackknife
        # values overflow, at 1e200 the arms' variances
        assert error_record_alone(
            ["mc", "--scenario", 2, "--n", 20, "--cen", 0.3, "--s", 1,
             "--w", w, "--reps", 4, "--workers", workers], capsys) == {
            "error": "InvalidInput", "message": TOO_LONG.format(w=float(w))}


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
        # JSON integers beyond int64 (numpy cannot hold them as numbers)
        "n_subjects_beyond_int64": (_set(("model", "n_subjects"), 2**63),
                                    "n_subjects"),
        "score_norm_beyond_int64": (_set(("model", "score_norm"), 10**400),
                                    "score_norm"),
        "scale_beyond_int64": (_set(("model", "layout", 0,
                                     "standardization_scale"), 10**400),
                               "standardization_scale"),
        # only the JSON integer 1 is format version 1
        "format_version_true": (_set(("model", "format_version"), True),
                                "format_version"),
        "format_version_a_float": (_set(("model", "format_version"), 1.0),
                                   "format_version"),
        "format_version_a_string": (_set(("model", "format_version"), "1"),
                                    "format_version"),
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

    @pytest.mark.parametrize("mutate", [
        _set(("model", "layout", 0, "standardization_scale"), 1e-300),
        _set(("model", "layout", 0, "boundary_knots"), [-1e308, 1e308]),
    ])
    def test_overflowing_prediction_is_an_invalid_input_record(
            self, mutate, model_text, tmp_path, capsys):
        doc = json.loads(model_text)
        mutate(doc)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["predict", "--model", path, "--s", 1, "--covariates",
                        "x1=1", "x2=0.3", "marker=2.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidInput"
        assert err["message"].startswith("prediction at s=1.0 is not finite")

    def test_overflowing_evaluation_is_an_invalid_input_record(
            self, tmp_path, capsys):
        surv, long = joint_csvs(tmp_path)
        doc = json.loads(fitted_model_path(tmp_path, surv, long).read_text())
        _set(("model", "layout", 0, "standardization_scale"), 1e-300)(doc)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "eval.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["evaluate", "--model", path, "--train", surv,
                        "--train-longitudinal", long, "--val", surv,
                        "--val-longitudinal", long, "--extend-tail",
                        "--output", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        err = json.loads(captured.err)
        assert err["error"] == "InvalidInput"
        assert err["message"].startswith("prediction at s=1.0 is not finite")

    def test_valid_model_reads_back_unchanged(self, model_text):
        doc = json.loads(model_text)["model"]
        assert DynamicModelFit.from_dict(doc).to_dict() == doc


# the error names a failed command may report: the package's own errors and
# file-system errors
PACKAGE_ERRORS = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, DynRmstError)}
ERROR_NAMES = PACKAGE_ERRORS | {"OSError"}

# numbers at the edges of what a double or an int64 holds
EDGES = st.sampled_from([0, -1, 2**63, 10**400, 1e-300, 1e300, -1e300,
                         float("nan"), float("inf")])
NUMBERS = EDGES | st.integers() | st.floats()
JSON_VALUES = (NUMBERS | st.none() | st.booleans() | st.text(max_size=4)
               | st.lists(NUMBERS, max_size=3)
               | st.dictionaries(st.text(max_size=3), NUMBERS, max_size=2))


def _mutate(draw, doc):
    """Change one field of ``doc["model"]``, at any depth: set it to a
    drawn value, or delete it."""
    node, key = doc, "model"
    while True:
        child = node[key]
        if not isinstance(child, (dict, list)) or not child:
            break
        node, key = child, draw(st.sampled_from(
            list(child) if isinstance(child, dict) else range(len(child))))
        if draw(st.booleans()):  # stop here, or descend further
            break
    change = draw(st.sampled_from(["delete", "edge", "value"]))
    if change == "delete":
        del node[key]
    else:
        node[key] = draw(EDGES if change == "edge" else JSON_VALUES)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_predict_on_a_mutated_model_is_finite_or_a_typed_error(
        model_text, fuzz_dir, data):
    """``predict`` on a valid model document with one field changed exits 0
    with finite numbers, or exits 1 with a package error or an OSError."""
    doc = json.loads(model_text)
    _mutate(data.draw, doc)
    path = fuzz_dir / "model.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["predict", "--model", path, "--s", 1, "--covariates",
                    "x1=1", "x2=0.3", "marker=2.0"])
    if code == 0:
        result = json.loads(out.getvalue())
        assert all(math.isfinite(v) for v in result.values()), result
    else:
        assert code == 1
        assert json.loads(err.getvalue())["error"] in ERROR_NAMES, err.getvalue()


@pytest.fixture(scope="module")
def cell_inputs(tmp_path_factory):
    """(survival CSV text, biomarker CSV text, model path): a valid joint
    design at n = 60 and the model fitted on it."""
    tmp = tmp_path_factory.mktemp("cells")
    surv, long = joint_csvs(tmp, n=60, seed=4)
    model = fitted_model_path(tmp, surv, long)
    return surv.read_bytes().decode(), long.read_bytes().decode(), model


# texts at the edges of what the readers take: non-finite, huge and tiny
# numbers, a status or id out of place, and cells csv.reader must unquote
CELL_EDGES = st.sampled_from([
    "", " ", "nan", "inf", "-inf", "-1", "-0", "0", "1", "2", "0.5", "1e308",
    "-1e308", "1e-308", "5e-324", "1e400", "1_0", "0x10", "abc", "x1",
    "marker", "id", '"', '""', '"1,2"', "1,2", "é"])
CELLS = (CELL_EDGES | st.floats().map(repr) | st.integers().map(str)
         | st.text(max_size=4))


def _with_cell(text, row, column, cell):
    """``text`` with one cell replaced: of its header and data lines, the
    ``row``-th modulo their number, and of that line's cells the
    ``column``-th modulo theirs.  The ``# config:`` comment line is kept."""
    lines = text.split("\n")  # the text ends with a line end
    k = 1 + row % (len(lines) - 2)
    cells = lines[k].rstrip("\r").split(",")
    cells[column % len(cells)] = cell
    lines[k] = ",".join(cells) + "\r"
    return "\n".join(lines)


def _finite_or_typed_error(code, err, numbers):
    """A run exits 0 with finite numbers, or 1 with a package error or an
    OSError."""
    if code == 0:
        assert all(map(math.isfinite, numbers())), numbers()
    else:
        assert code == 1
        assert json.loads(err)["error"] in ERROR_NAMES, err


def _model_numbers(path):
    model = json.loads(path.read_text())["model"]
    return model["beta"] + [v for row in model["covariance"] for v in row]


def _metric_numbers(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    cells = [l.split(",")[:-1] for l in lines[1:]]  # reference_kind is text
    return [float(c) for row in cells for c in row if c]


@settings(max_examples=500, deadline=None)
@given(st.booleans(), st.integers(0), st.integers(0), CELLS)
# subject 1's x1 = 1e308 overflows its design rows: an InvalidInput, not
# numpy's LinAlgError from the SVD
@example(True, 2, 3, "1e308")
def test_fit_and_evaluate_on_a_mutated_cell_are_finite_or_a_typed_error(
        cell_inputs, fuzz_dir, in_survival, row, column, cell):
    """``fit`` and ``evaluate`` on a valid survival or biomarker CSV with one
    cell changed each exit 0 with finite numbers, or exit 1 with a package
    error or an OSError."""
    surv_text, long_text, model = cell_inputs
    if in_survival:
        surv_text = _with_cell(surv_text, row, column, cell)
    else:
        long_text = _with_cell(long_text, row, column, cell)
    surv, long = fuzz_dir / "surv.csv", fuzz_dir / "long.csv"
    surv.write_text(surv_text, newline="")
    long.write_text(long_text, newline="")
    fitted, metrics = fuzz_dir / "fitted.json", fuzz_dir / "eval.csv"
    for out in (fitted, metrics):
        out.unlink(missing_ok=True)
    runs = [(["fit", "--input", surv, "--longitudinal", long, "--grid",
              "0:4:1", "--w", "5", "--knots", "1,2,3", "--covariates",
              "x1,x2,marker", "--extend-tail", "--output", fitted],
             lambda: _model_numbers(fitted)),
            (["evaluate", "--model", model, "--train", surv,
              "--train-longitudinal", long, "--val", surv,
              "--val-longitudinal", long, "--extend-tail", "--output",
              metrics], lambda: _metric_numbers(metrics))]
    for argv, numbers in runs:
        err = io.StringIO()
        with redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # rows out of time order
            code = run(argv)
        _finite_or_typed_error(code, err.getvalue(), numbers)


# each numeric option of simulate and mc: a strategy of valid values, and
# one of any value (mc's --workers, --reps and every --n stay small, so no
# run is long or starts more than two worker processes)
VALID_OPTIONS = {
    "scenario": st.integers(1, 4), "n": st.integers(2, 50),
    "cen": st.floats(0.0, 0.9), "censor-upper": st.floats(0.5, 50.0),
    "s": st.floats(0.0, 10.0), "w": st.floats(0.5, 10.0),
    "reps": st.integers(2, 4), "seed": st.integers(0, 2**64),
    "alpha": st.floats(0.01, 0.5), "workers": st.sampled_from([1, 2])}
ANY_OPTIONS = {
    "scenario": st.integers(), "n": st.integers(max_value=50),
    "cen": st.floats(), "censor-upper": st.floats(), "s": st.floats(),
    "w": st.floats(), "reps": st.integers(max_value=4), "seed": st.integers(),
    "alpha": st.floats(), "workers": st.sampled_from([-1, 0, 1, 2])}
COMMAND_OPTIONS = {
    "scenario": ("scenario", "n", "cen", "seed"),
    "joint": ("n", "censor-upper", "seed"),
    "mc": ("scenario", "n", "cen", "s", "w", "reps", "seed", "alpha",
           "workers")}


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(COMMAND_OPTIONS)),
       valid=st.fixed_dictionaries(VALID_OPTIONS),
       wild=st.fixed_dictionaries(ANY_OPTIONS),
       changed=st.sets(st.sampled_from(sorted(VALID_OPTIONS)), max_size=3))
@example(command="joint",
         valid={"scenario": 1, "n": 5, "cen": 0.0, "censor-upper": 25.0,
                "s": 1.0, "w": 2.0, "reps": 2, "seed": 3, "alpha": 0.05,
                "workers": 1},
         wild={"scenario": 1, "n": 5, "cen": 0.0, "censor-upper": 25.0,
               "s": 1.0, "w": 2.0, "reps": 2, "seed": -1, "alpha": 0.05,
               "workers": 1},
         changed={"seed"})
def test_simulate_and_mc_on_any_numbers_exit_zero_or_a_typed_error(
        fuzz_dir, command, valid, wild, changed):
    """``simulate`` and ``mc`` exit 0, or exit 1 with a package error
    record, when the options in ``changed`` take any value and the others
    valid ones."""
    out = fuzz_dir / "out.csv"
    if command == "mc":
        argv = ["mc"]
    else:
        argv = ["simulate", "--design", command,
                "--longitudinal-output", fuzz_dir / "long.csv"]
    # --name=value, so that a value such as -inf is not read as an option
    argv += [f"--{name}={(wild if name in changed else valid)[name]!r}"
             for name in COMMAND_OPTIONS[command]]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run([*argv, "--output", out])
    assert code in (0, 1)
    if code == 1:
        assert json.loads(err.getvalue())["error"] in PACKAGE_ERRORS, \
            err.getvalue()
