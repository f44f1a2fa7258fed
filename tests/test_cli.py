import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import graphon_lqr as gl
from graphon_lqr import cli

from conftest import make_rank_kernel, record_calls


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def write_text(path, text):
    path.write_text(text)
    return path


def write_scenario(tmp_path, name="scenario.json", **overrides):
    raw = {
        "alpha0": 1.0,
        "poly_b": [1.0],
        "poly_q": [1.0, -2.0, 1.0],
        "poly_p0": [1.0, -2.0, 1.0],
        "horizon": 0.5,
        "dt": 5e-3,
        "graphon": {"type": "sinusoidal"},
        "n": 12,
        "controller": "optimal",
        "seed": 3,
        "out": "out",
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestScenarioParsing:
    def test_round_trip(self, tmp_path):
        path = write_scenario(tmp_path)
        scn = cli.load_scenario(path)
        echo = tmp_path / "echo.json"
        cli.write_json(str(echo), dataclasses.asdict(scn))
        again = cli.load_scenario(str(echo))
        assert again == scn

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"alpha0": 1.0}))
        with pytest.raises(ValueError, match="horizon"):
            cli.load_scenario(str(path))

    def test_default_dt_is_permille_of_horizon(self, tmp_path):
        path = write_scenario(tmp_path, dt=0.0, horizon=2.0)
        assert cli.load_scenario(path).dt == pytest.approx(2e-3)

    @pytest.mark.parametrize("field", ["n", "seed"])
    def test_non_integer_count_exits_2(self, tmp_path, capsys, field):
        for value in (40.7, True):
            path = write_scenario(tmp_path, **{field: value})
            assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 2
            assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["poly_b", "poly_q", "poly_p0"])
    def test_scalar_coefficient_list_exits_2(self, tmp_path, capsys, field):
        for value in (5, [1.0, True]):
            path = write_scenario(tmp_path, **{field: value})
            assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 2
            assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["alpha0", "horizon", "dt"])
    def test_boolean_number_exits_2(self, tmp_path, capsys, field):
        # true would read as 1.0, which a horizon of 2 accepts for all three
        path = write_scenario(tmp_path, **{"horizon": 2.0, field: True})
        assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    def test_non_object_finite_rank_pair_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, graphon={"type": "finite_rank", "pairs": [5]})
        assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 2
        assert "'pairs'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["lambda", "freq"])
    def test_boolean_finite_rank_field_exits_2(self, tmp_path, capsys, field):
        # true would read as 1.0, a valid eigenvalue and frequency
        pair = {"lambda": 0.5, "fun": "sin", "freq": 1, field: True}
        path = write_scenario(tmp_path, graphon={"type": "finite_rank", "pairs": [pair]})
        assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["lambda", "freq"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_finite_rank_field_exits_2(self, tmp_path, capsys, field, value):
        # checked where the field is read: the kernel's own checks would fail
        # later, after a numpy warning, and without naming the field
        pair = {"lambda": 0.5, "fun": "sin", "freq": 1, field: value}
        path = write_scenario(tmp_path, graphon={"type": "finite_rank", "pairs": [pair]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 2
        assert f"graphon field 'pairs': '{field}' must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("out", 5), ("out", [1]), ("controller", 5),
        ("graphon", [["type", "sinusoidal"]]), ("alpha0", "2.0"), ("n", "8"),
        ("alpha0", 10 ** 400), ("lambda", "0.5"), ("freq", "1"), ("freq", 10 ** 400),
    ], ids=["out-int", "out-list", "controller-int", "graphon-list", "alpha0-string",
            "n-string", "alpha0-huge-int", "lambda-string", "freq-string",
            "freq-huge-int"])
    def test_field_of_another_json_type_exits_2(self, tmp_path, capsys, monkeypatch,
                                                 field, value):
        # each value used to be converted: "out": 5 wrote into a directory "5"
        overrides = {field: value}
        if field in ("lambda", "freq"):
            pair = {"lambda": 0.5, "fun": "sin", "freq": 1, field: value}
            overrides = {"graphon": {"type": "finite_rank", "pairs": [pair]}}
        path = write_scenario(tmp_path, **overrides)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", path]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["scenario.json"]

    @pytest.mark.parametrize("flags, field", [
        (["--horizon", "-1"], "horizon"), (["--horizon", "inf"], "horizon"),
        (["--dt", "nan"], "dt"), (["--dt", "2"], "dt"), (["--seed", "-3"], "seed")])
    def test_bad_flag_names_its_field(self, capsys, flags, field):
        assert cli.main(["example-vii", *flags]) == 2
        assert f"scenario field '{field}'" in capsys.readouterr().err

    def test_dt_help_names_the_artifact_grid(self, capsys):
        # a law runs exactly at any step, so --dt integrates nothing
        for command in ("run", "example-vii", "truncation-study", "oracle-check"):
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            assert "integration" not in text
            assert ("--dt DT time step of the grid the artifacts are sampled on "
                    "(the laws run exactly at any step)") in text

    def test_negative_seed_in_file_names_field(self, tmp_path, capsys):
        path = write_scenario(tmp_path, seed=-3)
        assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 2
        assert "scenario field 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -3])
    def test_non_positive_n_names_its_value(self, tmp_path, capsys, n):
        path = write_scenario(tmp_path, n=n)
        assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 2
        assert f"scenario field 'n': must be >= 1, got {n}" in capsys.readouterr().err

    def test_horizon_flag_resets_a_step_it_does_not_exceed(self, tmp_path):
        path = write_scenario(tmp_path, horizon=0.5, dt=5e-3)
        out = tmp_path / "short"
        assert cli.main(["run", path, "--horizon", "4e-3", "--out", str(out)]) == 0
        echo = json.loads((out / "scenario.json").read_text())
        assert (echo["horizon"], echo["dt"]) == (4e-3, 1e-3 * 4e-3)

    @pytest.mark.parametrize("dt", ["absent", None, 0.0])
    def test_horizon_flag_sets_a_default_step(self, tmp_path, dt):
        # the default step of a file without dt follows the flag's horizon
        path = write_scenario(tmp_path, horizon=0.5, dt=dt)
        if dt == "absent":
            raw = json.loads(read(path))
            del raw["dt"]
            with open(path, "w") as fh:
                json.dump(raw, fh)
        out = tmp_path / "long"
        assert cli.main(["run", path, "--horizon", "5", "--out", str(out)]) == 0
        echo = json.loads((out / "scenario.json").read_text())
        assert (echo["horizon"], echo["dt"]) == (5.0, 5e-3)

    def test_null_field_reads_as_absent(self, tmp_path):
        path = write_scenario(tmp_path, dt=None, seed=None, controller=None, out=None)
        scn = cli.load_scenario(path)
        assert scn.dt == pytest.approx(5e-4) and scn.seed == 0
        assert (scn.controller, scn.out) == ("optimal", "out")

    def test_controller_modes(self):
        assert cli.parse_controller("optimal", 2) == 2
        assert cli.parse_controller("auxiliary_only", 2) == 0
        assert cli.parse_controller("truncated(1)", 2) == 1
        with pytest.raises(ValueError, match="controller"):
            cli.parse_controller("truncated(5)", 2)
        with pytest.raises(ValueError, match="controller"):
            cli.parse_controller("bogus", 2)
        # every form is spelled exactly as documented, with no padding
        for mode in (" truncated(1) ", " optimal"):
            with pytest.raises(ValueError, match=re.escape(f"got {mode!r}")):
                cli.parse_controller(mode, 2)

    @pytest.mark.parametrize("overrides, message", [
        ({"contoller": "auxiliary_only"}, "scenario field 'contoller': unknown field"),
        ({"graphon": {"type": "sinusoidal", "freq": 2}},
         "graphon field 'freq': unknown field"),
        ({"graphon": {"type": "finite_rank",
                      "pairs": [{"lambda": 0.5, "fun": "sin", "frq": 3}]}},
         "graphon field 'frq': unknown field"),
    ], ids=["scenario", "graphon", "pair"])
    def test_misspelled_key_exits_2_naming_it(self, tmp_path, capsys, overrides, message):
        # each used to read as absent: the optimal law, frequency 1, exit 0
        path = write_scenario(tmp_path, **overrides)
        assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags", [[], ["--horizon", "2"]], ids=["file", "horizon-flag"])
    @pytest.mark.parametrize("value", [[1.0], "scenario"], ids=["list", "string"])
    def test_scenario_of_another_json_type_exits_2(self, tmp_path, capsys, flags, value):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(value))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "x"), *flags]) == 2
        assert capsys.readouterr().err == "error: scenario must be a JSON object\n"

    @pytest.mark.parametrize("make, message", [
        (lambda tmp: cli.scenario_from_dict([1.0]), "scenario must be a JSON object"),
        (lambda tmp: cli.scenario_from_dict(
            {"alpha0": 1.0, "horizon": 1.0, "dt": -0.1, "graphon": {"type": "uniform"}}),
         "scenario field 'dt': must be positive, got -0.1"),
        (lambda tmp: cli._read_scenario(str(tmp / "absent.json")),
         "scenario file not found: {tmp}/absent.json"),
        (lambda tmp: cli._read_scenario(str(write_text(tmp / "bad.json", "{"))),
         "scenario file {tmp}/bad.json is not valid JSON: Expecting property name "
         "enclosed in double quotes: line 1 column 2 (char 1)"),
    ], ids=["not-an-object", "negative-dt", "missing-file", "invalid-json"])
    def test_rejection_names_its_cause(self, tmp_path, make, message):
        with pytest.raises(ValueError) as info:
            make(tmp_path)
        assert type(info.value) is ValueError
        assert str(info.value) == message.format(tmp=tmp_path)


class TestPreset:
    def test_preset_structure(self):
        scn = cli.preset_example_vii()
        assert scn.n == 40 and scn.graphon == {"type": "sinusoidal"}
        assert scn.poly_b == [1.0, 0.5]
        assert scn.poly_q == [1.0, -2.0, 1.0]
        assert scn.controller == "optimal"
        problem, system, x0 = cli.build_experiment(scn)
        assert problem.d == 2
        np.testing.assert_allclose(problem.graphon.lambdas, [0.5, 0.5])
        assert system.n == 40 and x0.shape == (40,)


class TestRunCommand:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        rc = cli.main(["example-vii", "--out", str(out), "--dt", "5e-3"])
        assert rc == 0
        assert (out / "gains.csv").exists()
        assert (out / "trajectory.csv").exists()
        assert (out / "cost.json").exists()
        assert (out / "scenario.json").exists()
        header = (out / "gains.csv").read_text().splitlines()[0]
        assert header == "t,L,M_1,M_2"
        traj_header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert traj_header.startswith("t,x_1,") and ",u_40" in traj_header
        cost = json.loads((out / "cost.json").read_text())
        assert set(cost) == {"total", "aux", "eigen"}
        assert len(cost["eigen"]) == 2
        assert "J=" in capsys.readouterr().out

    def test_deterministic_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["example-vii", "--out", str(out1), "--dt", "5e-3"]) == 0
        assert cli.main(["example-vii", "--out", str(out2), "--dt", "5e-3"]) == 0
        for name in ("gains.csv", "trajectory.csv", "cost.json", "scenario.json"):
            assert read(out1 / name) == read(out2 / name), name

    def test_compare_oracle_adds_gap(self, tmp_path):
        out = tmp_path / "oracle"
        rc = cli.main(["example-vii", "--out", str(out), "--dt", "5e-3",
                       "--compare-oracle"])
        assert rc == 0
        cost = json.loads((out / "cost.json").read_text())
        assert "oracle_rel_gap" in cost
        assert cost["oracle_rel_gap"] <= 1e-6

    def test_run_scenario_file(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        out = tmp_path / "run-out"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        assert (out / "cost.json").exists()

    def test_truncated_controller_mode(self, tmp_path):
        path = write_scenario(tmp_path, controller="truncated(1)")
        out = tmp_path / "t1"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        path0 = write_scenario(tmp_path, name="aux.json", controller="auxiliary_only")
        assert cli.main(["run", path0, "--out", str(tmp_path / "t0")]) == 0

    def test_missing_matrix_csv_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path,
                              graphon={"type": "step", "matrix_csv": "absent.csv"})
        rc = cli.main(["run", path, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "matrix_csv" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["a,b\n0,0.5\n0.5,0\n", "0,0.5\n0.5\n", ""],
                             ids=["header", "ragged", "empty"])
    def test_unreadable_matrix_csv_exits_2(self, tmp_path, capsys, text):
        (tmp_path / "coupling.csv").write_text(text)
        path = write_scenario(tmp_path, n=None,
                              graphon={"type": "step", "matrix_csv": "coupling.csv"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would fail the run
            assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: graphon field 'matrix_csv': ")
        assert str(tmp_path / "coupling.csv") in err and err.count("\n") == 1

    def test_non_string_matrix_csv_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, graphon={"type": "step", "matrix_csv": 5})
        assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 2
        assert "matrix_csv" in capsys.readouterr().err

    def test_directory_scenario_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.mkdir()
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "x")]) == 2
        assert "error:" in (err := capsys.readouterr().err) and str(scenario) in err

    def test_directory_matrix_csv_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, graphon={"type": "step", "matrix_csv": "."})
        assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 2
        assert "error:" in (err := capsys.readouterr().err) and str(tmp_path) in err

    def test_out_under_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = write_scenario(tmp_path)
        for out in (blocker, blocker / "sub"):
            assert cli.main(["run", path, "--out", str(out)]) == 2
            assert "error:" in (err := capsys.readouterr().err) and str(blocker) in err

    def test_peaked_finite_rank_kernel_at_odd_n(self, tmp_path):
        # the kernel peaks at x = y = 1/2, the midpoint of the middle cell
        graphon = {"type": "finite_rank", "pairs": [
            {"lambda": 0.7, "fun": "cos"}, {"lambda": 0.2, "fun": "const"}]}
        path = write_scenario(tmp_path, n=21, graphon=graphon)
        assert cli.main(["run", path, "--out", str(tmp_path / "peaked")]) == 0

    def test_step_scenario_runs(self, tmp_path):
        m = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]])
        np.savetxt(tmp_path / "coupling.csv", m, delimiter=",")
        path = write_scenario(tmp_path, n=3,
                              graphon={"type": "step", "matrix_csv": "coupling.csv"})
        assert cli.main(["run", path, "--out", str(tmp_path / "step-out")]) == 0

    def test_step_scenario_size_mismatch_exits_2(self, tmp_path, capsys):
        m = np.zeros((3, 3))
        np.savetxt(tmp_path / "coupling.csv", m, delimiter=",")
        path = write_scenario(tmp_path, n=4,
                              graphon={"type": "step", "matrix_csv": "coupling.csv"})
        assert cli.main(["run", path]) == 2
        assert "'n'" in capsys.readouterr().err

    def test_invalid_dt_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, dt=2.0)
        assert cli.main(["run", path]) == 2

    def test_blow_up_exits_3(self, tmp_path, capsys):
        # enormous unstable drift with no damping blows up in finite time
        path = write_scenario(tmp_path, alpha0=5000.0, poly_q=[0.0], poly_p0=[0.0],
                              horizon=1.0, dt=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["run", path, "--out", str(tmp_path / "boom")])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_overflow_exits_3_without_warning(self, tmp_path, capsys):
        # the same blow-up with every warning an error: the closed-form run
        # reports the overflow itself, as a numeric failure
        path = write_scenario(tmp_path, alpha0=5000.0, poly_q=[0.0], poly_p0=[0.0],
                              horizon=1.0, dt=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", path, "--out", str(tmp_path / "boom")]) == 3
        assert "numeric failure: closed-loop state blew up" in capsys.readouterr().err

    @pytest.mark.parametrize("b, exact", [(200.0, 0.0021806323024900),
                                          (400.0, 0.0010872592903110)],
                             ids=["b200", "b400"])
    def test_stiff_closed_loop_reports_true_cost(self, tmp_path, b, exact):
        # every mode decays at a rate near -b^2 Pi, past RK4's stability bound
        # at dt = 0.01; the closed-form run takes no steps, so it costs the
        # optimum x0'P(T)x0/n of the matrix Riccati solution
        path = write_scenario(tmp_path, alpha0=1.0, poly_b=[b], poly_q=[1.0],
                              poly_p0=[1.0], horizon=1.0, dt=0.01, n=8, seed=0)
        out = tmp_path / "stiff"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        total = json.loads((out / "cost.json").read_text())["total"]
        _, system, x0 = cli.build_experiment(cli.load_scenario(path))
        p_end = gl.solve_matrix_riccati(system.a_mat, system.b_mat, system.q_mat,
                                        system.p0_mat, 1.0, 0.01)[1][-1]
        assert total == pytest.approx(x0 @ p_end @ x0 / 8, rel=1e-12, abs=0.0)
        assert total == pytest.approx(exact, rel=1e-12, abs=0.0)
        # each exact step is a chunk of its own (h*|H|_1 > 1), and the oracle
        # certifies it on a second rounding of the step
        assert cli.main(["run", path, "--compare-oracle", "--out", str(out)]) == 0
        cost = json.loads((out / "cost.json").read_text())
        assert cost["total"] == total and cost["oracle_rel_gap"] <= 1e-12
        assert 0.0 < cost["oracle_self_gap"] <= 1e-12

    def test_lapack_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # numpy's LinAlgError is a ValueError, which alone would exit 2
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "build_experiment", failing)
        path = write_scenario(tmp_path)
        assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_overflowing_gain_exits_3(self, tmp_path, capsys):
        # no input: every gain grows like exp(2*alpha0*t) and overflows
        path = write_scenario(tmp_path, alpha0=5000.0, poly_b=[0.0], poly_q=[1.0],
                              poly_p0=[1.0], horizon=1.0, dt=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["run", path, "--out", str(tmp_path / "boom")])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err


class TestStudyCommands:
    def test_truncation_study_artifact(self, tmp_path):
        path = write_scenario(tmp_path, poly_b=[1.0])
        out = tmp_path / "study"
        rc = cli.main(["truncation-study", path, "--out", str(out),
                       "--levels", "0,1,2"])
        assert rc == 0
        lines = (out / "truncation.csv").read_text().splitlines()
        assert lines[0] == ("L,J_truncated,J_optimal,ratio_meas_1,ratio_meas_2,"
                            "ratio_pred_1,ratio_pred_2")
        assert len(lines) == 4
        data = np.genfromtxt(out / "truncation.csv", delimiter=",", skip_header=1)
        assert np.all(data[:, 1] >= data[:, 2] - 1e-8)  # J_trunc >= J_opt

    def test_parser_keeps_no_state_between_calls(self, tmp_path):
        # one parser serves every call of a process: a flag of one call is
        # gone in the next, which writes every level
        path = write_scenario(tmp_path, poly_b=[1.0])
        assert cli.build_parser() is cli.build_parser()
        assert cli.main(["truncation-study", path, "--out", str(tmp_path / "one"),
                         "--levels", "0"]) == 0
        assert cli.main(["truncation-study", path, "--out", str(tmp_path / "all")]) == 0
        rows = [(tmp_path / out / "truncation.csv").read_text().splitlines()
                for out in ("one", "all")]
        assert [len(r) for r in rows] == [2, 4]
        assert rows[0][1] == rows[1][1]

    @pytest.mark.parametrize("scale", [3e5, 1e6])
    def test_exact_step_kernel_runs_at_any_scale(self, tmp_path, scale):
        # s cos 2 pi (x - y) on 40 cells is exactly rank 2; its decoupling
        # residual, 2.8e-10 and 5.8e-10 here, is a rounding of s and is held
        # to 1e-10 times the largest eigenvalue s/2
        x = (np.arange(40) + 0.5) / 40
        np.savetxt(tmp_path / "coupling.csv", scale * np.cos(2 * np.pi * (x[:, None] - x)),
                   delimiter=",", fmt="%.17g")
        path = write_scenario(tmp_path, n=None, poly_q=[1.0], poly_p0=[1.0],
                              graphon={"type": "step", "matrix_csv": "coupling.csv"})
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 0

    def test_oracle_check_zero_optimal_cost(self, tmp_path):
        # zero state and terminal weights: P = 0 and u = 0, so J_oracle = 0 and
        # the gap has no scale
        scn = cli.load_scenario(write_scenario(tmp_path, poly_q=[0.0], poly_p0=[0.0]))
        problem, system, x0 = cli.build_experiment(scn)
        report = gl.oracle_compare(system, x0, scn.dt)
        assert report.j_oracle == 0.0
        assert np.isfinite(report.cost_rel_gap)
        assert report.cost_rel_gap == abs(report.j_decoupled)

    @pytest.mark.parametrize("command", ["oracle-check", "run", "truncation-study"])
    def test_non_decoupling_network_exits_2(self, tmp_path, capsys, command):
        # two cells sample sin and cos to a Gram matrix diag(2, 0): residual 1
        path = write_scenario(tmp_path, n=2)
        assert cli.main([command, path, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "2-cell" in err and "d = 2" in err and "residual 1.000e+00" in err
        assert not (tmp_path / "x").exists()

    def test_indefinite_weight_on_non_decoupling_network_exits_2(self, tmp_path, capsys):
        # q(s) = 1 - 1.5 s^2 is indefinite on two cells, which do not decouple the
        # rank-2 kernel in the first place: the decoupling message is the one shown
        path = write_scenario(tmp_path, n=2, poly_q=[1.0, 0.0, -1.5])
        assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "does not decouple" in err and "q_mat" not in err

    def test_weights_rounding_below_zero_run(self, tmp_path):
        # 0.3 s - 0.1 s^2 - 0.2 s^3 rounds to -5.6e-17 at the uniform kernel's
        # eigenvalue 1: a rounding of its terms, not a negative weight
        for field in ("poly_q", "poly_p0"):
            path = write_scenario(tmp_path, horizon=1.0, dt=1e-2,
                                  graphon={"type": "uniform"},
                                  **{field: [0.0, 0.3, -0.1, -0.2]})
            assert cli.main(["run", path, "--out", str(tmp_path / field)]) == 0

    def test_negative_constant_weight_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, poly_q=[-1e-13])
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "poly_q must be nonnegative" in capsys.readouterr().err

    def test_step_scenario_reruns_from_its_echo(self, tmp_path):
        rng = np.random.default_rng(31)
        _, entries = make_rank_kernel(rng, 10, 3)
        np.savetxt(tmp_path / "coupling.csv", entries, delimiter=",", fmt="%.17g")
        path = write_scenario(tmp_path, n=None, poly_b=[1.0],
                              graphon={"type": "step", "matrix_csv": "coupling.csv"})
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(["truncation-study", path, "--out", str(first)]) == 0
        assert cli.main(["truncation-study", str(first / "scenario.json"),
                         "--out", str(second)]) == 0
        assert read(first / "truncation.csv") == read(second / "truncation.csv")

    def test_full_rank_step_kernel_runs(self, tmp_path):
        # n = d: its eigenvectors decouple it exactly, so it runs in modal form
        m = np.array([[0.3, 0.2, -0.1], [0.2, -0.5, 0.4], [-0.1, 0.4, 0.6]])
        np.savetxt(tmp_path / "coupling.csv", m, delimiter=",")
        path = write_scenario(tmp_path, n=3,
                              graphon={"type": "step", "matrix_csv": "coupling.csv"})
        problem, system, _ = cli.build_experiment(cli.load_scenario(path),
                                                  base_dir=str(tmp_path))
        assert problem.d == 3 and system.residual <= 1e-13
        assert cli.main(["oracle-check", path, "--out", str(tmp_path / "o")]) == 0

    def test_out_of_memory_exits_3(self, tmp_path):
        # a huge n builds and runs matrix-free, but trajectory.csv's 101 x 10^6
        # states cannot be allocated under a 2 GB address-space limit, set on
        # the child process only
        resource = pytest.importorskip("resource")
        limit = 2 * 1024 ** 3

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        path = write_scenario(tmp_path, n=1_000_000)
        src = os.path.dirname(os.path.dirname(os.path.abspath(gl.__file__)))
        # one BLAS thread: OpenBLAS reserves address space for each of its threads
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "graphon_lqr.cli", "run", path,
             "--out", str(tmp_path / "x")],
            preexec_fn=cap_memory, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numeric failure:")
        assert "(101, 1000000)" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("levels", ["x", "1,,2", "0,1.5", ""])
    def test_unparsable_levels_exit_2(self, tmp_path, capsys, levels):
        path = write_scenario(tmp_path)
        rc = cli.main(["truncation-study", path, "--levels", levels,
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--levels" in err and "comma-separated integers" in err

    def test_oracle_check_command(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        out = tmp_path / "check"
        assert cli.main(["oracle-check", path, "--out", str(out)]) == 0
        cost = json.loads((out / "cost.json").read_text())
        assert cost["oracle_rel_gap"] <= 1e-6
        assert "rel_gap" in capsys.readouterr().out


    @pytest.mark.parametrize("argv, syntheses", [
        (["run", "{path}"], 1),
        (["run", "{path}", "--compare-oracle"], 1),
        (["example-vii", "--compare-oracle"], 1),
        (["truncation-study", "{path}"], 1),
        (["oracle-check", "{path}"], 0)],
        ids=["run", "run-oracle", "example-vii-oracle", "truncation-study", "oracle-check"])
    def test_one_synthesis_per_command(self, tmp_path, capsys, monkeypatch, argv,
                                       syntheses):
        # a law evaluates its own problem's gains, so the only synthesis is the
        # one that writes gains.csv; oracle-check writes none
        path = write_scenario(tmp_path)
        calls = record_calls(monkeypatch, gl.synthesize_gains)
        argv = [arg.format(path=path) for arg in argv]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == syntheses
        assert (tmp_path / "out" / "gains.csv").exists() == (syntheses == 1)

    @pytest.mark.parametrize("alpha_t, code", [(10, 0), (15, 3), (16, 3), (17, 3), (20, 3)])
    def test_oracle_never_answers_with_lost_precision(self, tmp_path, capsys, alpha_t, code):
        # beta0 = 0 leaves the residual uncontrollable, and the oracle's P grows
        # like exp(2 alpha0 t) along it; from alpha0*T = 15 on, the rounding of
        # the exact step swamps P, which once read as a negative J_oracle with
        # exit 0.  A P with a negative diagonal entry now exits 3
        horizon = alpha_t / 2.0
        path = write_scenario(tmp_path, alpha0=2.0, poly_b=[0.0, 1.0], poly_q=[1.0],
                              poly_p0=[1.0], horizon=horizon, dt=horizon / 500, n=8,
                              seed=0)
        assert cli.main(["oracle-check", path, "--out", str(tmp_path / "x")]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert "J_oracle=" in out and "J_oracle=-" not in out
            assert json.loads((tmp_path / "x" / "cost.json").read_text())["j_oracle"] > 0.0
        else:
            assert out == "" and "not positive semidefinite" in err

    @pytest.mark.parametrize("alpha_t", [12, 13, 14])
    def test_oracle_refuses_an_answer_it_cannot_certify(self, tmp_path, capsys, alpha_t):
        # the same problem below the negative diagonal: the oracle's value was
        # off by 1.3e-6 and 3.9e-4 with exit 0 at 13 and 14, and is off by
        # 4.7e-8 at 12; on a second chunking of its exact steps it now
        # disagrees with itself by more than 1e-8
        horizon = alpha_t / 2.0
        path = write_scenario(tmp_path, alpha0=2.0, poly_b=[0.0, 1.0], poly_q=[1.0],
                              poly_p0=[1.0], horizon=horizon, dt=horizon / 500, n=8,
                              seed=0)
        for argv in (["oracle-check", path], ["run", path, "--compare-oracle"]):
            assert cli.main([*argv, "--out", str(tmp_path / "x")]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("numeric failure: the matrix Riccati oracle")
            assert "self-gap above 1e-08" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("controller, runs", [("optimal", 1), ("truncated(1)", 2)])
    def test_compare_oracle_runs_the_optimal_law_once(self, tmp_path, capsys, monkeypatch,
                                                      controller, runs):
        # an optimal scenario's run is the one the oracle compared, and its
        # artifacts are those of the run without the oracle, byte for byte
        path = write_scenario(tmp_path, controller=controller)
        plain, oracle = tmp_path / "plain", tmp_path / "oracle"
        assert cli.main(["run", path, "--out", str(plain)]) == 0
        calls = record_calls(monkeypatch, gl.simulate)
        assert cli.main(["run", path, "--compare-oracle", "--out", str(oracle)]) == 0
        assert len(calls) == runs
        for name in ("gains.csv", "trajectory.csv", "scenario.json"):
            assert (plain / name).read_bytes() == (oracle / name).read_bytes()
        cost = json.loads((oracle / "cost.json").read_text())
        fields = {"j_oracle", "oracle_rel_gap", "oracle_p_gap", "oracle_state_gap",
                  "oracle_self_gap"}
        assert {k: v for k, v in cost.items() if k not in fields} \
            == json.loads((plain / "cost.json").read_text())
        assert fields <= cost.keys() and 0.0 <= cost["oracle_self_gap"] <= 1e-8

    @pytest.mark.parametrize("command, artifact", [
        ("run", "cost.json"), ("truncation-study", "truncation.csv")])
    def test_overflowing_cost_exits_3(self, tmp_path, capsys, command, artifact):
        # the level-0 law drops a direction of drift 367 and feeds it the
        # residual gain L = 1: it grows like exp(366 t), finite, but its squared
        # inflation overflows, which once exited 0 with J=inf and a cost.json
        # that is not JSON
        path = write_scenario(tmp_path, alpha0=0.0, poly_b=[1.0], poly_q=[1.0],
                              poly_p0=[1.0], horizon=1.0, dt=1e-3, n=8, seed=0,
                              controller="auxiliary_only", graphon={
                                  "type": "finite_rank",
                                  "pairs": [{"lambda": 367.0, "fun": "const"}]})
        assert cli.main([command, path, "--out", str(tmp_path / "x")]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric failure: the cost is not finite")
        assert err.count("\n") == 1
        assert not (tmp_path / "x" / artifact).exists()


# -- exit codes on random scenarios ---------------------------------------------

EIGFUNS = [("const", 1), ("cos", 1), ("sin", 1), ("cos", 2), ("sin", 3)]
WEIGHTS = st.sampled_from([[1.0], [0.0], [1.0, -2.0, 1.0], [0.5, 0.2], [0.1, -1.0]])
# wrong types and values; never a large integral number, which would be a huge n
JUNK = st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.integers(-3, 3),
                 st.floats(-10.0, 10.0),
                 st.sampled_from([float("nan"), float("inf"), -1e308, [], {}, [True]]))


@st.composite
def finite_rank_spec(draw):
    """Orthonormal analytic pairs; at small n most of them do not decouple."""
    funs = draw(st.lists(st.sampled_from(EIGFUNS), min_size=1, max_size=3, unique=True))
    lams = draw(st.lists(st.floats(0.05, 0.3) | st.floats(-0.3, -0.05),
                         min_size=len(funs), max_size=len(funs)))
    pairs = [{"lambda": lam, "fun": f, "freq": q} for lam, (f, q) in zip(lams, funs)]
    return {"type": "finite_rank", "pairs": sorted(pairs, key=lambda p: -abs(p["lambda"]))}


@st.composite
def scenario_dicts(draw):
    """A scenario with n <= 16 and dt >= 1e-2, then maybe one field spoiled or dropped."""
    raw = draw(st.fixed_dictionaries({
        "alpha0": st.floats(-2.0, 2.0) | st.just(5000.0),
        "poly_b": st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
        "poly_q": WEIGHTS,
        "poly_p0": WEIGHTS,
        "horizon": st.floats(0.1, 0.5),
        "dt": st.floats(1e-2, 0.05),
        "graphon": st.sampled_from([{"type": "sinusoidal"}, {"type": "uniform"}])
        | finite_rank_spec(),
        "n": st.integers(1, 16),
        "seed": st.integers(0, 2 ** 31),
        "controller": st.sampled_from(["optimal", "auxiliary_only", "truncated(1)",
                                       "truncated(3)"]),
    }))
    mode = draw(st.sampled_from(["keep", "spoil", "drop"]))
    if mode != "keep":
        key = draw(st.sampled_from(sorted(raw)))
        if mode == "spoil":
            raw[key] = draw(JUNK)
        else:
            del raw[key]
    return raw


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario_dicts())
def test_run_exits_only_with_documented_codes(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        quiet = io.StringIO()
        with (np.errstate(all="ignore"), contextlib.redirect_stdout(quiet),
              contextlib.redirect_stderr(quiet)):
            rc = cli.main(["run", path, "--out", os.path.join(tmp, "out")])
    assert rc in (0, 2, 3), (raw, quiet.getvalue())
