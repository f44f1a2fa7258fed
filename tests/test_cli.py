import json

import numpy as np
import pytest

from graphon_lqr import cli


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


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
        cli.write_json(str(echo), scn.to_dict())
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

    def test_controller_modes(self):
        assert cli.parse_controller("optimal", 2) == 2
        assert cli.parse_controller("auxiliary_only", 2) == 0
        assert cli.parse_controller("truncated(1)", 2) == 1
        with pytest.raises(ValueError, match="controller"):
            cli.parse_controller("truncated(5)", 2)
        with pytest.raises(ValueError, match="controller"):
            cli.parse_controller("bogus", 2)


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

    def test_oracle_check_zero_optimal_cost(self, tmp_path, capsys):
        # one cell samples the kernel at 1, where (1 - s)^2 vanishes: J_oracle = 0
        path = write_scenario(tmp_path, n=1)
        out = tmp_path / "single"
        assert cli.main(["oracle-check", path, "--out", str(out)]) == 0
        cost = json.loads((out / "cost.json").read_text())
        assert cost["j_oracle"] == 0.0
        assert np.isfinite(cost["oracle_rel_gap"])
        assert cost["oracle_rel_gap"] == abs(cost["total"])

    def test_oracle_check_command(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        out = tmp_path / "check"
        assert cli.main(["oracle-check", path, "--out", str(out)]) == 0
        cost = json.loads((out / "cost.json").read_text())
        assert cost["oracle_rel_gap"] <= 1e-6
        assert "rel_gap" in capsys.readouterr().out
