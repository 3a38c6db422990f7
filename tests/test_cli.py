"""End-to-end checks of the command-line frontend, run in process."""

import csv
import json
import math
import multiprocessing
import os
import threading

import pytest

from torus_hartree import cli, scan
from torus_hartree.field import load_state


def run(args):
    return cli.main(args)


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "make-state" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert run(["simulate", "--help"]) == 0
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run(["make-state", "--family", "plane-wave"]) == 2
        capsys.readouterr()


class TestMakeState:
    def test_plane_wave_snapshot(self, tmp_path, capsys):
        out = tmp_path / "pw.state"
        code = run(["make-state", "--family", "plane-wave", "--k0", "1,0,0",
                    "--rho", "10", "--L", "4", "--M", "2",
                    "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert f"snapshot: {out}" in text
        assert "mass: 1" in text
        assert "condensate_fraction: 1" in text
        st = load_state(out)
        assert st.rho == 10.0
        assert st.lattice.M == 2
        assert st.mass == pytest.approx(1.0, abs=1e-15)

    def test_two_mode_prints_weights(self, tmp_path, capsys):
        out = tmp_path / "tm.state"
        code = run(["make-state", "--family", "two-mode", "--rho", "16",
                    "--L", "8", "--M", "23", "--escape", "0.375",
                    "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        line = next(l for l in text.splitlines() if l.startswith("weights:"))
        w0, w1 = (float(v) for v in line.split()[1:])
        assert w0 == pytest.approx(16 / 17.0, rel=1e-15)
        assert w1 == pytest.approx(1 / 17.0, rel=1e-15)

    def test_two_mode_requires_escape(self, tmp_path, capsys):
        code = run(["make-state", "--family", "two-mode", "--rho", "4",
                    "--L", "4", "--M", "4", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_perturbed_requires_noise_flags(self, tmp_path, capsys):
        code = run(["make-state", "--family", "perturbed", "--rho", "4",
                    "--L", "4", "--M", "2", "--eps", "0.1",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_bad_k0(self, tmp_path, capsys):
        code = run(["make-state", "--family", "plane-wave", "--k0", "1,2",
                    "--rho", "4", "--L", "4", "--M", "2",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert "comma-separated" in capsys.readouterr().err


def write_config(tmp_path, **overrides):
    cfg = {
        "potential": {"family": "gaussian"},
        "state": {"family": "perturbed", "eps": 0.05, "s": 6.0, "seed": 11},
        "rho": 10.0, "L": 4.0, "M": 2,
        "dt": 1e-3, "t_final": 5e-3, "stride": 1,
    }
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_full_run_with_audit_and_final_state(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "traj.csv"
        audit = tmp_path / "audit.json"
        final = tmp_path / "final.state"
        code = run(["simulate", "--config", str(cfg), "--out", str(out),
                    "--audit", str(audit), "--final-state", str(final)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out

        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert float(rows[0]["t"]) == 0.0
        assert abs(float(rows[-1]["mass"]) - 1.0) < 1e-12

        doc = json.loads(audit.read_text())
        assert doc["passed"] is True
        assert doc["flags"] == 0

        st = load_state(final)
        assert st.t == pytest.approx(5e-3)

    def test_simulate_from_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "in.state"
        assert run(["make-state", "--family", "plane-wave", "--k0", "0,0,0",
                    "--rho", "10", "--L", "4", "--M", "2",
                    "--out", str(snap)]) == 0
        cfg = write_config(tmp_path, state={"snapshot": str(snap)})
        out = tmp_path / "traj.csv"
        assert run(["simulate", "--config", str(cfg),
                    "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # plane wave: condensate fraction pinned at 1
        assert float(rows[-1]["condensate_fraction"]) == pytest.approx(
            1.0, abs=1e-12)

    def test_missing_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        doc = json.loads(write_config(tmp_path).read_text())
        del doc["dt"]
        cfg_path.write_text(json.dumps(doc))
        code = run(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "'dt'" in capsys.readouterr().err

    def test_non_finite_number(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace('"L": 4.0', '"L": Infinity'))
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "L must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("M", math.inf), ("M", 2.5), ("stride", math.inf),
        ("picard_max_iter", math.inf), ("M", 10**400), ("stride", 10**400)])
    def test_bad_integer_setting(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert f"{key} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("key,value", [
        ("rho", None), ("t_final", [1]), ("dt", True), ("L", True),
        ("dt", "0.001"), ("L", [2.0]), ("L", 10**400)])
    def test_bad_real_setting(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert f"{key} must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("value", ["no", 0])
    def test_dealiasing_must_be_boolean(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, dealiasing=value)
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "dealiasing must be true or false" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("potential,message", [
        ({"sigma": math.nan}, "sigma must be positive and finite"),
        ({"amplitude": math.inf}, "amplitude must be positive and finite"),
        ({"sigma": "1.0"}, "sigma must be positive and finite"),
        ({"C": math.nan}, "C must be a finite number"),
        ({"delta2": math.nan}, "delta2 must be a finite number"),
        ({"family": "tabulated_radial", "radii": [0.0, 1.0, 2.0, 3.0],
          "values": [1.0, math.nan, 0.0, 0.0]}, "values must be a finite number"),
        ({"family": "tabulated_radial", "radii": [0.0, 1.0, 2.0, 3.0],
          "values": [1.0, 0.5, 0.1, 0.0], "fourier_samples": 1.5},
         "fourier_samples must be an integer"),
        ({"sigma": 1e200}, "potential integral b is beyond the float range"),
        ({"sigma": 1e-200}, "potential integral b must be positive and finite"),
        ({"amplitude": 1e300, "sigma": 1e3},
         "potential integral b must be positive and finite")])
    def test_bad_potential_parameter(self, tmp_path, capsys, potential, message):
        cfg = write_config(tmp_path, potential={"family": "gaussian", **potential})
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("k0", [5, [1.5, 0, 0], [1, 2]])
    def test_bad_state_k0(self, tmp_path, capsys, k0):
        cfg = write_config(tmp_path, state={"family": "plane_wave", "k0": k0})
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "k0 must be" in capsys.readouterr().err

    def test_integral_float_setting(self, tmp_path, capsys):
        cfg = write_config(tmp_path, M=2.0, stride=1.0)
        assert run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("state,message", [
        ({"family": ["perturbed"]}, "unknown state family"),
        (5, "state must be a JSON object")])
    def test_wrongly_typed_state(self, tmp_path, capsys, state, message):
        cfg = write_config(tmp_path, state=state)
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dealising=False)
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "dealising" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, method="picard", picard_max_iter=1,
                           t_final=2e-3)
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 3
        assert "error: no fixed point within 1 iterations" in \
            capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run(["simulate", "--config", str(bad),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = run(["simulate", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert "io error:" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("suite", ["algebra", "oracle"])
    def test_suite_passes(self, suite, capsys):
        assert run(["verify", "--suite", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_failing_check_sets_exit_code(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.SUITES, "algebra",
                            lambda: [("doomed", False, "synthetic")])
        assert run(["verify", "--suite", "algebra"]) == 3
        out = capsys.readouterr().out
        assert "FAIL doomed" in out

    def test_unknown_suite_rejected_by_parser(self, capsys):
        assert run(["verify", "--suite", "nonsense"]) == 2
        capsys.readouterr()


class TestBoundReport:
    def inputs(self, tmp_path):
        doc = {"n": 5.0, "e": 0.0, "h_xi": 0.0, "s_inf": 0.0, "d_inf": 0.0,
               "b": 15.749609945722419, "v2": 2.366, "rho": 100.0, "L": 8.0,
               "S0": 1.0, "T0": 0.1, "C": 16.0, "horizon": 1e-3, "t": 0.0}
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps(doc))
        return path

    def test_report_values(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["bound-report", "--inputs", str(self.inputs(tmp_path)),
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"omega", "excitation_bound",
                            "quasi_vacuum_energy_bound"}
        assert doc["omega"] >= 1.0
        # t = 0, h_xi = s_inf = 0: bound collapses to n + 1/rho
        assert doc["excitation_bound"] == pytest.approx(5.01)
        assert doc["quasi_vacuum_energy_bound"] == pytest.approx(0.01)
        assert capsys.readouterr().out == out.read_text()

    def test_missing_scalar(self, tmp_path, capsys):
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps({"n": 1.0}))
        assert run(["bound-report", "--inputs", str(path)]) == 2
        assert "missing required key" in capsys.readouterr().err


class TestScan:
    def plan(self, tmp_path, **overrides):
        doc = {"potential": {"family": "gaussian"},
               "rho_values": [1.0, 4.0], "L_values": [2.0],
               "family": "perturbed", "family_params": {"eps0": 0.2, "s": 6.0},
               "t_final": 0.0, "dt": 1e-3}
        doc.update(overrides)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        return path

    def test_scan_runs_plan(self, tmp_path, capsys):
        out = tmp_path / "scan"
        code = run(["scan", "--plan", str(self.plan(tmp_path)),
                    "--out", str(out), "--workers", "2"])
        assert code == 0
        assert "2 rows, 0 failed" in capsys.readouterr().out
        assert (out / "table.csv").exists()
        assert (out / "summary.json").exists()

    def test_failed_points_are_listed(self, tmp_path, capsys):
        plan = self.plan(tmp_path, family_params={
            "eps0": 0.1, "s": 6.0, "k0": [5, 0, 0]})
        out = tmp_path / "scan"
        assert run(["scan", "--plan", str(plan), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "2 failed" in text
        assert "rho=1 L=2: failed:" in text

    def test_bad_plan_key(self, tmp_path, capsys):
        assert run(["scan", "--plan", str(self.plan(tmp_path, typo=1)),
                    "--out", str(tmp_path / "scan")]) == 2
        assert "typo" in capsys.readouterr().err

    def test_wrongly_typed_plan_list(self, tmp_path, capsys):
        assert run(["scan", "--plan", str(self.plan(tmp_path, rho_values=5)),
                    "--out", str(tmp_path / "scan")]) == 2
        assert "rho_values must be a list of numbers" in capsys.readouterr().err
        assert not (tmp_path / "scan").exists()

    @pytest.mark.parametrize("overrides,message", [
        ({"summary_columns": 5}, "summary_columns must be"),
        ({"summary_columns": ["nope"]}, "summary_columns must be"),
        ({"family_params": {"eps0": 0.2, "s": 6.0, "k0": 5}}, "k0 must be"),
        ({"family_params": {"eps0": 0.2, "s": 6.0, "k0": [1.5, 0, 0]}}, "k0 must be"),
        ({"family_params": {"eps0": 0.2, "s": 6.0, "k0": [1, 2]}}, "k0 must be"),
        ({"kappa": True}, "kappa must be"),
        ({"dt": "1e-3"}, "dt must be"),
        ({"method": "bogus"}, "unknown method 'bogus'"),
        ({"dealiasing": "no"}, "dealiasing must be true or false"),
        ({"write_trajectories": "no"}, "write_trajectories must be true or false"),
        ({"stride": 10**400}, "stride must be an integer"),
        ({"potential": {"family": "gaussian", "sigma": 1e200}},
         "potential integral b is beyond the float range")])
    def test_invalid_plan_writes_nothing(self, tmp_path, capsys, overrides, message):
        assert run(["scan", "--plan", str(self.plan(tmp_path, **overrides)),
                    "--out", str(tmp_path / "scan")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "scan").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, tmp_path, capsys, workers):
        assert run(["scan", "--plan", str(self.plan(tmp_path)),
                    "--out", str(tmp_path / "scan"), "--workers", workers]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "scan").exists()

    def test_workers_need_fork(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert run(["scan", "--plan", str(self.plan(tmp_path)),
                    "--out", str(tmp_path / "scan"), "--workers", "2"]) == 2
        assert "fork start method" in capsys.readouterr().err
        assert not (tmp_path / "scan").exists()

    def test_dead_worker_exits_1(self, tmp_path, capsys, monkeypatch):
        run_point = scan._run_point

        def dying(plan, model, i_rho, i_L, out_dir):
            if i_rho == 1:
                os._exit(1)
            return run_point(plan, model, i_rho, i_L, out_dir)

        monkeypatch.setattr(scan, "_run_point", dying)  # forked workers inherit it
        out = tmp_path / "scan"
        codes = []
        argv = ["scan", "--plan", str(self.plan(tmp_path, L_values=[2.0, 3.0])),
                "--out", str(out), "--workers", "2"]
        runner = threading.Thread(target=lambda: codes.append(run(argv)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "scan hung after a worker died"
        assert codes == [1]
        err = capsys.readouterr().err
        assert err.startswith("error: scan worker process died")
        assert err.count("\n") == 1
        assert not (out / "table.csv").exists()
        assert not (out / "summary.json").exists()

    def test_missing_plan_file(self, tmp_path, capsys):
        assert run(["scan", "--plan", str(tmp_path / "ghost.json"),
                    "--out", str(tmp_path / "scan")]) == 1
        capsys.readouterr()
