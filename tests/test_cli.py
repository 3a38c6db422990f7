"""End-to-end checks of the command-line frontend, run in process."""

import base64
import contextlib
import csv
import io
import json
import math
import multiprocessing
import os
import tempfile
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_hartree import cli, diagnostics, scan
from torus_hartree.field import TorusLattice, load_state, make_state, s_sum, save_state, t_sum
from torus_hartree.potential import GaussianPotential, potential_l2


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

    def test_two_mode_escape_overflow(self, tmp_path, capsys):
        code = run(["make-state", "--family", "two-mode", "--rho", "10",
                    "--L", "4", "--M", "4", "--escape", "400",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: escape mode rho**a * L is beyond the float range for these settings\n"
        assert not (tmp_path / "x").exists()

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

    @pytest.mark.parametrize("family, flags, named", [
        ("plane-wave", ["--eps", "0.3", "--s", "2", "--seed", "5", "--escape", "0.5"],
         "--eps, --s, --seed, --escape"),
        ("two-mode", ["--escape", "0.5", "--theta", "0.3"], "--theta"),
        ("two-mode", ["--escape", "0.5", "--seed", "5"], "--seed"),
        ("perturbed", ["--eps", "0.1", "--s", "4", "--seed", "2", "--escape", "0.5"],
         "--escape")])
    def test_unused_flags_are_refused(self, tmp_path, capsys, family, flags, named):
        # a flag the family ignores would be dropped, or stored in a snapshot that drew nothing
        code = run(["make-state", "--family", family, "--rho", "4", "--L", "4", "--M", "2",
                    *flags, "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == f"error: --family {family} takes no {named}\n"
        assert not (tmp_path / "x").exists()

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


def with_coefficient(doc, value):
    """A snapshot document with its eighth stored float set to value."""
    data = np.frombuffer(base64.b64decode(doc["data"]), dtype="<f8").copy()
    data[7] = value
    return {**doc, "data": base64.b64encode(data).decode("ascii")}


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

    def test_resumed_snapshot_envelopes_count_from_its_t(self, tmp_path, capsys):
        snap = tmp_path / "in.state"
        state = make_state("plane_wave", TorusLattice(4.0, 2), 10.0, k0=(1, 0, 0))
        save_state(state.with_alpha(state.alpha, t=1e6), snap)
        cfg = write_config(tmp_path, state={"snapshot": str(snap)})
        out, audit = tmp_path / "traj.csv", tmp_path / "audit.json"
        assert run(["simulate", "--config", str(cfg), "--out", str(out),
                    "--audit", str(audit)]) == 0
        assert capsys.readouterr().err == ""
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["t"]) == 1e6
        # the clock resolves 2**-33 s at t = 1e6, which dephases the wave by ~1e-9
        assert max(float(r["u_mass_sq"]) for r in rows) <= 1e-16
        assert all(math.isfinite(float(r["s_envelope"])) for r in rows)
        doc = json.loads(audit.read_text())
        assert doc["passed"] is True
        assert all(e["in_domain"] for e in doc["records"])
        assert doc["blowup_time"] > 1e6

    def test_t_final_below_the_rounding_slack_is_one_step(self, tmp_path, capsys):
        cfg = write_config(tmp_path, t_final=1e-16)
        out, final = tmp_path / "traj.csv", tmp_path / "final.state"
        assert run(["simulate", "--config", str(cfg), "--out", str(out),
                    "--final-state", str(final)]) == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["t"]) for r in rows] == [0.0, 1e-16]
        assert load_state(final).t == 1e-16

    def test_t_final_zero_records_the_start(self, tmp_path, capsys):
        cfg = write_config(tmp_path, t_final=0)
        out = tmp_path / "traj.csv"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert "(1 records)" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["t"]) for r in rows] == [0.0]

    def test_seed_list_is_seed_sequence_entropy(self, tmp_path, capsys):
        outs = []
        for seed in ([3, 1, 2], 5, [5]):
            cfg = write_config(tmp_path, state={"family": "perturbed", "eps": 0.05,
                                                "s": 6.0, "seed": seed})
            outs.append(tmp_path / f"{seed}.csv")
            assert run(["simulate", "--config", str(cfg), "--out", str(outs[-1])]) == 0
        capsys.readouterr()
        state = make_state("perturbed", TorusLattice(4.0, 2), 10.0, eps=0.05, s=6.0,
                           seed=np.random.SeedSequence([3, 1, 2]))
        with open(outs[0], newline="") as fh:
            first = next(csv.DictReader(fh))
        assert float(first["condensate_fraction"]) == float(np.max(np.abs(state.alpha)) ** 2)
        assert outs[1].read_bytes() == outs[2].read_bytes()
        assert outs[0].read_bytes() != outs[1].read_bytes()

    @pytest.mark.parametrize("seed", [[1, 2.5], [1, "2"], [True], [[1]]])
    def test_bad_seed_list_entry(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, state={"family": "perturbed", "eps": 0.05,
                                            "s": 6.0, "seed": seed})
        code = run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: seed must be an integer")
        assert not (tmp_path / "t.csv").exists()

    def test_snapshot_state_takes_no_other_key(self, tmp_path, capsys):
        snap = tmp_path / "in.state"
        save_state(make_state("plane_wave", TorusLattice(4.0, 1), 10.0), snap)
        cfg = write_config(tmp_path, state={"snapshot": str(snap), "family": "perturbed",
                                            "eps": 0.9})
        code = run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: a snapshot state takes no other keys ['eps', 'family']\n")
        assert not (tmp_path / "t.csv").exists()

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
        wording = "a finite number" if key == "t_final" else "positive and finite"
        assert f"{key} must be {wording}" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("value", [True, False])
    def test_dealiasing_key_is_unknown(self, tmp_path, capsys, value):
        # every step is dealiased; the old switch is refused, not ignored
        cfg = write_config(tmp_path, dealiasing=value)
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "unknown config keys ['dealiasing']" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_two_mode_escape_overflow(self, tmp_path, capsys):
        cfg = write_config(tmp_path, state={"family": "two_mode", "escape_exponent": 400})
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: escape mode rho**a * L is beyond the float range for these settings\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("potential,message", [
        ({"sigma": math.nan}, "sigma must be positive and finite"),
        ({"amplitude": math.inf}, "amplitude must be positive and finite"),
        ({"sigma": "1.0"}, "sigma must be positive and finite"),
        ({"C": 16.0}, "unknown potential keys ['C']"),
        ({"delta2": math.nan}, "delta2 must be a finite number"),
        ({"family": "tabulated_radial", "radii": [0.0, 1.0, 2.0, 3.0],
          "values": [1.0, 0.5, 0.1, 0.0]},
         "unknown potential family 'tabulated_radial'; known: gaussian"),
        ({"p_max": 22.0, "fourier_samples": 2049},
         "unknown potential keys ['fourier_samples', 'p_max'] for family 'gaussian'"),
        ({"sigma": 1e200}, "potential integral b is beyond the float range"),
        ({"sigma": 1e-200}, "potential integral b must be positive and finite"),
        ({"amplitude": 1e300, "sigma": 1e3},
         "potential integral b must be positive and finite"),
        # a subnormal b once made the audit's blowup_time 1 / (2 S0^2 b) Infinity
        ({"amplitude": 5e-324}, "1 / b must be positive and finite"),
        ({"sigma": 1e-108}, "1 / b must be positive and finite")])
    def test_bad_potential_parameter(self, tmp_path, capsys, potential, message):
        cfg = write_config(tmp_path, potential={"family": "gaussian", **potential})
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("c", [1e-3, 1e300])
    def test_decay_constant_is_not_a_key(self, tmp_path, capsys, c):
        # C is always the tight constant: a smaller one would bound nothing,
        # a larger one would loosen the T envelope until it checks nothing
        cfg = write_config(tmp_path, potential={"family": "gaussian", "C": c})
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown potential keys ['C'] for family 'gaussian'")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [cfg]

    def test_out_of_memory_is_one_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 119. GiB for an array")

        monkeypatch.setattr(scan, "make_state", exhausted)
        cfg = write_config(tmp_path)
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 119. GiB for an array\n")
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

    @pytest.mark.parametrize("key,value,message", [
        ("L", 1e308, "4 pi^2 / L^2 at L = 1e+308 is beyond the float range"),
        ("L", 1e-308, "4 pi^2 / L^2 at L = 1e-308 is beyond the float range"),
        ("L", 5e-324, "4 pi^2 / L^2 at L = 5e-324 is beyond the float range"),
        ("L", 1e-160, "4 pi^2 / L^2 at L = 1e-160 must be positive and finite"),
        ("L", 1e103, "L^3 at L = 1e+103 is beyond the float range"),
        ("t_final", 1e308, "t_final / dt = 1e+308 / 0.001 is beyond the float range"),
        ("dt", 5e-324, "t_final / dt = 0.005 / 5e-324 is beyond the float range")])
    def test_extreme_number(self, tmp_path, capsys, key, value, message):
        cfg = write_config(tmp_path, **{key: value})
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: {**doc, "L": 1e308}, "4 pi^2 / L^2 at L = 1e+308 is beyond"),
        (lambda doc: [doc], "not a state snapshot"),
        (lambda doc: {**doc, "data": None}, "data must be a base64 string"),
        (lambda doc: {**doc, "data": [1]}, "data must be a base64 string"),
        (lambda doc: with_coefficient(doc, math.nan),
         "in.state: coefficient block has non-finite values"),
        (lambda doc: with_coefficient(doc, -math.inf),
         "in.state: coefficient block has non-finite values"),
        (lambda doc: {**doc, "t": 1e16},
         "the record clock cannot advance from t = 1e+16 by steps of dt = 0.001"),
        (lambda doc: {k: v for k, v in doc.items() if k != "L"},
         "in.state: missing required key 'L'"),
        (lambda doc: {**doc, "version": True}, "in.state: unsupported snapshot version True"),
        (lambda doc: {**doc, "version": 1.0}, "in.state: unsupported snapshot version 1.0"),
        (lambda doc: {**doc, "version": "1"}, "in.state: unsupported snapshot version '1'")])
    def test_bad_snapshot_header(self, tmp_path, capsys, edit, message):
        snap = tmp_path / "in.state"
        save_state(make_state("plane_wave", TorusLattice(4.0, 1), 10.0), snap)
        snap.write_text(json.dumps(edit(json.loads(snap.read_text()))))
        cfg = write_config(tmp_path, state={"snapshot": str(snap)}, M=1)
        code = run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("text", [b"{not json", b"\xff{}"], ids=["syntax", "not_utf8"])
    def test_snapshot_not_json(self, tmp_path, capsys, text):
        snap = tmp_path / "in.state"
        snap.write_bytes(text)
        cfg = write_config(tmp_path, state={"snapshot": str(snap)})
        code = run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {snap}: invalid JSON (") and err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    def test_missing_snapshot_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, state={"snapshot": str(tmp_path / "ghost.state")})
        code = run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("path", [None, True, 0])
    def test_snapshot_path_must_be_a_string(self, tmp_path, capsys, path):
        # None used to raise a TypeError; open() reads an int, True included,
        # as a file descriptor: 0 read the snapshot from stdin, True fd 1
        cfg = write_config(tmp_path, state={"snapshot": path})
        code = run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: snapshot must be a path string, got {path!r}\n")

    @pytest.mark.parametrize("key,value,message", [
        ("rho", 20.0, "rho = 20.0 disagrees with the snapshot's rho = 10.0"),
        ("L", 5, "L = 5.0 disagrees with the snapshot's L = 4.0"),
        ("M", 2, "M = 2 disagrees with the snapshot's M = 1"),
        ("M", 1.5, "M must be an integer, got 1.5")])
    def test_snapshot_refuses_a_disagreeing_key(self, tmp_path, capsys, key, value, message):
        snap = tmp_path / "in.state"
        save_state(make_state("plane_wave", TorusLattice(4.0, 1), 10.0), snap)
        cfg = write_config(tmp_path, state={"snapshot": str(snap)},
                           **{"rho": 10.0, "L": 4.0, "M": 1, key: value})
        code = run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f" {message}\n")
        assert err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    def test_snapshot_accepts_agreeing_or_absent_keys(self, tmp_path):
        snap = tmp_path / "in.state"
        save_state(make_state("plane_wave", TorusLattice(4.0, 1), 10.0), snap)
        outputs = []
        for given in ({"rho": 10, "L": 4, "M": 1.0}, {}):
            cfg = write_config(tmp_path, state={"snapshot": str(snap)}, **given)
            doc = json.loads(cfg.read_text())
            for key in {"rho", "L", "M"} - set(given):
                del doc[key]
            cfg.write_text(json.dumps(doc))
            out = tmp_path / "t.csv"
            assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_make_state_extreme_L(self, tmp_path, capsys):
        code = run(["make-state", "--family", "plane-wave", "--rho", "10",
                    "--L", "1e308", "--M", "1", "--out", str(tmp_path / "s")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: 4 pi^2 / L^2 at L = 1e+308")
        assert not (tmp_path / "s").exists()


class TestHeapPolicy:
    """cli.main sets glibc's allocator policy; without mallopt it runs unchanged."""

    def simulate(self, tmp_path, name):
        out = tmp_path / name
        out.mkdir()
        assert run(["simulate", "--config", str(write_config(out)),
                    "--out", str(out / "t.csv"), "--audit", str(out / "audit.json"),
                    "--final-state", str(out / "final.state")]) == 0
        return [(out / f).read_bytes() for f in ("t.csv", "audit.json", "final.state")]

    def test_sets_mmap_and_trim_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        cli._keep_freed_heap()
        assert calls == [(-3, 32 << 20), (-1, 256 << 20)]

    def test_runs_without_mallopt(self, tmp_path, capsys, monkeypatch):
        expected = self.simulate(tmp_path, "glibc")

        def no_library(name):
            raise OSError("no C library")

        monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
        assert self.simulate(tmp_path, "no_library") == expected
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert self.simulate(tmp_path, "no_mallopt") == expected
        capsys.readouterr()


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
    # the quasi-vacuum scalars beside a simulate-style potential and state
    DOC = {"potential": {"family": "gaussian"},
           "state": {"family": "perturbed", "eps": 0.05, "s": 6.0, "seed": 21},
           "rho": 100.0, "L": 4.0, "M": 3,
           "n": 0.0, "e": 0.0, "h_xi": 0.0, "horizon": 0.01, "t": 0.0}

    def inputs(self, tmp_path, **overrides):
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps({**self.DOC, **overrides}))
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
        # t = 0, n = e = h_xi = 0: both bounds collapse to 1/rho
        assert doc["excitation_bound"] == pytest.approx(0.01)
        assert doc["quasi_vacuum_energy_bound"] == pytest.approx(0.01)
        assert capsys.readouterr().out == out.read_text()

    def test_constants_come_from_model_and_state(self, tmp_path, capsys):
        model = GaussianPotential()
        state = make_state("perturbed", TorusLattice(4.0, 3), 100.0, eps=0.05, s=6.0, seed=21)
        n, t = 2e-3, 1e-4
        assert run(["bound-report", "--inputs", str(self.inputs(tmp_path, n=n, t=t))]) == 0
        inputs = diagnostics.bound_inputs(state, model, n, 0.0, 0.0)
        assert (inputs.s_inf, inputs.d_inf, inputs.b) == (s_sum(state), t_sum(state), model.b)
        assert inputs.v2 == potential_l2(model, 4.0)
        omega = diagnostics.omega_coefficient(inputs.s_inf, inputs.d_inf, inputs.b, inputs.v2,
                                              model.C, 0.01)
        assert json.loads(capsys.readouterr().out) == {
            "omega": omega, "excitation_bound": diagnostics.excitation_bound(inputs, omega, t),
            "quasi_vacuum_energy_bound": diagnostics.quasi_vacuum_energy_bound(inputs)}

    def test_unknown_input_key(self, tmp_path, capsys):
        path = self.inputs(tmp_path, C_typo=1e-3)
        out = tmp_path / "report.json"
        assert run(["bound-report", "--inputs", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: unknown input keys ['C_typo']\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("key", ["b", "v2", "C", "S0", "T0", "s_inf", "d_inf"])
    def test_derived_constant_is_not_an_input(self, tmp_path, capsys, key):
        # a typed C = 1e-3 once printed a bound 26 orders below the certified one
        path = self.inputs(tmp_path, **{key: 1e-3})
        out = tmp_path / "report.json"
        assert run(["bound-report", "--inputs", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: unknown input keys [{key!r}]\n"
        assert captured.out == ""
        assert not out.exists()

    def test_missing_scalar(self, tmp_path, capsys):
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps({"n": 1.0}))
        assert run(["bound-report", "--inputs", str(path)]) == 2
        assert "missing required key" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        pytest.param("rho", 0, "rho must be positive and finite, got 0", id="rho-0"),
        ("n", -1, "BoundInputs.n must be non-negative"),
        pytest.param("t", 0.01, "excitation_bound is beyond the float range for these settings",
                     id="t-horizon-overflow"),
        pytest.param("n", 1e308, "excitation_bound must be positive and finite for these "
                     "settings, got inf", id="n-1e308-inf"),
        pytest.param("t", 0.0100001, "t = 0.0100001 is past horizon = 0.01, where omega ends",
                     id="t-past-horizon"),
        ("t", -1, "t must be non-negative"),
        ("horizon", -1, "horizon must be non-negative")])
    def test_out_of_range_input(self, tmp_path, capsys, key, value, message):
        path = self.inputs(tmp_path, **{key: value})
        out = tmp_path / "report.json"
        assert run(["bound-report", "--inputs", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()


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
        assert run(["scan", "--plan", str(plan), "--out", str(out)]) == 3
        text, err = capsys.readouterr()
        assert "2 failed" in text
        assert "rho=1 L=2: failed:" in text
        assert err == "error: 2 of 2 scan points did not run ok\n"
        assert (out / "table.csv").exists() and (out / "summary.json").exists()

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
        ({"dealiasing": False}, "['dealiasing']"),
        ({"write_trajectories": "no"}, "write_trajectories must be true or false"),
        ({"stride": 10**400}, "stride must be an integer"),
        ({"potential": {"family": "gaussian", "sigma": 1e200}},
         "potential integral b is beyond the float range"),
        ({"kappa": 1e308}, "cutoff kappa * L = 1e+308 * 2.0 is beyond the float range"),
        ({"dealiasing": True}, "unknown plan keys ['dealiasing']"),
        ({"family_params": {"eps0": None, "s": 6.0}}, "family_params.eps0 must be"),
        ({"family_params": {"eps0": "x", "s": 6.0}}, "family_params.eps0 must be"),
        ({"family_params": {"eps0": math.nan, "s": 6.0}}, "family_params.eps0 must be"),
        ({"family_params": {"eps0": 0.2, "s": 0}}, "family_params.s must be positive"),
        ({"family_params": {"eps0": 0.2, "s": 6.0, "theta": [1]}},
         "family_params.theta must be"),
        ({"family_params": {"eps0": 0.2, "s": 6.0, "eps_rule": []}}, "unknown eps_rule []"),
        ({"family_params": {"eps0": 0.2, "s": 6.0, "eps_rule": {}}}, "unknown eps_rule {}"),
        ({"family_params": {"eps0": 0.2, "s": 6.0, "eps_rule": 0}}, "unknown eps_rule 0"),
        ({"family_params": {"eps0": 0.2, "s": 6.0, "eps_rule": None}},
         "unknown eps_rule None"),
        ({"family_params": {"eps0": 0.2, "s": 6.0, "eps_rule": True}},
         "unknown eps_rule True"),
        ({"family_params": {"s": 6.0, "eps_rule": "fixed"}}, "eps_rule requires eps0"),
        ({"family": "plane_wave", "family_params": {"eps0": 0.2, "s": 6.0}},
         "state family 'plane_wave' takes no family_params ['eps0', 's']"),
        ({"family": "two_mode", "family_params": {}},
         "state family 'two_mode' requires family_params ['escape_exponent']"),
        ({"family": "two-mode", "family_params": {"escape_exponent": 0.5, "theta": 1.0}},
         "state family 'two_mode' takes no family_params ['theta']"),
        ({"family": "two_mode", "family_params": {"escape_exponent": "x"}},
         "family_params.escape_exponent must be"),
        ({"family_params": {"eps0": 0.2}},
         "state family 'perturbed_condensate' requires family_params ['s']"),
        ({"family_params": {"s": 6.0}},
         "state family 'perturbed_condensate' requires family_params ['eps0']"),
        ({"family_params": {"eps": 0.2, "s": 6.0}},
         "state family 'perturbed_condensate' takes no family_params ['eps']"),
        ({"potential": {"family": "tabulated_radial", "radii": [0.0, 1.0, 2.0, 3.0],
                        "values": [1.0, 0.5, 0.1, 0.0]}},
         "unknown potential family 'tabulated_radial'; known: gaussian"),
        ({"t_final": 1e308}, "t_final / dt = 1e+308 / 0.001 is beyond the float range"),
        ({"t_final": 1.0, "dt": 1e-17},
         "the record clock cannot advance from t = 0.0 by steps of dt = 1e-17"),
        ({"rho_values": [10.0, 10.000001]},
         "rho_values 10.0 and 10.000001 share the trajectory file name spelling 10"),
        ({"L_values": [2.0, 3.0, 3.0000001]},
         "L_values 3.0 and 3.0000001 share the trajectory file name spelling 3"),
        ({"L_values": [1e-170, 2.0]},
         "4 pi^2 / L^2 at L = 1e-170 is beyond the float range"),
        ({"L_values": [2.0, 1e103]}, "L^3 at L = 1e+103 is beyond the float range")])
    def test_invalid_plan_writes_nothing(self, tmp_path, capsys, overrides, message):
        assert run(["scan", "--plan", str(self.plan(tmp_path, **overrides)),
                    "--out", str(tmp_path / "scan")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "scan").exists()

    @pytest.mark.parametrize("c", [1e-3, 1e300])
    def test_decay_constant_is_not_a_key(self, tmp_path, capsys, c):
        plan = self.plan(tmp_path, potential={"family": "gaussian", "C": c})
        assert run(["scan", "--plan", str(plan), "--out", str(tmp_path / "scan")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown potential keys ['C'] for family 'gaussian'")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [plan]

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

    @pytest.mark.parametrize("death", ["os_exit", "KeyboardInterrupt"])
    def test_dead_worker_exits_1(self, tmp_path, capsys, monkeypatch, death):
        run_point = scan._run_point

        def dying(plan, model, i_rho, i_L, out_dir):
            if i_rho == 1:
                if death == "os_exit":
                    os._exit(1)
                raise KeyboardInterrupt
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
        # every worker was reaped: none left running, no zombie left to wait for
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_point_configs_reproduce_the_scan(self, tmp_path, capsys):
        # each point, fed to simulate as its own config, writes the scan's trajectory
        plan_path = self.plan(tmp_path, L_values=[2.0, 3.0], t_final=2.5e-3, stride=2)
        out = tmp_path / "scan"
        assert run(["scan", "--plan", str(plan_path), "--out", str(out)]) == 0
        plan = scan.load_plan(plan_path)
        for i, rho in enumerate(plan.rho_values):
            for j, L in enumerate(plan.L_values):
                cfg = tmp_path / f"point_{i}_{j}.json"
                cfg.write_text(json.dumps(scan.point_config(plan, i, j)))
                traj = tmp_path / f"point_{i}_{j}.csv"
                assert run(["simulate", "--config", str(cfg), "--out", str(traj)]) == 0
                assert traj.read_bytes() == (out / f"traj_rho{rho:g}_L{L:g}.csv").read_bytes()
        capsys.readouterr()

    def test_invalid_plan_json(self, tmp_path, capsys):
        bad = tmp_path / "plan.json"
        bad.write_text("{not json")
        assert run(["scan", "--plan", str(bad), "--out", str(tmp_path / "scan")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON")
        assert not (tmp_path / "scan").exists()

    def test_missing_plan_file(self, tmp_path, capsys):
        assert run(["scan", "--plan", str(tmp_path / "ghost.json"),
                    "--out", str(tmp_path / "scan")]) == 1
        capsys.readouterr()


# Hostile values substituted for one key at a time: a top-level key of a
# simulate config, scan plan or bound-report input, a potential or snapshot
# key, a key of the simulate or bound-report potential or state block or of
# the plan's family_params, or the path of a {"snapshot": path} state block.
HOSTILE = (None, True, "x", [], {}, [1], -1, 0, 1e308, 1e-308, 5e-324,
           math.nan, math.inf, -math.inf)
GAUSSIAN = {"family": "gaussian", "amplitude": 1.0, "sigma": 1.0,
            "delta1": 5.0, "delta2": 5.0}  # "C" is drawn as a key too
SIMULATE = {"potential": GAUSSIAN,
            "state": {"family": "perturbed", "eps": 0.05, "s": 6.0, "seed": 11},
            "rho": 10.0, "L": 4.0, "M": 1, "dt": 1e-3, "t_final": 2e-3, "stride": 1,
            "method": "split_strang", "picard_tol": 1e-10,
            "picard_tau": 1.5, "picard_max_iter": 100}
PLAN = {"potential": GAUSSIAN, "rho_values": [10.0], "L_values": [2.0],
        "family": "perturbed", "family_params": {"eps0": 0.1, "s": 6.0},
        "t_final": 1e-3, "dt": 1e-3, "method": "split_strang", "kappa": 0.5,
        "stride": 1, "master_seed": 0,
        "write_trajectories": False, "summary_columns": ["beta_gap"]}
BOUND = {"potential": GAUSSIAN, "state": SIMULATE["state"], "rho": 10.0, "L": 4.0, "M": 1,
         "n": 5.0, "e": 0.0, "h_xi": 0.0, "horizon": 1e-3, "t": 0.0}
SNAPSHOT_KEYS = ("format", "version", "L", "M", "rho", "t", "family", "seed",
                 "encoding", "order", "data")
SLOTS = ([("simulate", k) for k in SIMULATE] + [("plan", k) for k in PLAN]
         + [("bound", k) for k in BOUND]
         + [(doc, k) for doc in ("potential", "bound_potential") for k in (*GAUSSIAN, "C")]
         + [("snapshot", k) for k in SNAPSHOT_KEYS]
         + [(doc, k) for doc in ("state", "bound_state")
            for k in ("family", "eps", "s", "seed", "theta", "k0")]
         + [("family_params", k) for k in ("eps0", "s", "eps_rule", "k0", "theta")]
         + [("snapshot_path", "snapshot")])
# A tiny positive dt is left out: t_final / dt steps of it is a valid request
# for an unbounded run (about 1e305 steps at dt = 1e-308), not a defect.  So
# is the snapshot path "x": a missing file is the documented exit 1
# (test_missing_snapshot_file).
HOSTILE_CASES = [(doc, key, value) for doc, key in SLOTS for value in HOSTILE
                 if not (key == "dt" and value in (1e-308, 5e-324))
                 and not (doc == "snapshot_path" and value == "x")]


def _run_input(tmp, command, doc):
    """Write doc as the JSON input of a simulate, scan or bound-report run
    in tmp and return the exit code."""
    path = os.path.join(tmp, "input.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    if command == "simulate":
        return run(["simulate", "--config", path, "--out", os.path.join(tmp, "t.csv")])
    if command == "scan":
        return run(["scan", "--plan", path, "--out", os.path.join(tmp, "scan")])
    return run(["bound-report", "--inputs", path])


def _run_hostile(tmp, doc, key, value):
    if doc == "bound":
        return _run_input(tmp, "bound-report", {**BOUND, key: value})
    if doc == "plan":
        return _run_input(tmp, "scan", {**PLAN, key: value})
    if doc == "family_params":
        return _run_input(tmp, "scan", {**PLAN, "family_params":
                                        {**PLAN["family_params"], key: value}})
    command, cfg = "simulate", dict(SIMULATE)
    if doc.startswith("bound_"):  # bound-report reads its potential and state as simulate does
        command, cfg, doc = "bound-report", dict(BOUND), doc[len("bound_"):]
    if doc == "potential":
        cfg["potential"] = {**GAUSSIAN, key: value}
    elif doc == "state":
        cfg["state"] = {**SIMULATE["state"], key: value}
    elif doc == "simulate":
        cfg[key] = value
    elif doc == "snapshot_path":
        cfg["state"] = {key: value}
    else:
        snap = os.path.join(tmp, "in.state")
        save_state(make_state("plane_wave", TorusLattice(4.0, 1), 10.0), snap)
        with open(snap) as fh:
            header = json.load(fh)
        with open(snap, "w") as fh:
            json.dump({**header, key: value}, fh)
        cfg["state"] = {"snapshot": snap}
    return _run_input(tmp, command, cfg)


@pytest.mark.parametrize("command,doc", [("simulate", SIMULATE), ("scan", PLAN),
                                         ("bound-report", BOUND)],
                         ids=["simulate", "scan", "bound-report"])
def test_hostile_templates_run(tmp_path, capsys, command, doc):
    """Unsubstituted, each template succeeds, so a refusal in the fuzz below
    comes from the substituted value."""
    assert _run_input(str(tmp_path), command, doc) == 0
    assert capsys.readouterr().err == ""


# The draw space is finite, so one example per case enumerates every case.
@settings(max_examples=len(HOSTILE_CASES))
@given(case=st.sampled_from(HOSTILE_CASES))
def test_hostile_value_exits_cleanly(case):
    """Any one hostile value exits 0, 2 or 3, never with a traceback;
    a refusal is one error line."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = _run_hostile(tmp, *case)
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
