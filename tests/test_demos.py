"""Each demo script runs to completion against the package in src/, and the
bound-report demo reports what the CLI reports."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torus_hartree import cli, excitation_bound, quasi_vacuum_energy_bound, save_state

ROOT = Path(__file__).resolve().parents[1]

# escaping_mode_ladder.py is left out: it takes about 12 s on a 2-core VM,
# against about 4 s for the other five together.
DEMOS = ["bound_report_demo.py", "conservation_audit.py",
         "envelope_audit_demo.py", "picard_oracle.py", "thermodynamic_scan.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_bound_report_demo_is_what_the_cli_reports(tmp_path, capsys):
    """The demo's state, saved as a snapshot and run through bound-report with the
    demo's n, e, h_xi, horizon and t, reproduces the demo's numbers bit for bit."""
    spec = importlib.util.spec_from_file_location(
        "bound_report_demo", ROOT / "demos" / "bound_report_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    _, state, inputs, horizon, omega = demo.measure()
    snapshot = tmp_path / "demo.state"
    save_state(state, str(snapshot))
    path = tmp_path / "inputs.json"
    for mult in demo.T_MULTIPLES:
        t = mult / omega
        path.write_text(json.dumps({
            "potential": {"family": "gaussian"}, "state": {"snapshot": str(snapshot)},
            "n": inputs.n, "e": inputs.e, "h_xi": inputs.h_xi, "horizon": horizon, "t": t}))
        assert cli.main(["bound-report", "--inputs", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "omega": omega, "excitation_bound": excitation_bound(inputs, omega, t),
            "quasi_vacuum_energy_bound": quasi_vacuum_energy_bound(inputs)}
