"""Each demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
