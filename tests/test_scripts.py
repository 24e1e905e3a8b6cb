"""The scripts under scripts/ run end to end and print what they promise."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, line", [
    (["theta_pipeline.py"],
     "radius 1: 50 columns, rank 50, VerifiedInjectiveUpTo(1), missing row zero: True"),
    (["solve_demo.py"], "  verified by substitution: True"),
    (["unit_search.py", "--box", "3"], "2 units with all coordinates in [-3, 3]:"),
], ids=["theta_pipeline", "solve_demo", "unit_search"])
def test_script_runs(argv, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
