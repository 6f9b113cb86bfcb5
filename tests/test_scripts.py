"""The experiment scripts run end to end at tiny sizes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, summary", [
    ("bridge_covariance.py", ["--n", "16", "--replicas", "200", "--axis", "0.25,0.5"],
     "worst |z| vs exact finite-n:"),
    ("bridge_covariance.py", ["--n", "16", "--replicas", "200", "--axis", "0,0.5,1"],
     "largest finite-n bias vs limit on this grid:"),
    ("spectral_limit.py", ["--n", "20", "--replicas", "4", "--bins", "8"],
     "mean eigenvalue:"),
    ("increment_tightness.py", ["--sizes", "16,32", "--replicas", "50"],
     "stability across sizes:"),
], ids=["bridge_covariance", "bridge_covariance_axis_endpoints", "spectral_limit",
        "increment_tightness"])
def test_script_runs_and_prints_summary(script, args, summary):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert summary in done.stdout
