"""The experiment scripts run end to end at tiny sizes and reject bad input."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, args):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)


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
    done = _run(script, args)
    assert done.returncode == 0, done.stderr
    assert summary in done.stdout


@pytest.mark.parametrize("script, args, named", [
    ("bridge_covariance.py", ["--n", "8", "--replicas", "50", "--axis", "0.5"], "got 50"),
    ("bridge_covariance.py", ["--n", "8", "--replicas", "200", "--workers", "0"], "got '0'"),
    ("bridge_covariance.py", ["--n", "0", "--replicas", "100"], "got 0"),
    ("bridge_covariance.py", ["--n", "8", "--replicas", "200", "--axis", "0.5",
                              "--master-seed", "-3"], "got -3"),
    ("spectral_limit.py", ["--n", "8", "--replicas", "1"], "got 1"),
    ("bridge_covariance.py", ["--n", "8", "--replicas", "200", "--axis", "0.5,1/0"], "'1/0'"),
    ("spectral_limit.py", ["--n", "8", "--replicas", "4", "--s", "1/0"], "'1/0'"),
    ("increment_tightness.py", ["--sizes", "16", "--replicas", "1"], "got 1"),
    ("increment_tightness.py", ["--sizes", "16,abc", "--replicas", "50"], "'16,abc'"),
    ("increment_tightness.py", ["--sizes", "16", "--replicas", "50", "--levels", ""], "''"),
    ("increment_tightness.py", ["--sizes", "16", "--replicas", "50", "--levels", "-1"],
     "got (-1,)"),
    ("increment_tightness.py", ["--sizes", "16", "--replicas", "50", "--levels", "0"],
     "got (0,)"),
    ("increment_tightness.py", ["--sizes", "16", "--replicas", "50", "--levels", "11"],
     "got (11,)"),
], ids=["bridge_covariance_replicas", "bridge_covariance_workers", "bridge_covariance_n",
        "bridge_covariance_seed",
        "spectral_limit_replicas", "bridge_covariance_zero_denominator",
        "spectral_limit_zero_denominator", "increment_tightness_replicas",
        "increment_tightness_sizes", "increment_tightness_empty_levels",
        "increment_tightness_negative_level", "increment_tightness_level_zero",
        "increment_tightness_level_beyond_unit_blocks"])
def test_script_rejects_bad_input_before_sampling(script, args, named):
    done = _run(script, args)
    assert done.returncode == 2, done.stderr
    assert named in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""  # nothing sampled, nothing printed
