import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, expected", [
    ("01_radial_models_and_checks.py", "overall: qualified"),
    ("02_conditional_covariance.py", "two routes to Sigma(r)"),
    ("03_spectrum_and_eigenpaths.py", "sign flip under kernel-coordinate reflection"),
    ("04_pair_type_ratios.py", "class-swapping paired estimator"),
    # the torus demo prints the finder's diagnostics, so it breaks when they change
    ("05_torus_simulation.py", "stopped without settling"),
], ids=["models", "covariance", "spectrum", "ratios", "torus"])
def test_demo_runs(demo, expected):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
