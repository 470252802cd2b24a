import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The torus path, the spectrum, hpoly and verified sigma commands, a two-point
# share sweep, an N=5 share, the finite-r factor and a flip-paired ratio run on
# numpy alone; scipy.special arrives with the quadrature.
COLD_START = """
import sys, tempfile
import numpy as np
import critfield, critfield.cli
from critfield import (GridSpec, find_critical_points, gaussian_model, h_r, maxima_share,
                       pair_statistics, rice_density_quadrature, sample_field)
from critfield.rice import CHUNK
model = gaussian_model(2)
field = sample_field(model, GridSpec(n=32, spacing=11.3 / 32), seed=0)
points, _ = find_critical_points(field)
table = pair_statistics(points, 0.5 * model.correlation_length, field.extent)
assert len(points) > 0 and table.n_pairs > 0
with tempfile.TemporaryDirectory() as out:
    for argv in (["spectrum", "--N", "3"], ["hpoly", "--N", "3"], ["hpoly", "--N", "4"],
                 ["sigma", "--r", "0.1", "--verify"], ["share", "--u", "1,4", "--n", "4096"],
                 ["share", "--N", "5", "--n", "4096"]):
        assert critfield.cli.main(argv + ["--out", out]) == 0, argv
y = np.ones(8) / np.sqrt(8.0)
assert np.isfinite(h_r(gaussian_model(3), 0.3, y))  # past an eigenvalue crossing
assert 0.0 <= maxima_share(gaussian_model(3), 0.02, 4.0, n=CHUNK, seed=1,
                          antithetic="flip").value <= 1.0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
rice_density_quadrature(model, 0.5, 0.0, 2)
assert "scipy.special" in sys.modules
"""


def test_torus_path_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
