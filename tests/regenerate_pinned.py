"""Write the pinned numbers that the tests compare against.

    PYTHONPATH=src python tests/regenerate_pinned.py [limit] [sigma] [quad] [torus] [mc]

``limit`` writes ``tests/limit_coefficients.json``, the limit polynomial's
coefficients for gaussian and cauchy at N = 2..5 (read by
``test_spectral.py::TestLimitPolynomial::test_coefficients_match_pinned``).
``sigma`` writes ``tests/sigma_closed_form.json``, the closed-form Sigma(r)
at ``SIGMA_RADII`` and (Sigma0, Sigma2) for gaussian and cauchy at N = 2..4
(read by ``test_covariance.py::test_closed_form_matches_pinned``).
``quad`` writes ``tests/quadrature_values.json``, the N = 2 quadrature oracle
at u = 4 (read by ``test_rice.py::TestQuadratureOracle::test_matches_pinned``).
``torus`` writes ``tests/torus_rows.json``, the per-index point counts and the
pair table of the first ``TORUS_SEEDS`` fields on the grid of acceptance
criterion 09, unthresholded and above u = 2.5 (read by
``test_fieldsim.py::test_torus_rows_match_pinned``).
``mc`` writes ``tests/mc_rows.json``, the Monte Carlo estimates of ``MC_ROWS``
at n = ``MC_N``, each with the call that makes it (read by
``test_rice.py::test_mc_rows_match_pinned``).  With no argument every
file is written.  A change that rewrites a pinned row says which row, and why.
"""

import json
import math
import sys
from pathlib import Path

from critfield.covariance import conditional_covariance, sigma_expansion
from critfield.fieldsim import GridSpec, find_critical_points, pair_statistics, sample_field
from critfield.models import gaussian_model, model_from_spec
from critfield import rice
from critfield.rice import rice_density_quadrature
from critfield.spectral import limit_polynomial

FAMILIES = ("gaussian", "cauchy")
SIGMA_RADII = (1.0, 0.3, 0.02, 1e-3)
QUAD_U = 4.0
QUAD_POINTS = ((0.02, (0, 1, 2)), (0.005, (0, 1, 2)), (0.001, (2,)))  # (r, index classes)
TORUS_GRID = GridSpec(n=128, spacing=11.3 / 128)  # criterion 09's grid
TORUS_SEEDS = 3
TORUS_THRESHOLDS = (-math.inf, 2.5)
MC_N = 1 << 17
MC_ROWS = {  # row: (rice estimator, gaussian N, its keyword arguments but n and seed)
    **{f"share-{pairing}-N{n_dim}": ("maxima_share", n_dim,
                                     {"r": 0.02, "u_thr": 4.0, "antithetic": pairing})
       for pairing in ("negate", "flip") for n_dim in (2, 3, 4)},
    "sign-N2": ("sign_ratio", 2, {"r": 0.05, "u_thr": 1.0}),
    "psi-N3": ("psi_ratio", 3, {"r": 0.05, "u_thr": 2.0}),
    "density-plain-N2": ("rice_density_mc", 2, {"r": 0.3, "u_thr": 0.5, "antithetic": None}),
    "density-negate-N2": ("rice_density_mc", 2, {"r": 0.05, "u_thr": 3.0}),
    "unconditional-N2": ("mean_critical_density", 2, {}),
    "unconditional-N3": ("mean_critical_density", 3, {}),
    "share-sweep-N2": ("ratio_sweep", 2, {"estimator": "maxima_share",
                                          "points": [[0.02, 1.0], [0.02, 2.0], [0.02, 4.0]]}),
}
HERE = Path(__file__).parent


def limit_rows():
    return {family: {str(n): {"+".join(map(str, key)): c for key, c in
                              limit_polynomial(model_from_spec(family, n)).coefficients().items()}
                     for n in range(2, 6)}
            for family in FAMILIES}


def sigma_rows():
    rows = {}
    for family in FAMILIES:
        rows[family] = {}
        for n in range(2, 5):
            model = model_from_spec(family, n)
            s0, s2 = sigma_expansion(model)
            rows[family][str(n)] = {
                "sigma": {repr(r): conditional_covariance(model, r).sigma.tolist()
                          for r in SIGMA_RADII},
                "sigma0": s0.tolist(),
                "sigma2": s2.tolist(),
            }
    return rows


def quad_rows():
    model = gaussian_model(2)
    return {repr(r): {str(k): rice_density_quadrature(model, r, QUAD_U, k).value for k in ks}
            for r, ks in QUAD_POINTS}


def torus_row(seed, u_thr):
    """Per-index point counts and the pair table of one criterion 09 field."""
    model = gaussian_model(2)
    field = sample_field(model, TORUS_GRID, seed=seed)
    points, _ = find_critical_points(field, u_thr=u_thr)
    table = pair_statistics(points, 0.5 * model.correlation_length, field.extent)
    return {"index_counts": [sum(p.index == i for p in points) for i in range(3)],
            "n_pairs": table.n_pairs,
            "pair_counts": {f"{i}-{j}": c for (i, j), c in sorted(table.counts.items())}}


def torus_rows():
    return {str(seed): {repr(u): torus_row(seed, u) for u in TORUS_THRESHOLDS}
            for seed in range(TORUS_SEEDS)}


def mc_rows():
    rows = {}
    for name, (estimator, n_dim, kw) in MC_ROWS.items():
        kw = {**kw, "n": MC_N, "seed": 0}
        got = getattr(rice, estimator)(model=gaussian_model(n_dim), **kw)
        rows[name] = {"estimator": estimator, "N": n_dim, "kw": kw,
                      "estimates": [{"value": e.value, "stderr": e.stderr, "n": e.n}
                                    for e in (got if isinstance(got, list) else [got])]}
    return rows


TARGETS = {"limit": ("limit_coefficients.json", limit_rows),
           "sigma": ("sigma_closed_form.json", sigma_rows),
           "quad": ("quadrature_values.json", quad_rows),
           "torus": ("torus_rows.json", torus_rows),
           "mc": ("mc_rows.json", mc_rows)}


def main(argv):
    unknown = set(argv) - set(TARGETS)
    if unknown:
        sys.exit(f"unknown target(s) {sorted(unknown)}; choose from {sorted(TARGETS)}")
    for target in argv or TARGETS:
        name, rows = TARGETS[target]
        with open(HERE / name, "w") as fh:
            json.dump(rows(), fh, indent=1)
        print(f"wrote {HERE / name}")


if __name__ == "__main__":
    main(sys.argv[1:])
