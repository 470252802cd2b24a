"""Write the pinned numbers that the tests compare against.

    PYTHONPATH=src python tests/regenerate_pinned.py [limit] [sigma]

``limit`` writes ``tests/limit_coefficients.json``, the limit polynomial's
coefficients for gaussian and cauchy at N = 2..5 (read by
``test_spectral.py::TestLimitPolynomial::test_coefficients_match_pinned``).
``sigma`` writes ``tests/sigma_closed_form.json``, the closed-form Sigma(r)
at ``SIGMA_RADII`` and (Sigma0, Sigma2) for gaussian and cauchy at N = 2..4
(read by ``test_covariance.py::test_closed_form_matches_pinned``).  With no
argument both files are written.  A change that rewrites a pinned row says
which row, and why.
"""

import json
import sys
from pathlib import Path

from critfield.covariance import conditional_covariance, sigma_expansion
from critfield.models import model_from_spec
from critfield.spectral import limit_polynomial

FAMILIES = ("gaussian", "cauchy")
SIGMA_RADII = (1.0, 0.3, 0.02, 1e-3)
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


TARGETS = {"limit": ("limit_coefficients.json", limit_rows),
           "sigma": ("sigma_closed_form.json", sigma_rows)}


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
