"""
The conditional covariance of the second-order data at two nearby points.

Conditioning (vech Hessian at ru, X(ru), X(0)) on a vanishing gradient at
both points gives an L x L covariance, L = N(N+1)/2 + 2.  The library
assembles it two independent ways -- a closed form and a generic Schur
complement fed by a contour-integral rule on rho alone, which reports its
own error estimate -- and expands it to second order in the separation r.
"""

import numpy as np

from critfield import (conditional_covariance, conditional_covariance_oracle,
                       gaussian_model, sigma_expansion)
from critfield.symmetric import tau_index

model = gaussian_model(3)
L = model.cond_dim
print(f"N={model.n_dim}, packed Hessian size {model.vech_dim}, L={L}")

print("\n=== two routes to Sigma(r) ===")
for r in (0.1, 0.5, 1.0):
    closed = conditional_covariance(model, r).sigma
    oracle = conditional_covariance_oracle(model, r)
    print(f"  r={r:>4}: max |closed - oracle| = {np.abs(closed - oracle.sigma).max():.2e}"
          f" (oracle estimate {oracle.error_estimate:.2e})")

print("\n=== small-separation expansion ===")
s0, s2 = sigma_expansion(model)
print("corner block (field values) of the limit:")
print(s0[-2:, -2:])
print("second-order coefficient of the axis curvature entry "
      f"(packed position {tau_index(3, 3)}): {s2[tau_index(3, 3) - 1, tau_index(3, 3) - 1]:g}")
for r in (1e-1, 1e-2, 1e-3):
    resid = np.linalg.norm(conditional_covariance(model, r).sigma - s0 - s2 * r * r)
    print(f"  r={r:g}: ||Sigma(r) - Sigma0 - Sigma2 r^2||_F / r^2 = {resid / r**2:.3e}")
print("the ratio falls like r^2: the expansion really is second order")

print("\n=== structure of the limit ===")
with np.printoptions(precision=3, suppress=True):
    print(s0)
print("rows for the packed (i, N) slots vanish; the two field rows are equal")
