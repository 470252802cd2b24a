"""
Eigenstructure of the conditional covariance along the ray.

At coincidence the spectrum is fully explicit: two simple eigenvalues from a
2x2 reduction, two multiple eigenvalues proportional to rho''(0), and an
(N+1)-dimensional kernel.  For r > 0 the kernel opens up at order r^2, with
curvatures in closed form.  In the symmetry-adapted basis the expansion is
read off directly (Sigma(r) is even in r, so it has no linear term), and the
same basis assembles the degree-N limit polynomial whose sign classifies
close critical-point pairs.
"""

import numpy as np

from critfield import (eigenpath, gaussian_model, h_r, limit_polynomial,
                       spectrum_sigma0)

model = gaussian_model(3)
cat = spectrum_sigma0(model)
print("=== limit spectrum catalogue ===")
for value, mult in cat.entries:
    print(f"  value {value:9.4f}  multiplicity {mult}")
print(f"  distinguished pair: {cat.lambda_plus:.4f} / {cat.lambda_minus:.4f}")

print("\n=== eigenpath in the symmetry-adapted basis ===")
ex = eigenpath(model)
print(f"rank of the limit: {ex.rank0} of {ex.L}")
print("limit eigenvalues:", np.round(ex.Lambda0, 6))
print(f"least overlap of the finite-r eigenbasis with the basis: {ex.path_quality:.6f}")
print("kernel curvatures (lambda_2):", np.round(ex.Lambda2[ex.rank0:], 6))
print("last eigenvector is the antisymmetric field difference:")
print(np.round(ex.P0[:, -1], 6))

print("\n=== limit polynomial ===")
poly = limit_polynomial(model)
print("monomial coefficients (1-based factor positions):")
for key, coef in sorted(poly.coefficients().items()):
    print(f"  y{key}: {coef:+.6f}")
rng = np.random.default_rng(0)
ys = rng.standard_normal((5, poly.L))
print("sign flip under kernel-coordinate reflection:")
print("  h0(y)      :", np.round(poly.evaluate(ys), 4))
print("  h0(flip y) :", np.round(poly.evaluate(poly.flip(ys)), 4))

print("\n=== convergence of the scaled determinant ===")
y = rng.standard_normal(poly.L)
y /= np.linalg.norm(y)
for r in (0.05, 0.01, 0.002):
    print(f"  r={r:g}: h_r = {h_r(model, r, y):+.6f}   "
          f"h_0 = {poly.evaluate(y):+.6f}")
