"""
Monte Carlo over the conditional law: what sits next to a critical point?

Conditioned on a critical point at the origin and both field values above a
threshold, the mass of nearby critical points splits by Hessian index.  Three
self-normalized ratios tell the story: the determinant-sign ratio tends to 1
as the pair distance shrinks; the low-index mass collapses as the threshold
grows; and the split between local maxima and top saddles settles near 1/2.
Each sweep below is one pass: its points share the draws, and each reads as
the single-point estimator would.
"""

from critfield import gaussian_model, ratio_sweep

model = gaussian_model(2)
N = 200_000  # demo budget; production runs use 2e6

print("=== determinant-sign ratio vs pair distance (threshold 1) ===")
radii = [(r, 1.0) for r in (0.2, 0.1, 0.05)]
print("plain estimator (sampling noise dominates):")
for (r, _), est in zip(radii, ratio_sweep("sign_ratio", model, radii, N, 0)):
    print(f"  r={r:<5}: {est.value:.4f} +- {est.stderr:.4f}")
print("class-swapping paired estimator (systematic deviation resolved):")
for (r, _), est in zip(radii, ratio_sweep("sign_ratio", model, radii, N, 0, antithetic="flip")):
    print(f"  r={r:<5}: {est.value:.5f} +- {est.stderr:.5f}   |ratio-1| = {abs(est.value-1):.2e}")

print("\n=== low-index collapse as the threshold grows (r = 0.05) ===")
thresholds = [(0.05, u) for u in (0.0, 1.0, 2.0, 3.0)]
for (_, u), est in zip(thresholds, ratio_sweep("psi_ratio", model, thresholds, N, 0)):
    print(f"  u={u:<3}: psi = {est.value:.5f} +- {est.stderr:.5f}")
print("(thresholds >= 2 switch to a mean-shift proposal centered at the")
print(" closest feasible point, so the tail stays sampled)")

print("\n=== maxima among the top two classes (r = 0.05) ===")
thresholds = [(0.05, u) for u in (1.0, 2.0, 4.0)]
for (_, u), est in zip(thresholds, ratio_sweep("maxima_share", model, thresholds, N, 0)):
    print(f"  u={u:<3}: share = {est.value:.4f} +- {est.stderr:.4f}")
print("a close pair above a high threshold is one maximum plus one top saddle")
