"""
Independent empirical check: simulate fields and look at their critical points.

Circulant embedding gives exact stationary samples on a torus; a periodic
bicubic surrogate makes gradients and Hessians analytic, so Morse counting is
sharp: minima - saddles + maxima = 0 on every realization.  Above a high
threshold, the rare close pairs of critical points should consist of one
local maximum and one saddle -- opposite Hessian determinant signs.
"""

from collections import Counter

from critfield import (GridSpec, euler_characteristic, find_critical_points,
                       gaussian_model, pair_statistics, sample_field)

model = gaussian_model(2)
grid = GridSpec(n=128, spacing=11.3 / 128)
print(f"torus of extent {grid.extent:.1f} "
      f"({grid.extent / model.correlation_length:.1f} correlation lengths)")

print("\n=== one realization, full critical set ===")
field = sample_field(model, grid, seed=1)
points, diag = find_critical_points(field)
counts = Counter(p.index for p in points)
print(f"minima {counts[0]}, saddles {counts[1]}, maxima {counts[2]}")
print(f"finder: {diag['cells_flagged']} candidate cells, {diag['diverged']} walkers "
      f"diverged, {diag['stalled']} stopped without settling")
print(f"Morse alternating sum: {euler_characteristic(points)} (torus: must be 0)")

print("\n=== close pairs above a high threshold ===")
eps = 0.5 * model.correlation_length
total = Counter()
pairs = 0
n_real = 120
for seed in range(n_real):
    field = sample_field(model, grid, seed=100 + seed)
    pts, _ = find_critical_points(field, u_thr=2.5)
    table = pair_statistics(pts, eps, field.extent)
    pairs += table.n_pairs
    total.update(table.counts)
print(f"{pairs} pairs closer than {eps:.2f} above u=2.5 in {n_real} realizations")
for (i, j), c in sorted(total.items()):
    kind = {0: "min", 1: "saddle", 2: "max"}
    print(f"  ({kind[i]}, {kind[j]}): {c}")
if pairs:
    opp = sum(c for (i, j), c in total.items() if (i == 1) != (j == 1))
    print(f"opposite-determinant fraction: {opp / pairs:.2f}")
