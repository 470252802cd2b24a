"""
Acceptance suite: one test per criterion, at its stated tolerance and budget.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Statistical criteria use the fixed root seed 0; every estimate
here is deterministic.

Criterion 7b is a known, documented red: at the pinned desk scale (r=0.02,
u=4) two Monte Carlo estimators put the maxima share about +0.013 above the
double-limit value 1/2 (see the test for each figure and its estimator), so
"within 3 stderr of 1/2" fails for every estimator whose error bar is small
enough to resolve that offset.  It is asserted as stated and fails with the
measured offset.
"""

import math
import time

import numpy as np
import pytest

from critfield.covariance import (check_qualified, conditional_covariance,
                                  conditional_covariance_oracle,
                                  sigma_expansion)
from critfield.fieldsim import (GridSpec, euler_characteristic,
                                find_critical_points, pair_statistics,
                                sample_field)
from critfield.models import (RadialModel, cauchy_model, find_rescaling,
                              gaussian_model, rescale)
from critfield.rice import (maxima_share, psi_ratio, rice_density_mc,
                            rice_density_quadrature, sign_ratio)
from critfield.spectral import limit_polynomial, spectrum_sigma0
from critfield.symmetric import tau_index


def _report(num, name, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" | {detail}" if detail else ""
    print(f"[{status}] criterion {num}: {name} ({elapsed:.1f}s < {limit:.0f}s){tail}")


def test_criterion_01_limit_covariance_reproduction():
    t0 = time.perf_counter()
    model = gaussian_model(4)
    n, L = 4, 12
    # numerical limit by quadratic-in-r Richardson extrapolation
    s_a = conditional_covariance(model, 2e-3).sigma
    s_b = conditional_covariance(model, 1e-3).sigma
    limit = (4.0 * s_b - s_a) / 3.0
    perm = (
        [tau_index(k, k) for k in range(1, n)]
        + [L - 1, L]
        + [tau_index(i, j) for j in range(2, n) for i in range(1, j)]
        + [tau_index(i, n) for i in range(1, n)]
        + [tau_index(n, n)]
    )
    idx = [p - 1 for p in perm]
    permuted = limit[np.ix_(idx, idx)]
    expected = np.zeros((12, 12))
    expected[:3, :3] = np.where(np.eye(3, dtype=bool), 32.0 / 3.0, 8.0 / 3.0)
    expected[:3, 3:5] = expected[3:5, :3] = -4.0 / 3.0
    expected[3:5, 3:5] = 2.0 / 3.0
    expected[5:8, 5:8] = 4.0 * np.eye(3)
    err = np.abs(permuted - expected).max()
    closed = np.abs(sigma_expansion(model)[0][np.ix_(idx, idx)] - expected).max()
    elapsed = time.perf_counter() - t0
    ok = err < 1e-9 and closed < 1e-12 and elapsed < 1.0
    _report(1, "rearranged limit covariance matches the printed 12x12 matrix",
            ok, elapsed, 1.0, f"extrapolated err {err:.2e}, closed-form err {closed:.2e}")
    assert err < 1e-9
    assert closed < 1e-12
    assert elapsed < 1.0


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    where = None
    for n_dim in (2, 3, 4):
        for maker, tag in ((gaussian_model, "gaussian"), (cauchy_model, "cauchy")):
            model = maker(n_dim)
            for r in (0.1, 0.5, 1.0):
                diff = np.abs(
                    conditional_covariance(model, r).sigma
                    - conditional_covariance_oracle(model, r).sigma
                ).max()
                if diff > worst:
                    worst, where = diff, (tag, n_dim, r)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _report(2, "closed form vs Schur-complement oracle", ok, elapsed, 10.0,
            f"worst {worst:.2e} at {where}")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_03_spectral_catalogue():
    t0 = time.perf_counter()
    worst = 0.0
    for n_dim in range(2, 7):
        for maker in (gaussian_model, cauchy_model):
            model = maker(n_dim)
            model = rescale(model, find_rescaling(model))
            cat = spectrum_sigma0(model)
            s0, _ = sigma_expansion(model)
            numeric = np.sort(np.linalg.eigvalsh(s0))[::-1]
            worst = max(worst, float(np.abs(numeric - cat.dense()).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    _report(3, "limit spectrum matches the closed-form catalogue, N=2..6",
            ok, elapsed, 5.0, f"worst multiset gap {worst:.2e}")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_04_expansion_orders(fitted_eigenpath):
    # measured on the fitted eigenpath: the closed form meets every bar by
    # construction
    t0 = time.perf_counter()
    details = []
    ok = True
    for n_dim in (2, 3):
        model = gaussian_model(n_dim)
        ex = fitted_eigenpath(model)
        L, rank = ex.L, ex.rank0
        lam1 = float(np.abs(ex.Lambda1).max())
        kernel_pos = bool(np.all(ex.Lambda2[rank:L - 1] > 0.0))
        lam_l2 = float(abs(ex.Lambda2[L - 1]))
        j = np.zeros(L)
        j[-2], j[-1] = 1.0, -1.0
        j /= math.sqrt(2.0)
        col = ex.P0[:, -1]
        resid = float(min(np.abs(col - j).max(), np.abs(col + j).max()))
        ok = ok and lam1 < 1e-6 and kernel_pos and lam_l2 < 1e-8 and resid < 1e-6
        details.append(
            f"N={n_dim}: |L1|={lam1:.1e}, kernel L2 min="
            f"{ex.Lambda2[rank:L-1].min():.3f}, |L2[last]|={lam_l2:.1e}, "
            f"j-residual={resid:.1e}"
        )
        assert lam1 < 1e-6
        assert kernel_pos
        assert lam_l2 < 1e-8
        assert resid < 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(4, "expansion orders: vanishing linear term, kernel curvatures, "
               "field-difference eigenvector", ok, elapsed, 30.0, "; ".join(details))
    assert elapsed < 30.0


def test_criterion_05_limit_polynomial_antisymmetry():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(0)
    for n_dim in (2, 3):
        model = gaussian_model(n_dim)
        poly = limit_polynomial(model)
        ys = rng.standard_normal((10_000, poly.L))
        vals = poly.evaluate(ys)
        flipped = poly.evaluate(poly.flip(ys))
        worst = max(worst, float((np.abs(vals + flipped) / (1.0 + np.abs(vals))).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _report(5, "limit polynomial flips sign with the kernel coordinates",
            ok, elapsed, 10.0, f"worst residual {worst:.2e} over 10^4 draws x 2 dims")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_06_sign_ratio_near_coincidence():
    t0 = time.perf_counter()
    model = gaussian_model(2)
    budget = 2_000_000
    # statistical consistency with the limit, with the default estimator
    base = {r: sign_ratio(model, r, 1.0, n=budget, seed=0) for r in (0.05, 0.02)}
    consistent = all(abs(e.value - 1.0) <= 3.0 * e.stderr for e in base.values())
    # the systematic deviation needs the class-swapping paired estimator to
    # surface above sampling noise; it must shrink with r
    paired = {r: sign_ratio(model, r, 1.0, n=budget, seed=0, antithetic="flip")
              for r in (0.05, 0.02)}
    shrinking = abs(paired[0.05].value - 1.0) > abs(paired[0.02].value - 1.0)
    elapsed = time.perf_counter() - t0
    detail = (
        "default: "
        + ", ".join(
            f"r={r:g}: {e.value:.4f}+-{e.stderr:.4f}" for r, e in base.items()
        )
        + " | paired |ratio-1|: "
        + " -> ".join(f"{abs(paired[r].value - 1.0):.2e}" for r in (0.05, 0.02))
    )
    ok = consistent and shrinking and elapsed < 120.0
    _report(6, "sign ratio consistent with 1 and deviation shrinking in r",
            ok, elapsed, 120.0, detail)
    assert consistent
    assert shrinking
    assert elapsed < 120.0


def test_criterion_07a_type_collapse():
    t0 = time.perf_counter()
    model = gaussian_model(2)
    psis = [psi_ratio(model, 0.02, u, n=2_000_000, seed=0)
            for u in (1.0, 2.0, 3.0, 4.0)]
    trend = all(
        a.value - b.value > math.hypot(a.stderr, b.stderr)
        for a, b in zip(psis, psis[1:])
    )
    elapsed = time.perf_counter() - t0
    ok = trend and elapsed < 180.0
    _report("7a", "low-index mass collapses as the threshold grows",
            ok, elapsed, 180.0,
            "psi: " + " > ".join(f"{p.value:.5f}" for p in psis))
    assert trend
    assert elapsed < 180.0


def test_criterion_07b_maxima_share_half():
    # KNOWN RED.  The 1/2 is a double limit (separation to zero, then
    # threshold to infinity); this test asserts it at one finite point,
    # r=0.02 and u=4.  There, three routes agree on a share near 0.5133:
    #   - the production estimator (mean-shift proposal, negate-paired)
    #     gives 0.5126 +- 0.0012 at n=2e6 (this test) and 0.5134 +- 0.0004
    #     at n=2e7;
    #   - the class-swap-paired estimator (antithetic="flip") gives
    #     0.51322 +- 0.00004 at n=2e6;
    #   - the deterministic N=2 quadrature over the quadric cone det = 0
    #     gives 0.51326, with error estimates of at most 1.1e-4 relative
    #     per class.
    # Plain indicator sampling (_accumulate with no shift) cannot resolve
    # it.  At n=2e6, seed 0 sees no mass in the top two classes and raises,
    # seed 1 gives 1.0 +- 0.0 from a single live hit, and seed 2 gives
    # 0.49 +- 0.35 from two.  At n=1e8 its delta-method error bar is
    # unreliable: seed 0 gives 0.68 +- 0.08 from 47 live hits, seed 1 gives
    # 0.17 +- 0.06 from 46.
    # The paper only says the share "settles near 1/2" and fixes no
    # tolerance for a finite scale, so the criterion is asserted as stated
    # and fails with the measured offset.
    t0 = time.perf_counter()
    model = gaussian_model(2)
    share = maxima_share(model, 0.02, 4.0, n=2_000_000, seed=0)
    half_ok = abs(share.value - 0.5) <= 3.0 * share.stderr
    elapsed = time.perf_counter() - t0
    _report("7b", "max share within 3 stderr of 1/2 at r=0.02, u=4",
            half_ok, elapsed, 180.0,
            f"share {share.value:.4f}+-{share.stderr:.4f}; offset from 1/2 "
            f"{share.value - 0.5:+.4f} ({abs(share.value - 0.5) / share.stderr:.1f}"
            " stderr); finite-scale deviation, not an estimator artifact")
    assert half_ok, (
        f"maxima_share(r=0.02, u=4) = {share.value:.4f} +- {share.stderr:.4f}: "
        f"{abs(share.value - 0.5) / share.stderr:.1f} standard errors from 1/2. "
        "The class-swap-paired estimator gives 0.51322 +- 0.00004 at n=2e6 "
        "and the production estimator gives 0.5134 +- 0.0004 at n=2e7: a "
        "finite-(r, u) offset of about +0.013 from the double limit 1/2.  "
        "The deterministic N=2 quadrature confirms it with a share of "
        "0.51326."
    )
    assert elapsed < 180.0


def test_criterion_08_quadrature_cross_check():
    t0 = time.perf_counter()
    model = gaussian_model(2)
    quad = rice_density_quadrature(model, 0.5, 0.0, 2)
    mc = rice_density_mc(model, 0.5, 0.0, k=2, n=2_000_000, seed=0)
    rel = abs(mc.value - quad.value) / quad.value
    elapsed = time.perf_counter() - t0
    ok = rel < 0.02 and elapsed < 120.0
    _report(8, "sampled maximum density vs tensor quadrature", ok, elapsed, 120.0,
            f"mc {mc.value:.5f}+-{mc.stderr:.5f}, quad {quad.value:.5f}, rel {rel:.4f}")
    assert rel < 0.02
    assert elapsed < 120.0


def test_criterion_09_field_simulation():
    t0 = time.perf_counter()
    model = gaussian_model(2)
    grid = GridSpec(n=128, spacing=11.3 / 128)
    euler_failures = 0
    for seed in range(50):
        field = sample_field(model, grid, seed=seed)
        points, _ = find_critical_points(field)
        if euler_characteristic(points) != 0:
            euler_failures += 1
    eps = 0.5 * model.correlation_length
    n_real = 2500
    n_pairs = 0
    n_opposite = 0
    for seed in range(n_real):
        field = sample_field(model, grid, seed=10_000 + seed)
        points, _ = find_critical_points(field, u_thr=2.5)
        table = pair_statistics(points, eps, field.extent)
        n_pairs += table.n_pairs
        n_opposite += sum(
            c for (i, j), c in table.counts.items() if (i == 1) != (j == 1)
        )
    frac = n_opposite / n_pairs if n_pairs else float("nan")
    elapsed = time.perf_counter() - t0
    ok = euler_failures == 0 and n_pairs >= 20 and frac > 0.9 and elapsed < 600.0
    _report(9, "torus Morse count exact; close high pairs have opposite "
               "determinants", ok, elapsed, 600.0,
            f"euler failures {euler_failures}/50; {n_pairs} pairs over "
            f"{n_real} realizations, opposite fraction {frac:.3f}")
    assert euler_failures == 0
    assert n_pairs >= 20
    assert frac > 0.9
    assert elapsed < 600.0


def test_criterion_10_qualification_suite():
    t0 = time.perf_counter()
    passes = all(
        check_qualified(model).overall_pass
        for model in (gaussian_model(2), gaussian_model(3, a=2.0), cauchy_model(2))
    )
    n = 2
    d1 = -1.0
    d2 = n / (n + 2.0) * d1 ** 2
    d3 = -2.0
    boundary = RadialModel(
        n_dim=n,
        rho=lambda x: 1.0 + d1 * x + d2 * x ** 2 / 2.0 + d3 * x ** 3 / 6.0,
        rho_d1=lambda x: d1 + d2 * x + d3 * x ** 2 / 2.0,
        rho_d2=lambda x: d2 + d3 * x,
        rho_d3=lambda x: d3,
        validity_radius=0.3,
        name="curvature-boundary",
    )
    report = check_qualified(boundary)
    rejected = (not report.overall_pass) and "curvature_ratio" in report.failed()
    elapsed = time.perf_counter() - t0
    ok = passes and rejected and elapsed < 1.0
    _report(10, "qualification: built-ins pass, boundary profile rejected by name",
            ok, elapsed, 1.0,
            f"failed checks on boundary model: {report.failed()}")
    assert passes
    assert rejected
    assert elapsed < 1.0
