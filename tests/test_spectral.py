import itertools
import math

import numpy as np
import pytest

from critfield.covariance import conditional_covariance, sigma_expansion
from critfield.models import (RadialModel, cauchy_model, find_rescaling,
                              gaussian_model, rescale)
from critfield.spectral import (EigenvalueCollisionError, LimitPolynomial,
                                bv_determinant, eigenpath, factor_at, h_matrix, h_r,
                                limit_polynomial, perm_symmetrized_bv,
                                scaling_class, spectrum_sigma0)
from critfield.symmetric import (matriculate, matriculate_batch, tau_index,
                                 vectorize_sym)


class TestSpectrumCatalogue:
    def test_n4_multiplicities(self, gauss4):
        cat = spectrum_sigma0(gauss4)
        mults = [m for _, m in cat.entries]
        assert sum(mults) == 12
        by_value = dict((round(v, 6), m) for v, m in cat.entries)
        assert by_value[4.0] == 3
        assert by_value[8.0] == 2
        assert by_value[0.0] == 5
        assert cat.lambda_plus == pytest.approx(16.694, abs=5e-4)
        assert cat.lambda_minus == pytest.approx(0.639, abs=5e-4)

    def test_n2_multiplicities(self, gauss2):
        cat = spectrum_sigma0(gauss2)
        assert [m for _, m in cat.entries] == [1, 1, 3]
        assert cat.L == 5

    def test_product_identity(self, gauss3):
        # lambda_plus * lambda_minus equals the 2x2 determinant ad - bc
        from critfield.models import w_matrix

        cat = spectrum_sigma0(gauss3)
        (a, b), (c, d) = w_matrix(gauss3)
        assert cat.lambda_plus * cat.lambda_minus == pytest.approx(
            a * d - b * c, rel=1e-12
        )

    def test_matches_numeric_spectrum(self, cauchy3):
        cat = spectrum_sigma0(cauchy3)
        s0, _ = sigma_expansion(cauchy3)
        numeric = np.sort(np.linalg.eigvalsh(s0))[::-1]
        assert np.abs(numeric - cat.dense()).max() < 1e-9

    def test_collision_raises_and_rescaling_fixes(self):
        d1, d2, d3 = -0.3, 0.1, -5.0
        model = RadialModel(
            n_dim=3,
            rho=lambda x: 1.0 + d1 * x + d2 * x ** 2 / 2.0 + d3 * x ** 3 / 6.0,
            rho_d1=lambda x: d1 + d2 * x + d3 * x ** 2 / 2.0,
            rho_d2=lambda x: d2 + d3 * x,
            rho_d3=lambda x: d3,
            name="collider",
        )
        # lambda_minus lands between the two multiple eigenvalues: the dense
        # catalogue is fine, but a nudged profile putting it exactly on
        # 4 rho''(0) must be rejected with a rescaling hint
        from critfield.models import w_eigenvalues
        from scipy.optimize import brentq

        def gap(d2x):
            probe = RadialModel(
                n_dim=3,
                rho=lambda x: 1.0 + d1 * x + d2x * x ** 2 / 2.0 + d3 * x ** 3 / 6.0,
                rho_d1=lambda x: d1 + d2x * x + d3 * x ** 2 / 2.0,
                rho_d2=lambda x: d2x + d3 * x,
                rho_d3=lambda x: d3,
            )
            return w_eigenvalues(probe)[1] - 4.0 * d2x

        d2c = brentq(gap, 0.05, 0.1, xtol=1e-14)
        collider = RadialModel(
            n_dim=3,
            rho=lambda x: 1.0 + d1 * x + d2c * x ** 2 / 2.0 + d3 * x ** 3 / 6.0,
            rho_d1=lambda x: d1 + d2c * x + d3 * x ** 2 / 2.0,
            rho_d2=lambda x: d2c + d3 * x,
            rho_d3=lambda x: d3,
            name="exact-collider",
        )
        with pytest.raises(EigenvalueCollisionError, match="rescal"):
            spectrum_sigma0(collider)
        fixed = rescale(collider, find_rescaling(collider))
        cat = spectrum_sigma0(fixed)
        assert sum(m for _, m in cat.entries) == fixed.cond_dim


class TestLimitEigenvectors:
    def test_nonzero_eigenvector_patterns(self, gauss4):
        # every eigenvector of a nonzero eigenvalue has equal field entries
        # and vanishes on the packed (i, N) positions
        s0, _ = sigma_expansion(gauss4)
        lam, vec = np.linalg.eigh(s0)
        L = gauss4.cond_dim
        n = gauss4.n_dim
        for i in range(L):
            if lam[i] < 1e-9:
                continue
            p = vec[:, i]
            assert abs(p[L - 1] - p[L - 2]) < 1e-9
            for k in range(1, n + 1):
                assert abs(p[tau_index(k, n) - 1]) < 1e-9

    def test_distinguished_eigenvector_shape(self, gauss4):
        # the two simple eigenvalues carry diag-x / field-y vectors, both parts live
        s0, _ = sigma_expansion(gauss4)
        lam, vec = np.linalg.eigh(s0)
        cat = spectrum_sigma0(gauss4)
        n, L = gauss4.n_dim, gauss4.cond_dim
        for target in (cat.lambda_plus, cat.lambda_minus):
            col = vec[:, int(np.argmin(np.abs(lam - target)))]
            diag_vals = [col[tau_index(k, k) - 1] for k in range(1, n)]
            assert np.ptp(diag_vals) < 1e-9
            assert abs(diag_vals[0]) > 1e-6
            assert abs(col[L - 1]) > 1e-6
            offdiag = [
                col[tau_index(i, j) - 1]
                for j in range(2, n)
                for i in range(1, j)
            ]
            assert max(abs(v) for v in offdiag) < 1e-9


@pytest.fixture(scope="module")
def path2(gauss2):
    return eigenpath(gauss2)


@pytest.fixture(scope="module")
def path3(gauss3):
    return eigenpath(gauss3)


@pytest.fixture(scope="module")
def poly2(gauss2):
    return limit_polynomial(gauss2)


@pytest.fixture(scope="module")
def poly3(gauss3):
    return limit_polynomial(gauss3)


@pytest.fixture(scope="module")
def poly4(gauss4):
    return limit_polynomial(gauss4)


class TestEigenpath:
    def test_kernel_second_order_positive(self, path2, path3):
        for ex in (path2, path3):
            kernel = ex.Lambda2[ex.rank0:]
            assert np.all(kernel[:-1] > 0.0)
            assert abs(kernel[-1]) < 1e-8

    def test_lambda1_vanishes(self, path2, path3):
        assert np.abs(path2.Lambda1).max() < 1e-6
        assert np.abs(path3.Lambda1).max() < 1e-6

    def test_last_column_is_field_difference(self, path2, path3):
        for ex in (path2, path3):
            j = np.zeros(ex.L)
            j[-2], j[-1] = 1.0, -1.0
            j /= np.sqrt(2.0)
            col = ex.P0[:, -1]
            assert min(np.abs(col - j).max(), np.abs(col + j).max()) < 1e-6

    def test_kernel_lambda2_equals_quadratic_form(self, gauss3, path3):
        _, s2 = sigma_expansion(gauss3)
        for i in range(path3.rank0, path3.L):
            quad = path3.P0[:, i] @ s2 @ path3.P0[:, i]
            assert path3.Lambda2[i] == pytest.approx(quad, abs=1e-6)

    def test_kernel_lambda2_values_match_reduction(self, gauss2, path2):
        # compressing the quadratic coefficient onto the kernel gives
        # {18a-30b, 2a-6b (x N-1), 0}
        a, b = gauss2.alpha, gauss2.beta
        expected = sorted([18 * a - 30 * b, 2 * a - 6 * b, 0.0], reverse=True)
        got = sorted(path2.Lambda2[path2.rank0:], reverse=True)
        assert got == pytest.approx(expected, abs=1e-5)

    def test_limit_matches_catalogue(self, gauss3, path3):
        cat = spectrum_sigma0(gauss3)
        assert np.abs(path3.Lambda0 - cat.dense()).max() < 1e-6

    def test_determinant_supersmall(self, gauss2):
        # det Sigma(r) vanishes faster than r^{2N+2}.  The smallest eigenvalue
        # scales like r^4, which underflows the assembled matrix's float noise
        # below r ~ 5e-3, so the slope is taken one decade higher.
        dets = {}
        for r in (5e-2, 5e-3):
            _, logdet = np.linalg.slogdet(conditional_covariance(gauss2, r).sigma)
            dets[r] = logdet
        slope = (dets[5e-2] - dets[5e-3]) / np.log(10.0)
        assert slope > 2 * gauss2.n_dim + 2

    def test_contraction_annihilates_rank_columns(self, gauss2, path2):
        # H(u) applied to the rank columns of A(r) decays faster than r
        r = 1e-3
        factor = factor_at(gauss2, r)
        hmat = h_matrix(gauss2.axis_direction())
        for i in range(path2.rank0):
            assert np.linalg.norm(hmat @ factor[:, i]) < r ** 1.5

    def test_alignment_guard_rejects_unmatchable_basis(self):
        # eigenvectors forming a normalized Hadamard frame have overlap
        # 1/sqrt(8) with every reference column (distinct eigenvalues, so no
        # degenerate rescue): they cannot continue the reference blocks
        from scipy.linalg import hadamard

        from critfield.spectral import EigenpathError, _anchored_eigh

        frame = hadamard(8).astype(float) / np.sqrt(8.0)
        sig = frame @ np.diag(np.arange(8.0, 0.0, -1.0)) @ frame.T
        with pytest.raises(EigenpathError, match="min overlap 0.354"):
            _anchored_eigh(sig, np.eye(8), (1,) * 8, 0.01)

    def test_degenerate_block_procrustes_rescues_rotation(self):
        from critfield.spectral import _anchored_eigh

        theta = np.deg2rad(80.0)
        ref = np.eye(3)
        ref[1:, 1:] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        # the eigensolver returns the coordinate basis of the degenerate block
        lam, vec, quality = _anchored_eigh(np.diag([2.0, 1.0, 1.0]), ref, (1, 2), 0.01)
        assert np.array_equal(lam, [2.0, 1.0, 1.0])
        assert quality > 0.999
        assert np.allclose(vec, ref, atol=1e-12)

    @pytest.mark.parametrize("maker, radii", [(gaussian_model, (0.3, 0.5, 1.0)),
                                              (cauchy_model, (0.1, 0.5))],
                             ids=["gaussian", "cauchy"])
    def test_factor_past_eigenvalue_crossing(self, maker, radii, rng):
        # past the first crossing of Sigma(r)'s eigenvalues the eigenvectors
        # still go to their own closed-form blocks: the factor exists, is a
        # square root of Sigma(r), and is the one h_r uses
        model = maker(2)
        ys = rng.normal(size=(50, model.cond_dim))
        for r in radii:
            factor = factor_at(model, r)
            sigma = conditional_covariance(model, r).sigma
            assert np.abs(factor @ factor.T - sigma).max() <= 1e-13 * np.abs(sigma).max()
            direct = np.linalg.det(matriculate_batch(ys @ factor.T, 2)) / r
            assert np.array_equal(h_r(model, r, ys), direct)

    @pytest.mark.parametrize("maker", [gaussian_model, cauchy_model])
    @pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 6, 7, 8])
    def test_closed_form_gauge_has_margin(self, maker, n_dim):
        # the 0.3 Gram-Schmidt cut is a discontinuity of the gauge: every
        # residual keeps clear of it, and every radius of the grid continues
        # the closed-form blocks
        from critfield.spectral import _closed_form_basis

        model = maker(n_dim)
        if n_dim >= 3:
            model = rescale(model, find_rescaling(model))
        basis = _closed_form_basis(model)
        assert basis.margin >= 0.05
        assert eigenpath(model).path_quality >= 0.99
        # along the axis the rank blocks are the catalogue's eigenvalue blocks
        rank_blocks = [m for _, m in spectrum_sigma0(model).entries[:-1]]
        assert list(basis.sizes[:len(rank_blocks)]) == rank_blocks

    def test_higher_dimension_path_with_persistent_degeneracies(self, gauss4):
        # N=4 keeps exactly multiple eigenvalues at every radius; the tracked
        # path must still recover the catalogue and the kernel curvatures
        ex = eigenpath(gauss4)
        cat = spectrum_sigma0(gauss4)
        assert np.abs(ex.Lambda0 - cat.dense()).max() < 1e-6
        kernel = ex.Lambda2[ex.rank0:]
        a, b = gauss4.alpha, gauss4.beta
        expected = sorted(
            [18 * a - 30 * b] + [2 * a - 6 * b] * (gauss4.n_dim - 1) + [0.0],
            reverse=True,
        )
        assert sorted(kernel, reverse=True) == pytest.approx(expected, abs=1e-5)
        poly = limit_polynomial(gauss4)
        rng = np.random.default_rng(3)
        ys = rng.standard_normal((2000, ex.L))
        assert np.abs(poly.evaluate(ys) + poly.evaluate(poly.flip(ys))).max() == 0.0


class TestHMatrix:
    def test_printed_layout_n3(self):
        u = np.array([0.3, -0.5, np.sqrt(1 - 0.34)])
        mat = h_matrix(u)
        u1, u2, u3 = u
        expected = np.array([
            [u1, u2, 0, u3, 0, 0, 0, 0],
            [0, u1, u2, 0, u3, 0, 0, 0],
            [0, 0, 0, u1, u2, u3, 0, 0],
        ])
        assert np.allclose(mat, expected)

    def test_contracts_identity_to_direction(self, rng):
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        hmat = h_matrix(u)
        a = vectorize_sym(np.eye(4))
        assert np.allclose(hmat @ np.pad(a, (0, hmat.shape[1] - a.size)), u)

    def test_matriculation_identity(self, rng):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        a = rng.normal(size=10)
        hmat = h_matrix(u)
        assert np.allclose(hmat @ a[:hmat.shape[1]], matriculate(a, 3) @ u)

    def test_annihilates_limit_covariance(self, gauss3):
        s0, _ = sigma_expansion(gauss3)
        assert np.abs(s0 @ h_matrix(gauss3.axis_direction()).T).max() < 1e-12

    def test_entries_match_definition(self, rng):
        # enumerate the entry rule for N=4 and a generic direction
        n = 4
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        mat = h_matrix(u)
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                for i in range(1, j + 1):
                    expected = (j == k) * u[i - 1] + (1 - (j == k)) * (i == k) * u[j - 1]
                    assert mat[k - 1, tau_index(i, j) - 1] == pytest.approx(expected)
            assert mat[k - 1, -1] == 0.0
            assert mat[k - 1, -2] == 0.0

    def test_axis_row_pattern(self):
        # along the axis direction, row N carries the direction values on the
        # (i, N) slots; with u = e_N that leaves a single unit at tau(N, N)
        n = 4
        u0 = np.zeros(n)
        u0[-1] = 1.0
        row = h_matrix(u0)[n - 1]
        for i in range(1, n + 1):
            assert row[tau_index(i, n) - 1] == pytest.approx(u0[i - 1])
        assert set(np.nonzero(row)[0].tolist()) == {tau_index(n, n) - 1}


class TestRowDeterminants:
    def test_two_kernel_coordinates_vanish_faster(self, gauss2):
        assert scaling_class(gauss2, (3, 4)) == "o(r)"
        assert scaling_class(gauss2, (4, 5)) == "o(r)"

    def test_pure_rank_coordinates_vanish_faster(self, gauss2):
        assert scaling_class(gauss2, (1, 2)) == "o(r)"
        assert scaling_class(gauss2, (1, 1)) == "o(r)"

    def test_max_over_distinguished_monomials_is_linear(self, gauss2, path2):
        rank, L = path2.rank0, path2.L
        candidates = [
            v
            for v in itertools.product(range(1, L + 1), repeat=2)
            if sum(1 for c in v if c > rank) == 1 and max(v) < L
        ]
        radii = (1e-2, 1e-3, 1e-4)
        maxima = []
        for r in radii:
            factor = factor_at(gauss2, r)
            maxima.append(max(abs(perm_symmetrized_bv(factor, v)) for v in candidates))
        slopes = np.diff(np.log(maxima)) / np.diff(np.log(radii))
        assert np.all(np.abs(slopes - 1.0) < 0.1)

    def test_bv_row_layout(self, rng):
        # rows of the rearranged matrix are rows of matriculated columns
        factor = rng.normal(size=(8, 8))
        v = (2, 5, 7)
        got = bv_determinant(factor, v)
        rows = np.stack(
            [matriculate(factor[:, c - 1], 3)[i] for i, c in enumerate(v)]
        )
        assert got == pytest.approx(np.linalg.det(rows), rel=1e-12)

    def test_perm_symmetrized_is_sum_over_permutations(self, rng):
        factor = rng.normal(size=(12, 12))
        v = (2, 5, 5, 11)
        direct = sum(bv_determinant(factor, p) for p in itertools.permutations(v))
        assert perm_symmetrized_bv(factor, v) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("bad", [0, 9])
    def test_columns_outside_1_to_L_rejected(self, rng, bad):
        factor = rng.normal(size=(8, 8))
        for fn in (bv_determinant, perm_symmetrized_bv):
            with pytest.raises(ValueError, match="1..8"):
                fn(factor, (2, bad, 7))


def _adjugate(mats):
    """Adjugate of a batch (..., N, N) of matrices from its cofactors."""
    n = mats.shape[-1]
    adj = np.empty_like(mats)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(mats, i, axis=-2), j, axis=-1)
            adj[..., j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return adj


def _polarization_coefficients(poly, tol=1e-12):
    """Limit-polynomial coefficients by polarization, an independent oracle.

    For kernel matrix M_k and rank multiset m, q(w) = tr(adj(Matri(A0 w)) M_k)
    is homogeneous of degree N-1 in the rank coordinates w, and the
    coefficient of prod_j w_{m_j} is the signed sum of q over the nonempty
    sub-multisets of m, divided by the product of the multiplicities'
    factorials.
    """
    n, rank = poly.n_dim, poly.rank0
    multisets = list(itertools.combinations_with_replacement(range(rank), n - 1))
    subsets = [s for size in range(1, n) for s in itertools.combinations(range(n - 1), size)]
    w = np.zeros((len(multisets), len(subsets), rank))
    for a, m in enumerate(multisets):
        for b, sub in enumerate(subsets):
            for j in sub:
                w[a, b, m[j]] += 1.0
    sign = np.array([(-1.0) ** (n - 1 - len(sub)) for sub in subsets])
    mult = np.array([math.prod(math.factorial(c) for c in np.bincount(m)) for m in multisets])
    adj = _adjugate(matriculate_batch(w @ poly.a0[:, :rank].T, n))
    coeffs = {}
    for k, mat in enumerate(poly.null_matrices):
        vals = np.einsum("abji,ij->ab", adj, mat) @ sign / mult
        for m, c in zip(multisets, vals):
            coeffs[tuple(i + 1 for i in m) + (rank + k + 1,)] = c
    cut = tol * max(max(abs(c) for c in coeffs.values()), 1.0)
    return {key: c for key, c in coeffs.items() if abs(c) > cut}


class TestLimitPolynomial:
    def test_antisymmetry_exact(self, poly2, poly3, rng):
        for poly in (poly2, poly3):
            ys = rng.normal(size=(2000, poly.L))
            vals = poly.evaluate(ys)
            flipped = poly.evaluate(poly.flip(ys))
            assert np.abs(vals + flipped).max() == 0.0

    def test_homogeneous_degree_n(self, poly2, poly3, rng):
        for poly, deg in ((poly2, 2), (poly3, 3)):
            ys = rng.normal(size=(200, poly.L))
            assert np.allclose(
                poly.evaluate(1.7 * ys), 1.7 ** deg * poly.evaluate(ys), rtol=1e-12
            )

    def test_coefficients_reproduce_evaluator(self, poly3, poly4, rng):
        for poly in (poly3, poly4):
            coeffs = poly.coefficients()
            assert coeffs  # nonempty
            for key in coeffs:
                kernel_hits = sum(1 for i in key if i > poly.rank0)
                assert kernel_hits == 1
                assert max(key) < poly.L  # the vanishing-curvature column is absent
            ys = rng.normal(size=(50, poly.L))
            direct = poly.evaluate(ys)
            from_coeffs = np.zeros(50)
            for key, c in coeffs.items():
                term = np.full(50, c)
                for i in key:
                    term = term * ys[:, i - 1]
                from_coeffs += term
            assert np.abs(direct - from_coeffs).max() < 1e-10 * max(
                1.0, np.abs(direct).max()
            )

    @pytest.mark.parametrize("model", [gaussian_model(3), cauchy_model(3), gaussian_model(4)],
                             ids=["gaussian3", "cauchy3", "gaussian4"])
    def test_coefficients_match_polarization_oracle(self, model):
        poly = limit_polynomial(model)
        got = poly.coefficients()
        expected = _polarization_coefficients(poly)
        assert set(got) == set(expected)
        scale = max(abs(c) for c in expected.values())
        assert max(abs(got[k] - expected[k]) for k in got) <= 1e-12 * scale

    def test_h_r_converges_to_limit(self, gauss2, rng):
        poly = limit_polynomial(gauss2)
        ys = rng.normal(size=(300, 5))
        ys /= np.linalg.norm(ys, axis=1, keepdims=True)
        near = h_r(gauss2, 1e-3, ys)
        limit = poly.evaluate(ys)
        rel = np.abs(near - limit) / np.maximum(1.0, np.abs(limit))
        assert rel.max() < 1e-2

    @pytest.mark.parametrize("maker, param", [(gaussian_model, "a"), (cauchy_model, "ell")],
                             ids=["gaussian", "cauchy"])
    @pytest.mark.parametrize("n_dim", [2, 3, 4, 5])
    def test_coefficients_basis_free(self, maker, param, n_dim):
        # a one-ulp change of the model leaves the closed-form gauge, and so
        # every coefficient, in place
        got = limit_polynomial(maker(n_dim)).coefficients()
        nudged = limit_polynomial(maker(n_dim, **{param: 1.0 + 2.0 ** -52})).coefficients()
        scale = max(abs(c) for c in got.values())
        assert max(abs(got.get(k, 0.0) - nudged.get(k, 0.0))
                   for k in set(got) | set(nudged)) <= 1e-8 * scale

    @pytest.mark.parametrize("maker", [gaussian_model, cauchy_model])
    @pytest.mark.parametrize("n_dim", [2, 3, 4])
    def test_second_moment_matches_fitted_eigenpath(self, maker, n_dim):
        # E h^2 under standard Gaussian y does not see the gauge, so the
        # closed form must agree with the polynomial assembled from the
        # fitted P0, Lambda0 and Lambda2 of the eigenpath
        model = maker(n_dim)
        ex = eigenpath(model)
        rank = ex.rank0
        kernel = ex.P0[:, rank:] * np.sqrt(np.clip(ex.Lambda2[rank:], 0.0, None))
        fitted = LimitPolynomial(n_dim=n_dim, L=ex.L, rank0=rank,
                                 a0=ex.P0 * np.sqrt(np.clip(ex.Lambda0, 0.0, None)),
                                 null_matrices=matriculate_batch(kernel.T, n_dim))
        exact = _second_moment(limit_polynomial(model).coefficients())
        assert _second_moment(fitted.coefficients()) == pytest.approx(exact, rel=1e-5)


def _second_moment(coeffs):
    """E h^2 for y standard Gaussian, exactly from the monomial coefficients:
    E prod y_i^k_i is the product of (k_i - 1)!! over even k_i, else 0."""
    total = 0.0
    for a, b in itertools.product(coeffs.items(), repeat=2):
        powers = np.bincount(a[0] + b[0])
        if not np.any(powers % 2):
            total += a[1] * b[1] * math.prod(math.prod(range(k - 1, 0, -2)) for k in powers)
    return total
