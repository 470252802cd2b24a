import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from critfield.cli import main
from critfield.covariance import (conditional_covariance, conditional_covariance_oracle,
                                  sigma_expansion)
from critfield.models import (RadialModel, cauchy_model, find_rescaling,
                              gaussian_model, model_from_spec, rescale)
from critfield.spectral import (EigenpathError, EigenvalueCollisionError,
                                LimitPolynomial, _basis_eigh, _symmetry_basis,
                                _SymmetryBasis, eigenpath, factor_at, h_matrix,
                                h_r, limit_polynomial, spectrum_sigma0)
from critfield.symmetric import matriculate, tau_index, vech_len, vectorize_sym


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

    def test_lambda1_vanishes(self, gauss2, gauss3, fitted_eigenpath):
        # measured by the odd-inclusive fit, since the closed form has no Lambda1
        assert np.abs(fitted_eigenpath(gauss2).Lambda1).max() < 1e-6
        assert np.abs(fitted_eigenpath(gauss3).Lambda1).max() < 1e-6

    def test_last_column_is_field_difference(self, path2, path3):
        for ex in (path2, path3):
            j = np.zeros(ex.L)
            j[-2], j[-1] = 1.0, -1.0
            j /= np.sqrt(2.0)
            col = ex.P0[:, -1]
            assert min(np.abs(col - j).max(), np.abs(col + j).max()) < 1e-6

    @pytest.mark.parametrize("maker", [gaussian_model, cauchy_model])
    @pytest.mark.parametrize("n_dim", [2, 3, 4, 5])
    def test_closed_form_meets_finite_r(self, maker, n_dim):
        # the eigenvalues of Sigma(r) are Lambda0 + Lambda2 r^2 + O(r^4), so
        # [lambda(r) - Lambda0] / r^2 - Lambda2 is small at r = 1e-3 and
        # falls like r^2 (a ratio of 1/4) from r = 2e-3
        model = maker(n_dim)
        ex = eigenpath(model)
        basis = _symmetry_basis(model)

        def error(r):
            lam = _basis_eigh(basis, conditional_covariance(model, r).sigma, r)[0]
            return np.abs((lam - ex.Lambda0) / r ** 2 - ex.Lambda2).max()

        assert error(1e-3) <= 1e-5 * np.abs(ex.Lambda2).max()
        assert error(1e-3) <= 0.3 * error(2e-3)

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
        # eigenvectors rotated by 40, 45 and 40 degrees in the planes of
        # columns (1, 2), (2, 3) and (3, 4): the weight rule places three of
        # them well, and the last is left on a column it overlaps by 0.415
        frame = _givens(0, 1, 40.0) @ _givens(1, 2, 45.0) @ _givens(2, 3, 40.0)
        block = frame @ np.diag([4.0, 3.0, 2.0, 1.0]) @ frame.T
        with pytest.raises(EigenpathError, match="min overlap 0.415"):
            _basis_eigh(_BLOCK_BASIS, block, 0.01)

    def test_weight_rule_restores_column_order_and_sign(self):
        # eigh returns the eigenvectors in ascending eigenvalue order with
        # arbitrary signs; each goes back to the column it continues, with a
        # positive overlap there
        frame = _givens(0, 1, 20.0) @ _givens(2, 3, -30.0)
        block = frame @ np.diag([1.0, 4.0, 2.0, 3.0]) @ frame.T
        lam, vec, quality = _basis_eigh(_BLOCK_BASIS, block, 0.01)
        assert lam == pytest.approx([1.0, 4.0, 2.0, 3.0], abs=1e-14)
        assert np.abs(vec - frame).max() < 1e-14
        assert quality == pytest.approx(np.cos(np.deg2rad(30.0)), abs=1e-14)

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
            direct = np.linalg.det(matriculate(ys @ factor.T, 2)) / r
            assert np.array_equal(h_r(model, r, ys), direct)

    @pytest.mark.parametrize("maker", [gaussian_model, cauchy_model])
    @pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 6, 7, 8])
    def test_closed_form_gauge_has_margin(self, maker, n_dim):
        # the signed permutations of the first N-1 axes commute with
        # Sigma(r e_N), so out to r = 1 every basis column off the trivial
        # block is an eigenvector, the trivial span is invariant, and
        # factor_at is a square root of Sigma(r)
        model = maker(n_dim)
        if n_dim >= 3:
            model = rescale(model, find_rescaling(model))
        basis = _symmetry_basis(model)
        vectors = basis.vectors
        assert np.abs(vectors.T @ vectors - np.eye(model.cond_dim)).max() < 1e-14
        trivial = vectors[:, basis.trivial]
        others = np.delete(vectors, basis.trivial, axis=1)
        for r in np.geomspace(1e-3, 1.0, 10):
            sigma = conditional_covariance(model, r).sigma
            scale = np.abs(sigma).max()
            image = sigma @ others
            rayleigh = np.einsum("ij,ij->j", others, image)
            assert np.abs(image - others * rayleigh).max() <= 1e-14 * scale
            image = sigma @ trivial
            assert np.abs(image - trivial @ (trivial.T @ image)).max() <= 1e-14 * scale
            factor = factor_at(model, r)
            assert np.abs(factor @ factor.T - sigma).max() <= 1e-13 * scale
        # every radius of the grid continues the basis well clear of the 0.5
        # overlap guard, and the rank columns carry the catalogue in order
        assert eigenpath(model).path_quality >= 0.99
        cat = spectrum_sigma0(model)
        rank = model.cond_dim - n_dim - 1
        assert np.abs(basis.leading[:rank] - cat.dense()[:rank]).max() <= 1e-12 * cat.lambda_plus

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
        assert not _theta_r(_row_mixed_sums(gauss2, [(3, 4), (4, 5)])).any()

    def test_pure_rank_coordinates_vanish_faster(self, gauss2):
        assert not _theta_r(_row_mixed_sums(gauss2, [(1, 2), (1, 1)])).any()

    def test_max_over_distinguished_monomials_is_linear(self, gauss2, path2):
        rank, L = path2.rank0, path2.L
        candidates = [
            v
            for v in itertools.product(range(1, L + 1), repeat=2)
            if sum(1 for c in v if c > rank) == 1 and max(v) < L
        ]
        maxima = np.abs(_row_mixed_sums(gauss2, candidates)).max(0)
        slopes = np.diff(np.log(maxima)) / np.diff(np.log(_RADII))
        assert np.all(np.abs(slopes - 1.0) < 0.1)

    def test_bv_row_layout(self, rng):
        # rows of the rearranged matrix are rows of matriculated columns
        factor = rng.normal(size=(8, 8))
        v = (2, 5, 7)
        got = _mixed_dets(matriculate(factor.T, 3), np.array(v) - 1)
        rows = np.stack(
            [matriculate(factor[:, c - 1], 3)[i] for i, c in enumerate(v)]
        )
        assert got == pytest.approx(np.linalg.det(rows), rel=1e-12)

    @pytest.mark.parametrize("maker", [gaussian_model, cauchy_model])
    @pytest.mark.parametrize("n_dim", [2, 3])
    def test_support_is_the_theta_r_class(self, maker, n_dim):
        # the paper's classification: a sorted column tuple is Theta(r) at
        # finite r exactly when it is a monomial of the limit polynomial
        model = maker(n_dim)
        tuples = list(itertools.combinations_with_replacement(range(1, model.cond_dim + 1),
                                                              n_dim))
        theta = _theta_r(_row_mixed_sums(model, tuples))
        support = set(limit_polynomial(model).coefficients())
        assert {v for v, t in zip(tuples, theta) if t} == support


_RADII = (1e-2, 1e-3, 1e-4)  # radii of the finite-r scaling oracle


def _mixed_dets(mats, cols):
    """det of the N x N matrices whose row i is row i of ``mats[cols[..., i]]``:
    the per-ordering rule, for a (K, N, N) stack and stack indices ``cols``
    with a trailing axis of length N."""
    return np.linalg.det(mats[cols, np.arange(mats.shape[-1])])


def _row_mixed_sums(model, tuples):
    """Sum over the orderings of each 1-based column tuple v of the
    determinant whose row i is row i of Matri(column v_i of factor_at(model, r)),
    at each radius of ``_RADII``: shape (len(tuples), len(_RADII))."""
    n = model.n_dim
    cols = np.asarray(tuples)[:, list(itertools.permutations(range(n)))] - 1
    return np.stack([
        _mixed_dets(matriculate(factor_at(model, r).T, n), cols).sum(1) for r in _RADII
    ], axis=1)


def _theta_r(sums):
    """Rows of ``_row_mixed_sums`` that scale like r: not below 1e-11 at every
    radius, with a mean log-log slope under 1.5 (an o(r) row has slope >= 2)."""
    slopes = np.diff(np.log(np.maximum(np.abs(sums), 1e-300)), axis=1) / np.diff(np.log(_RADII))
    return (np.abs(sums).max(1) >= 1e-11) & (slopes.mean(1) < 1.5)


# a basis that is all trivial block, so _basis_eigh sees a bare 4 x 4 block
_BLOCK_BASIS = _SymmetryBasis(np.eye(4), None, np.arange(4))


def _givens(i, j, degrees):
    """4 x 4 rotation by ``degrees`` in the plane of coordinates i and j."""
    c, s = np.cos(np.deg2rad(degrees)), np.sin(np.deg2rad(degrees))
    out = np.eye(4)
    out[[i, j, i, j], [i, j, j, i]] = c, c, -s, s
    return out


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
    adj = _adjugate(np.tensordot(w, poly.mats[:rank], axes=1))
    coeffs = {}
    for k, mat in enumerate(poly.mats[rank:]):
        vals = np.einsum("abji,ij->ab", adj, mat) @ sign / mult
        for m, c in zip(multisets, vals):
            coeffs[tuple(i + 1 for i in m) + (rank + k + 1,)] = c
    cut = tol * max(max(abs(c) for c in coeffs.values()), 1.0)
    return {key: c for key, c in coeffs.items() if abs(c) > cut}


def _row_mixed_values(poly, ys):
    """tr(adj(M0) M1) as the sum over i of det(M0 with row i taken from M1):
    the row-mixed rule, an independent route to LimitPolynomial.evaluate."""
    m0, m1 = (np.tensordot(ys[:, part], poly.mats[part], axes=1)
              for part in (slice(poly.rank0), slice(poly.rank0, None)))
    eye = np.eye(poly.n_dim, dtype=bool)
    return np.linalg.det(np.where(eye[:, :, None], m1[:, None], m0[:, None])).sum(1)


class TestLimitPolynomial:
    @pytest.mark.parametrize("maker", [gaussian_model, cauchy_model], ids=["gaussian", "cauchy"])
    @pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 6])
    def test_evaluate_matches_row_mixed_rule(self, maker, n_dim, rng):
        poly = limit_polynomial(maker(n_dim))
        ys = rng.normal(size=(2000, poly.L))
        vals = poly.evaluate(ys)
        ref = _row_mixed_values(poly, ys)
        scale = np.abs(ref).max()
        assert np.abs(vals - ref).max() <= 1e-13 * scale
        assert np.abs(vals + poly.evaluate(poly.flip(ys))).max() == 0.0
        assert poly.evaluate(ys[7]) == pytest.approx(vals[7], abs=1e-13 * scale)

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
                assert key[-1] == poly.rank0 + 1  # the one kernel column with an H_NN entry
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

    @pytest.mark.parametrize("model", [gaussian_model(3), cauchy_model(3), gaussian_model(4),
                                       cauchy_model(4), gaussian_model(5), cauchy_model(5)],
                             ids=["gaussian3", "cauchy3", "gaussian4", "cauchy4", "gaussian5",
                                  "cauchy5"])
    def test_coefficients_match_polarization_oracle(self, model):
        poly = limit_polynomial(model)
        got = poly.coefficients()
        expected = _polarization_coefficients(poly)
        assert set(got) == set(expected)
        scale = max(abs(c) for c in expected.values())
        assert max(abs(got[k] - expected[k]) for k in got) <= 1e-12 * scale

    @pytest.mark.parametrize("maker", [gaussian_model, cauchy_model], ids=["gaussian", "cauchy"])
    @pytest.mark.parametrize("n_dim", [2, 3, 4])
    def test_h_r_converges_to_limit(self, maker, n_dim, rng):
        # h_r tends to the limit to first order in r: gaussian is within 1e-2
        # at r = 1e-3, and for both families a decade of r takes a decade off
        # the error (cauchy's first-order term is up to 0.4 at r = 1e-3)
        model = maker(n_dim)
        poly = limit_polynomial(model)
        ys = rng.normal(size=(300, poly.L))
        ys /= np.linalg.norm(ys, axis=1, keepdims=True)
        limit = poly.evaluate(ys)
        err = [(np.abs(h_r(model, r, ys) - limit) / np.maximum(1.0, np.abs(limit))).max()
               for r in (1e-3, 1e-4)]
        if maker is gaussian_model:
            assert err[0] < 1e-2
        assert err[1] <= 0.15 * err[0]

    @pytest.mark.parametrize("maker", [gaussian_model, cauchy_model], ids=["gaussian", "cauchy"])
    @pytest.mark.parametrize("n_dim, count", [(2, 2), (3, 5), (4, 22), (5, 124)])
    def test_coefficient_count_at_small_scale(self, maker, n_dim, count):
        # the count is the same at every argument scale, small and large.  A
        # small scale shrinks every coefficient, and the cut is relative, so
        # it drops none.  A large one parts the rank columns' scales
        # (gaussian(2) at 1e6: 3.3e6 and 1.8e-7), and the cut runs on minors
        # taken at unit largest entry, so it drops none there either.  The
        # rank columns reorder with the scale, so the keys move; the count
        # does not
        for scale in (1.0, 1e-3, 1e-6, 1e3, 1e6):
            assert len(limit_polynomial(rescale(maker(n_dim), scale)).coefficients()) == count

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    @pytest.mark.parametrize("n_dim", [2, 3, 4, 5])
    def test_coefficients_match_pinned(self, family, n_dim):
        # the coefficients as the N-slot mixed discriminants over every
        # kernel column computed them, before the factorization
        with open(Path(__file__).with_name("limit_coefficients.json")) as fh:
            pinned = json.load(fh)[family][str(n_dim)]
        poly = limit_polynomial(model_from_spec(family, n_dim))
        got = {"+".join(map(str, key)): c for key, c in poly.coefficients().items()}
        assert list(got) == list(pinned)
        scale = max(abs(c) for c in pinned.values())
        assert max(abs(got[k] - pinned[k]) for k in got) <= 1e-13 * scale

    def test_broken_premise_raises(self, monkeypatch, tmp_path):
        # a rank column tilted by 1e-3 rad toward an H_iN kernel column gives
        # its matrix an N-th row, so the polynomial no longer factors
        def tilted(model):
            basis = _symmetry_basis(model)
            vectors = basis.vectors.copy()
            j = int(np.abs(vectors[tau_index(1, model.n_dim) - 1]).argmax())  # the H_1N column
            t = 1e-3
            vectors[:, [0, j]] = (vectors[:, [0, j]]
                                  @ [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            return basis._replace(vectors=vectors)

        monkeypatch.setattr("critfield.spectral._symmetry_basis", tilted)
        with pytest.raises(EigenpathError, match="does not factor"):
            limit_polynomial(gaussian_model(3))
        assert main(["hpoly", "--N", "3", "--out", str(tmp_path)]) == 3

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
    def test_second_moment_matches_fitted_eigenpath(self, maker, n_dim, fitted_eigenpath):
        # E h^2 under standard Gaussian y does not see the gauge, so the
        # closed form must agree with the polynomial assembled from the
        # fitted P0, Lambda0 and Lambda2 of the eigenpath
        model = maker(n_dim)
        ex = fitted_eigenpath(model)
        rank = ex.rank0
        leading = np.concatenate([ex.Lambda0[:rank], ex.Lambda2[rank:]])
        fitted = LimitPolynomial(rank0=rank, mats=matriculate(
            (ex.P0 * np.sqrt(np.clip(leading, 0.0, None))).T, n_dim))
        exact = _second_moment(limit_polynomial(model).coefficients())
        assert _second_moment(fitted.coefficients()) == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("n_dim, count, moment", [(2, 2, 128.0), (3, 5, 1856.0),
                                                   (4, 22, 102400.0 / 3.0)])
def test_hpoly_artifact_shape(n_dim, count, moment, tmp_path):
    # what the cli benchmark checks on hpoly.json, and E h^2, which no
    # orthogonal change of the basis moves
    assert main(["hpoly", "--N", str(n_dim), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "hpoly.json") as fh:
        coeffs = json.load(fh)["coefficients"]
    rank = vech_len(n_dim) + 1 - n_dim
    keys = [tuple(map(int, key.split("+"))) for key in coeffs]
    assert len(keys) == count
    assert all(sum(i > rank for i in key) == 1 for key in keys)
    assert all(key[-1] == rank + 1 for key in keys)
    assert _second_moment(dict(zip(keys, coeffs.values()))) == pytest.approx(moment, rel=1e-12)


def _second_moment(coeffs):
    """E h^2 for y standard Gaussian, exactly from the monomial coefficients:
    E prod y_i^k_i is the product of (k_i - 1)!! over even k_i, else 0."""
    total = 0.0
    for a, b in itertools.product(coeffs.items(), repeat=2):
        powers = np.bincount(a[0] + b[0])
        if not np.any(powers % 2):
            total += a[1] * b[1] * math.prod(math.prod(range(k - 1, 0, -2)) for k in powers)
    return total


@pytest.mark.parametrize("family", ["gaussian", "cauchy"])
@pytest.mark.parametrize("n_dim", [2, 3, 4])
def test_spectral_rows_match_pinned(family, n_dim):
    # D13's rows as written by tests/regenerate_pinned.py, each within 1e-12 of
    # its largest entry: the catalogue, and at N <= 3 the oracle's Sigma(r)
    # and error estimate (a row of its own) and h_r on the pinned probes,
    # which reads the factor of Sigma(r) that the sampler maps through
    with open(Path(__file__).with_name("spectral_rows.json")) as fh:
        pinned = json.load(fh)[family][str(n_dim)]
    model = model_from_spec(family, n_dim)

    def close(got, want, key):
        want = np.array(want)
        assert np.shape(got) == want.shape, key
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), key

    close(np.array(spectrum_sigma0(model).entries), pinned["catalogue"], "catalogue")
    if n_dim > 3:
        assert pinned.keys() == {"catalogue"}
        return
    assert len(pinned["oracle"]) == len(pinned["h_r"]) == 2 and len(pinned["probes"]) == 8
    for r, want in pinned["oracle"].items():
        got = conditional_covariance_oracle(model, float(r))
        close(got.sigma, want["sigma"], ("sigma", r))
        close(got.error_estimate, want["error_estimate"], ("error_estimate", r))
    for r, want in pinned["h_r"].items():
        close(h_r(model, float(r), np.array(pinned["probes"])), want, ("h_r", r))
