import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critfield import symmetric
from critfield.symmetric import (matriculate, packed_inertia, tau_index, vech_indices,
                                 vech_len, vectorize_sym)


def test_tau_index_corner_cases():
    assert tau_index(1, 1) == 1
    assert tau_index(2, 3) == 5  # packed layout used by the 3x3 example matrices


def test_tau_index_symmetric_under_swap_all_pairs_n5():
    # brute-force enumeration of all 15 ordered pairs for N=5
    seen = {}
    for j in range(1, 6):
        for i in range(1, j + 1):
            pos = tau_index(i, j)
            assert pos == tau_index(min(i, j), max(i, j))
            seen[pos] = (i, j)
    assert sorted(seen) == list(range(1, 16))


def test_tau_index_rejects_bad_order():
    with pytest.raises(ValueError):
        tau_index(3, 2)
    with pytest.raises(ValueError):
        tau_index(0, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_vech_indices_follow_tau_index(n):
    rows, cols = vech_indices(n)
    assert rows.shape == cols.shape == (vech_len(n),)
    assert (rows <= cols).all()
    assert [tau_index(i + 1, j + 1) for i, j in zip(rows.tolist(), cols.tolist())] == list(
        range(1, vech_len(n) + 1))
    # the pair is cached per n, so no caller may write into it
    assert not rows.flags.writeable and not cols.flags.writeable


def test_matriculate_two_by_two():
    mat = matriculate([1.5, -2.0, 7.0], 2)
    assert np.array_equal(mat, [[1.5, -2.0], [-2.0, 7.0]])


def test_matriculate_zero_vector():
    assert not matriculate(np.zeros(10), 3).any()


def test_matriculate_ignores_extra_coordinates():
    a = np.arange(1.0, 9.0)
    assert np.array_equal(matriculate(a, 2), matriculate(a[:3], 2))


def test_matriculate_too_short_raises():
    with pytest.raises(ValueError):
        matriculate(np.zeros(9), 4)


def test_round_trip_n4(rng):
    a = rng.normal(size=12)
    assert np.allclose(vectorize_sym(matriculate(a, 4)), a[:10])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_matriculate_vectorize_inverse(n, seed):
    local = np.random.default_rng(seed)
    mat = local.normal(size=(n, n))
    mat = mat + mat.T
    rebuilt = matriculate(vectorize_sym(mat), n)
    assert np.array_equal(rebuilt, rebuilt.T)
    assert np.allclose(rebuilt, mat)


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["one", "5", "2x3"])
@pytest.mark.parametrize("n", range(1, 7))
def test_stack_packing_matches_single(n, lead, rng):
    # both maps act on the last axes of a stack, matrix by matrix; each
    # matrix is checked against the packed layout of tau_index
    a = rng.normal(size=lead + (vech_len(n) + 2,))  # two extra coordinates, ignored
    mats = matriculate(a, n)
    assert mats.shape == lead + (n, n)
    packed = vectorize_sym(mats)
    assert packed.shape == lead + (vech_len(n),)
    for at in np.ndindex(lead):
        want = [[a[at][tau_index(min(i, j), max(i, j)) - 1] for j in range(1, n + 1)]
                for i in range(1, n + 1)]
        assert np.array_equal(mats[at], want)
        assert np.array_equal(mats[at], matriculate(a[at], n))
        assert np.array_equal(packed[at], vectorize_sym(mats[at]))
        assert np.array_equal(packed[at], a[at][:vech_len(n)])


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 3, 2), (2, 1, 4)])
def test_vectorize_sym_rejects_non_square(shape):
    with pytest.raises(ValueError):
        vectorize_sym(np.zeros(shape))


@pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 6])
def test_packed_det_matches_lapack(n_dim, rng):
    packed = rng.normal(size=(4096, vech_len(n_dim)))
    packed[:8, 0] = 0.0  # a zero first pivot: past N=2 these rows go to LAPACK
    ref = np.linalg.det(matriculate(packed, n_dim))
    got = packed_inertia(packed, n_dim)[0]
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    if n_dim > 2:
        assert np.array_equal(got[:8], ref[:8])


def _pack(hessians):
    rows, cols = vech_indices(hessians.shape[-1])
    return hessians[:, rows, cols]


def _symmetric_batch(rng, count, n_dim):
    g = rng.standard_normal((count, n_dim, n_dim))
    return _pack(0.5 * (g + g.transpose(0, 2, 1)))


def _index(mat):
    """(index, degenerate) of one symmetric matrix by the packed kernel."""
    _, (idx,), (degen,) = packed_inertia(_pack(np.asarray(mat, dtype=float)[None]), len(mat))
    return int(idx), bool(degen)


class TestHessianIndex:
    def test_negative_identity_is_maximum(self):
        idx, degen = _index(-np.eye(4))
        assert idx == 4 and not degen

    def test_saddle(self):
        idx, degen = _index(np.diag([1.0, -1.0]))
        assert idx == 1 and not degen

    def test_degenerate_flagged(self):
        idx, degen = _index(np.diag([1.0, 0.0, -2.0]))
        assert degen and idx == 1

    def test_matches_characteristic_root_oracle(self, rng):
        # companion-matrix roots of the characteristic polynomial as an
        # independent counter of negative eigenvalues
        for _ in range(20):
            n = int(rng.integers(2, 6))
            g = rng.normal(size=(n, n))
            mat = (g + g.T) / math.sqrt(2.0 * n)
            roots = np.roots(np.poly(mat))
            brute = int((roots.real < 0).sum())
            idx, degen = _index(mat)
            assert not degen
            assert idx == brute


def _assert_same_inertia(oracle, packed, n_dim):
    det, idx, degen = packed_inertia(packed, n_dim)
    ref_det, ref_idx, ref_degen = oracle(packed, n_dim)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(degen, ref_degen)
    np.testing.assert_allclose(det, ref_det, rtol=1e-10, atol=0.0)


class TestInertiaKernel:
    @staticmethod
    def _assert_matches_eigvalsh(oracle, packed, n_dim):
        # the det bar scales with ||H||_F^N: a near-singular row's det is small
        # against its rounding error, on either route, so a relative bar
        # passes or fails with the seed
        det, idx, degen = packed_inertia(packed, n_dim)
        ref_det, ref_idx, ref_degen = oracle(packed, n_dim)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(degen, ref_degen)
        norm = np.linalg.norm(matriculate(packed, n_dim), axis=(1, 2))
        assert (np.abs(det - ref_det) <= 1e-12 * norm ** n_dim).all()

    @pytest.mark.parametrize("n_dim", [2, 3, 4])
    def test_matches_eigvalsh_on_random_batches(self, rng, eigvalsh_inertia, n_dim):
        self._assert_matches_eigvalsh(eigvalsh_inertia, _symmetric_batch(rng, 1 << 17, n_dim),
                                      n_dim)

    @pytest.mark.parametrize("n_dim", [5, 6, 8])
    def test_matches_eigvalsh_above_four_dimensions(self, rng, eigvalsh_inertia, n_dim):
        # fewer rows than at N <= 4, as the oracle's eigvalsh takes most of the time
        self._assert_matches_eigvalsh(eigvalsh_inertia, _symmetric_batch(rng, 1 << 15, n_dim),
                                      n_dim)

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_zero_pivots_and_singular(self, rng, eigvalsh_inertia, scale):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        cases = [
            swap,
            np.block([[swap, np.zeros((2, 1))], [np.zeros((1, 2)), -np.eye(1)]]),
            np.block([[swap, np.zeros((2, 2))], [np.zeros((2, 2)), np.diag([2.0, -3.0])]]),
            np.diag([1.0, 0.0, -2.0]),
            np.ones((2, 2)),
        ]
        with np.errstate(over="ignore"):  # det overflows at 1e150, on both routes
            for mat in cases:
                _assert_same_inertia(eigvalsh_inertia, _pack(scale * mat[None]), len(mat))
            for n_dim in (2, 3, 4):
                _assert_same_inertia(eigvalsh_inertia,
                                     scale * _symmetric_batch(rng, 4096, n_dim), n_dim)
        det, idx, degen = packed_inertia(_pack(scale * np.diag([1.0, 0.0, -2.0])[None]), 3)
        assert degen[0] and idx[0] == 1
        assert packed_inertia(_pack(scale * np.ones((1, 2, 2))), 2)[2][0]

    @pytest.mark.parametrize("n_dim", [2, 3, 4, 5])
    def test_few_rows_fall_back(self, rng, n_dim):
        # the rows the LDL^T floors reject go to LAPACK
        _, _, ok = symmetric._ldl_inertia(_symmetric_batch(rng, 1 << 15, n_dim), n_dim)
        assert (~ok).sum() < 0.01 * (1 << 15)
