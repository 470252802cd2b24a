import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critfield.symmetric import (matriculate, matriculate_batch, packed_det,
                                 tau_index, vech_len, vectorize_sym)


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


def test_matriculate_batch_matches_single(rng):
    a = rng.normal(size=(5, vech_len(3)))
    batch = matriculate_batch(a, 3)
    for k in range(5):
        assert np.allclose(batch[k], matriculate(a[k], 3))


@pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 6])
def test_packed_det_matches_lapack(n_dim, rng):
    packed = rng.normal(size=(4096, vech_len(n_dim)))
    packed[:8, 0] = 0.0  # a zero first pivot: past N=2 these rows go to LAPACK
    ref = np.linalg.det(matriculate_batch(packed, n_dim))
    got = packed_det(packed, n_dim)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    if n_dim > 2:
        assert np.array_equal(got[:8], ref[:8])
