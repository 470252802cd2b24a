"""
Half-vectorization utilities for symmetric matrices.

A symmetric N x N matrix is stored as the vector of its upper triangle in
column-major order, so entry (i, j) with 1 <= i <= j <= N sits at the
1-based position i + j(j-1)/2.  Rebuilding the matrix from the first
N(N+1)/2 coordinates of a (possibly longer) vector is the inverse map.
"""

import numpy as np


def vech_len(n_dim):
    """Length of the half-vectorization of a symmetric n_dim x n_dim matrix."""
    return n_dim * (n_dim + 1) // 2


def tau_index(i, j):
    """1-based packed position of entry (i, j), 1 <= i <= j.

    Callers wanting the symmetric partner (j, i) swap the arguments first.

    Raises
    ------
    ValueError
        If the indices are not ordered positive integers.
    """
    if not (1 <= i <= j):
        raise ValueError(f"tau_index requires 1 <= i <= j, got ({i}, {j})")
    return i + j * (j - 1) // 2


def _tau0(i, j):
    """0-based packed position for 0-based indices i <= j."""
    return i + (j + 1) * j // 2


def vech_indices(n_dim):
    """Arrays (rows, cols) of 0-based (i, j) pairs, i <= j, in packed order."""
    rows = np.empty(vech_len(n_dim), dtype=np.intp)
    cols = np.empty(vech_len(n_dim), dtype=np.intp)
    for j in range(n_dim):
        for i in range(j + 1):
            rows[_tau0(i, j)] = i
            cols[_tau0(i, j)] = j
    return rows, cols


def matriculate(a, n_dim):
    """Rebuild the symmetric n_dim x n_dim matrix packed in ``a``.

    Only the first n_dim(n_dim+1)/2 coordinates are used; extra coordinates
    are ignored.  A vector shorter than that is rejected.
    """
    a = np.asarray(a, dtype=float)
    m = vech_len(n_dim)
    if a.ndim != 1 or a.shape[0] < m:
        raise ValueError(
            f"need at least {m} coordinates to build a {n_dim}x{n_dim} "
            f"symmetric matrix, got shape {a.shape}"
        )
    rows, cols = vech_indices(n_dim)
    out = np.zeros((n_dim, n_dim))
    out[rows, cols] = a[:m]
    out[cols, rows] = a[:m]
    return out


def matriculate_batch(a, n_dim):
    """Vectorized :func:`matriculate` over the last axis of ``a``.

    ``a`` has shape (..., >= N(N+1)/2); returns shape (..., N, N).
    """
    a = np.asarray(a, dtype=float)
    m = vech_len(n_dim)
    if a.shape[-1] < m:
        raise ValueError(f"last axis must have at least {m} coordinates")
    rows, cols = vech_indices(n_dim)
    pos = np.empty((n_dim, n_dim), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(m)
    return np.take(a, pos, axis=-1)


def vectorize_sym(mat):
    """Packed upper-triangle vector of a symmetric matrix (inverse of matriculate)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    n_dim = mat.shape[0]
    rows, cols = vech_indices(n_dim)
    return mat[rows, cols].copy()

