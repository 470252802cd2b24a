"""
Half-vectorization utilities for symmetric matrices.

A symmetric N x N matrix is stored as the vector of its upper triangle in
column-major order, so entry (i, j) with 1 <= i <= j <= N sits at the
1-based position i + j(j-1)/2.  Rebuilding the matrix from the first
N(N+1)/2 coordinates of a (possibly longer) vector is the inverse map; both
maps work on stacks, packed rows along the last axis and matrices along the
last two.
:func:`packed_inertia` is the one determinant-and-index kernel of the
package: the determinant, Hessian index and degeneracy flag of packed rows
come from one LDL^T elimination on their columns (a closed form at N=2),
with LAPACK for the rows it cannot settle.
"""

import functools

import numpy as np

DEGEN_TOL = 1e-10    # an eigenvalue within this times ||H||_F of zero is degenerate
PIVOT_FLOOR = 1e-3   # smallest |leading pivot| / ||H||_F the LDL^T result is kept at
DET_FLOOR = 1e-8     # per ||H||_F: a hundred times DEGEN_TOL


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


@functools.lru_cache(maxsize=None)  # np.tril_indices builds an n x n mask; callers ask per batch
def vech_indices(n_dim):
    """Read-only arrays (rows, cols) of 0-based (i, j) pairs, i <= j, in packed order.

    That order is the lower triangle's row-major walk with the arrays swapped.
    """
    cols, rows = np.tril_indices(n_dim)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def matriculate(a, n_dim):
    """Rebuild the symmetric n_dim x n_dim matrices packed along the last axis of ``a``.

    ``a`` has shape (..., >= N(N+1)/2); returns shape (..., N, N).  Only the
    first N(N+1)/2 coordinates are used; extra coordinates are ignored.  A
    last axis shorter than that is rejected.
    """
    a = np.asarray(a, dtype=float)
    m = vech_len(n_dim)
    if a.ndim == 0 or a.shape[-1] < m:
        raise ValueError(
            f"need at least {m} coordinates to build a {n_dim}x{n_dim} "
            f"symmetric matrix, got shape {a.shape}"
        )
    rows, cols = vech_indices(n_dim)
    pos = np.empty((n_dim, n_dim), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(m)
    return np.take(a, pos, axis=-1)


def vectorize_sym(mat):
    """Packed upper triangles of the symmetric matrices on the last two axes
    of ``mat`` (the inverse of :func:`matriculate`): (..., N, N) -> (..., N(N+1)/2)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise ValueError(f"expected square matrices on the last two axes, got shape {mat.shape}")
    rows, cols = vech_indices(mat.shape[-1])
    return mat[..., rows, cols]


def _ldl_pivots(s, n_dim):
    """Pivots d_1..d_N of H = L D L^T without pivoting, one array per step.

    ``s`` maps each (i, j), i <= j, to that entry across the batch; the
    elimination updates it in place.  A zero pivot yields inf/nan further down.
    """
    pivots = []
    for p in range(n_dim):
        pivots.append(s[p, p])
        for i in range(p + 1, n_dim):
            ell = s[p, i] / s[p, p]
            for j in range(i, n_dim):
                s[i, j] = s[i, j] - ell * s[p, j]
    return pivots


def _ldl_inertia(packed, n_dim):
    """Determinant, negative-pivot count and trust mask of (k, N(N+1)/2) packed rows.

    Entry (i, j) is read as a column view of the rows.  At N=2 the closed
    form det = ac - b^2 gives the count (1 if det < 0, else 0 or 2 by the
    sign of the trace); above it an unrolled LDL^T without pivoting gives
    the determinant as the product of the pivots and, by Sylvester's law of
    inertia, the count of negative eigenvalues as that of negative pivots.
    With floor = ``DET_FLOOR * ||H||_F``, a row is trusted (``ok``) when
    every pivot but the last exceeds ``PIVOT_FLOOR * ||H||_F`` in magnitude,
    which bounds the multipliers of the elimination, the last pivot, which
    divides nothing, exceeds floor, and |det| exceeds floor * ||H||_F^(N-1).
    The other rows' values are not to be used.
    """
    rows, cols = vech_indices(n_dim)
    s = {(i, j): packed[:, p] for p, (i, j) in enumerate(zip(rows.tolist(), cols.tolist()))}
    twice = np.where(rows == cols, 1.0, 2.0)  # off-diagonal entries, in the Frobenius norm
    norm = np.maximum(np.sqrt(np.einsum("km,km,m->k", packed, packed, twice)), 1e-300)
    with np.errstate(all="ignore"):
        if n_dim == 2:
            a, b, c = s[0, 0], s[0, 1], s[1, 1]
            det = a * c - b * b
            negatives = np.where(det < 0.0, 1, np.where(a + c > 0.0, 0, 2))
            return det, negatives, np.abs(det) / norm / norm > DET_FLOOR
        pivots = np.stack(_ldl_pivots(s, n_dim))
        rel = np.abs(pivots) / norm
        ok = ((rel[:-1] > PIVOT_FLOOR).all(axis=0) & (rel[-1] > DET_FLOOR)
              & (rel.prod(axis=0) > DET_FLOOR))
        return pivots.prod(axis=0), (pivots < 0.0).sum(axis=0), ok


def packed_inertia(packed, n_dim):
    """Determinant, Hessian index and degeneracy flag of (k, N(N+1)/2) packed rows.

    One :func:`_ldl_inertia` pass at every N gives all three, the index as
    the count of negative pivots.  A row its floors trust is not degenerate:
    |det| <= |lambda_min| ||H||_2^(N-1), so every eigenvalue lies beyond
    floor = ``DET_FLOOR * ||H||_F``, a hundred times ``DEGEN_TOL``.  The
    other rows are rebuilt as matrices for LAPACK ``det`` and ``eigvalsh``:
    the index counts the eigenvalues below -``DEGEN_TOL * ||H||_F``, and one
    within that of zero flags the row degenerate (probability zero under the
    sampled laws, so flagged, not raised).  The last pivot is held only to
    ``DET_FLOOR``: near a conditioned critical point the small eigenvalue
    lands in it, and with ``PIVOT_FLOOR`` there 15-20 % of such Hessians at
    N=3, 4 would fall back, not under 0.1 %.
    """
    packed = np.asarray(packed, dtype=float)
    det, idx, ok = _ldl_inertia(packed, n_dim)
    degen = np.zeros(packed.shape[0], dtype=bool)
    slow = np.flatnonzero(~ok)
    if slow.size:
        sub = matriculate(packed[slow], n_dim)
        det[slow] = np.linalg.det(sub)
        eigs = np.linalg.eigvalsh(sub)
        tol = DEGEN_TOL * np.maximum(np.sqrt((sub ** 2).sum(axis=(1, 2))), 1e-300)[:, None]
        idx[slow] = (eigs < -tol).sum(axis=1)
        degen[slow] = (np.abs(eigs) <= tol).any(axis=1)
    return det, idx, degen
