"""
Spectral structure of the conditional covariance along a ray.

The limit matrix at coincidence has a fully explicit spectrum (two simple
distinguished eigenvalues from a 2x2 reduction, two multiple eigenvalues
tied to the Hessian blocks, and an (N+1)-dimensional kernel).  The multiple
eigenvalues come from the reflections and permutations of the first N-1
axes, which commute with Sigma(r e_N) at every r, so one fixed basis written
down from the packed layout diagonalizes Sigma(r) but for a 4 x 4 block.
That basis alone builds the degree-N limit polynomial of
r^{-1} det(Matri(A(r) y)), a kernel coordinate times an (N-1)-dimensional
determinant, whose sign splits close critical-point pairs by Hessian
determinant, and the expansion Lambda(r) = Lambda0 + Lambda2 r^2 + O(r^4),
P(r) = P0 + O(r^2) in closed form.  For r > 0 only the 4 x 4 block needs an
eigensolver (``factor_at``).
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covariance import conditional_covariance, sigma_expansion
from .models import w_eigenvalues
from .symmetric import matriculate, packed_inertia, vech_indices, vectorize_sym

__all__ = [
    "DEFAULT_R_GRID",
    "EigenvalueCollisionError",
    "EigenpathError",
    "SpectrumCatalogue",
    "spectrum_sigma0",
    "h_matrix",
    "SpectralExpansion",
    "factor_at",
    "eigenpath",
    "LimitPolynomial",
    "limit_polynomial",
    "h_r",
]

# Radii at which eigenpath measures its path quality; descending toward 0.
DEFAULT_R_GRID = (5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3)
COEFF_TOL = 1e-12    # coefficients dropped, and premise residuals allowed, up to this relative
CATALOGUE_TOL = 1e-9  # catalogue vs numeric spectrum of Sigma0, relative to its scale


class EigenvalueCollisionError(RuntimeError):
    """The small distinguished eigenvalue collides with a multiple eigenvalue."""


class EigenpathError(RuntimeError):
    """The eigenpath breaks continuity on the grid, or the limit polynomial does not factor."""


@dataclass(frozen=True)
class SpectrumCatalogue:
    """Closed-form spectrum of the coincidence limit covariance."""

    n_dim: int
    L: int
    lambda_plus: float
    lambda_minus: float
    entries: tuple  # ((value, multiplicity), ...) in descending value order

    def dense(self):
        """All L eigenvalues, repeated by multiplicity, descending."""
        out = []
        for value, mult in self.entries:
            out.extend([value] * mult)
        return np.array(sorted(out, reverse=True))

    def to_dict(self):
        return {
            "N": self.n_dim,
            "L": self.L,
            "lambda_plus": self.lambda_plus,
            "lambda_minus": self.lambda_minus,
            "catalogue": [{"value": v, "multiplicity": m} for v, m in self.entries],
        }


def spectrum_sigma0(model):
    """Closed-form eigenvalue catalogue of the limit matrix, checked numerically.

    The catalogue is {lambda_plus, lambda_minus, 4 rho''(0), 8 rho''(0), 0}
    with multiplicities {1, 1, (N-1)(N-2)/2, N-2, N+1}.  A collision of
    lambda_minus with one of the multiple eigenvalues makes the multiplicity
    pattern invalid; rescaling the profile (see ``find_rescaling``) always
    separates them.  The catalogue must match the numeric spectrum of the
    packed Sigma0 along the axis direction within ``CATALOGUE_TOL``.
    """
    n = model.n_dim
    L = model.cond_dim
    lam_p, lam_m = w_eigenvalues(model)
    four, eight = 4.0 * model.d2, 8.0 * model.d2
    scale = max(abs(lam_p), abs(eight), 1.0)
    if min(abs(lam_m - four), abs(lam_m - eight)) <= 1e-9 * abs(eight) and n >= 3:
        raise EigenvalueCollisionError(
            f"lambda_minus={lam_m:.6g} collides with a multiple eigenvalue "
            f"(4 rho''(0)={four:.6g}, 8 rho''(0)={eight:.6g}); "
            "apply find_rescaling to separate the spectrum"
        )
    if not lam_p > eight:
        raise EigenvalueCollisionError("lambda_plus must exceed 8 rho''(0)")
    if abs(lam_m) <= 1e-12 * scale:
        raise EigenvalueCollisionError("lambda_minus must be nonzero")
    values = [(lam_p, 1), (lam_m, 1)]
    if n >= 3:
        values.append((four, (n - 1) * (n - 2) // 2))
        values.append((eight, n - 2))
    values.append((0.0, n + 1))
    values.sort(key=lambda vm: -vm[0])
    cat = SpectrumCatalogue(
        n_dim=n, L=L, lambda_plus=lam_p, lambda_minus=lam_m, entries=tuple(values)
    )
    s0, _ = sigma_expansion(model)
    numeric = np.sort(np.linalg.eigvalsh(s0))[::-1]
    err = np.abs(numeric - cat.dense()).max()
    if err > CATALOGUE_TOL * max(scale, 1.0):
        raise EigenvalueCollisionError(
            f"catalogue disagrees with the numeric spectrum (max err {err:.3e})"
        )
    return cat


# ---------------------------------------------------------------------------
# the contraction matrix H(u)
# ---------------------------------------------------------------------------

def h_matrix(u):
    """N x L matrix with H(u) a = Matri(a) u for every packed vector a
    (zero-padded to length L).

    Row k carries u across the packed positions that touch index k; the two
    trailing (field value) columns are zero.
    """
    u = np.asarray(u, dtype=float)
    rows, cols = vech_indices(u.shape[0])
    pos = np.arange(rows.size)
    out = np.zeros((u.shape[0], rows.size + 2))
    out[rows, pos] = u[cols]
    out[cols, pos] = u[rows]
    return out


# ---------------------------------------------------------------------------
# the symmetry-adapted basis and the eigenpath on it
# ---------------------------------------------------------------------------

class _SymmetryBasis(NamedTuple):
    vectors: np.ndarray  # (L, L) orthonormal columns: rank columns, then kernel columns
    leading: np.ndarray  # per column: limit eigenvalue (rank) or r^2 curvature (kernel)
    trivial: np.ndarray  # positions of the four columns that span the trivial block


def _symmetry_basis(model):
    """Orthonormal basis of the packed coordinates adapted to the symmetry.

    The reflections and permutations of the first N-1 axes act on packed
    coordinates as signed permutations.  Off their invariant span, Sigma(r)
    is a scalar on each of three irreducible parts (Schur): the Helmert
    contrasts of H_ii, i < N (8 rho''(0) at r = 0), the H_ij, i < j < N
    (4 rho''(0)) and the H_iN, i < N (kernel).  The invariant span holds the
    field difference, in the kernel of Sigma0 and Sigma2, and the eigenvectors
    of Sigma0 on the sum of H_ii (i < N), H_NN and the field sum, each with
    its largest entry positive.  Rank columns come in descending limit
    eigenvalue, then kernel columns in descending r^2 curvature, the field
    difference last.
    """
    n, L = model.n_dim, model.cond_dim
    rows, cols = vech_indices(n)
    eye = np.eye(L)
    packed, fields = eye[:, :rows.size], eye[:, L - 2:] / math.sqrt(2.0)
    diag = packed[:, (rows == cols) & (rows < n - 1)]
    k = np.arange(1, n - 1)
    helmert = diag @ ((np.triu(np.ones((n - 1, n - 2))) - np.diag(k, -1)[:, :-1])
                      / np.sqrt(k * (k + 1)))
    frame = np.column_stack([diag.sum(1) / math.sqrt(n - 1), packed[:, -1], fields.sum(1)])
    s0, s2 = sigma_expansion(model)
    _, w = np.linalg.eigh(frame.T @ s0 @ frame)
    null, minus, plus = np.hsplit(frame @ (w * np.sign(w[np.abs(w).argmax(0), range(3)])), 3)
    diff = fields @ [[1.0], [-1.0]]

    def limit(block, s):  # the r -> 0 eigenvalue (s0) or curvature (s2) of a block
        return float(block[:, 0] @ s @ block[:, 0])

    rank = sorted((b for b in (plus, minus, helmert, packed[:, (rows < cols) & (cols < n - 1)])
                   if b.size), key=lambda b: -limit(b, s0))
    kernel = sorted((packed[:, (rows < cols) & (cols == n - 1)], null),
                    key=lambda b: -limit(b, s2)) + [diff]
    vectors = np.concatenate(rank + kernel, axis=1)
    leading = [max(limit(b, s), 0.0) for blocks, s in ((rank, s0), (kernel, s2)) for b in blocks]
    return _SymmetryBasis(
        vectors,
        np.repeat(leading, [b.shape[1] for b in rank + kernel]),
        np.flatnonzero(np.abs(np.column_stack([frame, diff]).T @ vectors).max(0) > 0.5))


def _basis_eigh(basis, sig, r):
    """Eigenvalues and eigenvectors of sig = Sigma(r e_N) in the basis's gauge,
    and their least overlap with the basis; below 0.5 raises EigenpathError.

    Off the trivial block each basis column g is an eigenvector, with
    eigenvalue g^T sig g.  Each eigenvector of the 4 x 4 trivial block goes to
    a trivial column by weight, its squared entry there: the surest (largest
    weight on any column) first, each to its heaviest free column, ties to the
    lower one.  Its sign makes that entry positive.
    """
    t = basis.trivial
    coef = basis.vectors.T @ sig @ basis.vectors
    lam, z = np.linalg.eigh(coef[np.ix_(t, t)])
    order = np.full(t.size, -1)  # order[c]: the eigenvector on trivial column c
    for k in np.argsort(-(z ** 2).max(0), kind="stable"):
        order[np.argmax(np.where(order < 0, z[:, k] ** 2, -1.0))] = k
    overlap = z[range(t.size), order]
    quality = float(np.abs(overlap).min())
    if quality < 0.5:
        raise EigenpathError(f"the eigenbasis at r={r:g} does not continue the symmetry "
                             f"basis (min overlap {quality:.3f})")
    out, vec = np.diag(coef).copy(), basis.vectors.copy()
    out[t], vec[:, t] = lam[order], basis.vectors[:, t] @ (z[:, order] * np.sign(overlap))
    return out, vec, quality


@dataclass(frozen=True)
class SpectralExpansion:
    """Expansion Lambda(r) = Lambda0 + Lambda2 r^2 + O(r^4), P(r) = P0 + O(r^2)
    of the eigenpairs of Sigma(r e_N), in closed form on the symmetry-adapted
    basis.

    Sigma(r) is even in r, so the linear terms Lambda1 and P1 vanish exactly;
    ``to_dict`` writes them as zeros.  ``path_quality`` is the least overlap
    of the finite-r eigenbasis with the basis over ``DEFAULT_R_GRID``.
    """

    L: int
    rank0: int
    Lambda0: np.ndarray
    Lambda2: np.ndarray
    P0: np.ndarray
    path_quality: float

    def to_dict(self):
        return {
            "L": self.L,
            "rank0": self.rank0,
            "r_grid": list(DEFAULT_R_GRID),
            "lambda0": self.Lambda0.tolist(),
            "lambda1": np.zeros_like(self.Lambda0).tolist(),
            "lambda2": self.Lambda2.tolist(),
            "P0": self.P0.ravel().tolist(),
            "P1": np.zeros_like(self.P0).ravel().tolist(),
            "path_quality": self.path_quality,
        }


def factor_at(model, r):
    """Factor A(r) = P(r) Lambda(r)^{1/2} of Sigma(r e_N), with A(r) A(r)^T =
    Sigma(r e_N), in the symmetry-adapted gauge.  An eigenbasis that does not
    continue the basis raises :class:`EigenpathError`."""
    lam, vec, _ = _basis_eigh(_symmetry_basis(model), conditional_covariance(model, r).sigma, r)
    return vec * np.sqrt(np.clip(lam, 0.0, None))[None, :]


def eigenpath(model):
    """Expansion of the eigenpairs of Sigma(r e_N) in the symmetry-adapted basis V.

    With Sigma(r) = Sigma0 + r^2 Sigma2 + O(r^4), P0 = V, Lambda0 =
    diag(V^T Sigma0 V) with the kernel set to 0, and Lambda2 = diag(V^T Sigma2 V),
    first-order perturbation in r^2: V diagonalizes Sigma0, and Sigma2 on
    each multiple eigenspace of Sigma0.  The eigenbasis at each radius of
    ``DEFAULT_R_GRID`` measures ``path_quality``; one that does not continue
    the basis raises :class:`EigenpathError` naming the radius.
    """
    basis = _symmetry_basis(model)
    quality = min(_basis_eigh(basis, conditional_covariance(model, r).sigma, r)[2]
                  for r in DEFAULT_R_GRID)
    s0, s2 = sigma_expansion(model)
    vectors = basis.vectors
    rank0 = model.cond_dim - model.n_dim - 1
    lam0 = np.einsum("ij,ij->j", vectors, s0 @ vectors)
    lam0[rank0:] = 0.0  # exact kernel
    return SpectralExpansion(L=model.cond_dim, rank0=rank0, Lambda0=lam0,
                             Lambda2=np.einsum("ij,ij->j", vectors, s2 @ vectors),
                             P0=vectors, path_quality=quality)


# ---------------------------------------------------------------------------
# the limit polynomial of r^{-1} det(Matri(A(r) y))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitPolynomial:
    """Degree-N homogeneous limit of r^{-1} det(Matri(A(r) y)).

    ``mats`` stacks Matri of every column of the symmetry-adapted basis: the
    rank columns scaled by sqrt(lambda0), the kernel columns by the square
    roots of their r^2 curvatures.  The rank matrices have a zero N-th row
    and column, and of the kernel matrices only column k has a nonzero
    H_NN entry c, so with M0' the leading (N-1) x (N-1) block of the rank
    part M0 at y the value tr(adj(M0) M1) is c y_k det M0'.
    """

    rank0: int
    mats: np.ndarray  # (L, N, N)

    @property
    def n_dim(self):
        return self.mats.shape[-1]

    @property
    def L(self):
        return self.mats.shape[0]

    def _kernel_column(self):
        """k, the kernel column with the largest |H_NN|, and c, its H_NN entry."""
        k = self.rank0 + int(np.abs(self.mats[self.rank0:, -1, -1]).argmax())
        return k, float(self.mats[k, -1, -1])

    def evaluate(self, y):
        """Value c y_k det M0' at y, one value per row of a 2-D y.

        det M0' is one :func:`~critfield.symmetric.packed_inertia` on the
        (N-1)-dimensional packed rows of M0' = sum_{i < rank0} y_i mats[i]'.
        Flipping the kernel coordinates negates y_k alone, so it negates the
        value exactly.
        """
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        y2 = np.atleast_2d(y)
        if y2.shape[-1] != self.L:
            raise ValueError(f"y must have length {self.L}")
        n, k, c = self.n_dim - 1, *self._kernel_column()
        # one row per entry of M0', so each entry is a contiguous column
        minor = vectorize_sym(self.mats[:self.rank0, :n, :n]).T @ y2[:, :self.rank0].T
        vals = c * y2[:, k] * packed_inertia(minor.T, n)[0]
        return float(vals[0]) if single else vals

    def flip(self, y):
        """Negate the kernel coordinates of y (the value-negating symmetry)."""
        y = np.asarray(y, dtype=float).copy()
        y[..., self.rank0:] = -y[..., self.rank0:]
        return y

    def coefficients(self):
        """Monomial map {sorted 1-based index tuple: coefficient}.

        Monomial m + (k,), m a multiset of N-1 rank columns, has c times the
        coefficient of prod_i y_{m_i} in det M0': the mixed discriminant of
        the minors mats[m_i]', by inclusion-exclusion the sum over nonempty
        slot subsets S of (-1)^(N-1-|S|) det(sum_{i in S} mats[m_i]'),
        divided by the product of the multiplicity factorials.  It is linear
        in each minor, so each enters at unit largest entry and its scale is
        multiplied back into the coefficient: the rank columns' scales part
        with the argument scale, and the cut, which drops normalized
        coefficients up to ``COEFF_TOL`` of the largest, sees none of them.
        """
        n, k, c = self.n_dim - 1, *self._kernel_column()
        minors = self.mats[:self.rank0, :n, :n]
        scales = np.abs(minors).max(axis=(1, 2))
        minors = minors / scales[:, None, None]
        multisets = np.array(list(itertools.combinations_with_replacement(range(self.rank0), n)))
        # one (multisets, N-1, N-1) batch per slot keeps memory O(multisets N^2)
        total = np.zeros(len(multisets))
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                part = sum(minors[multisets[:, i]] for i in subset)
                total += (-1) ** (n - size) * np.linalg.det(part)
        mult = [math.prod(map(math.factorial, np.bincount(m).tolist())) for m in multisets]
        coefs = c * total / mult
        kept = np.abs(coefs) > COEFF_TOL * np.abs(coefs).max()
        coefs = coefs * scales[multisets].prod(axis=1)
        return {
            tuple(int(i) + 1 for i in m) + (k + 1,): float(v)
            for m, v in zip(multisets[kept], coefs[kept])
        }


def limit_polynomial(model):
    """Assemble the limit polynomial from the symmetry-adapted basis.  An N-th
    row of a rank matrix, or a second kernel H_NN entry, above ``COEFF_TOL``
    of the largest entry breaks its factorization and raises
    :class:`EigenpathError`."""
    basis = _symmetry_basis(model)
    mats = matriculate((basis.vectors * np.sqrt(basis.leading)).T, model.n_dim)
    rank0 = model.cond_dim - model.n_dim - 1
    scale = np.abs(mats).max()
    resid = max(np.abs(mats[:rank0, -1]).max(), np.sort(np.abs(mats[rank0:, -1, -1]))[-2])
    if resid > COEFF_TOL * scale:
        raise EigenpathError(f"the limit polynomial does not factor: an N-th rank row or a "
                             f"second kernel H_NN reaches {resid:.3e} of {scale:.3e}")
    return LimitPolynomial(rank0=rank0, mats=mats)


def h_r(model, r, y):
    """r^{-1} det(Matri(A(r) y)) with the factor A(r) of :func:`factor_at`."""
    factor = factor_at(model, r)
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    y2 = np.atleast_2d(y)
    mats = matriculate(y2 @ factor.T, model.n_dim)
    vals = np.linalg.det(mats) / r
    return float(vals[0]) if single else vals
