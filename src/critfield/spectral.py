"""
Spectral structure of the conditional covariance along a ray.

The limit matrix at coincidence has a fully explicit spectrum (two simple
distinguished eigenvalues from a 2x2 reduction, two multiple eigenvalues
tied to the Hessian blocks, and an (N+1)-dimensional kernel).  Its eigenvalue
blocks, with the kernel split by the exact r^2 curvatures read off Sigma2,
give one closed-form orthonormal basis whose gauge does not depend on the
eigensolver.  That basis alone builds the degree-N limit polynomial of
r^{-1} det(Matri(A(r) y)), whose sign splits close critical-point pairs by
Hessian-determinant sign.  For r > 0 the eigendecomposition of Sigma(r) is
anchored on the same basis (``factor_at``), and a fit over a grid of radii
gives Lambda(r) = Lambda0 + Lambda2 r^2 + o(r^2) and P(r) = P0 + P1 r + o(r).
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covariance import conditional_covariance, sigma_expansion
from .models import w_eigenvalues
from .symmetric import matriculate_batch, vech_len

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
    "bv_determinant",
    "perm_symmetrized_bv",
    "scaling_class",
    "LimitPolynomial",
    "limit_polynomial",
    "h_r",
]

# Radii of the eigenpath's expansion fit; descending toward 0.
DEFAULT_R_GRID = (5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3)
TIE_TOL = 1e-9       # eigenvalue gap of a tie, relative to the trace scale
SCALING_RADII = (1e-2, 1e-3, 1e-4)  # radii of scaling_class's log-log slope
SCALING_FLOOR = 1e-11  # coefficients below this at every radius are o(r)
SCALING_SLOPE = 1.5  # mean slope below which a coefficient is Theta(r)
COEFF_TOL = 1e-12    # monomial coefficients dropped up to this, relative to the largest
GS_CUT = 0.3         # Gram-Schmidt keeps a projector column whose residual exceeds this
CATALOGUE_TOL = 1e-9  # catalogue vs numeric spectrum of Sigma0, relative to its scale


class EigenvalueCollisionError(RuntimeError):
    """The small distinguished eigenvalue collides with a multiple eigenvalue."""


class EigenpathError(RuntimeError):
    """Continuity of the eigenpath could not be maintained across the grid."""


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
    if min(abs(lam_m - four), abs(lam_m - eight)) <= 1e-9 * scale and n >= 3:
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
    n = u.shape[0]
    L = vech_len(n) + 2
    out = np.zeros((n, L))
    for k in range(n):
        for j in range(n):
            for i in range(j + 1):
                pos = i + (j + 1) * j // 2
                if j == k:
                    out[k, pos] = u[i]
                elif i == k:
                    out[k, pos] = u[j]
    return out


# ---------------------------------------------------------------------------
# the closed-form basis and the eigenpath anchored on it
# ---------------------------------------------------------------------------

class _ClosedFormBasis(NamedTuple):
    vectors: np.ndarray  # (L, L) orthonormal columns, block after block
    lam0: np.ndarray     # limit eigenvalue of each column (0 on the kernel)
    curv: np.ndarray     # r^2 curvature of each kernel column
    sizes: tuple         # block sizes in column order
    margin: float        # least distance of a Gram-Schmidt residual to GS_CUT


def _projector_basis(proj, size):
    """Gram-Schmidt on the projector's columns in coordinate order.

    A column is kept when its residual norm exceeds ``GS_CUT``, so the basis
    depends on the projector alone, not on the eigensolver's basis.  Returns
    the ``size`` kept columns and the least distance of a residual to the cut.
    """
    kept, margin = [], math.inf
    for col in proj.T:
        for k in kept:
            col = col - (k @ col) * k
        norm = float(np.linalg.norm(col))
        margin = min(margin, abs(norm - GS_CUT))
        if norm > GS_CUT:
            kept.append(col / norm)
            if len(kept) == size:
                return np.stack(kept, axis=1), margin
    raise EigenpathError(f"Gram-Schmidt kept {len(kept)} of {size} projector columns")


def _tie_blocks(values):
    """Index blocks of the descending ``values`` split where neighbours do not
    tie, and the values with each block's mean in place of its entries."""
    cuts = np.flatnonzero(-np.diff(values) > TIE_TOL * max(np.abs(values).max(), 1.0)) + 1
    blocks = np.split(np.arange(values.size), cuts)
    return blocks, np.concatenate([np.full(blk.size, values[blk].mean()) for blk in blocks])


def _closed_form_basis(model):
    """Orthonormal basis of the r -> 0 eigenstructure of Sigma(r e_N), block by block.

    The rank blocks are the tied eigenvalues of Sigma0, the catalogue's
    blocks (:func:`spectrum_sigma0`).  The kernel ker Sigma0 = span Q splits
    by the tied eigenvalues of Q^T Sigma2 Q: by first-order degenerate
    perturbation theory these are the exact r^2 curvatures of the small
    eigenvalues.  The last block, the field difference, has curvature exactly
    0 (its eigenvalue is O(r^4)).  Blocks come in descending order, which is
    the descending order of Sigma(r) for small r.
    """
    s0, s2 = sigma_expansion(model)
    lam, vec = np.linalg.eigh(s0)
    lam, vec = lam[::-1], vec[:, ::-1]
    rank = model.cond_dim - model.n_dim - 1
    q = vec[:, rank:]
    curv, w = np.linalg.eigh(q.T @ s2 @ q)
    w = w[:, ::-1]
    rank_blocks, lam0 = _tie_blocks(lam[:rank])
    kernel_blocks, curv = _tie_blocks(curv[::-1])
    curv[kernel_blocks[-1]] = 0.0
    spans = [vec[:, blk] for blk in rank_blocks] + [q @ w[:, blk] for blk in kernel_blocks]
    cols, margins = zip(*(_projector_basis(v @ v.T, v.shape[1]) for v in spans))
    lam0 = np.concatenate([lam0, np.zeros(curv.size)])
    return _ClosedFormBasis(np.concatenate(cols, axis=1), lam0, np.clip(curv, 0.0, None),
                            tuple(v.shape[1] for v in spans), min(margins))


def _anchored_eigh(sig, ref, sizes, r):
    """Eigendecomposition of sig with each eigenvector assigned to a block of
    the basis ``ref`` and each block of columns Procrustes-fit onto it.

    An eigenvector's weight on a block is its squared projection onto the
    block's columns.  The surest eigenvectors (largest weight on any block)
    are placed first, each on its heaviest block that still has room, ties
    going to the lower block; within a block the eigenvalues stay
    descending.  So an eigenvalue crossing moves no column to a foreign
    block.  Returns the eigenvalues, the aligned eigenvectors and their least
    overlap with ``ref``; an overlap below 0.5 raises :class:`EigenpathError`.
    """
    lam, vec = np.linalg.eigh(sig)
    lam, vec = lam[::-1], vec[:, ::-1]
    edges = np.cumsum((0,) + tuple(sizes))
    weight = np.stack([((ref[:, i:j].T @ vec) ** 2).sum(0)
                       for i, j in zip(edges[:-1], edges[1:])], axis=1)
    room, owner = list(sizes), np.empty(len(lam), dtype=int)
    for k in np.argsort(-weight.max(1), kind="stable"):
        owner[k] = next(b for b in np.argsort(-weight[k], kind="stable") if room[b])
        room[owner[k]] -= 1
    order = np.argsort(owner, kind="stable")
    lam, vec = lam[order], vec[:, order]
    out = np.empty_like(vec)
    for i, j in zip(edges[:-1], edges[1:]):
        uu, _, vvt = np.linalg.svd(vec[:, i:j].T @ ref[:, i:j])
        out[:, i:j] = vec[:, i:j] @ (uu @ vvt)
    quality = float(np.einsum("ij,ij->j", ref, out).min())
    if quality < 0.5:
        raise EigenpathError(f"the eigenbasis at r={r:g} does not continue the closed-form "
                             f"blocks (min overlap {quality:.3f})")
    return lam, out, quality


def _poly_fit(rs, values, degrees):
    """Least-squares fit sum_d c_d r^d on a radius-normalized basis.

    ``values`` has shape (len(rs), ...); returns coefficients keyed by degree
    with the normalization undone.
    """
    rmax = rs.max()
    design = np.stack([(rs / rmax) ** d for d in degrees], axis=1)
    coef = np.linalg.lstsq(design, values.reshape(len(rs), -1), rcond=None)[0]
    return {d: (c / rmax ** d).reshape(values.shape[1:]) for d, c in zip(degrees, coef)}


@dataclass(frozen=True)
class SpectralExpansion:
    """Eigenpath of Sigma(r) on ``DEFAULT_R_GRID`` and its fitted expansion.

    Every radius is anchored on the closed-form basis, so the path has no free
    rotation.  Lambda0/Lambda2 come from an even fit (the covariance is exactly
    even in r), Lambda1 from a fit with odd terms included and is reported as
    a diagnostic of the expected vanishing linear term.
    """

    L: int
    rank0: int
    Lambda0: np.ndarray
    Lambda1: np.ndarray
    Lambda2: np.ndarray
    P0: np.ndarray
    P1: np.ndarray
    path_quality: float

    def to_dict(self):
        return {
            "L": self.L,
            "rank0": self.rank0,
            "r_grid": list(DEFAULT_R_GRID),
            "lambda0": self.Lambda0.tolist(),
            "lambda1": self.Lambda1.tolist(),
            "lambda2": self.Lambda2.tolist(),
            "P0": self.P0.ravel().tolist(),
            "P1": self.P1.ravel().tolist(),
            "path_quality": self.path_quality,
        }


def factor_at(model, r):
    """Factor A(r) = P(r) Lambda(r)^{1/2} of Sigma(r e_N), with A(r) A(r)^T =
    Sigma(r e_N), in the closed-form gauge.  An eigenbasis that does not
    continue the closed-form blocks raises :class:`EigenpathError`."""
    basis = _closed_form_basis(model)
    sig = conditional_covariance(model, r).sigma
    lam, vec, _ = _anchored_eigh(sig, basis.vectors, basis.sizes, r)
    return vec * np.sqrt(np.clip(lam, 0.0, None))[None, :]


def eigenpath(model):
    """Eigendecomposition of Sigma(r e_N) at each radius of ``DEFAULT_R_GRID``,
    anchored on the closed-form basis, and its fitted expansion.  An
    eigenbasis that does not continue the closed-form blocks raises
    :class:`EigenpathError` naming the radius.
    """
    basis = _closed_form_basis(model)
    rs = np.array(DEFAULT_R_GRID)
    lam_path, vec_path, qualities = zip(*(
        _anchored_eigh(conditional_covariance(model, r).sigma, basis.vectors, basis.sizes, r)
        for r in rs))
    # The covariance is exactly even in r, so the production fit uses even
    # powers only; the odd-inclusive fit exists to measure the linear term.
    lam_path = np.stack(lam_path)
    lam_even = _poly_fit(rs, lam_path, (0, 2, 4, 6))
    lam_full = _poly_fit(rs, lam_path, (0, 1, 2, 3, 4))
    vec_fit = _poly_fit(rs, np.stack(vec_path), (0, 1, 2, 3, 4))
    lam0 = lam_even[0]

    L = model.cond_dim
    rank0 = L - model.n_dim - 1
    kernel0 = np.abs(lam0[rank0:]).max()
    if kernel0 > 1e-6 * max(lam0.max(), 1.0):
        raise EigenpathError(
            f"fitted limit eigenvalues of the kernel block do not vanish; max {kernel0:.3e}")
    lam0[rank0:] = 0.0  # exact kernel
    return SpectralExpansion(
        L=L,
        rank0=rank0,
        Lambda0=lam0,
        Lambda1=lam_full[1],
        Lambda2=lam_even[2],
        P0=vec_fit[0],
        P1=vec_fit[1],
        path_quality=min(qualities),
    )


# ---------------------------------------------------------------------------
# row-rearranged determinants and their small-r scaling
# ---------------------------------------------------------------------------

def _mixed_dets(mats, cols):
    """det of the N x N matrices whose row i is row i of ``mats[cols[..., i]]``.

    ``mats`` is a (K, N, N) stack, ``cols`` stack indices with a trailing
    axis of length N.  Every determinant expansion in this module is this rule.
    """
    return np.linalg.det(mats[cols, np.arange(mats.shape[-1])])


def _bv_dets(factor, vs):
    """bv determinants for the 1-based column tuples on the last axis of vs."""
    cols = np.asarray(vs, dtype=int)
    if cols.min() < 1 or cols.max() > factor.shape[0]:
        raise ValueError(f"column indices must lie in 1..{factor.shape[0]}")
    return _mixed_dets(matriculate_batch(factor.T, cols.shape[-1]), cols - 1)


def bv_determinant(factor, v):
    """det of the N x N matrix whose i-th row is row i of Matri(column v_i).

    ``factor`` is the L x L factor A(r); ``v`` holds N column indices
    (1-based, as in the monomial bookkeeping of the determinant expansion).
    """
    return float(_bv_dets(factor, v))


def perm_symmetrized_bv(factor, v):
    """Sum of bv_determinant over all permutations of the column tuple v."""
    return float(_bv_dets(factor, list(itertools.permutations(v))).sum())


def scaling_class(model, v):
    """Classify the permutation-symmetrized determinant coefficient as
    Theta(r) or o(r) from its log-log slope over shrinking radii."""
    vals = np.array([perm_symmetrized_bv(factor_at(model, r), v) for r in SCALING_RADII])
    if np.abs(vals).max() < SCALING_FLOOR:
        return "o(r)"
    mags = np.maximum(np.abs(vals), 1e-300)
    slopes = np.diff(np.log(mags)) / np.diff(np.log(SCALING_RADII))
    return "Theta(r)" if float(np.mean(slopes)) < SCALING_SLOPE else "o(r)"


# ---------------------------------------------------------------------------
# the limit polynomial of r^{-1} det(Matri(A(r) y))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitPolynomial:
    """Degree-N homogeneous limit of r^{-1} det(Matri(A(r) y)).

    Built from the closed-form basis: the matrix part from its rank columns
    scaled by sqrt(lambda0) (``a0``, zero on the kernel columns), the
    linear-in-r part from its kernel columns scaled by the square roots of
    their r^2 curvatures.  Flipping the sign of the kernel coordinates
    negates the value exactly.
    """

    n_dim: int
    L: int
    rank0: int
    a0: np.ndarray
    null_matrices: np.ndarray  # (L - rank0, N, N): Matri of scaled kernel columns

    def evaluate(self, y):
        """Value tr(adj(M0) M1) at y, one value per row of a 2-D y.

        M0 = Matri(A0 y) and M1 = sum_k y_k Matri(kernel column k), so the
        value is the derivative of det(M0 + eps M1) at eps = 0.  By row
        multilinearity that is the sum over i of det(M0 with row i taken
        from M1), which is how it is computed.
        """
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        y2 = np.atleast_2d(y)
        if y2.shape[-1] != self.L:
            raise ValueError(f"y must have length {self.L}")
        m0 = matriculate_batch(y2 @ self.a0.T, self.n_dim)
        m1 = np.einsum("sk,kij->sij", y2[:, self.rank0:], self.null_matrices)
        eye = np.eye(self.n_dim, dtype=bool)
        vals = np.linalg.det(np.where(eye[:, :, None], m1[:, None], m0[:, None])).sum(1)
        return float(vals[0]) if single else vals

    def flip(self, y):
        """Negate the kernel coordinates of y (the value-negating symmetry)."""
        y = np.asarray(y, dtype=float).copy()
        y[..., self.rank0:] = -y[..., self.rank0:]
        return y

    def coefficients(self):
        """Monomial map {sorted 1-based index tuple: coefficient}.

        Every surviving monomial has exactly one index in the kernel range
        and N-1 indices among the rank columns.  Expanding every row of the
        determinants in ``evaluate`` over the columns makes the coefficient
        of monomial m the sum, over the distinct orderings of m, of the
        determinant whose row i is row i of Matri(column m_i).  The sum here
        runs over all N! orderings, which counts each distinct one
        prod(multiplicity!) times, and is divided by that product.
        """
        n, rank = self.n_dim, self.rank0
        mats = np.concatenate([matriculate_batch(self.a0[:, :rank].T, n), self.null_matrices])
        monomials = np.array([
            m + (k,) for k in range(rank, self.L)
            for m in itertools.combinations_with_replacement(range(rank), n - 1)
        ])
        # one (monomials, N, N) batch per ordering keeps memory O(monomials N^2)
        total = np.zeros(len(monomials))
        for perm in itertools.permutations(range(n)):
            total += _mixed_dets(mats, monomials[:, perm])
        mult = [math.prod(map(math.factorial, np.bincount(m).tolist())) for m in monomials]
        coefs = total / mult
        cut = COEFF_TOL * max(np.abs(coefs).max(), 1.0)
        return {
            tuple(int(i) + 1 for i in m): float(c)
            for m, c in zip(monomials, coefs) if abs(c) > cut
        }


def limit_polynomial(model):
    """Assemble the limit polynomial from the closed-form basis."""
    basis = _closed_form_basis(model)
    n = model.n_dim
    rank = model.cond_dim - n - 1
    kernel = basis.vectors[:, rank:] * np.sqrt(basis.curv)[None, :]
    return LimitPolynomial(
        n_dim=n,
        L=model.cond_dim,
        rank0=rank,
        a0=basis.vectors * np.sqrt(basis.lam0)[None, :],
        null_matrices=matriculate_batch(kernel.T, n),
    )


def h_r(model, r, y):
    """r^{-1} det(Matri(A(r) y)) with the factor A(r) of :func:`factor_at`."""
    factor = factor_at(model, r)
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    y2 = np.atleast_2d(y)
    mats = matriculate_batch(y2 @ factor.T, model.n_dim)
    vals = np.linalg.det(mats) / r
    return float(vals[0]) if single else vals
