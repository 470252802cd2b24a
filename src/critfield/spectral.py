"""
Spectral structure of the conditional covariance along a ray.

The limit matrix at coincidence has a fully explicit spectrum (two simple
distinguished eigenvalues from a 2x2 reduction, two multiple eigenvalues
tied to the Hessian blocks, and an (N+1)-dimensional kernel).  For r > 0 the
ordered eigenvalues and eigenvectors form continuous paths; this module
tracks them on a grid, extrapolates the expansion coefficients
Lambda(r) = Lambda0 + Lambda2 r^2 + o(r^2) and P(r) = P0 + P1 r + o(r), and
builds the degree-N limit polynomial of r^{-1} det(Matri(A(r) y)) whose sign
splits close critical-point pairs by Hessian-determinant sign.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import conditional_covariance, sigma_expansion
from .models import w_eigenvalues
from .symmetric import matriculate_batch, vech_len

__all__ = [
    "DEFAULT_R_GRID",
    "EigenvalueCollisionError",
    "EigenpathError",
    "ordered_eigendecomposition",
    "SpectrumCatalogue",
    "spectrum_sigma0",
    "h_matrix",
    "SpectralExpansion",
    "eigenpath",
    "bv_determinant",
    "perm_symmetrized_bv",
    "scaling_class",
    "LimitPolynomial",
    "limit_polynomial",
    "h_r",
]

# Grid used to fit the expansion coefficients; descending toward 0.
DEFAULT_R_GRID = (5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3)
TIE_TOL = 1e-9       # eigenvalue gap of a tie, relative to the trace scale
SCALING_RADII = (1e-2, 1e-3, 1e-4)  # radii of scaling_class's log-log slope
SCALING_FLOOR = 1e-11  # coefficients below this at every radius are o(r)
SCALING_SLOPE = 1.5  # mean slope below which a coefficient is Theta(r)
COEFF_TOL = 1e-12    # monomial coefficients dropped up to this, relative to the largest


class EigenvalueCollisionError(RuntimeError):
    """The small distinguished eigenvalue collides with a multiple eigenvalue."""


class EigenpathError(RuntimeError):
    """Continuity of the eigenpath could not be maintained across the grid."""


def ordered_eigendecomposition(mat):
    """Eigenvalues in descending order with a deterministic eigenvector gauge.

    Within numerically equal eigenvalues (gap below ``TIE_TOL`` times
    the trace scale) columns are sign-normalized (first significant
    coordinate positive) and ordered lexicographically, so repeated calls and
    different platforms produce the same matrix.  The eigenvector basis
    inside a degenerate block is still only determined up to rotation.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    asym = np.abs(mat - mat.T).max()
    if asym > 1e-10 * max(np.abs(mat).max(), 1.0):
        raise ValueError(f"matrix is not symmetric (asymmetry {asym:.3e})")
    lam, vec = np.linalg.eigh(0.5 * (mat + mat.T))
    lam = lam[::-1].copy()
    vec = vec[:, ::-1].copy()
    tol = TIE_TOL * max(abs(float(np.trace(mat))), 1.0)
    i = 0
    n = lam.shape[0]
    while i < n:
        j = i + 1
        while j < n and abs(lam[j] - lam[i]) <= tol:
            j += 1
        block = vec[:, i:j]
        for c in range(block.shape[1]):
            col = block[:, c]
            nz = np.nonzero(np.abs(col) > 1e-8)[0]
            if nz.size and col[nz[0]] < 0:
                block[:, c] = -col
        if j - i > 1:
            order = np.lexsort(np.round(block, 12)[::-1])[::-1]
            vec[:, i:j] = block[:, order]
        else:
            vec[:, i:j] = block
        i = j
    return lam, vec


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


def spectrum_sigma0(model, u=None, verify_tol=1e-9):
    """Closed-form eigenvalue catalogue of the limit matrix, checked numerically.

    The catalogue is {lambda_plus, lambda_minus, 4 rho''(0), 8 rho''(0), 0}
    with multiplicities {1, 1, (N-1)(N-2)/2, N-2, N+1}.  A collision of
    lambda_minus with one of the multiple eigenvalues makes the multiplicity
    pattern invalid; rescaling the profile (see ``find_rescaling``) always
    separates them.
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
    if verify_tol is not None:
        s0, _ = sigma_expansion(model, u)
        numeric = np.sort(np.linalg.eigvalsh(s0))[::-1]
        err = np.abs(numeric - cat.dense()).max()
        if err > verify_tol * max(scale, 1.0):
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
# eigenpaths and the small-r expansion
# ---------------------------------------------------------------------------

def _align_to_reference(lam, vec, ref_vec, tie_tol):
    """Permute/rotate columns of (lam, vec) to continue the path in ref_vec.

    Columns are matched by maximal absolute overlap; inside each numerically
    degenerate eigenvalue block the basis is rotated onto the reference by an
    orthogonal Procrustes fit (sign alignment in the non-degenerate case).
    Returns the aligned pair plus the smallest post-alignment overlap.
    """
    from scipy.optimize import linear_sum_assignment

    overlap = ref_vec.T @ vec
    row, col = linear_sum_assignment(-np.abs(overlap))
    order = col[np.argsort(row)]
    lam = lam[order]
    vec = vec[:, order]
    n = lam.shape[0]
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(lam[j] - lam[i]) <= tie_tol:
            j += 1
        block = vec[:, i:j]
        ref_block = ref_vec[:, i:j]
        if j - i == 1:
            if float(block[:, 0] @ ref_block[:, 0]) < 0.0:
                vec[:, i] = -vec[:, i]
        else:
            uu, _, vvt = np.linalg.svd(block.T @ ref_block)
            vec[:, i:j] = block @ (uu @ vvt)
        i = j
    quality = float(np.abs(np.einsum("ij,ij->j", ref_vec, vec)).min())
    return lam, vec, quality


def _poly_fit(rs, values, degrees):
    """Least-squares fit sum_d c_d r^d on a radius-normalized basis.

    ``values`` has shape (len(rs), ...); returns coefficients keyed by degree
    with the normalization undone.
    """
    rmax = rs.max()
    z = rs / rmax
    design = np.stack([z ** d for d in degrees], axis=1)
    flat = values.reshape(len(rs), -1)
    coef, *_ = np.linalg.lstsq(design, flat, rcond=None)
    out = {}
    for k, d in enumerate(degrees):
        out[d] = (coef[k] / rmax ** d).reshape(values.shape[1:])
    return out


@dataclass(frozen=True)
class SpectralExpansion:
    """Tracked eigenpath of Sigma(r) and its fitted expansion coefficients.

    Lambda0/Lambda2 come from an even fit (the covariance is exactly even in
    r), Lambda1 from a fit with odd terms included and is reported as a
    diagnostic of the expected vanishing linear term.  A0 and A1 are the
    factor coefficients: rank columns scale P1 by sqrt(lambda0), kernel
    columns scale P0 by sqrt(lambda2).
    """

    model: object
    u: np.ndarray
    L: int
    rank0: int
    r_grid: np.ndarray
    lambdas: np.ndarray      # (n_grid, L) matched eigenvalue paths
    vectors: tuple           # n_grid matrices of matched eigenvectors
    Lambda0: np.ndarray
    Lambda1: np.ndarray
    Lambda2: np.ndarray
    P0: np.ndarray
    P1: np.ndarray
    A0: np.ndarray
    A1: np.ndarray
    path_quality: float
    _tie_tol: float = field(repr=False, default=1e-10)

    def factor_at(self, r):
        """Path-consistent factor A(r) = P(r) Lambda(r)^{1/2} at any radius."""
        for k, rk in enumerate(self.r_grid):
            if abs(rk - r) <= 1e-15 * max(rk, r):
                lam = np.clip(self.lambdas[k], 0.0, None)
                return self.vectors[k] * np.sqrt(lam)[None, :]
        sig = conditional_covariance(self.model, r, self.u).sigma
        lam, vec = ordered_eigendecomposition(sig)
        nearest = int(np.argmin(np.abs(np.log(self.r_grid) - math.log(r))))
        lam, vec, quality = _align_to_reference(
            lam, vec, self.vectors[nearest], self._tie_tol
        )
        if quality < 0.5:
            raise EigenpathError(
                f"cannot align the eigenbasis at r={r} to the tracked path "
                f"(min overlap {quality:.3f})"
            )
        return vec * np.sqrt(np.clip(lam, 0.0, None))[None, :]

    def to_dict(self):
        return {
            "L": self.L,
            "rank0": self.rank0,
            "r_grid": self.r_grid.tolist(),
            "lambda0": self.Lambda0.tolist(),
            "lambda1": self.Lambda1.tolist(),
            "lambda2": self.Lambda2.tolist(),
            "P0": self.P0.ravel().tolist(),
            "P1": self.P1.ravel().tolist(),
            "A0": self.A0.ravel().tolist(),
            "A1": self.A1.ravel().tolist(),
            "path_quality": self.path_quality,
        }


def eigenpath(model, u=None, r_grid=DEFAULT_R_GRID):
    """Track the ordered eigendecomposition of Sigma(ru) down the grid.

    The grid runs from its largest radius (where splittings are widest and
    the descending order is unambiguous) toward 0, matching each point to the
    previous one.  Failure to maintain continuity (an eigenvalue crossing
    between grid points, say) raises :class:`EigenpathError` naming the
    radius.
    """
    if u is None:
        u = model.axis_direction()
    rs = np.sort(np.asarray(r_grid, dtype=float))[::-1]
    if rs.size < 5 or rs.min() <= 0:
        raise ValueError("need at least five positive radii")
    L = model.cond_dim
    lam_path = np.empty((rs.size, L))
    vec_path = []
    tie_tol = None
    quality = 1.0
    for k, r in enumerate(rs):
        sig = conditional_covariance(model, r, u).sigma
        lam, vec = ordered_eigendecomposition(sig)
        if k == 0:
            tie_tol = max(1e-12, 1e-10 * abs(float(np.trace(sig))))
        else:
            lam, vec, q = _align_to_reference(lam, vec, vec_path[-1], tie_tol)
            if q < 0.5:
                raise EigenpathError(
                    f"eigenpath alignment broke between r={rs[k-1]:g} and r={r:g} "
                    f"(min overlap {q:.3f}); refine the grid"
                )
            quality = min(quality, q)
        lam_path[k] = lam
        vec_path.append(vec)

    # The covariance is exactly even in r, so the production fit uses even
    # powers only; the odd-inclusive fit exists to measure the linear term.
    lam_even = _poly_fit(rs, lam_path, (0, 2, 4, 6))
    lam_full = _poly_fit(rs, lam_path, (0, 1, 2, 3, 4))
    vec_fit = _poly_fit(rs, np.stack(vec_path), (0, 1, 2, 3, 4))
    lam0 = lam_even[0]
    lam2 = lam_even[2]
    p0, p1 = vec_fit[0], vec_fit[1]

    rank0 = L - model.n_dim - 1
    scale = max(lam0.max(), 1.0)
    if np.abs(lam0[rank0:]).max() > 1e-6 * scale:
        raise EigenpathError(
            "fitted limit eigenvalues of the kernel block do not vanish; "
            f"max {np.abs(lam0[rank0:]).max():.3e}"
        )
    lam0 = lam0.copy()
    lam0[rank0:] = 0.0  # exact kernel; keeps the factor columns exactly zero
    a0 = p0 * np.sqrt(np.clip(lam0, 0.0, None))[None, :]
    a1 = np.empty_like(a0)
    a1[:, :rank0] = p1[:, :rank0] * np.sqrt(np.clip(lam0[:rank0], 0.0, None))[None, :]
    a1[:, rank0:] = p0[:, rank0:] * np.sqrt(np.clip(lam2[rank0:], 0.0, None))[None, :]
    return SpectralExpansion(
        model=model,
        u=np.asarray(u, dtype=float),
        L=L,
        rank0=rank0,
        r_grid=rs,
        lambdas=lam_path,
        vectors=tuple(vec_path),
        Lambda0=lam0,
        Lambda1=lam_full[1],
        Lambda2=lam2,
        P0=p0,
        P1=p1,
        A0=a0,
        A1=a1,
        path_quality=quality,
        _tie_tol=tie_tol,
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


def scaling_class(model, v, u=None, expansion=None):
    """Classify the permutation-symmetrized determinant coefficient as
    Theta(r) or o(r) from its log-log slope over shrinking radii."""
    if expansion is None:
        expansion = eigenpath(model, u)
    vals = np.array([perm_symmetrized_bv(expansion.factor_at(r), v) for r in SCALING_RADII])
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

    Built from the kernel-side factor expansion: the matrix part from the
    rank columns of A0, the linear-in-r part from the kernel columns of P0
    scaled by sqrt(lambda2).  Flipping the sign of the kernel coordinates
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

    __call__ = evaluate

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


def limit_polynomial(model, u=None, expansion=None):
    """Assemble the limit polynomial from a tracked spectral expansion."""
    if expansion is None:
        expansion = eigenpath(model, u)
    n = model.n_dim
    rank = expansion.rank0
    scaled = expansion.A1[:, rank:]  # kernel columns already sqrt(lambda2)-scaled
    return LimitPolynomial(
        n_dim=n,
        L=expansion.L,
        rank0=rank,
        a0=expansion.A0,
        null_matrices=matriculate_batch(scaled.T, n),
    )


def h_r(model, r, y, u=None, expansion=None):
    """r^{-1} det(Matri(A(r) y)) with the path-consistent factor."""
    if expansion is None:
        expansion = eigenpath(model, u)
    factor = expansion.factor_at(r)
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    y2 = np.atleast_2d(y)
    mats = matriculate_batch(y2 @ factor.T, model.n_dim)
    vals = np.linalg.det(mats) / r
    return float(vals[0]) if single else vals
