"""
Exact covariance machinery for the conditioned second-order structure.

The central object is the L x L covariance matrix Sigma(t), L = N(N+1)/2 + 2,
of (vech Hessian at t, field at t, field at 0) given that the gradient
vanishes at both t and 0, with t = r e_N on the last axis: the field is
isotropic, so every other direction is a rotation of this one.  It is
assembled in closed form from the radial profile's derivatives, and
independently by a generic Schur complement of the full joint covariance
whose entries come from rho alone, through one trapezoidal Cauchy-integral
rule on a circle in the complex plane; the two routes cross-check each
other, and the second reports its own error estimate.  The second fills
its joint covariance from a structure tensor built once per dimension, so
a call costs two weight products and the Schur step.  The r -> 0 expansion
Sigma = Sigma0 + Sigma2 r^2 + o(r^2) is also provided in closed form.
The routes share no derivative code: the closed forms read the profile's
derivative closures in array expressions of their own, while the generic
partials (:func:`_partial`) serve only the oracle's structure tensor and
:func:`cov_partials`.
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .symmetric import vech_indices

__all__ = [
    "CondCov",
    "SingularConditioningError",
    "OracleConvergenceError",
    "cov_partials",
    "conditional_covariance",
    "conditional_covariance_oracle",
    "sigma_expansion",
    "QualReport",
    "ConditionCheck",
    "check_qualified",
]


class SingularConditioningError(RuntimeError):
    """Conditioning on the two gradients is numerically singular."""


class OracleConvergenceError(RuntimeError):
    """A deterministic oracle did not converge.

    Raised by the contour rule when no radius makes its two node counts
    agree, and by the N=2 quadrature when its error estimate stays above
    its tolerance.
    """


@dataclass(frozen=True)
class CondCov:
    """Conditional covariance Sigma(r e_N) with its provenance.

    ``sigma`` is ordered as (vech Hessian at r e_N, X(r e_N), X(0)); the last
    two rows/columns are the field values at the two points.  ``error_estimate``
    is the oracle's estimate of max|sigma - exact| (see
    :func:`conditional_covariance_oracle`); it is None for the closed form.
    """

    n_dim: int
    L: int
    sigma: np.ndarray
    error_estimate: float | None = None

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.sigma)

    def is_positive_semidefinite(self):
        """Nonnegative spectrum up to a trace-relative floor (floating-point Schur)."""
        eigs = self.eigenvalues()
        return bool(eigs.min() >= -PSD_TOL * max(self.sigma.trace(), 1.0))


# ---------------------------------------------------------------------------
# partial derivatives of the covariance function R(t) = rho(||t||^2)
# ---------------------------------------------------------------------------

M_NODES = 256       # nodes on each circle; every other node gives the check rule
R_START = 1.0       # first radius beyond the reach, in units of the trusted window delta^2
MAX_HALVINGS = 8    # radii tried: R_START delta^2 / 2^j for j = 0..MAX_HALVINGS
AGREE_RTOL = 1e-12  # M- vs M/2-node coefficients, relative to max|f| on the circle
PSD_TOL = 1e-10     # most negative eigenvalue of a PSD Sigma, relative to its trace
QUAL_GRID = 256     # log-spaced points of check_qualified's scalar inequalities
PROBE_RADII = (0.25, 0.5, 1.0)  # fractions of the validity radius of the joint probe
_ROOTS = np.exp(2j * np.pi * np.arange(M_NODES) / M_NODES)


def _taylor(f, center, window, reach=0.0):
    """Scaled Taylor coefficients of f about ``center`` by the trapezoidal Cauchy rule.

    f is evaluated once on the M_NODES equispaced nodes of the circle of
    radius rad = reach + R, and one FFT gives a[k] = f^(k)(center) rad^k / k!
    for every k < M_NODES; every other node gives the same M_NODES/2-node
    rule.  Aliasing moves the M/2 coefficients by about (rad/d)^(M/2), with d
    the distance to the nearest singularity of f, so R is halved from
    R_START * ``window`` until the two rules agree to AGREE_RTOL * max|f| on
    the circle; the M-node error is then of the order of the square of that.
    ``window`` is the model's trusted window delta^2 in x, which a rescaled
    profile shrinks with its singularities, so the circles scale with both.

    Returns (a, a_half, rad).  Raises OracleConvergenceError when no radius
    tried agrees, and TypeError when f rejects complex ndarrays.
    """
    for halvings in range(MAX_HALVINGS + 1):
        rad = reach + window * R_START / 2.0 ** halvings
        z = center + rad * _ROOTS
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                vals = np.broadcast_to(f(z), z.shape).astype(complex)
        except TypeError as exc:
            raise TypeError(
                "the contour rule evaluates the profile closures on complex ndarrays; "
                f"build them from numpy ufuncs (np.exp, not math.exp): {exc}"
            ) from exc
        a = np.fft.fft(vals) / M_NODES
        a_half = np.fft.fft(vals[::2]) / (M_NODES // 2)
        if np.abs(a[: M_NODES // 2] - a_half).max() <= AGREE_RTOL * np.abs(vals).max():
            return a, a_half, rad
    raise OracleConvergenceError(
        f"contour rule about x={center:g} found no radius down to {rad:g} on which "
        f"{M_NODES} and {M_NODES // 2} nodes agree; is the profile holomorphic there?"
    )


def _analytic_rho_derivs(model):
    """rho^{(k)} evaluator backed by the model's closures (k <= 4)."""
    funcs = (model.rho, model.rho_d1, model.rho_d2, model.rho_d3)

    def rder(x, k):
        if k <= 3:
            return float(funcs[k](x))
        # The model carries three derivative closures; the fourth is the
        # contour rule's first coefficient of rho''' about x.
        a, _, rad = _taylor(model.rho_d3, x, model.validity_radius ** 2)
        return float(a[1].real) / rad

    return rder


def _partial(rder, t, idx):
    """R_{i_1 ... i_k}(t) for 0-based direction indices, order <= 4."""
    t = np.asarray(t, dtype=float)
    x = float(t @ t)
    k = len(idx)
    if k == 0:
        return rder(x, 0)
    if k == 1:
        return 2.0 * t[idx[0]] * rder(x, 1)
    if k == 2:
        i, j = idx
        return 2.0 * rder(x, 1) * (i == j) + 4.0 * t[i] * t[j] * rder(x, 2)
    if k == 3:
        i, j, l = idx
        lin = t[l] * (i == j) + t[i] * (j == l) + t[j] * (i == l)
        return 4.0 * lin * rder(x, 2) + 8.0 * t[i] * t[j] * t[l] * rder(x, 3)
    if k == 4:
        i, j, l, m = idx
        dd = (i == j) * (l == m) + (j == l) * (i == m) + (i == l) * (j == m)
        tt = (
            t[l] * t[m] * (i == j)
            + t[i] * t[m] * (j == l)
            + t[j] * t[m] * (i == l)
            + t[j] * t[l] * (i == m)
            + t[i] * t[l] * (j == m)
            + t[i] * t[j] * (l == m)
        )
        out = 4.0 * dd * rder(x, 2) + 8.0 * tt * rder(x, 3)
        quart = t[i] * t[j] * t[l] * t[m]
        # the fourth derivative costs a contour rule; skip it where its factor vanishes
        return out + 16.0 * quart * rder(x, 4) if quart != 0.0 else out
    raise ValueError(f"unsupported order {k}")


def cov_partials(model, t, multi_index):
    """Partial derivative R_{i_1 ... i_k}(t) of R(t) = rho(||t||^2).

    ``multi_index`` holds 1-based direction indices; orders up to 4 are
    supported (order 4 away from the origin differentiates the third
    derivative closure once by the contour rule, :func:`_taylor`).  The
    order-6 value at the origin with all six indices equal is also
    available: it equals 120 rho'''(0), i.e. minus the variance of the
    third axial derivative of the field.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (model.n_dim,):
        raise ValueError(f"t must have shape ({model.n_dim},)")
    idx = tuple(int(i) - 1 for i in multi_index)
    if any(i < 0 or i >= model.n_dim for i in idx):
        raise ValueError(f"direction indices out of range 1..{model.n_dim}")
    if len(idx) == 6:
        if len(set(idx)) == 1 and not t.any():
            return 120.0 * model.d3
        raise ValueError("order-6 partials only at t=0 with all indices equal")
    if len(idx) > 4:
        raise ValueError(f"unsupported order {len(idx)}")
    return _partial(_analytic_rho_derivs(model), t, idx)


# ---------------------------------------------------------------------------
# closed-form conditional covariance
# ---------------------------------------------------------------------------

def _vech_pairs(n_dim):
    """Index arrays (i1, j1, i2, j2) of pairs of vech positions: the first
    pair runs down the rows, the second across the columns."""
    rows, cols = vech_indices(n_dim)
    return rows[:, None], cols[:, None], rows[None, :], cols[None, :]


def _g22_origin(d2, n_dim):
    """Hessian-Hessian block at one point, over pairs of vech positions."""
    i1, j1, i2, j2 = _vech_pairs(n_dim)
    dd = (
        ((i1 == j1) & (i2 == j2)).astype(int)
        + ((i2 == j1) & (i1 == j2))
        + ((i1 == i2) & (j1 == j2))
    )
    return 4.0 * d2 * dd


def _gradient_coupling(model, r):
    """(k1, k2, k*, 1 - k1^2, 1 - k*^2) of the gradients at 0 and r e_N, whose
    cross-covariance is -2 rho'(0) (k1 I + k2 r^2 e_N e_N^T), k* = k1 + k2 r^2:
    their joint covariance has determinant (-2 rho'(0))^{2N} (1 - k1^2)^{N-1}
    (1 - k*^2).  Raises :class:`SingularConditioningError` when a factor is
    <= 0, which the qualification conditions rule out inside the validity radius.
    """
    x = r * r
    d10 = model.d1
    # One-sided factorizations 1 - k^2 = (1 - k)(1 + k) with the differences
    # evaluated through the stable increment closure; the naive forms lose
    # most of their precision once r^2 approaches machine epsilon scale.
    k1 = model.rho_d1(x) / d10
    k2 = 2.0 * model.rho_d2(x) / d10
    kstar = k1 + k2 * x
    one_minus_k1 = -model.d1_increment(x) / d10
    one_minus_kstar = one_minus_k1 - k2 * x
    q1 = one_minus_k1 * (1.0 + k1)          # 1 - k1^2
    qstar = one_minus_kstar * (1.0 + kstar)  # 1 - k*^2
    if q1 <= 0.0 or qstar <= 0.0:
        raise SingularConditioningError(
            f"gradient conditioning singular at r={r}: 1-k1^2={q1:.3e}, 1-k*^2={qstar:.3e}"
        )
    return k1, k2, kstar, q1, qstar


@np.errstate(over="ignore", invalid="ignore")  # the non-finite check below reports overflow
def conditional_covariance(model, r):
    """Sigma(r e_N) assembled from the closed-form blocks.

    Raises :class:`SingularConditioningError` when the gradient-gradient
    block cannot be inverted (see :func:`_gradient_coupling`), or when the
    assembled matrix is not finite (r far enough out to overflow).
    """
    if not r > 0:
        raise ValueError("r must be positive; use sigma_expansion for the r=0 limit")
    n, m = model.n_dim, model.vech_dim
    L = m + 2
    t = r * model.axis_direction()
    x = r * r
    d10 = model.d1
    p0, p1, p2, p3 = model.rho(x), model.rho_d1(x), model.rho_d2(x), model.rho_d3(x)
    k1, k2, kstar, q1, qstar = _gradient_coupling(model, r)
    k4 = k2 * (k1 + kstar) / qstar
    k5 = k2 * (1.0 + k1 * kstar) / qstar
    cfac = 1.0 / (2.0 * d10 * q1)

    # third-order block R_ijk(t): rows over vech positions (i, j), columns
    # over directions k
    rows, cols = vech_indices(n)
    i, j, k = rows[:, None], cols[:, None], np.arange(n)[None, :]
    lin = t[k] * (i == j) + t[i] * (j == k) + t[j] * (i == k)
    g21 = 4.0 * lin * p2 + 8.0 * t[i] * t[j] * t[k] * p3
    g21t = g21 @ t

    g20_0 = 2.0 * d10 * (rows == cols).astype(float)
    g20_t = 2.0 * p1 * (rows == cols) + 4.0 * t[rows] * t[cols] * p2

    sigma = np.empty((L, L))
    sigma[:m, :m] = (
        _g22_origin(model.d2, n)
        + cfac * (g21 @ g21.T)
        + cfac * k4 * np.outer(g21t, g21t)
    )
    side_a = g20_0 + 2.0 * p1 * cfac * (1.0 + k4 * x) * g21t
    side_b = g20_t + 2.0 * p1 * cfac * (k1 + k5 * x) * g21t
    sigma[:m, m:] = np.column_stack([side_a, side_b])
    sigma[m:, :m] = sigma[:m, m:].T
    sigma[m, m] = sigma[m + 1, m + 1] = 1.0 + cfac * 4.0 * p1 * p1 * x * (1.0 + k4 * x)
    sigma[m, m + 1] = sigma[m + 1, m] = p0 + cfac * 4.0 * p1 * p1 * x * (k1 + k5 * x)

    if not np.isfinite(sigma).all():
        raise SingularConditioningError(f"Sigma(r) is not finite at r={r}")
    asym = np.abs(sigma - sigma.T).max()
    if asym > 1e-12 * max(np.abs(sigma).max(), 1.0):
        raise AssertionError(f"assembled covariance asymmetric by {asym}")
    sigma = 0.5 * (sigma + sigma.T)
    return CondCov(n_dim=n, L=L, sigma=sigma)


def _joint_components(n_dim):
    """Labels of the joint covariance's rows: (multi-index, at-point), at-point
    1 for t and 0 for the origin, ordered (vech Hessian at t, X(t), X(0),
    grad X(t), grad X(0))."""
    rows_h, cols_h = vech_indices(n_dim)
    comps = [((int(i), int(j)), 1) for i, j in zip(rows_h, cols_h)]
    comps += [((), 1), ((), 0)]
    comps += [((k,), 1) for k in range(n_dim)]
    comps += [((k,), 0) for k in range(n_dim)]
    return comps


@functools.cache
def _joint_structure(n_dim):
    """Structure tensor T of the joint covariance, joint = T @ w, built once per N.

    Entry (i, j) is Cov[d_a X(p t), d_b X(q t)] = (-1)^|b| R_{a+b}(s e_N)
    with s = (p - q) r in {-r, 0, r}.  Its rho^(k) term is homogeneous of
    degree 2k - K in t, K = |a| + |b|, so it is the term of :func:`_partial`
    at t = e_N with rho^(k) = 1, times the weight w[p - q + 1, k, K] =
    s^(2k - K) rho^(k)(s^2).  The order-4 entries pair two Hessians at t,
    where s = 0 and the fourth-derivative term has weight 0^4; so k stops
    at 3.
    """
    comps = _joint_components(n_dim)
    dim = len(comps)
    unit = np.eye(n_dim)[-1]
    tensor = np.zeros((dim, dim, 3, 4, 5))
    for i, (ai, ap) in enumerate(comps):
        for j, (bi, bp) in enumerate(comps[i:], start=i):
            for k in range(4):
                entry = (-1.0) ** len(bi) * _partial(lambda x, kk: float(kk == k), unit, ai + bi)
                tensor[i, j, ap - bp + 1, k, len(ai + bi)] = entry
                tensor[j, i, ap - bp + 1, k, len(ai + bi)] = entry
    tensor = tensor.reshape(dim, dim, -1)
    tensor.flags.writeable = False  # every call shares the cached tensor
    return tensor


def _joint_covariance(n_dim, r, at0, atx):
    """The joint covariance of :func:`conditional_covariance_oracle` at t = r e_N
    from rho^(k)(0) (``at0``) and rho^(k)(r^2) (``atx``), k = 0..3."""
    s = np.array([-r, 0.0, r])[:, None, None]
    power = 2 * np.arange(4)[:, None] - np.arange(5)[None, :]
    radial = np.array([atx, at0, atx], dtype=float)[:, :, None]
    weights = np.where(power >= 0, s ** np.maximum(power, 0) * radial, 0.0)
    return _joint_structure(n_dim) @ weights.ravel()


def _radial_derivatives(coefs, rad, c):
    """rho^(k)(0) and rho^(k)(2c), k = 0..3, and rho'(2c) - rho'(0): rows of
    the result, from scaled Taylor coefficients about c (one column per rule).

    f^(k)(c + o) = sum_n a_n n!/(n-k)! (o/rad)^(n-k) / rad^k.  The terms past
    the leading one, k! a_k, come from one weight product and the leading
    term is added last, so each value rounds once at its own scale, as in
    Horner's rule.  The increment is (1/2 pi i) times the contour integral
    of rho(z) x (2z - x) / (z^2 (z - x)^2), x = 2c, whose kernel is already
    the difference: term by term only the odd part of rho' about c
    survives, 2q sum over even n >= 2 of n a_n q^(n-2) / rad with q = c / rad,
    so nothing cancels.
    """
    q = c / rad
    n = np.arange(M_NODES)
    tail = np.zeros((9, M_NODES))
    for row, (x, k) in enumerate(itertools.product((-q, q), range(4))):
        falling = np.prod([n[k + 1:] - i for i in range(k)], axis=0)
        tail[row, k + 1:] = falling * x ** (n[k + 1:] - k)
    even = n[4::2]
    tail[8, 4::2] = even * q ** (even - 2)
    lead = [0, 1, 2, 3, 0, 1, 2, 3, 2]  # the leading term of each row is k! a_k, 2 a_2 last
    total = tail @ coefs + np.array([1.0, 1, 2, 6, 1, 1, 2, 6, 2])[:, None] * coefs[lead]
    total[8] *= 2.0 * q
    return total / rad ** np.array([0, 1, 2, 3, 0, 1, 2, 3, 1])[:, None]


def conditional_covariance_oracle(model, r):
    """Independent route to Sigma(r e_N): joint covariance + generic Schur.

    The joint covariance of (vech Hessian at t, X(t), X(0), grad X(t),
    grad X(0)) is filled from partial derivatives of R(t) = rho(||t||^2),
    then conditioned on the two gradients by a generic Schur complement.
    Only ``model.rho`` is read, and none of the k-coefficients of the closed
    form are used.  The fill is one product of a structure tensor, built
    once per N from :func:`_partial`, with the call's radial weights
    (:func:`_joint_structure`).

    Every radial derivative comes from one contour rule (:func:`_taylor`):
    rho is sampled on M_NODES nodes of the circle about c = r^2/2 of radius
    c + R, and one FFT gives its Taylor coefficients about c.  One weight
    product (:func:`_radial_derivatives`) takes them to rho, rho', rho''
    and rho''' at 0 and at x = r^2.  The Schur complement resolves
    rho'(x) - rho'(0) and amplifies its error by ~4/r^2, so rho'(x) is
    rho'(0) plus that increment taken directly as a contour integral whose
    kernel is already the difference.

    The same Schur step runs on the M_NODES/2-node coefficients.
    ``error_estimate`` is max|Sigma_M - Sigma_{M/2}| plus
    eps (cond(v22) + dim) max|v11|.  The cond(v22) part is the float64
    Schur step's own roundoff, which grows like r^-2 and dominates at small
    r.  The dim part, with dim = L + 2N the size of the joint covariance,
    covers the rounding of the entries themselves on both routes: each is a
    sum of at most dim rounded terms of size up to max|v11|, and near
    r = 0.5, where cond(v22) is small, that rounding (a few eps max|Sigma|)
    is most of the distance to the closed form.  Checked against the closed
    form for gaussian and cauchy profiles at N = 2..4 from r = 1 down to
    r = 1e-3: the error stays below the estimate, below 1e-9 and below 1e-4
    of max|Sigma(r) - Sigma0|.

    Raises OracleConvergenceError when no radius agrees with its half-node
    rule (a singularity of rho too close to [0, r^2]), TypeError when rho
    rejects complex ndarrays, and SingularConditioningError when the
    gradient block is numerically singular.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    n, m = model.n_dim, model.vech_dim
    L = m + 2
    c = 0.5 * r * r
    coefs, coefs_half, rad = _taylor(model.rho, c, model.validity_radius ** 2, reach=c)
    both = np.zeros((M_NODES, 2))
    both[:, 0], both[: M_NODES // 2, 1] = coefs.real, coefs_half.real
    derivs = _radial_derivatives(both, rad, c)
    dim = L + 2 * n

    def schur(col):
        at0, atx = col[:4], col[4:8].copy()
        atx[1] = at0[1] + col[8]
        joint = _joint_covariance(n, r, at0, atx)
        v11 = joint[:L, :L]
        v12 = joint[:L, L:]
        v22 = joint[L:, L:]
        sv = np.linalg.svd(v22, compute_uv=False)
        if sv.min() <= 1e-14 * sv.max():
            raise SingularConditioningError(
                f"gradient block numerically singular at r={r} (cond={sv.max() / sv.min():.2e})"
            )
        sigma = v11 - v12 @ np.linalg.solve(v22, v12.T)
        roundoff = np.finfo(float).eps * (sv.max() / sv.min() + dim) * np.abs(v11).max()
        return 0.5 * (sigma + sigma.T), roundoff

    sigma, roundoff = schur(derivs[:, 0])
    sigma_half, _ = schur(derivs[:, 1])
    estimate = float(np.abs(sigma - sigma_half).max() + roundoff)
    return CondCov(n_dim=n, L=L, sigma=sigma, error_estimate=estimate)


def sigma_expansion(model):
    """Closed-form (Sigma0, Sigma2) of Sigma(r e_N) = Sigma0 + Sigma2 r^2 + o(r^2)."""
    u = model.axis_direction()
    n, m = model.n_dim, model.vech_dim
    L = m + 2
    d1, d2 = model.d1, model.d2
    alpha, beta = model.alpha, model.beta
    ap = d2                       # alpha'
    bp = d1 * model.d3 / d2       # beta'

    i1, j1, i2, j2 = _vech_pairs(n)
    u1, v1, u2, v2 = u[i1], u[j1], u[i2], u[j2]
    # u = e_N, so every product of its components and the 0/1 deltas is
    # exact and the integer-valued sums need no fixed order; the deltas are
    # floats so that a sum of two counts 2
    ii, jj, ij, ji = (i1 == i2) * 1.0, (j1 == j2) * 1.0, (i1 == j2) * 1.0, (i2 == j1) * 1.0
    diag = (i1 == j1) * 1.0
    uv = u1 * v1
    proj = diag - uv
    pairs = ji * ij + ii * jj
    cross = jj * u1 * u2 + ij * v1 * u2 + ji * u1 * v2 + ii * v1 * v2
    s0, s2 = np.empty((L, L)), np.empty((L, L))
    s0[:m, :m] = (4.0 * d2 * (pairs - cross + 2.0 * uv * uv.T)
                  + (8.0 / 3.0) * d2 * proj * proj.T)
    s2[:m, :m] = (
        (2.0 * alpha - 14.0 * beta / 9.0) * diag * diag.T
        + (4.0 * alpha - 52.0 * beta / 9.0) * (diag.T * uv + diag * uv.T)
        + (2.0 * alpha - 6.0 * beta) * cross
        + (64.0 / 9.0) * beta * uv * uv.T
    )
    s0[:m, m:] = (4.0 / 3.0) * d1 * proj
    s2[:m, m:] = (ap / 3.0 - bp / 9.0) * diag + (2.0 * ap / 3.0 - 14.0 * bp / 9.0) * uv
    s0[m:, :m], s2[m:, :m] = s0[:m, m:].T, s2[:m, m:].T
    s0[m:, m:] = 1.0 - d1 * d1 / (3.0 * d2)
    s2[m:, m:] = -d1 / 6.0 + (5.0 / 18.0) * d1 * d1 * model.d3 / (d2 * d2)
    return s0, s2


# ---------------------------------------------------------------------------
# qualification report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    value: float
    detail: str = ""


@dataclass(frozen=True)
class QualReport:
    model_name: str
    n_dim: int
    checks: tuple = field(default_factory=tuple)

    @property
    def overall_pass(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c.name for c in self.checks if not c.passed]

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self):
        return {
            "model": self.model_name,
            "N": self.n_dim,
            "overall_pass": self.overall_pass,
            "checks": [
                {"name": c.name, "passed": c.passed, "value": c.value, "detail": c.detail}
                for c in self.checks
            ],
        }


def check_qualified(model):
    """Evaluate the regularity conditions on the profile and report each one.

    Scalar inequalities are checked on a grid of ``QUAL_GRID`` log-spaced points
    in (0, delta^2].  The joint non-degeneracy condition has no closed form
    for general profiles; it is probed through the smallest eigenvalue of the
    assembled joint covariance at the ``PROBE_RADII``.
    """
    checks = []
    d1, d2, d3 = model.d1, model.d2, model.d3
    r0 = float(model.rho(0.0))
    checks.append(ConditionCheck("unit_variance", abs(r0 - 1.0) <= 1e-9, r0, "rho(0)"))
    checks.append(ConditionCheck("d1_negative", d1 < 0.0, d1, "rho'(0)"))
    checks.append(ConditionCheck("d2_positive", d2 > 0.0, d2, "rho''(0)"))
    checks.append(ConditionCheck("d3_negative", d3 < 0.0, d3, "rho'''(0)"))

    alpha, beta = model.alpha, model.beta
    margin = alpha - 5.0 * beta / 3.0
    checks.append(
        ConditionCheck(
            "deriv_cauchy_schwarz", margin > 0.0, margin, "alpha - 5 beta / 3"
        )
    )
    n = model.n_dim
    ratio = d2 / d1 ** 2 - n / (n + 2.0)
    checks.append(
        ConditionCheck(
            "curvature_ratio", ratio > 0.0, ratio, "rho''(0)/rho'(0)^2 - N/(N+2)"
        )
    )

    delta2 = model.validity_radius ** 2
    grid = np.geomspace(1e-8 * delta2, delta2, QUAL_GRID)
    p1 = np.array([model.rho_d1(x) for x in grid])
    p2 = np.array([model.rho_d2(x) for x in grid])
    grad_margin = float((-d1 - np.abs(p1)).min())
    checks.append(
        ConditionCheck(
            "gradient_bound", grad_margin > 0.0, grad_margin,
            "min over (0, delta^2] of -rho'(0) - |rho'(x)|",
        )
    )
    gc2_quad = float((d1 * d1 - (p1 * p1 + 2.0 * p1 * p2 * grid + 4.0 * p2 * p2 * grid * grid)).min())
    gc2_sign = float((-p1).min())
    gc2_margin = min(gc2_quad, gc2_sign)
    checks.append(
        ConditionCheck(
            "paired_conditioning", gc2_margin > 0.0, gc2_margin,
            "min margin of rho'(x)<0 and quadratic gradient bound (both points)",
        )
    )

    # Fourth-derivative increment |R_4(0) - R_4(t)| <= C ||t|| on shrinking t,
    # as a numeric smoothness proxy; the increment is actually O(||t||^2) for
    # smooth profiles, so the ratio to ||t|| must stay bounded.
    u0 = model.axis_direction()
    patterns = [(1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 1, 2), (n, n, n, n)]
    base = {p: cov_partials(model, np.zeros(n), p) for p in patterns}
    ratios = []
    for k in range(1, 9):
        tk = model.validity_radius * 0.5 ** k
        diff = max(abs(cov_partials(model, tk * u0, p) - base[p]) for p in patterns)
        ratios.append(diff / tk)
    bound = max(1.0, 2.0 * ratios[0])
    checks.append(
        ConditionCheck(
            "fourth_increment", max(ratios) <= bound, max(ratios),
            "max over shrinking t of |R4(0)-R4(t)|/||t||",
        )
    )

    # Joint non-degeneracy probe: smallest eigenvalue of the correlation
    # matrix D^-1/2 Sigma(r) D^-1/2, D = diag Sigma(r), at sampled radii; a
    # rescaled model moves D and not the correlations.
    worst = np.inf
    ok = True
    for frac in PROBE_RADII:
        r = frac * model.validity_radius
        try:
            cc = conditional_covariance(model, r)
        except SingularConditioningError:
            ok = False
            worst = -np.inf
            break
        var = np.diag(cc.sigma)
        if var.min() > 0.0:
            inv_sd = 1.0 / np.sqrt(var)
            worst = min(worst, np.linalg.eigvalsh(cc.sigma * np.outer(inv_sd, inv_sd)).min())
        else:  # a coordinate without variance is degenerate
            worst = min(worst, 0.0)
    ok = ok and worst > 1e-12
    checks.append(
        ConditionCheck(
            "joint_nondegenerate", bool(ok), float(worst),
            "min eigenvalue of the correlation matrix of Sigma(r) at sampled radii",
        )
    )
    return QualReport(model_name=model.name, n_dim=model.n_dim, checks=tuple(checks))
