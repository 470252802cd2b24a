"""
Torus simulator for 2-D isotropic Gaussian fields and critical-point extraction.

Fields are sampled exactly (in distribution) by circulant embedding: the torus
covariance kernel diagonalizes in the Fourier basis, so coloring white noise
with the root spectrum gives a stationary periodic field.  Critical points of
the sampled field are located on a periodic bicubic-spline surrogate whose
gradient and Hessian are analytic.  Four Newton walkers start in every cell
whose Bezier hull lets both gradient components vanish, a test no critical
point escapes, which keeps Morse counting consistent: on the torus,
minima - saddles + maxima must come out to zero every time.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .rice import _chunk_rng, _inertia

__all__ = [
    "GridSpec",
    "FieldRealization",
    "CriticalPoint",
    "PairTable",
    "EmbeddingError",
    "sample_field",
    "find_critical_points",
    "euler_characteristic",
    "pair_statistics",
]

FIELD_STREAM = 31


class EmbeddingError(RuntimeError):
    """The circulant spectrum stayed negative after extent doubling."""


@dataclass(frozen=True)
class GridSpec:
    """Square periodic grid: n cells per axis at physical spacing h."""

    n: int
    spacing: float

    @property
    def extent(self):
        return self.n * self.spacing


@dataclass(frozen=True)
class FieldRealization:
    values: np.ndarray
    spacing: float
    extent: float
    seed: int
    model_name: str
    periodic: bool = True

    @property
    def n(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class CriticalPoint:
    position: np.ndarray      # physical coordinates in [0, extent)^2
    value: float
    grad_norm: float
    hessian: np.ndarray
    index: int


@dataclass(frozen=True)
class PairTable:
    """Index composition of close critical-point pairs."""

    eps: float
    n_points: int
    n_pairs: int
    counts: dict = field(default_factory=dict)  # sorted index pair -> count
    pairs: tuple = ()

    @property
    def frac_max_saddle(self):
        if self.n_pairs == 0:
            return float("nan")
        return self.counts.get((1, 2), 0) / self.n_pairs

    @property
    def frac_opposite_det(self):
        """Pairs whose Hessian determinants have opposite signs.

        In 2-D the determinant sign is positive exactly for indices 0 and 2,
        so opposite signs means exactly one member is a saddle.
        """
        if self.n_pairs == 0:
            return float("nan")
        opp = sum(
            cnt for (i, j), cnt in self.counts.items() if (i == 1) != (j == 1)
        )
        return opp / self.n_pairs


def _torus_kernel(model, grid):
    """Min-image covariance kernel on the torus, from one vectorized call of rho."""
    n, h = grid.n, grid.spacing
    ax = np.arange(n) * h
    ax = np.minimum(ax, grid.extent - ax)
    d2 = ax[:, None] ** 2 + ax[None, :] ** 2
    return np.broadcast_to(model.rho(d2), d2.shape).astype(float)


def sample_field(model, grid, seed=0):
    """Exact stationary sample of the field on the periodic grid.

    The circulant spectrum (the DFT of the min-image kernel) must be
    nonnegative; if it is not, the extent is doubled (same spacing) up to two
    times and the result cropped, losing exact periodicity, before giving up.
    """
    if model.n_dim != 2:
        raise ValueError("the simulator supports N=2 fields")
    if grid.extent < 8.0 * model.correlation_length:
        raise ValueError(
            f"grid extent {grid.extent:g} is below 8 correlation lengths "
            f"({8 * model.correlation_length:g})"
        )
    rng = _chunk_rng(seed, FIELD_STREAM, 0)
    work = grid
    for attempt in range(3):
        kernel = _torus_kernel(model, work)
        spectrum = np.fft.fft2(kernel).real
        floor = -1e-8 * spectrum.max()
        if spectrum.min() >= floor:
            spectrum = np.clip(spectrum, 0.0, None)
            m = work.n
            noise = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            coloured = np.fft.ifft2(np.sqrt(spectrum) * noise).real * m
            values = coloured[: grid.n, : grid.n]
            return FieldRealization(
                values=values,
                spacing=grid.spacing,
                extent=grid.extent,
                seed=int(seed),
                model_name=model.name,
                periodic=(attempt == 0),
            )
        work = GridSpec(n=work.n * 2, spacing=work.spacing)
    raise EmbeddingError(
        "circulant spectrum stayed negative after two extent doublings"
    )


# ---------------------------------------------------------------------------
# periodic bicubic interpolation with analytic derivatives
# ---------------------------------------------------------------------------

def _bspline_weights(frac, order):
    """Cubic B-spline basis (or its derivative) at offsets -1, 0, 1, 2.

    ``frac`` is the fractional position in the cell; returns the four tap
    weights for the value (order 0), first, or second derivative.
    """
    t = frac[..., None] - np.array([-1.0, 0.0, 1.0, 2.0])
    a = np.abs(t)
    s = np.sign(t)
    if order == 0:
        return np.where(
            a < 1.0,
            (4.0 - 6.0 * a ** 2 + 3.0 * a ** 3) / 6.0,
            np.where(a < 2.0, (2.0 - a) ** 3 / 6.0, 0.0),
        )
    if order == 1:
        return np.where(
            a < 1.0,
            s * (-12.0 * a + 9.0 * a ** 2) / 6.0,
            np.where(a < 2.0, s * -3.0 * (2.0 - a) ** 2 / 6.0, 0.0),
        )
    if order == 2:
        return np.where(
            a < 1.0,
            (-12.0 + 18.0 * a) / 6.0,
            np.where(a < 2.0, (2.0 - a), 0.0),
        )
    raise ValueError("order must be 0, 1, or 2")


class FieldSurface:
    """Smooth periodic surrogate of a sampled field.

    Interpolates the grid values with a periodic bicubic B-spline, giving a
    twice continuously differentiable surface whose gradient and Hessian are
    exact derivatives of the surrogate (all in physical units).
    """

    def __init__(self, realization):
        values = realization.values
        n = values.shape[0]
        freqs = 2.0 * math.pi * np.fft.fftfreq(n)
        gain = (4.0 + 2.0 * np.cos(freqs)) / 6.0
        self.coeffs = np.fft.ifft2(np.fft.fft2(values) / np.outer(gain, gain)).real
        self.n = n
        self.h = realization.spacing
        self.scale = float(np.sqrt(np.mean(values ** 2)))

    def _tap(self, pts_grid, dx, dy):
        base = np.floor(pts_grid).astype(np.int64)
        frac = pts_grid - base
        wx = _bspline_weights(frac[:, 0], dx)
        wy = _bspline_weights(frac[:, 1], dy)
        offs = np.array([-1, 0, 1, 2])
        ix = (base[:, 0, None] + offs[None, :]) % self.n
        iy = (base[:, 1, None] + offs[None, :]) % self.n
        patch = self.coeffs[ix[:, :, None], iy[:, None, :]]
        return np.einsum("pa,pb,pab->p", wx, wy, patch) / self.h ** (dx + dy)

    def value(self, pts):
        return self._tap(np.atleast_2d(pts) / self.h, 0, 0)

    def gradient(self, pts):
        pg = np.atleast_2d(pts) / self.h
        return np.stack([self._tap(pg, 1, 0), self._tap(pg, 0, 1)], axis=-1)

    def hessian(self, pts):
        pg = np.atleast_2d(pts) / self.h
        hxx = self._tap(pg, 2, 0)
        hxy = self._tap(pg, 1, 1)
        hyy = self._tap(pg, 0, 2)
        out = np.empty((pg.shape[0], 2, 2))
        out[:, 0, 0] = hxx
        out[:, 0, 1] = out[:, 1, 0] = hxy
        out[:, 1, 1] = hyy
        return out


def _bezier_controls(coeffs, axis):
    """Cubic Bezier control points of the periodic B-spline, cell by cell.

    Along ``axis`` the spline on cell i is the cubic Bezier curve with these
    four control points, stacked on a new leading axis.
    """
    c_prev, c_next, c_next2 = (np.roll(coeffs, s, axis) for s in (1, -1, -2))
    return np.stack([(c_prev + 4.0 * coeffs + c_next) / 6.0,
                     (2.0 * coeffs + c_next) / 3.0,
                     (coeffs + 2.0 * c_next) / 3.0,
                     (coeffs + 4.0 * c_next + c_next2) / 6.0])


def _candidate_cells(surface, u_thr=-math.inf):
    """Cells that can hold a critical point with value above ``u_thr``.

    On each cell the spline is a bicubic Bezier patch, and each partial
    derivative lies in the convex hull of its 12 difference control points.
    A cell is flagged iff both components' control points straddle 0, so a
    cell holding a critical point is never missed.  It is kept iff the
    largest of its 16 value control points, which bounds the patch, exceeds
    ``u_thr``.
    """
    ctrl = _bezier_controls(_bezier_controls(surface.coeffs, 0), 2)

    def straddles(diff):
        return (diff.min(axis=(0, 1)) <= 0.0) & (diff.max(axis=(0, 1)) >= 0.0)

    mask = straddles(np.diff(ctrl, axis=0)) & straddles(np.diff(ctrl, axis=1))
    mask &= ctrl.max(axis=(0, 1)) > u_thr
    return np.argwhere(mask)


def _close_pairs(pts, radius, extent):
    """Index pairs (i < j) of points closer than ``radius`` on the torus.

    Returns the pairs in lexicographic order and their min-image distances.
    The tree query, padded for rounding, gives a superset; the min-image
    ``<`` test then selects the pairs.
    """
    folded = np.mod(pts, extent)
    folded[folded >= extent] = 0.0  # np.mod(-1e-17, L) == L, which the tree rejects
    pairs = cKDTree(folded, boxsize=extent).query_pairs(
        radius + 1e-12 * extent, output_type="ndarray")
    d = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    d -= extent * np.round(d / extent)
    dist = np.linalg.norm(d, axis=1)
    pairs, dist = pairs[dist < radius], dist[dist < radius]
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order], dist[order]


# Newton starts per flagged cell, in cell units: one cell can hold two points.
_STARTS = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])


def find_critical_points(realization, u_thr=-math.inf, max_iter=40,
                         grad_tol_factor=1e-8):
    """Locate, refine, classify, and threshold the critical points.

    Newton iterations on the interpolated gradient start from four points
    of every candidate cell (see :func:`_candidate_cells`); a walker stops
    once its step is at most 1e-13 h.  Converged points are deduplicated on
    the torus, classified by the index rule of :func:`critfield.rice._inertia`
    and filtered by field value.  Returns the points and a diagnostics dict:
    ``cells_flagged`` counts candidate cells and ``diverged`` counts walkers
    that left their leash or met a singular Hessian.
    """
    surface = FieldSurface(realization)
    h, extent = surface.h, realization.extent
    cells = _candidate_cells(surface, u_thr)
    pts = ((cells[:, None, :] + _STARTS) * h).reshape(-1, 2)
    start = pts.copy()
    alive = np.ones(pts.shape[0], dtype=bool)
    walking = alive.copy()
    for _ in range(max_iter):
        idx = np.flatnonzero(walking)
        if idx.size == 0:
            break
        g = surface.gradient(pts[idx])
        hess = surface.hessian(pts[idx])
        det = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] ** 2
        ok = np.abs(det) > 1e-300
        step = np.zeros_like(g)
        step[ok, 0] = (hess[ok, 1, 1] * g[ok, 0] - hess[ok, 0, 1] * g[ok, 1]) / det[ok]
        step[ok, 1] = (hess[ok, 0, 0] * g[ok, 1] - hess[ok, 0, 1] * g[ok, 0]) / det[ok]
        norm = np.linalg.norm(step, axis=1)
        big = norm > 1.5 * h
        step[big] *= (1.5 * h / norm[big])[:, None]
        pts[idx] -= step
        # kill walkers that leave a 2.5-cell ball around their start or hit a
        # singular Hessian; retire those whose step fell below 1e-13 h
        drift = pts[idx] - start[idx]
        drift -= extent * np.round(drift / extent)
        bad = (~ok) | (np.linalg.norm(drift, axis=1) > 2.5 * h)
        alive[idx[bad]] = False
        walking[idx[bad | (norm <= 1e-13 * h)]] = False
    diagnostics = {"cells_flagged": len(cells), "diverged": int((~alive).sum())}

    pts = np.mod(pts[alive], extent)
    gnorm = np.linalg.norm(surface.gradient(pts), axis=1)
    keep = gnorm < grad_tol_factor * max(surface.scale, 1e-12)
    pts, gnorm = pts[keep], gnorm[keep]

    # Torus-aware keep-first dedup over the sorted points: j goes when it
    # pairs with a kept i < j.  Walkers that found the same root agree to
    # ~1e-10 h; distinct critical points are kept however close, since tight
    # pairs are the statistic of interest downstream.  Each sweep settles one
    # more link of a chain of pairs.
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts, gnorm = pts[order], gnorm[order]
    first, second = _close_pairs(pts, 1e-3 * h, extent)[0].T
    kept, settled = np.ones(pts.shape[0], dtype=bool), False
    while not settled:
        new = np.ones_like(kept)
        new[second[kept[first]]] = False
        settled, kept = np.array_equal(new, kept), new
    pts, gnorm = pts[kept], gnorm[kept]

    vals = surface.value(pts)
    hess = surface.hessian(pts)
    _, index, _ = _inertia(hess)
    points = [CriticalPoint(position=pts[i].copy(), value=float(vals[i]),
                            grad_norm=float(gnorm[i]), hessian=hess[i].copy(),
                            index=int(index[i]))
              for i in np.flatnonzero(vals > u_thr)]
    return points, diagnostics


def euler_characteristic(points):
    """Morse alternating sum #minima - #saddles + #maxima."""
    return sum((-1) ** p.index for p in points)


def pair_statistics(points, eps, extent):
    """Index composition of unordered pairs closer than ``eps`` on the torus."""
    pts = np.array([p.position for p in points], dtype=float).reshape(-1, 2)
    index = np.array([p.index for p in points], dtype=int)
    pairs, dist = _close_pairs(pts, eps, extent)
    kinds = index[pairs]
    keys, counts = np.unique(np.sort(kinds, axis=1), axis=0, return_counts=True)
    return PairTable(
        eps=float(eps),
        n_points=len(points),
        n_pairs=len(pairs),
        counts={tuple(key): cnt for key, cnt in zip(keys.tolist(), counts.tolist())},
        pairs=tuple(zip(*kinds.T.tolist(), dist.tolist())),
    )
