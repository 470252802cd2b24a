"""
Torus simulator for 2-D isotropic Gaussian fields and critical-point extraction.

Fields are sampled exactly (in distribution) by circulant embedding: the torus
covariance kernel diagonalizes in the Fourier basis, so coloring white noise
with the root spectrum gives a stationary periodic field.  Critical points of
the sampled field are located on a periodic bicubic-spline surrogate whose
value, gradient and Hessian are analytic and come from one cell gather per
Newton step.  A Newton walker starts in each sub-cell, 16 to a cell, whose
Bezier hull lets both gradient components vanish, a test no critical point
escapes, which keeps Morse counting consistent: on the torus, minima -
saddles + maxima must come out to zero every time; a walker whose Newton step
stops shrinking is retired.  Above a threshold u, a cell gets the hull test
only if one of the 16 spline coefficients that span it exceeds u.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .rice import STREAMS, _chunk_rng
from .symmetric import packed_inertia, vectorize_sym

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

class EmbeddingError(RuntimeError):
    """The circulant spectrum of the torus kernel is negative on the grid."""


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


def _torus_kernel(rho, grid):
    """Min-image covariance kernel on the torus, from one vectorized call of rho."""
    n, h = grid.n, grid.spacing
    ax = np.arange(n) * h
    ax = np.minimum(ax, grid.extent - ax)
    d2 = ax[:, None] ** 2 + ax[None, :] ** 2
    return np.broadcast_to(rho(d2), d2.shape).astype(float)


@functools.lru_cache(maxsize=1)  # a run draws its fields from one model on one grid
def _root_spectrum(rho, grid):
    """Read-only square root of the circulant spectrum, cached per (rho, grid)."""
    # a copy, so that the cache does not keep the complex transform alive
    spectrum = np.fft.fft2(_torus_kernel(rho, grid)).real.copy()
    if not spectrum.min() >= -1e-8 * spectrum.max():
        raise EmbeddingError(f"circulant spectrum is negative ({spectrum.min():.3e}) on "
                             f"the {grid.n}^2 grid of extent {grid.extent:g}")
    # zero the roundoff tail, whose square roots would move the field ~1e-8 per kernel ulp
    spectrum[spectrum < grid.n ** 2 * np.finfo(float).eps * spectrum.max()] = 0.0
    np.sqrt(spectrum, out=spectrum).setflags(write=False)
    return spectrum


def sample_field(model, grid, seed=0):
    """Exact stationary sample of the field on the periodic grid.

    The circulant spectrum (the DFT of the min-image kernel) must be
    nonnegative up to roundoff.  If it is not, no periodic field on this grid
    has the model's covariance, and :class:`EmbeddingError` is raised; a
    longer extent at the same spacing may embed.
    """
    if model.n_dim != 2:
        raise ValueError("the simulator supports N=2 fields")
    if grid.extent < 8.0 * model.correlation_length:
        raise ValueError(
            f"grid extent {grid.extent:g} is below 8 correlation lengths "
            f"({8 * model.correlation_length:g})"
        )
    n = grid.n
    rng = _chunk_rng(seed, STREAMS["field"], 0)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    values = np.fft.ifft2(_root_spectrum(model.rho, grid) * noise).real * n
    return FieldRealization(values=values, spacing=grid.spacing, extent=grid.extent,
                            seed=int(seed), model_name=model.name)


# ---------------------------------------------------------------------------
# periodic bicubic interpolation with analytic derivatives
# ---------------------------------------------------------------------------

# B-spline taps of a cell along one axis: the coefficients at these offsets
_OFFSETS = np.arange(-1, 3)


def _bspline_table(frac):
    """Cubic B-spline weights at offsets -1, 0, 1, 2, shape (3, P, 4).

    Rows hold the value, first- and second-derivative weights at ``frac`` in
    [0, 1).  Offsets 0 and 1 lie on the inner piece of the basis, -1 and 2 on
    the outer one; ``sign`` is that of frac - offset on either pair.
    """
    dist = np.abs(frac[:, None] - _OFFSETS)
    out = np.empty((3,) + dist.shape)
    sign = np.array([1.0, -1.0])
    a, rest = dist[:, 1:3], 2.0 - dist[:, 0::3]
    out[0, :, 1:3] = (4.0 - 6.0 * a ** 2 + 3.0 * a ** 3) / 6.0
    out[1, :, 1:3] = sign * (-12.0 * a + 9.0 * a ** 2) / 6.0
    out[2, :, 1:3] = (-12.0 + 18.0 * a) / 6.0
    out[0, :, 0::3] = rest ** 3 / 6.0
    out[1, :, 0::3] = sign * -3.0 * rest ** 2 / 6.0
    out[2, :, 0::3] = rest
    return out


class FieldSurface:
    """Smooth periodic surrogate of a sampled field.

    Interpolates the grid values with a periodic bicubic B-spline, giving a
    twice continuously differentiable surface whose gradient and Hessian are
    exact derivatives of the surrogate (all in physical units).
    """

    def __init__(self, realization):
        values = realization.values
        n = values.shape[0]
        gx, gy = ((4.0 + 2.0 * np.cos(2.0 * math.pi * f)) / 6.0
                  for f in (np.fft.fftfreq(n), np.fft.rfftfreq(n)))
        self.coeffs = np.fft.irfft2(np.fft.rfft2(values) / np.outer(gx, gy), s=values.shape)
        self.n = n
        self.h = realization.spacing
        self.scale = float(np.sqrt(np.mean(values ** 2)))

    def window(self, cells):
        """The (P, 4, 4) coefficients that span each grid cell of ``cells``."""
        ix, iy = ((cells[:, k, None] + _OFFSETS) % self.n for k in (0, 1))
        return self.coeffs[ix[:, :, None], iy[:, None, :]]

    def jet(self, pts):
        """Value (P,), gradient (P, 2) and Hessian (P, 2, 2) from one cell gather."""
        pg = np.atleast_2d(pts) / self.h
        base = np.floor(pg).astype(np.int64)
        wx, wy = np.split(_bspline_table((pg - base).T.ravel()), 2, axis=1)
        # d[p, i, j]: the derivative of order i in x and j in y at point p
        d = wx.transpose(1, 0, 2) @ self.window(base) @ wy.transpose(1, 2, 0)
        grad = d[:, [1, 0], [0, 1]] / self.h
        hess = d[:, [2, 1, 1, 0], [0, 1, 1, 2]].reshape(-1, 2, 2) / self.h ** 2
        return d[:, 0, 0], grad, hess


def _bezier_controls(taps):
    """Cubic Bezier control points of the B-spline on a cell along one axis,
    from ``taps``, its coefficients at offsets -1, 0, 1, 2, on a new axis 0."""
    c_prev, c, c_next, c_next2 = taps
    return np.stack([(c_prev + 4.0 * c + c_next) / 6.0,
                     (2.0 * c + c_next) / 3.0,
                     (c + 2.0 * c_next) / 3.0,
                     (c + 4.0 * c_next + c_next2) / 6.0])


def _straddles(ctrl, axes):
    return (ctrl.min(axis=axes) <= 0.0) & (ctrl.max(axis=axes) >= 0.0)


def _y_hull(rows):
    """Least and largest y-Bezier control of each cell, from ``rows`` padded by
    (1, 2) along y; a cell's last end control is computed as the next one's first."""
    ends = (rows[:, :-2] + 4.0 * rows[:, 1:-1] + rows[:, 2:]) / 6.0
    c, c_next = rows[:, 1:-2], rows[:, 2:-1]
    ctrl = (ends[:, :-1], ends[:, 1:], (2.0 * c + c_next) / 3.0, (c + 2.0 * c_next) / 3.0)
    return functools.reduce(np.minimum, ctrl), functools.reduce(np.maximum, ctrl)


def _x_slope_straddles(padded):
    """Cells whose x-derivative hull holds 0, from coefficients wrap-padded by (1, 2).

    Along x the derivative's controls, over 3, are (c[+1] - c[-1]) / 6,
    (c[+1] - c) / 3 and (c[+2] - c) / 6, the last being the next cell's first.
    """
    end_lo, end_hi = _y_hull((padded[2:] - padded[:-2]) / 6.0)  # n + 1 rows
    mid_lo, mid_hi = _y_hull((padded[2:-1] - padded[1:-2]) / 3.0)
    lo = np.minimum(np.minimum(end_lo[:-1], end_lo[1:]), mid_lo)
    hi = np.maximum(np.maximum(end_hi[:-1], end_hi[1:]), mid_hi)
    return (lo <= 0.0) & (hi >= 0.0)


def _candidate_cells(surface, u_thr=-math.inf):
    """Cells that can hold a critical point with value above ``u_thr``.

    On each cell the spline is a bicubic Bezier patch, and each partial
    derivative lies in the convex hull of its 12 difference control points.
    A cell is flagged iff both components' control points straddle 0, so a
    cell holding a critical point is never missed; over the full grid they
    come from coefficient differences, which neighbouring cells share.  It is
    kept iff the largest of its 16 value control points, which bounds the
    patch, exceeds ``u_thr``.  The control points are convex combinations of
    the cell's 4 x 4 coefficient window, so unless ``u_thr`` is -inf only the
    cells whose window maximum exceeds it are tested at all.
    """
    coeffs, n = surface.coeffs, surface.n
    padded = np.pad(coeffs, (1, 2), mode="wrap")
    if u_thr == -math.inf:
        return np.argwhere(_x_slope_straddles(padded) & _x_slope_straddles(padded.T).T)
    reach = np.max([padded[k:k + n] for k in range(4)], axis=0)
    reach = np.max([reach[:, k:k + n] for k in range(4)], axis=0)
    # the margin covers the rounding of the control points, a few ulps
    cells = np.argwhere(reach > u_thr - 1e-12 * np.abs(coeffs).max())
    ctrl = _bezier_controls(np.moveaxis(surface.window(cells), 1, 0))
    ctrl = _bezier_controls(np.moveaxis(ctrl, 2, 0))
    mask = _straddles(np.diff(ctrl, axis=0), (0, 1)) & _straddles(np.diff(ctrl, axis=1), (0, 1))
    return cells[mask & (ctrl.max(axis=(0, 1)) > u_thr)]


def _split(ctrl, depth):
    """Rows of tap weights giving Bezier controls on a cell -> those of its
    2**depth equal pieces, stacked in order, by de Casteljau at 1/2."""
    if depth == 0:
        return ctrl
    left, right, level = [], [], ctrl
    while len(level):
        left.append(level[0])
        right.insert(0, level[-1])
        level = (level[:-1] + level[1:]) / 2.0
    return np.concatenate([_split(np.stack(half), depth - 1) for half in (left, right)])


_DEPTH = 2  # halvings of a cell per axis before Newton starts
_VALUE_SPLIT = _split(_bezier_controls(np.eye(4)), _DEPTH)
# the difference form: its weights come in exact +- pairs, as in _x_slope_straddles
_SLOPE_SPLIT = _split(np.diff(_bezier_controls(np.eye(4)), axis=0), _DEPTH)


def _starts(surface, cells, u_thr):
    """Newton starts: the centre of every sub-cell of ``cells`` whose own nets
    pass the tests of :func:`_candidate_cells`.  The derivative nets are split
    in the difference form, which keeps a zero on a cell edge exact."""
    side, window = 2 ** _DEPTH, surface.window(cells)

    def net(x, y):  # (control, cell, x piece, y piece): reductions run over whole slabs
        ctrl = (x @ window @ y.T).reshape(-1, side, len(x) // side, side, len(y) // side)
        return ctrl.transpose(2, 4, 0, 1, 3).reshape(len(x) * len(y) // side ** 2, -1, side, side)

    keep = (_straddles(net(_SLOPE_SPLIT, _VALUE_SPLIT), 0)
            & _straddles(net(_VALUE_SPLIT, _SLOPE_SPLIT), 0))
    if u_thr > -math.inf:
        keep &= net(_VALUE_SPLIT, _VALUE_SPLIT).max(axis=0) > u_thr
    cell, i, j = np.nonzero(keep)
    return (cells[cell] + (np.stack([i, j], axis=1) + 0.5) / side) * surface.h


def _close_pairs(pts, radius, extent):
    """Index pairs (i < j) of points closer than ``radius`` on the torus.

    Returns the pairs in lexicographic order and their min-image distances.
    A sort-and-sweep on the folded x coordinate gives the candidates: each
    point's forward window [x, x + reach] and the window that wraps past the
    seam, with reach the radius padded for rounding, so n points cost about
    n^2 2 radius / extent candidates.  Once 2 reach >= extent every pair is a
    candidate.  The exact min-image ``<`` test then selects the pairs.
    """
    reach = radius + 1e-12 * extent
    x = np.mod(pts[:, 0], extent)
    order = np.argsort(x)
    xs, n = x[order], x.size
    if 2.0 * reach >= extent:
        first, second = np.triu_indices(n, 1)
    else:  # each point's forward window, then its window across the seam
        lo = np.concatenate([np.arange(1, n + 1), np.zeros(n, dtype=np.intp)])
        hi = np.searchsorted(xs, np.concatenate([xs + reach, xs + reach - extent]), "right")
        size = hi - lo
        owner = np.repeat(np.arange(2 * n), size)
        first = owner % n
        second = lo[owner] + np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size)
    pairs = np.sort(np.stack([order[first], order[second]], axis=1), axis=1)
    d = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    d -= extent * np.round(d / extent)
    dist = np.linalg.norm(d, axis=1)
    pairs, dist = pairs[dist < radius], dist[dist < radius]
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order], dist[order]


_MAX_STEPS = 40      # Newton steps of a walker at most
_CONTRACT_AFTER = 8  # Newton steps after which each step must be shorter than the last
_GRAD_TOL = 1e-8     # largest gradient norm of a point, relative to the field's scale


def find_critical_points(realization, u_thr=-math.inf):
    """Locate, refine, classify, and threshold the critical points.

    Newton iterations on the interpolated gradient start in the sub-cells of
    candidate cells that can hold a point (:func:`_candidate_cells`,
    :func:`_starts`); a walker settles once its step is at most 1e-13 h.
    Newton contracts on every step inside a basin, so after
    ``_CONTRACT_AFTER`` steps a walker whose step does not shrink is retired:
    it is cycling or at the roundoff floor.  The points that pass the
    gradient test are deduplicated on the torus, classified by the index rule
    of :func:`critfield.symmetric.packed_inertia` and filtered by field
    value.  Returns the points and a diagnostics dict: ``cells_flagged``
    counts candidate cells, ``starts`` walkers, ``diverged`` the walkers that
    left their leash or met a singular Hessian, and ``stalled`` the others
    that stopped without settling, by the contraction test or after
    ``_MAX_STEPS`` steps.
    """
    surface = FieldSurface(realization)
    h, extent = surface.h, realization.extent
    cells = _candidate_cells(surface, u_thr)
    pts = _starts(surface, cells, u_thr)
    start = pts.copy()
    alive = np.ones(pts.shape[0], dtype=bool)
    walking = alive.copy()
    last = np.full(pts.shape[0], np.inf)  # each walker's latest step length
    for it in range(_MAX_STEPS):
        idx = np.flatnonzero(walking)
        if idx.size == 0:
            break
        _, g, hess = surface.jet(pts[idx])
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
        # singular Hessian; stop those whose step is below 1e-13 h or not shrinking
        drift = pts[idx] - start[idx]
        drift -= extent * np.round(drift / extent)
        bad = (~ok) | (np.linalg.norm(drift, axis=1) > 2.5 * h)
        alive[idx[bad]] = False
        stuck = (norm >= last[idx]) & (it >= _CONTRACT_AFTER)
        last[idx] = norm
        walking[idx[bad | (norm <= 1e-13 * h) | stuck]] = False
    diagnostics = {"cells_flagged": len(cells), "starts": len(pts),
                   "diverged": int((~alive).sum()),
                   "stalled": int((alive & (last > 1e-13 * h)).sum())}

    pts = np.mod(pts[alive], extent)
    vals, grad, hess = surface.jet(pts)
    gnorm = np.linalg.norm(grad, axis=1)
    sel = np.flatnonzero(gnorm < _GRAD_TOL * max(surface.scale, 1e-12))

    # Torus-aware keep-first dedup over the sorted points: j goes when it
    # pairs with a kept i < j.  Walkers that found the same root agree to
    # ~1e-10 h; distinct critical points are kept however close, since tight
    # pairs are the statistic of interest downstream.  Each sweep settles one
    # more link of a chain of pairs.
    sel = sel[np.lexsort((pts[sel, 1], pts[sel, 0]))]
    first, second = _close_pairs(pts[sel], 1e-3 * h, extent)[0].T
    kept, settled = np.ones(sel.size, dtype=bool), False
    while not settled:
        new = np.ones_like(kept)
        new[second[kept[first]]] = False
        settled, kept = np.array_equal(new, kept), new
    pts, gnorm, vals, hess = (a[sel[kept]] for a in (pts, gnorm, vals, hess))
    _, index, _ = packed_inertia(vectorize_sym(hess), 2)
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
