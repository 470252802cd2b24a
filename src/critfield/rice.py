"""
Monte Carlo estimators for critical-point densities by Hessian index.

The density of critical points above a threshold near a conditioned critical
point reduces to a Gaussian expectation over the conditional covariance: draw
y ~ N(0, I_L), map through a factor of Sigma(r), weight by |det| of the
rebuilt Hessian, and restrict by index and by both field values exceeding the
threshold.  Every Monte Carlo estimate is a ratio sum(a)/sum(b) over the
antithetic pair units of one sample, with one delta-method error bar: a
ratio of index classes takes b as the denominator classes' |det| mass, so
the closed-form prefactor cancels exactly, and a density takes b = 1.

Only live samples, those with both field values above the threshold, are
shifted and mapped to packed Hessian rows; the rest carry no mass, and
the values take the mean shift as its image.  A live Hessian's determinant
and index come from :func:`critfield.symmetric.packed_inertia`: one LDL^T
pass on its row at every N (a closed form at N=2), with an eigvalsh fallback
for the rare rows whose pivots cannot settle the index.
The N=2 quadrature oracle takes P(both values > u) as Phibar of the larger
bound wherever the bound Phibar(hi) Phi(-(rho hi - low) / sqrt(1 - rho^2))
on the rest is below 1e-19 of it, and from Owen's T near the diagonal.

Sampling is deterministic: a root seed plus a named stream and a fixed chunk
plan define counter-based substreams.  The chunks run on a thread pool with
one worker per CPU in the affinity mask, and their partial sums are reduced
in chunk order, so identical seeds reproduce identical estimates, bit for
bit, whatever the number of workers.  The points of a sweep share the seed
and the stream, hence the draws: :func:`ratio_sweep` draws each chunk once
and maps it through every point, and each point's estimate is the one a
single-point call gives.  The threshold alone picks the proposal: at
u >= 2 a mean shift to the closest point of the feasible region (Sadowsky &
Bucklew 1990), the projection of the origin onto the hyperplane where both
field values equal the threshold, which keeps the effective sample size
usable out to thresholds where plain sampling would see no hits; below 2,
plain sampling.
"""

import functools
import math
import os
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .covariance import (OracleConvergenceError, _g22_origin, _gradient_coupling,
                         conditional_covariance)
from .io import SCHEMA
from .spectral import factor_at
from .symmetric import packed_inertia

__all__ = [
    "RiceEstimate",
    "InsufficientSamplesError",
    "rice_density_mc",
    "rice_density_quadrature",
    "index_ratio_mc",
    "ratio_sweep",
    "sign_ratio",
    "psi_ratio",
    "maxima_share",
    "mean_critical_density",
]

CHUNK = 1 << 17  # samples per counter-based substream; fixed, scheduler-independent
BLOCK = 1 << 15  # most sample rows a worker maps at once, which bounds its memory
BLAS_SERIAL = 1 << 19  # multiply-adds per product; OpenBLAS threads a product from ~1e6

_pool = None     # (pid, executor) of the worker pool; see _executor

STREAMS = {
    "density": 11,
    "ratio": 12,
    "psi": 13,
    "share": 14,
    "unconditional": 15,
    "hpoly": 16,  # the antisymmetry probes of `critfield hpoly`
    "field": 31,  # the torus fields of critfield.fieldsim
}


class InsufficientSamplesError(RuntimeError):
    """A ratio denominator collected no mass."""


@dataclass(frozen=True)
class RiceEstimate:
    """Monte Carlo estimate with its provenance."""

    value: float
    stderr: float
    n: int
    seed: int
    k: object            # index, tuple of indices, or a tag like "+", "psi"
    r: float
    u_threshold: float
    n_degenerate: int = 0
    wall_ms: float = 0.0
    extras: dict = field(default_factory=dict, repr=False)

    def to_dict(self, op, params=None):
        rec = {
            "schema": SCHEMA,
            "op": op,
            "params": dict(params or {}),
            "value": self.value,
            "stderr": self.stderr,
            "n": self.n,
            "seed": self.seed,
            "wall_ms": self.wall_ms,
        }
        rec["params"].setdefault("r", self.r)
        rec["params"].setdefault("u", self.u_threshold)
        rec["params"].setdefault("k", str(self.k))
        return rec


# ---------------------------------------------------------------------------
# factors, shifts, and the closed-form prefactor
# ---------------------------------------------------------------------------

def _sym_root(sigma):
    """The symmetric nonnegative square root V Lambda^{1/2} V^T of sigma."""
    lam, vec = np.linalg.eigh(sigma)
    return (vec * np.sqrt(np.clip(lam, 0.0, None))[None, :]) @ vec.T


def _factor_matrix(model, r, flip):
    """A factor M with M M^T = Sigma(r u) along the axis direction u.

    With ``flip``, M is :func:`~critfield.spectral.factor_at`'s factor, whose
    last N+1 columns continue ker Sigma0 through every eigenvalue crossing:
    they are the kernel coordinates that the flip pairing negates.
    Otherwise M is the symmetric root.  The two differ by an orthogonal right
    factor, so the induced laws agree.
    """
    if flip:
        return factor_at(model, r)
    return _sym_root(conditional_covariance(model, r).sigma)


def _projection_from(factor, u_thr):
    """Projection of the origin onto {y: rows L-1, L of factor both >= u_thr},
    the mean shift of the sampler at u_thr >= 2.

    The reflection t <-> 0 gives the two field values equal variances, so the
    point lies on the bisecting hyperplane s.y = 2 u_thr, s the sum of the two
    rows: it is 2 u_thr s / (s.s).  At r = 0 the two rows coincide."""
    s = factor[-2] + factor[-1]
    return (2.0 * u_thr / float(s @ s)) * s


def _prefactor(model, r, u_thr):
    """Phibar(u)^{-1} p_grad(0)^{-1} p_t(0,0): converts the Gaussian
    expectation into the conditioned critical-point density.  The gradient
    pair's determinant (:func:`~critfield.covariance._gradient_coupling`) gives
    p_t(0,0) = p_grad(0)^2 / sqrt((1 - k1^2)^{N-1} (1 - k*^2))."""
    from scipy.special import ndtr

    n = model.n_dim
    _, _, _, q1, qstar = _gradient_coupling(model, r)
    p_grad0 = (-4.0 * math.pi * model.d1) ** (-n / 2.0)
    return p_grad0 / (math.sqrt(q1 ** (n - 1) * qstar) * float(ndtr(-u_thr)))


# ---------------------------------------------------------------------------
# core accumulation
# ---------------------------------------------------------------------------

def _chunk_rng(seed, stream, chunk):
    """Philox generator of one chunk of a ``STREAMS`` id under a root seed.

    Every generator of the package comes from here, the torus fields' and
    the ``hpoly`` probes' included, so no two consumers share draws.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(stream), int(chunk)))
    return np.random.Generator(np.random.Philox(ss))


def _executor():
    """The worker pool: one thread per CPU in the affinity mask.

    Made on first use, and again in a forked child, which inherits the pool
    but none of its threads.  No task on the pool submits work to it.
    """
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        affinity = getattr(os, "sched_getaffinity", None)
        workers = len(affinity(0)) if affinity else os.cpu_count() or 1
        _pool = (os.getpid(), ThreadPoolExecutor(workers))
    return _pool[1]


def _serial_matmul(a, b, out):
    """a @ b into ``out``, in row slices that OpenBLAS runs on the calling thread.

    A threaded product leaves OpenBLAS threads spinning on the other workers' cores.
    """
    step = max(1, BLAS_SERIAL // b.size)
    for i in range(0, a.shape[0], step):
        np.matmul(a[i:i + step], b, out=out[i:i + step])
    return out


def _check_n(n):
    if not n >= 1:  # NaN too: a plan of no chunks is no sample
        raise ValueError(f"need a positive sample count, got n={n}")


class _Target(NamedTuple):
    """One point of a pass: a factor of Sigma (its Hessian rows, then the two
    field-value rows), its threshold, and the index classes of its numerator
    and denominator (None: b = 1)."""

    factor: np.ndarray
    u_thr: float
    num_sel: tuple
    den_sel: tuple | None = None


def _accumulate(model, n, seed, stream, antithetic, targets):
    """One pass over the sample plan, mapped through every target.

    ``antithetic`` selects the pairing of each drawn innovation y':
    "negate" pairs y' with -y' (the |det| part is even, so the symmetric
    component of the integrand cancels); "flip" pairs y' with the reflection
    negating the kernel coordinates, which swaps the two determinant-sign
    classes in the r -> 0 limit and all but removes the shared noise from
    sign ratios.

    The chunks run on the worker pool.  A worker draws and pairs its chunk
    BLOCK rows at a time, in place in a block buffer made by the caller, and
    maps the block through each target in turn with the same buffers: the
    draws go through the last two rows of the target's factor only, the two
    field values, to which its mean shift adds its image; this keeps the
    live samples, those with both values above its ``u_thr``, and every
    other sample has zero mass.  The shift is :func:`_projection_from` at
    ``u_thr`` >= 2 and none below.  Only the live samples are shifted, mapped
    to packed Hessian rows, weighted, and passed to
    :func:`~critfield.symmetric.packed_inertia` for determinant and index.
    A chunk's pair sums are bincounts over its live rows, and each target's
    chunk sums are reduced in chunk order, so its estimate depends neither
    on the number of workers nor on the other targets: a target's result is
    that of a pass over it alone.

    Returns, per target, per-index |det|-mass buckets and hit counts (index
    0..N, then degenerate) and R = sum(a)/sum(b) over pair units, a and b a
    unit's mass in the classes of ``num_sel`` and ``den_sel`` (b = 1 if
    ``den_sel`` is None), with the delta-method error bar
    sqrt(sum((a - R b)^2)) / sum(b) from each chunk's moments about its own
    R_c, which do not cancel.  Raises ValueError if ``n`` is below 1 and
    InsufficientSamplesError if any target's sum(b) is 0.
    """
    _check_n(n)
    n_dim = model.n_dim
    m = model.vech_dim
    L = targets[0].factor.shape[1]
    parts = 2 if antithetic in ("negate", "flip") else 1  # samples per pair unit
    n = int(n) + int(n) % parts
    rank0 = L - n_dim - 1
    n_cls = n_dim + 2  # index 0..N, then degenerate
    maps, masks = [], []  # per target: what maps a block, what selects its classes
    for t in targets:
        shift = _projection_from(t.factor, t.u_thr) if t.u_thr >= 2.0 else None
        value_rows = np.ascontiguousarray(t.factor[m:].T)
        maps.append((
            t.u_thr, shift,
            # C-ordered, as OpenBLAS threads a product with a transposed operand far sooner
            np.ascontiguousarray(t.factor[:m].T), value_rows,
            # the shift's half square and its image on the two field values
            None if shift is None else 0.5 * float(shift @ shift),
            None if shift is None else shift @ value_rows))
        masks.append((np.isin(np.arange(n_cls), t.num_sel),
                      None if t.den_sel is None else np.isin(np.arange(n_cls), t.den_sel)))
    n_chunks = -(-n // CHUNK)
    pool = _executor()
    # block buffers are made here: what a worker thread allocates stays in its own malloc arena
    free = queue.SimpleQueue()
    for _ in range(min(pool._max_workers, n_chunks)):
        free.put((np.empty((BLOCK, L)), np.empty((BLOCK, 2)), np.empty(BLOCK),
                  np.empty((BLOCK, L)), np.empty((BLOCK, m))))

    def live_rows(target_map, ys, vals, log_w, picked, hess, lo, k):
        """Place, class and mass of a block's live rows under one target: the
        drawn rows', then the partners'."""
        u_thr, shift, hess_rows, value_rows, half_shift_sq, shift_vals = target_map
        _serial_matmul(ys, value_rows, vals)
        if shift is not None:  # ys stay unshifted: the weight needs the draws
            np.negative(np.matmul(ys, shift, out=log_w), out=log_w)
            log_w -= half_shift_sq
            vals += shift_vals
        rows = np.flatnonzero((vals[:, 0] > u_thr) & (vals[:, 1] > u_thr))
        picked, hess = picked[:rows.size], hess[:rows.size]
        np.take(ys, rows, axis=0, out=picked)
        if shift is not None:
            picked += shift
        dets, idx, degen = packed_inertia(_serial_matmul(picked, hess_rows, hess), n_dim)
        mass = np.abs(dets)
        if shift is not None:
            mass *= np.exp(log_w[rows])
        cut = np.searchsorted(rows, k)  # rows from k on are the partners
        at = rows + lo
        at[cut:] -= k
        live = (at, np.where(degen, n_dim + 1, idx), mass)
        return [x[:cut] for x in live], [x[cut:] for x in live]

    def pair_sums(num_mask, den_mask, units, live):
        """One target's chunk sums over its live rows, each unit's drawn row first."""
        at, cls, mass = map(np.concatenate, zip(*live))
        a = np.bincount(at, np.where(num_mask[cls], mass, 0.0), units)
        b = (np.ones(units) if den_mask is None
             else np.bincount(at, np.where(den_mask[cls], mass, 0.0), units))
        r_c = a.sum() / b.sum() if b.any() else 0.0
        res = a - r_c * b
        return (np.bincount(cls, weights=mass, minlength=n_cls),
                np.bincount(cls, minlength=n_cls),
                (r_c, (res * res).sum(), (res * b).sum(), (b * b).sum()))

    def chunk_sums(chunk):
        units = min(CHUNK, n - chunk * CHUNK) // parts
        rng = _chunk_rng(seed, stream, chunk)
        drawn, partners = [[] for _ in targets], [[] for _ in targets]
        bufs = free.get()
        try:
            for lo in range(0, units, BLOCK // parts):
                k = min(BLOCK // parts, units - lo)
                block = [buf[:parts * k] for buf in bufs]
                ys = block[0]
                rng.standard_normal(out=ys[:k])
                if antithetic == "flip":
                    ys[k:] = ys[:k]
                    ys[k:, rank0:] *= -1.0
                elif parts == 2:
                    np.negative(ys[:k], out=ys[k:])
                for target_map, mine, theirs in zip(maps, drawn, partners):
                    first, second = live_rows(target_map, *block, lo, k)
                    mine.append(first)
                    theirs.append(second)
        finally:
            free.put(bufs)
        return units, [pair_sums(*mask, units, mine + theirs)
                       for mask, mine, theirs in zip(masks, drawn, partners)]

    n_units, chunks = 0, []
    for units, sums in pool.map(chunk_sums, range(n_chunks)):
        n_units += units
        chunks.append(sums)
    accs = []
    for t, per_chunk in zip(targets, zip(*chunks)):
        buckets, counts, moments = zip(*per_chunk)
        buckets, counts = sum(buckets, np.zeros(n_cls)), sum(counts, np.zeros(n_cls, np.int64))
        # first moments from the per-index buckets, so complementary class
        # selections partition the denominator mass exactly
        num = float(np.sum(buckets[list(t.num_sel)]))
        den = float(n_units) if t.den_sel is None else float(np.sum(buckets[list(t.den_sel)]))
        if den <= 0.0:
            raise InsufficientSamplesError(f"denominator saw no mass at u={t.u_thr} with n={n}")
        ratio = num / den
        r_c, res_sq, res_b, b_sq = np.array(moments).reshape(-1, 4).T
        var = float(np.sum(res_sq - 2.0 * (ratio - r_c) * res_b + (ratio - r_c) ** 2 * b_sq))
        accs.append({"buckets": buckets, "counts": counts, "n": n, "n_units": n_units,
                     "num": num, "den": den, "ratio": ratio,
                     "stderr": math.sqrt(max(var, 0.0)) / den})
    return accs


def _sample(model, points, n, seed, stream, antithetic, num_sel, den_sel=None):
    """:func:`_accumulate` at every (r, u_thr) of ``points``, one factor of
    Sigma(r) per distinct r."""
    factors = {r: _factor_matrix(model, r, antithetic == "flip") for r, _ in points}
    targets = [_Target(factors[r], u_thr, num_sel, den_sel) for r, u_thr in points]
    return _accumulate(model, n, seed, STREAMS[stream], antithetic, targets)


def _estimate(acc, t0, value, stderr, seed, k, r, u_thr, **extras):
    """The RiceEstimate of ``acc``'s sample, timed from ``t0``, with its per-index
    |det| mass (``bucket_sums``) and hits (``class_hits``) in ``extras``."""
    return RiceEstimate(value, stderr, acc["n"], int(seed), k, float(r), float(u_thr),
                        n_degenerate=int(acc["counts"][-1]),
                        wall_ms=(time.perf_counter() - t0) * 1e3,
                        extras={"bucket_sums": acc["buckets"][:-1].copy(),
                                "class_hits": acc["counts"].copy(), **extras})


def rice_density_mc(model, r, u_thr, k=None, n=200_000, seed=0, antithetic="negate"):
    """Density of conditioned critical points with index ``k`` above ``u_thr``.

    ``k=None`` places no index restriction.  The value carries the full
    closed-form prefactor; only the absolute level depends on it, every
    ratio estimator cancels it.
    """
    if k is not None and not (0 <= k <= model.n_dim):
        _check_n(n)
        return RiceEstimate(0.0, 0.0, int(n), int(seed), k, float(r), float(u_thr))
    t0 = time.perf_counter()
    sel = tuple(range(model.n_dim + 1)) if k is None else (int(k),)
    (acc,) = _sample(model, [(r, u_thr)], n, seed, "density", antithetic, sel)
    pref = _prefactor(model, r, u_thr)
    return _estimate(acc, t0, pref * acc["num"] / acc["n"],
                     pref * acc["stderr"] * acc["n_units"] / acc["n"], seed, k, r, u_thr,
                     raw_sum=acc["num"], prefactor=pref)


def _ratios(model, points, num_sel, den_sel, n, seed, stream, k, antithetic="negate"):
    """:func:`index_ratio_mc` at every (r, u_thr) of ``points`` from one pass,
    each estimate labelled ``k``; ``wall_ms`` times the whole pass."""
    t0 = time.perf_counter()
    accs = _sample(model, points, n, seed, stream, antithetic, num_sel, den_sel)
    return [_estimate(acc, t0, acc["ratio"], acc["stderr"], seed, k, r, u_thr,
                      num_sum=acc["num"], den_sum=acc["den"])
            for acc, (r, u_thr) in zip(accs, points)]


def index_ratio_mc(model, r, u_thr, num_indices, den_indices, n=2_000_000, seed=0,
                   antithetic="negate", stream="ratio"):
    """Self-normalized ratio of |det|-masses over two disjoint index classes.

    Numerator and denominator share every sample, so the prefactor and the
    overall normalization cancel exactly; the error bar is the delta-method
    standard error at the antithetic-pair level.  ``antithetic="flip"``
    (which takes ``factor_at``'s factor, whose last N+1 columns continue the
    kernel) pairs each sample with its class-swapping reflection and resolves
    the small systematic deviation of sign ratios far below plain-sampling
    noise.
    """
    num_sel, den_sel = tuple(num_indices), tuple(den_indices)
    (est,) = _ratios(model, [(r, u_thr)], num_sel, den_sel, n, seed, stream, (num_sel, den_sel),
                     antithetic)
    return est


# estimator: (its stream, its label k, its numerator and denominator index
# classes at dimension N)
RATIOS = {
    "sign_ratio": ("ratio", "+/-",
                   lambda n: (tuple(range(0, n + 1, 2)), tuple(range(1, n + 1, 2)))),
    "psi_ratio": ("psi", "psi", lambda n: (tuple(range(n - 1)), (n - 1, n))),
    "maxima_share": ("share", "share", lambda n: ((n,), (n - 1, n))),
}


def ratio_sweep(estimator, model, points, n, seed, **kw):
    """The estimates of ``estimator`` at every (r, u_thr) of ``points``, from one pass.

    ``estimator`` names one of :func:`sign_ratio`, :func:`psi_ratio` and
    :func:`maxima_share`, and ``kw`` takes their keyword options.  The points
    share the seed and the stream, so they share every chunk's draws (common
    random numbers): each chunk is drawn and paired once and then mapped
    through every point.  Each estimate is bit-identical to the one the
    single-point call gives; its ``wall_ms`` is that of the whole pass.
    """
    stream, k, classes = RATIOS[estimator]
    return _ratios(model, points, *classes(model.n_dim), n, seed, stream, k, **kw)


def sign_ratio(model, r, u_thr, n=2_000_000, seed=0, **kw):
    """Positive-determinant to negative-determinant mass ratio (limit 1).

    The determinant sign is (-1)^index, so the classes are the even and odd
    indices.
    """
    return ratio_sweep("sign_ratio", model, [(r, u_thr)], n, seed, **kw)[0]


def psi_ratio(model, r, u_thr, n=2_000_000, seed=0, **kw):
    """Mass of indices <= N-2 relative to the top two indices (limit 0 as u grows)."""
    return ratio_sweep("psi_ratio", model, [(r, u_thr)], n, seed, **kw)[0]


def maxima_share(model, r, u_thr, n=2_000_000, seed=0, **kw):
    """Share of local maxima among the top two index classes (limit 1/2)."""
    return ratio_sweep("maxima_share", model, [(r, u_thr)], n, seed, **kw)[0]


def mean_critical_density(model, k=None, n=500_000, seed=0):
    """Unconditional density (per unit volume) of index-k critical points.

    The gradient and the Hessian at a point are independent, so the density
    is the gradient density at zero times E|det| restricted to the index
    class, with the Hessian drawn from its stationary law.  ``k=None`` places
    no index restriction.  The samples come from the same loop as the
    conditioned estimators, with the stationary Hessian factor, two zero
    field-value rows at threshold -inf (every sample live) and no pairing.
    """
    n_dim = model.n_dim
    if k is not None and not (0 <= k <= n_dim):
        _check_n(n)
        return RiceEstimate(0.0, 0.0, int(n), int(seed), k, 0.0, -math.inf)
    t0 = time.perf_counter()
    root = _sym_root(_g22_origin(model.d2, n_dim))
    factor = np.vstack([root, np.zeros((2, root.shape[1]))])
    p_grad0 = (-4.0 * math.pi * model.d1) ** (-n_dim / 2.0)
    sel = tuple(range(n_dim + 1)) if k is None else (int(k),)
    (acc,) = _accumulate(model, n, seed, STREAMS["unconditional"], None,
                         [_Target(factor, -math.inf, sel)])
    # unpaired, so a pair unit is one sample
    return _estimate(acc, t0, p_grad0 * acc["num"] / acc["n"], p_grad0 * acc["stderr"],
                     seed, k, 0.0, -math.inf)


# ---------------------------------------------------------------------------
# deterministic quadrature oracle (N = 2)
# ---------------------------------------------------------------------------

def _bvn_survival(lo1, lo2, rho):
    """P(Z1 > lo1, Z2 > lo2) for a standard bivariate normal, correlation rho.

    With hi and low the larger and the smaller bound and rho >= 0, low cuts
    at most Phibar(hi) Phi(-(rho hi - low) / sqrt(1 - rho^2)) from Phibar(hi),
    below 1e-19 of it where rho hi - low >= 9 sqrt(1 - rho^2); there
    Phibar(hi) is returned.  Only the nodes nearer the diagonal lo1 = lo2 take
    the Owen's T pair, which reads a zero bound as -1e-150 and takes k - rho h
    as (k - h) + (1 - rho) h, whose 1 - rho is exact near rho = 1.
    """
    from scipy.special import ndtr, owens_t

    lo1, lo2 = np.broadcast_arrays(np.asarray(lo1, dtype=float), np.asarray(lo2, dtype=float))
    hi = np.maximum(lo1, lo2)
    out = ndtr(-hi)
    denom = math.sqrt(max((1.0 - rho) * (1.0 + rho), 1e-300))
    near = ~(rho * hi - np.minimum(lo1, lo2) >= 9.0 * denom) | (rho < 0.0)
    h, k = (np.where(lo == 0.0, 1e-150, -lo) for lo in (lo1[near], lo2[near]))
    t_h = owens_t(h, ((k - h) + (1.0 - rho) * h) / (h * denom))
    t_k = owens_t(k, ((h - k) + (1.0 - rho) * k) / (k * denom))
    out[near] = 0.5 * (ndtr(h) + ndtr(k)) - t_h - t_k - np.where(h * k < 0.0, 0.5, 0.0)
    return np.clip(out, 0.0, 1.0)


QUAD_RTOL = 1e-3        # largest accepted error estimate, relative to the class integral
N_RAD = 64              # radial nodes of every rule
T_START = 24            # tau/rho nodes of the first rule
MAX_T_DOUBLINGS = 3     # tau/rho rules tried: T_START * 2^j for j = 0..MAX_T_DOUBLINGS
PHI_START = 128         # angular nodes of the first rule
MAX_PHI_DOUBLINGS = 6   # angular rules tried: PHI_START * 2^j for j = 0..MAX_PHI_DOUBLINGS
PHI_BLOCK = 64          # angular nodes evaluated at once, which bounds the memory
PHI_WIDTH = 0.3         # angular node spacing on the z3 axis, relative to uniform
T_TAIL = 10.0           # radial nodes run this far past the bound on the radial mode


def _cone_frame(sigma, u_thr):
    """Frame of the N=2 Hessian block in which det is diagonal.

    With C = chol(Sigma_hh) and C^T J C = V diag(a, -b, -c) V^T, J the form of
    det on (h11, h12, h22), h = C V z with z ~ N(0, I_3) has det h = a z1^2 -
    b z2^2 - c z3^2 and field values of mean K z, sds sd and correlation eta.
    No radial mode lies past t_hi, the distance of {both values > u} from 0 in
    their covariance metric.  Returns ((a, b, c), K, sd, eta, t_hi, (CV)_00).
    """
    sh, cx = sigma[:3, :3], sigma[:3, 3:]
    chol = np.linalg.cholesky(sh)
    lam, vec = np.linalg.eigh(chol.T @ np.array([[0, 0, 0.5], [0, -1, 0], [0.5, 0, 0]]) @ chol)
    cv = chol @ vec[:, ::-1]
    gain = np.linalg.solve(sh, cx).T
    (s11, s12), (_, s22) = sigma[3:, 3:] - gain @ cx
    var, det = min(s11, s22), s11 * s22 - s12 * s12
    # the corner binds unless a face does; it is never nearer than the nearer face
    corner = (s11 + s22 - 2.0 * s12) / det if s12 < var and det > 0.0 else 0.0
    return (lam[::-1] * [1, -1, -1], gain @ cv, np.sqrt([s11, s22]), s12 / math.sqrt(s11 * s22),
            max(u_thr, 0.0) * math.sqrt(max(1.0 / var, corner)), cv[0, 0])


@functools.cache
def _gauss_legendre(size):
    """Gauss-Legendre nodes and weights on [-1, 1], made once per size, read-only."""
    nodes, weights = leggauss(size)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _cone_rows(frame, u_thr, k, n_rad, n_t, psi):
    """Integral of index class k over (s, nu) at each angular node ``psi``.

    z = s (p/sqrt(a), w cos(phi)/sqrt(b), w sin(phi)/sqrt(c)) has |det| =
    s^2 |p^2 - w^2| and volume s^2 w ds dnu dphi / sqrt(abc): saddles take
    p = nu in (-1, 1), w = 1, a definite nappe p = +-1, w = nu in [0, 1).
    With q = |z/s|^2, t = s sqrt(q) has weight t^4 e^(-t^2/2) / q^(5/2) times
    the survival at mean t K z/|z|, on Gauss-Legendre nodes up to T_TAIL past
    the mode's bound.  phi = pi/2 + atan2(PHI_WIDTH sin psi, cos psi) clusters
    the nodes on the z3 axis, where q is smallest.
    """
    scales, gain, sd, eta, t_hi, h11_sign = frame
    phi = 0.5 * math.pi + np.arctan2(PHI_WIDTH * np.sin(psi), np.cos(psi))
    dphi = PHI_WIDTH / (np.cos(psi) ** 2 + (PHI_WIDTH * np.sin(psi)) ** 2)
    nu, w_nu = _gauss_legendre(n_t)
    if k == 1:
        p, w, weight = nu, np.ones(n_t), w_nu * (1.0 - nu * nu)
    else:  # index 0 is the nappe on which h11 > 0
        p, w = np.full(n_t, 1.0 if (k == 0) == (h11_sign > 0) else -1.0), 0.5 * (nu + 1.0)
        weight = 0.5 * w_nu * w * (1.0 - w * w)
    dirs = np.stack(np.broadcast_arrays(p[:, None], w[:, None] * np.cos(phi),
                                        w[:, None] * np.sin(phi))) / np.sqrt(scales)[:, None, None]
    q = (dirs * dirs).sum(axis=0)
    means = np.einsum("ij,j...->i...", gain, dirs) / np.sqrt(q)
    low = means.min(axis=0)  # the survival turns on near t = u / low
    span = T_TAIL + np.minimum(np.divide(max(u_thr, 0.0), low, out=np.full_like(low, t_hi),
                                         where=low > 0), t_hi)
    x, w_x = _gauss_legendre(n_rad)
    t = 0.5 * span[..., None] * (x + 1.0)
    lo = (u_thr - t * means[..., None]) / sd[:, None, None, None]
    surv = _bvn_survival(lo[0], lo[1], eta)
    radial = (t ** 4 * np.exp(-0.5 * t * t) * surv) @ w_x * (0.5 * span) / q ** 2.5
    return weight @ radial * dphi / math.sqrt((2.0 * math.pi) ** 3 * scales.prod())


def _cone_integral(frame, u_thr, k):
    """Integral of |det| P(both values > u | h) over index class k.

    A periodic trapezoid in psi, doubled from PHI_START nodes by adding the
    midpoints, on N_RAD radial and n_t tau/rho (nu) nodes.  The estimate adds
    the differences to the half-node angular rule and to the half-node radial
    and nu rule.  More angular nodes cannot shrink that radial part, so while
    it exceeds QUAD_RTOL * |value| the rule starts over with n_t doubled from
    T_START.  Returns (value, estimate, evaluations of every rule tried);
    raises OracleConvergenceError after MAX_PHI_DOUBLINGS or MAX_T_DOUBLINGS.
    """
    evals = 0
    for n_t in (T_START * 2 ** j for j in range(MAX_T_DOUBLINGS + 1)):
        rules = ((N_RAD, n_t), (N_RAD // 2, n_t // 2))

        def sums(psi):  # both rules, evaluated PHI_BLOCK angular nodes at a time
            return np.array([sum(_cone_rows(frame, u_thr, k, nr, nt, psi[i:i + PHI_BLOCK]).sum()
                                 for i in range(0, psi.size, PHI_BLOCK)) for nr, nt in rules])

        n_phi = PHI_START // 2
        total = sums(2.0 * math.pi * np.arange(n_phi) / n_phi)
        for _ in range(MAX_PHI_DOUBLINGS + 1):
            coarse = total[0] * 2.0 * math.pi / n_phi
            total = total + sums(2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi)
            n_phi *= 2
            value, half_radial = total * 2.0 * math.pi / n_phi
            angular, radial = abs(value - coarse), abs(value - half_radial)
            if angular + radial <= QUAD_RTOL * abs(value):
                return value, angular + radial, evals + n_phi * sum(nr * nt for nr, nt in rules)
            if radial > QUAD_RTOL * abs(value):  # more angular nodes cannot shrink it
                break
        else:  # the angular part missed, which more nu nodes cannot mend
            break
        evals += n_phi * sum(nr * nt for nr, nt in rules)
    raise OracleConvergenceError(
        f"N=2 quadrature of index {k} at u={u_thr:g}: estimate {angular:.2e} (angular) + "
        f"{radial:.2e} (radial) > {QUAD_RTOL:g} * |{value:.6e}| at {n_phi}/{N_RAD}/{n_t} nodes")


def rice_density_quadrature(model, r, u_thr, k):
    """Deterministic quadrature oracle for the N=2 density of index ``k``.

    One rule over the quadric cone det = 0 serves every class: whitened, the
    saddles fill its inside, each definite class one nappe of its outside,
    and |det| vanishes on the cone, so the integrand is smooth on each
    (Azais & Wschebor 2009, ch. 6).  ``stderr`` is the error estimate, below
    QUAD_RTOL of the value or OracleConvergenceError is raised; the tau/rho
    nodes double while its radial part misses.  ``k=None`` sums the classes.
    Shares only Sigma(r) and the prefactor with the Monte Carlo path.
    """
    if model.n_dim != 2:
        raise ValueError("the quadrature oracle is implemented for N=2 only")
    if k not in (0, 1, 2, None):
        raise ValueError("k must be one of 0, 1, 2, or None")
    frame = _cone_frame(conditional_covariance(model, r).sigma, u_thr)
    raw, err, evals = map(sum, zip(*(_cone_integral(frame, u_thr, c)
                                     for c in ((0, 1, 2) if k is None else (k,)))))
    pref = _prefactor(model, r, u_thr)
    return RiceEstimate(pref * raw, pref * err, evals, 0, k, float(r), float(u_thr))
