"""
Radial covariance models for isotropic Gaussian random fields on R^N.

A field is specified through a scalar profile rho with
Cov[X(s), X(t)] = rho(||t - s||^2).  The model carries rho together with its
first three derivatives as closures; everything downstream (conditional
covariances, spectra, Monte Carlo) is driven by those four functions plus
the dimension.

The closures are called with floats and with ndarrays, real or complex: the
covariance oracle and the off-origin fourth derivative read Taylor
coefficients off circles in the complex plane, and the torus simulator
evaluates the kernel on a whole grid in one call.  The built-in families are
written with numpy ufuncs (np.exp, np.expm1, np.log1p, np.power) for that.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "RadialModel",
    "gaussian_model",
    "cauchy_model",
    "model_from_spec",
    "rescale",
    "find_rescaling",
    "w_matrix",
    "w_eigenvalues",
]


@dataclass(frozen=True)
class RadialModel:
    """Unit-variance radial covariance profile and its derivatives.

    Parameters
    ----------
    n_dim : int
        Dimension N >= 2 of the index space.
    rho, rho_d1, rho_d2, rho_d3 : callable
        rho(x) and its first three derivatives for x >= 0.  rho(0) must be 1.
        Each must be holomorphic near [0, delta^2] and vectorized over complex
        ndarrays, i.e. built from numpy ufuncs rather than ``math`` functions.
        Polynomial lambdas qualify as they stand; a constant such as
        ``lambda x: d3`` is broadcast to the argument's shape.
    scale : float
        Accumulated rescaling factor C applied to the argument (rho(C x)
        relative to the original profile); informational.
    validity_radius : float
        Radius delta such that the expansions and grid checks are trusted for
        ||t|| <= delta.  The theory only asserts existence of such a radius,
        so it is configuration, defaulting to 1.
    name : str
        Short label used in reports and serialized artifacts.
    """

    n_dim: int
    rho: Callable[[float], float]
    rho_d1: Callable[[float], float]
    rho_d2: Callable[[float], float]
    rho_d3: Callable[[float], float]
    scale: float = 1.0
    validity_radius: float = 1.0
    name: str = "custom"
    # Optional cancellation-free evaluation of rho'(x) - rho'(0); built-in
    # families supply expm1-based versions so the conditional covariance
    # keeps full precision as r -> 0.  Falls back to naive subtraction.
    rho_d1_increment: Callable[[float], float] | None = None

    def __post_init__(self):
        if int(self.n_dim) != self.n_dim or self.n_dim < 2:
            raise ValueError(f"n_dim must be an integer >= 2, got {self.n_dim}")
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        if not self.validity_radius > 0:
            raise ValueError("validity_radius must be positive")
        r0 = float(self.rho(0.0))
        if abs(r0 - 1.0) > 1e-9:
            raise ValueError(f"rho(0) must be 1 (unit variance), got {r0!r}")

    # Derivative values at the origin drive every closed-form constant.
    @property
    def d1(self):
        return float(self.rho_d1(0.0))

    @property
    def d2(self):
        return float(self.rho_d2(0.0))

    @property
    def d3(self):
        return float(self.rho_d3(0.0))

    @property
    def alpha(self):
        """rho'(0)^{-1} rho''(0)^2."""
        return self.d2 ** 2 / self.d1

    @property
    def beta(self):
        """rho'''(0)."""
        return self.d3

    def d1_increment(self, x):
        """rho'(x) - rho'(0), stable for small x when the model provides it."""
        if self.rho_d1_increment is not None:
            return float(self.rho_d1_increment(x))
        return float(self.rho_d1(x)) - self.d1

    @property
    def vech_dim(self):
        return self.n_dim * (self.n_dim + 1) // 2

    @property
    def cond_dim(self):
        """L = N(N+1)/2 + 2, the size of the conditioned vector."""
        return self.vech_dim + 2

    @property
    def correlation_length(self):
        """1/sqrt(Var[d X/d t_i]) = (-2 rho'(0))^{-1/2}, the natural unit of length."""
        return 1.0 / math.sqrt(-2.0 * self.d1)

    def axis_direction(self):
        """The canonical unit direction (0, ..., 0, 1)."""
        u = np.zeros(self.n_dim)
        u[-1] = 1.0
        return u


def gaussian_model(n_dim, a=1.0, validity_radius=1.0):
    """Squared-exponential family rho(x) = exp(-a x), a > 0."""
    if not a > 0:
        raise ValueError("a must be positive")
    return RadialModel(
        n_dim=n_dim,
        rho=lambda x: np.exp(-a * x),
        rho_d1=lambda x: -a * np.exp(-a * x),
        rho_d2=lambda x: a * a * np.exp(-a * x),
        rho_d3=lambda x: -(a ** 3) * np.exp(-a * x),
        validity_radius=validity_radius,
        name=f"gaussian(a={a:g})",
        rho_d1_increment=lambda x: -a * np.expm1(-a * x),
    )


def cauchy_model(n_dim, ell=1.0, nu=2.0, validity_radius=1.0):
    """Rational family rho(x) = (1 + x/ell)^{-nu}, ell, nu > 0."""
    if not (ell > 0 and nu > 0):
        raise ValueError("ell and nu must be positive")

    def deriv(k):
        # d^k/dx^k (1+x/ell)^{-nu} = (-1)^k nu(nu+1)...(nu+k-1) ell^{-k} (1+x/ell)^{-nu-k}
        coef = (-1.0) ** k * math.prod(nu + i for i in range(k)) / ell ** k
        return lambda x, c=coef, p=nu + k: c * np.power(1.0 + x / ell, -p)

    return RadialModel(
        n_dim=n_dim,
        rho=lambda x: np.power(1.0 + x / ell, -nu),
        rho_d1=deriv(1),
        rho_d2=deriv(2),
        rho_d3=deriv(3),
        validity_radius=validity_radius,
        name=f"cauchy(ell={ell:g},nu={nu:g})",
        rho_d1_increment=lambda x: -(nu / ell)
        * np.expm1(-(nu + 1.0) * np.log1p(x / ell)),
    )


def model_from_spec(family, n_dim, scale=1.0, **params):
    """Build a built-in model from a family name and parameters.

    Used by the CLI (``--model gaussian:a=1``).  ``scale`` rescales the
    argument after construction.
    """
    family = family.lower()
    if family == "gaussian":
        base = gaussian_model(n_dim, **params)
    elif family == "cauchy":
        base = cauchy_model(n_dim, **params)
    else:
        raise ValueError(f"unknown model family {family!r} (expected gaussian or cauchy)")
    return base if scale == 1.0 else rescale(base, scale)


def rescale(model, c):
    """Model with profile rho~(x) = rho(c x); derivatives pick up factors c^k.

    The validity radius shrinks to delta/sqrt(c) so that the rescaled
    argument stays inside the original trusted window.
    """
    if not c > 0:
        raise ValueError("rescaling factor must be positive")
    if c == 1.0:
        return model
    rho, d1, d2, d3 = model.rho, model.rho_d1, model.rho_d2, model.rho_d3
    inc = model.rho_d1_increment
    return replace(
        model,
        rho=lambda x: rho(c * x),
        rho_d1=lambda x: c * d1(c * x),
        rho_d2=lambda x: c * c * d2(c * x),
        rho_d3=lambda x: c ** 3 * d3(c * x),
        scale=model.scale * c,
        validity_radius=model.validity_radius / math.sqrt(c),
        name=f"{model.name}@x{c:g}",
        rho_d1_increment=None if inc is None else (lambda x: c * inc(c * x)),
    )


def w_matrix(model):
    """The 2x2 matrix whose eigenvalues are the two distinguished limit eigenvalues.

    Entries depend on N and the derivative constants only:
    a = (32 + 8(N-2)) rho''(0) / 3,  b = 8 rho'(0) / 3,
    c = 4 (N-1) rho'(0) / 3,         d = 2 (1 - rho'(0)^2 / (3 rho''(0))).
    """
    n = model.n_dim
    a = (32.0 + 8.0 * (n - 2)) * model.d2 / 3.0
    b = 8.0 * model.d1 / 3.0
    c = 4.0 * (n - 1) * model.d1 / 3.0
    d = 2.0 * (1.0 - model.d1 ** 2 / (3.0 * model.d2))
    return np.array([[a, b], [c, d]])


def w_eigenvalues(model):
    """(lambda_plus, lambda_minus) of :func:`w_matrix`; lambda_minus is (ad - bc) / lambda_plus,
    as (a + d - disc) / 2 cancels once lambda_minus << lambda_plus (at small scales)."""
    (a, b), (c, d) = w_matrix(model)
    lam_p = (a + d + math.sqrt((a - d) ** 2 + 4.0 * b * c)) / 2.0
    return lam_p, (a * d - b * c) / lam_p


MAX_DOUBLINGS = 60         # rescale factors tried: 2^j for j = 0..MAX_DOUBLINGS
SEPARATION_MARGIN = 1e-6   # least relative gap of the separation


def find_rescaling(model):
    """Rescale factor C >= 1 for which the small distinguished eigenvalue
    drops below 4 rho''(0) (so the limit spectrum has no multiplicity
    collisions).

    Grows C by doubling until the separation holds; such a C always exists
    because 4 rho''(0) grows like C^2 while lambda_minus stays bounded.  The
    separation must clear a relative margin, not just the strict inequality,
    so profiles sitting exactly on a collision get moved off it.
    """

    def separated(c):
        scaled = rescale(model, c)
        _, lam_m = w_eigenvalues(scaled)
        four = 4.0 * scaled.d2
        return four - lam_m > SEPARATION_MARGIN * max(four, 1.0)

    c = 1.0
    for _ in range(MAX_DOUBLINGS + 1):
        if separated(c):
            return c
        c *= 2.0
    raise RuntimeError("no separating rescaling found (should not happen)")
