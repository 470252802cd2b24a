from types import SimpleNamespace

import numpy as np
import pytest

from critfield.covariance import conditional_covariance
from critfield.models import cauchy_model, gaussian_model
from critfield.spectral import DEFAULT_R_GRID, _basis_eigh, _symmetry_basis
from critfield.symmetric import DEGEN_TOL, matriculate


@pytest.fixture(scope="session")
def gauss2():
    return gaussian_model(2)


@pytest.fixture(scope="session")
def gauss3():
    return gaussian_model(3)


@pytest.fixture(scope="session")
def gauss4():
    return gaussian_model(4)


@pytest.fixture(scope="session")
def gauss5():
    return gaussian_model(5)


@pytest.fixture(scope="session")
def cauchy3():
    return cauchy_model(3, ell=1.0, nu=2.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def eigvalsh_inertia():
    """The eigenvalue route to (det, index, degenerate) of packed rows, the
    oracle of ``symmetric.packed_inertia``: LAPACK det and eigvalsh on every
    row, with the ``DEGEN_TOL`` rule relative to ||H||_F."""
    def inertia(packed, n_dim):
        hessians = matriculate(packed, n_dim)
        eigs = np.linalg.eigvalsh(hessians)
        tol = DEGEN_TOL * np.maximum(np.sqrt((hessians ** 2).sum(axis=(1, 2))), 1e-300)[:, None]
        return (np.linalg.det(hessians), (eigs < -tol).sum(axis=1),
                (np.abs(eigs) <= tol).any(axis=1))
    return inertia


@pytest.fixture(scope="session")
def fitted_eigenpath():
    """The fitted route to the eigenpath's expansion, the oracle of
    ``spectral.eigenpath``'s closed form: ``_basis_eigh`` at each radius of
    ``DEFAULT_R_GRID``, then least squares on the radius-normalized even
    powers (0, 2, 4, 6) for Lambda0 and Lambda2, and on the powers 0..4 for
    Lambda1, P0 and P1.  Lambda0 is set to 0 on the kernel."""
    def poly_fit(rs, values, degrees):
        rmax = rs.max()
        design = np.stack([(rs / rmax) ** d for d in degrees], axis=1)
        coef = np.linalg.lstsq(design, values.reshape(len(rs), -1), rcond=None)[0]
        return {d: (c / rmax ** d).reshape(values.shape[1:]) for d, c in zip(degrees, coef)}

    def fit(model):
        basis = _symmetry_basis(model)
        rs = np.array(DEFAULT_R_GRID)
        lam_path, vec_path, _ = zip(*(
            _basis_eigh(basis, conditional_covariance(model, r).sigma, r) for r in rs))
        lam_path = np.stack(lam_path)
        lam_even = poly_fit(rs, lam_path, (0, 2, 4, 6))
        lam_full = poly_fit(rs, lam_path, (0, 1, 2, 3, 4))
        vec_fit = poly_fit(rs, np.stack(vec_path), (0, 1, 2, 3, 4))
        rank0 = model.cond_dim - model.n_dim - 1
        lam0 = lam_even[0]
        lam0[rank0:] = 0.0
        return SimpleNamespace(L=model.cond_dim, rank0=rank0, Lambda0=lam0,
                               Lambda1=lam_full[1], Lambda2=lam_even[2],
                               P0=vec_fit[0], P1=vec_fit[1])
    return fit
