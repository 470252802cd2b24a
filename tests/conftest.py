import numpy as np
import pytest

from critfield.models import cauchy_model, gaussian_model
from critfield.symmetric import DEGEN_TOL, matriculate_batch


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
        hessians = matriculate_batch(packed, n_dim)
        eigs = np.linalg.eigvalsh(hessians)
        tol = DEGEN_TOL * np.maximum(np.sqrt((hessians ** 2).sum(axis=(1, 2))), 1e-300)[:, None]
        return (np.linalg.det(hessians), (eigs < -tol).sum(axis=1),
                (np.abs(eigs) <= tol).any(axis=1))
    return inertia
