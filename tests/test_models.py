import math

import numpy as np
import pytest

from critfield.models import (RadialModel, cauchy_model, find_rescaling,
                              gaussian_model, model_from_spec, rescale,
                              w_eigenvalues, w_matrix)


def test_gaussian_derivative_constants():
    m = gaussian_model(3, a=2.0)
    assert m.d1 == -2.0
    assert m.d2 == 4.0
    assert m.d3 == -8.0
    assert m.alpha == pytest.approx(-8.0)
    assert m.beta == -8.0


def test_cauchy_derivative_constants():
    m = cauchy_model(2, ell=1.0, nu=2.0)
    assert m.d1 == pytest.approx(-2.0)
    assert m.d2 == pytest.approx(6.0)
    assert m.d3 == pytest.approx(-24.0)


def test_unit_variance_enforced():
    with pytest.raises(ValueError):
        RadialModel(
            n_dim=2,
            rho=lambda x: 2.0 * math.exp(-x),
            rho_d1=lambda x: -2.0 * math.exp(-x),
            rho_d2=lambda x: 2.0 * math.exp(-x),
            rho_d3=lambda x: -2.0 * math.exp(-x),
        )


def test_rescale_identity(gauss2):
    assert rescale(gauss2, 1.0) is gauss2


def test_rescale_chain_rule(gauss3):
    c = 2.5
    scaled = rescale(gauss3, c)
    for k, fn in ((1, "rho_d1"), (2, "rho_d2"), (3, "rho_d3")):
        expected = c ** k * getattr(gauss3, fn)(0.0)
        assert getattr(scaled, fn)(0.0) == pytest.approx(expected, rel=1e-14)
    # values agree after substituting the squeezed argument
    assert scaled.rho(0.3) == pytest.approx(gauss3.rho(c * 0.3))


def test_rescale_composes_scale_field(gauss2):
    assert rescale(rescale(gauss2, 2.0), 3.0).scale == pytest.approx(6.0)


def test_d1_increment_matches_subtraction(gauss2, cauchy3):
    for model in (gauss2, cauchy3):
        for x in (1e-8, 1e-4, 0.3, 1.0):
            naive = model.rho_d1(x) - model.rho_d1(0.0)
            assert model.d1_increment(x) == pytest.approx(naive, abs=1e-12)


def test_d1_increment_beats_subtraction_at_tiny_x(gauss2):
    # stable closure keeps relative accuracy where naive subtraction has
    # cancelled most of its digits
    x = 1e-13
    exact = -math.expm1(-x)
    assert gauss2.d1_increment(x) == pytest.approx(exact, rel=1e-12)


def test_w_eigenvalues_against_numeric(gauss4):
    lam_p, lam_m = w_eigenvalues(gauss4)
    numeric = np.linalg.eigvals(w_matrix(gauss4))
    assert sorted([lam_p, lam_m]) == pytest.approx(sorted(numeric.real), rel=1e-12)
    assert lam_p == pytest.approx(16.694, abs=5e-4)
    assert lam_m == pytest.approx(0.639, abs=5e-4)


def test_find_rescaling_noop_for_gaussian(gauss4):
    assert find_rescaling(gauss4) == 1.0


def _colliding_model(n_dim=3):
    """Profile tuned so the small distinguished eigenvalue sits above 4 rho''(0)."""
    d1, d2, d3 = -0.3, 0.1, -5.0
    return RadialModel(
        n_dim=n_dim,
        rho=lambda x: 1.0 + d1 * x + d2 * x ** 2 / 2.0 + d3 * x ** 3 / 6.0,
        rho_d1=lambda x: d1 + d2 * x + d3 * x ** 2 / 2.0,
        rho_d2=lambda x: d2 + d3 * x,
        rho_d3=lambda x: d3,
        name="collider",
    )


def test_find_rescaling_separates_spectrum():
    model = _colliding_model()
    _, lam_m = w_eigenvalues(model)
    assert lam_m > 4.0 * model.d2  # needs rescaling
    c = find_rescaling(model)
    assert c > 1.0
    scaled = rescale(model, c)
    _, lam_m_scaled = w_eigenvalues(scaled)
    assert lam_m_scaled < 4.0 * scaled.d2


def test_model_from_spec_round_trip():
    m = model_from_spec("cauchy", 3, ell=0.5, nu=1.5)
    assert m.name == "cauchy(ell=0.5,nu=1.5)" and m.n_dim == 3
    assert m.rho(1.0) == pytest.approx(3.0 ** -1.5, rel=1e-15)
    with pytest.raises(ValueError):
        model_from_spec("matern", 2)


@pytest.mark.parametrize("scale", [1e-3, 1e-5, 1e-6])
def test_w_eigenvalues_match_mpmath_at_small_scale(scale):
    # (a + d - disc) / 2 cancels against lambda_plus as the scale shrinks, and
    # at 1e-5 puts gaussian(3)'s lambda_minus above 8 rho''(0), where it is not
    mpmath = pytest.importorskip("mpmath")
    model = model_from_spec("gaussian", 3, scale=scale)
    with mpmath.workdps(50):
        ref = mpmath.eig(mpmath.matrix(w_matrix(model).tolist()), left=False, right=False)
        ref = sorted((float(mpmath.re(v)) for v in ref), reverse=True)
    for got, want in zip(w_eigenvalues(model), ref):
        assert abs(got - want) <= 1e-14 * abs(want)
