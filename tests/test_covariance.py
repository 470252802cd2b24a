import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critfield.covariance import (OracleConvergenceError,
                                  SingularConditioningError,
                                  _analytic_rho_derivs, _g22_origin,
                                  _joint_components, _joint_covariance,
                                  _partial, check_qualified,
                                  conditional_covariance,
                                  conditional_covariance_oracle, cov_partials,
                                  sigma_expansion)
from critfield.cli import main
from critfield.models import (RadialModel, cauchy_model, gaussian_model,
                              model_from_spec, rescale)
from critfield.symmetric import tau_index, vech_indices


def _fd_cov_partial(t, idx, h=1e-4):
    """Independent oracle: central differences of R(t) = exp(-||t||^2)."""
    def R(pt):
        return math.exp(-float(np.dot(pt, pt)))

    def diff(f, axis, pt):
        e = np.zeros_like(pt)
        e[axis] = h
        return (f(pt + e) - f(pt - e)) / (2.0 * h)

    f = R
    for axis in idx:
        f = (lambda g, a: lambda pt: diff(g, a, pt))(f, axis - 1)
    return f(np.asarray(t, dtype=float))


def _per_entry_joint(n_dim, r, at0, atx):
    """The oracle's joint covariance entry by entry, (-1)^|b| R_{a+b}((p - q) t)
    from :func:`_partial`: the fill that the structure tensor replaces."""
    t = r * np.eye(n_dim)[-1]
    comps = _joint_components(n_dim)

    def rder(x, k):
        return (atx if x > 0.0 else at0)[k]

    joint = np.empty((len(comps), len(comps)))
    for i, (ai, ap) in enumerate(comps):
        for j, (bi, bp) in enumerate(comps[i:], start=i):
            entry = (-1.0) ** len(bi) * _partial(rder, (ap - bp) * t, ai + bi)
            joint[i, j] = joint[j, i] = entry
    return joint


class TestCovPartials:
    def test_first_partial_value(self, gauss2):
        t = np.array([1.0, 0.0])
        got = cov_partials(gauss2, t, (1,))
        assert got == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-12)
        assert got == pytest.approx(_fd_cov_partial(t, (1,)), abs=1e-6)

    def test_odd_partials_vanish_at_origin(self, gauss3):
        zero = np.zeros(3)
        for i in (1, 2, 3):
            assert cov_partials(gauss3, zero, (i,)) == 0.0
            assert cov_partials(gauss3, zero, (i, i, i)) == 0.0

    def test_mixed_fourth_at_origin(self, gauss2):
        # two distinct index pairs leave only the matched-delta term
        got = cov_partials(gauss2, np.zeros(2), (1, 1, 2, 2))
        assert got == pytest.approx(4.0 * gauss2.d2, rel=1e-12)

    @pytest.mark.parametrize("idx", [(1,), (1, 2), (2, 2), (1, 1, 2), (1, 2, 2)])
    def test_matches_finite_differences(self, gauss2, idx):
        # nested central differences lose ~eps/h^order to roundoff, so the
        # step and tolerance widen with the order
        t = np.array([0.4, -0.7])
        h, tol = (1e-4, 1e-6) if len(idx) <= 2 else (2e-3, 1e-4)
        assert cov_partials(gauss2, t, idx) == pytest.approx(
            _fd_cov_partial(t, idx, h=h), abs=tol
        )

    @pytest.mark.parametrize("idx", [(1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 2, 2)])
    def test_fourth_order_off_origin_closed_form(self, gauss2, idx):
        # R(t) = e^{-t1^2} e^{-t2^2}, and d^n/dt^n e^{-t^2} = g_n(t) e^{-t^2}
        # with the Hermite factors below; order 4 off the origin is the only
        # place rho'''' enters
        g = (
            lambda s: 1.0,
            lambda s: -2.0 * s,
            lambda s: 4.0 * s * s - 2.0,
            lambda s: -8.0 * s ** 3 + 12.0 * s,
            lambda s: 16.0 * s ** 4 - 48.0 * s * s + 12.0,
        )
        t = np.array([0.4, -0.7])
        n1 = idx.count(1)
        expected = g[n1](t[0]) * g[4 - n1](t[1]) * math.exp(-float(t @ t))
        assert cov_partials(gauss2, t, idx) == pytest.approx(expected, rel=1e-9)

    def test_fourth_radial_derivative_off_origin(self):
        # order 4 off the origin is the one place the fourth radial
        # derivative enters; this profile's pole at x = -ell is steep and
        # close to [0, 1]
        ell, nu = 0.5, 3.0
        model = cauchy_model(3, ell=ell, nu=nu)
        rder = _analytic_rho_derivs(model)
        coef = nu * (nu + 1) * (nu + 2) * (nu + 3) / ell ** 4
        for x in np.geomspace(1e-6, 1.0, 40):
            exact = coef * (1.0 + x / ell) ** (-nu - 4)
            assert rder(x, 4) == pytest.approx(exact, rel=1e-12)
            t = np.array([math.sqrt(x), 0.0, 0.0])
            closed = (12.0 * model.rho_d2(x) + 48.0 * x * model.rho_d3(x)
                      + 16.0 * x * x * exact)
            assert cov_partials(model, t, (1, 1, 1, 1)) == pytest.approx(closed, rel=1e-12)

    def test_sixth_order_origin_constant(self, gauss2):
        # the all-equal sixth partial at 0 is minus the variance of the third
        # axial derivative: Var = -120 rho'''(0)
        got = cov_partials(gauss2, np.zeros(2), (1,) * 6)
        assert got == pytest.approx(120.0 * gauss2.d3, rel=1e-12)

    def test_unsupported_orders_raise(self, gauss2):
        with pytest.raises(ValueError):
            cov_partials(gauss2, np.zeros(2), (1, 1, 1, 1, 1))
        with pytest.raises(ValueError):
            cov_partials(gauss2, np.array([0.1, 0.0]), (1, 1, 2, 2, 1, 2))
        with pytest.raises(ValueError):
            cov_partials(gauss2, np.zeros(2), (3,))


class TestConditionalCovariance:
    def test_exchange_symmetry(self, gauss3):
        for r in (0.05, 0.4, 0.9):
            sig = conditional_covariance(gauss3, r).sigma
            assert sig[-1, -1] == pytest.approx(sig[-2, -2], rel=1e-14)

    def test_positive_semidefinite(self, gauss2, cauchy3):
        for model in (gauss2, cauchy3):
            cc = conditional_covariance(model, 0.3)
            assert cc.is_positive_semidefinite()

    @pytest.mark.parametrize("n_dim", [2, 3])
    @pytest.mark.parametrize("r", [0.1, 0.5])
    def test_oracle_agreement(self, n_dim, r):
        for model in (gaussian_model(n_dim), cauchy_model(n_dim)):
            a = conditional_covariance(model, r).sigma
            b = conditional_covariance_oracle(model, r).sigma
            assert np.abs(a - b).max() < 1e-8

    @pytest.mark.parametrize("n_dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("r", [0.9, 0.05, 1e-3])
    def test_joint_fill_matches_per_entry_partials(self, n_dim, r, rng):
        # entries at displacements +t, 0 and -t, with unrelated radial values
        # so that no identity between them hides a misplaced term
        at0, atx = rng.normal(size=(2, 4))
        got = _joint_covariance(n_dim, r, at0, atx)
        ref = _per_entry_joint(n_dim, r, at0, atx)
        assert np.abs(got - ref).max() <= 4.0 * np.finfo(float).eps * np.abs(ref).max()

    @pytest.mark.parametrize("n_dim", [2, 3, 4, 5])
    def test_hessian_block_matches_delta_loop(self, n_dim):
        # the Hessian-Hessian block at one point, against the index loop
        pairs = list(zip(*(idx.tolist() for idx in vech_indices(n_dim))))
        ref = np.array([
            [4.0 * 1.7 * ((i1 == j1) * (i2 == j2) + (i2 == j1) * (i1 == j2)
                          + (i1 == i2) * (j1 == j2)) for i2, j2 in pairs]
            for i1, j1 in pairs
        ])
        assert np.array_equal(_g22_origin(1.7, n_dim), ref)

    def test_singular_conditioning_raises(self):
        # a linear profile keeps the two gradients perfectly correlated
        model = RadialModel(
            n_dim=2,
            rho=lambda x: 1.0 - x,
            rho_d1=lambda x: -1.0,
            rho_d2=lambda x: 0.0,
            rho_d3=lambda x: 0.0,
            name="linear",
        )
        with pytest.raises(SingularConditioningError):
            conditional_covariance(model, 0.2)

    @pytest.mark.parametrize("maker", [gaussian_model, cauchy_model])
    def test_overflowing_radius_raises(self, maker):
        # at r = 1e154, r^2 is near the float maximum and the closed-form
        # blocks overflow to a non-finite Sigma(r)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SingularConditioningError, match="not finite"):
            conditional_covariance(maker(2), 1e154)

    def test_r_zero_rejected(self, gauss2):
        with pytest.raises(ValueError):
            conditional_covariance(gauss2, 0.0)

    def test_oracle_approaches_limit(self, gauss2):
        # Richardson-style check: the distance to the limit scales like r^2
        s0, s2 = sigma_expansion(gauss2)
        gaps = {}
        for r in (2e-3, 1e-3):
            sig = conditional_covariance_oracle(gauss2, r).sigma
            gaps[r] = np.abs(sig - s0).max()
            assert gaps[r] < 10.0 * np.abs(s2).max() * r * r
        assert gaps[2e-3] / gaps[1e-3] == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("model", [gaussian_model(2), cauchy_model(2),
                                       gaussian_model(3, a=2.0)],
                             ids=["gaussian2", "cauchy2", "gaussian3_a2"])
    @pytest.mark.parametrize("r", [4e-3, 2e-3, 1e-3])
    def test_oracle_error_small_against_gap(self, model, r):
        # near the origin the Schur complement amplifies finite-difference
        # error in rho'(r^2) - rho'(0) by ~4/r^2, while Sigma(r) - Sigma0
        # shrinks like r^2; the oracle must still resolve that gap
        s0, _ = sigma_expansion(model)
        closed = conditional_covariance(model, r).sigma
        oracle = conditional_covariance_oracle(model, r).sigma
        assert np.abs(closed - oracle).max() < 0.05 * np.abs(closed - s0).max()


    @settings(max_examples=40, deadline=None)
    @given(
        log_r=st.floats(min_value=-3.0, max_value=math.log10(0.5)),
        n_dim=st.integers(min_value=2, max_value=4),
        family=st.sampled_from(["gaussian", "cauchy"]),
        a=st.floats(min_value=0.75, max_value=3.0),
        ell=st.floats(min_value=0.5, max_value=3.0),
        nu=st.floats(min_value=0.5, max_value=5.0),
    )
    def test_oracle_error_within_estimate(self, log_r, n_dim, family, a, ell, nu):
        # the oracle resolves the r^2 gap, and its own error estimate covers
        # its distance to the closed form
        model = (gaussian_model(n_dim, a=a) if family == "gaussian"
                 else cauchy_model(n_dim, ell=ell, nu=nu))
        r = 10.0 ** log_r
        s0, _ = sigma_expansion(model)
        closed = conditional_covariance(model, r).sigma
        oracle = conditional_covariance_oracle(model, r)
        err = np.abs(closed - oracle.sigma).max()
        assert err <= 1e-4 * np.abs(closed - s0).max()
        assert err <= oracle.error_estimate

    def test_closed_form_has_no_estimate(self, gauss2):
        assert conditional_covariance(gauss2, 0.3).error_estimate is None

    def test_real_only_rho_named(self):
        # math.exp cannot take the complex nodes of the contour rule
        model = RadialModel(
            n_dim=2,
            rho=lambda x: math.exp(-x),
            rho_d1=lambda x: -math.exp(-x),
            rho_d2=lambda x: math.exp(-x),
            rho_d3=lambda x: -math.exp(-x),
            name="math-exp",
        )
        with pytest.raises(TypeError, match="complex ndarrays"):
            conditional_covariance_oracle(model, 0.1)

    def test_nonholomorphic_rho_raises_convergence_error(self):
        # |x|^3 has no Taylor series at 0: no radius lets the two rules agree
        model = RadialModel(
            n_dim=2,
            rho=lambda x: np.exp(-x - 0.1 * np.abs(x) ** 3),
            rho_d1=lambda x: -np.exp(-x),
            rho_d2=lambda x: np.exp(-x),
            rho_d3=lambda x: -np.exp(-x),
            name="not-holomorphic",
        )
        with pytest.raises(OracleConvergenceError):
            conditional_covariance_oracle(model, 0.1)


class TestSigmaExpansion:
    def test_corner_values_unit_gaussian(self, gauss4):
        s0, s2 = sigma_expansion(gauss4)
        L = gauss4.cond_dim
        assert s0[L - 1, L - 1] == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert s2[L - 1, L - 1] == pytest.approx(-1.0 / 9.0, rel=1e-13)

    def test_axis_diagonal_second_order(self, gauss4):
        # the packed (N, N) diagonal entry is 18 alpha - 30 beta
        s0, s2 = sigma_expansion(gauss4)
        pos = tau_index(4, 4) - 1
        expected = 18.0 * gauss4.alpha - 30.0 * gauss4.beta
        assert expected == pytest.approx(12.0)
        assert s2[pos, pos] == pytest.approx(expected, rel=1e-13)
        assert s0[pos, pos] == pytest.approx(0.0, abs=1e-14)

    def test_side_columns_identical(self, gauss3):
        s0, s2 = sigma_expansion(gauss3)
        assert np.array_equal(s0[:, -1], s0[:, -2])
        assert np.array_equal(s2[:, -1], s2[:, -2])

    def test_side_limit_values(self, cauchy3):
        s0, _ = sigma_expansion(cauchy3)
        L = cauchy3.cond_dim
        for k in range(1, cauchy3.n_dim):
            pos = tau_index(k, k) - 1
            assert s0[pos, L - 1] == pytest.approx(4.0 * cauchy3.d1 / 3.0, rel=1e-13)
        # along the ray axis the side entry vanishes in the limit
        pos = tau_index(cauchy3.n_dim, cauchy3.n_dim) - 1
        assert s0[pos, L - 1] == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("maker", [gaussian_model, cauchy_model])
    def test_sigma2_matches_numeric_derivative(self, maker):
        # entrywise slope of Sigma in x = r^2 at 0, from a polynomial fit of
        # the assembled covariance with the known intercept removed
        model = maker(3)
        s0, s2 = sigma_expansion(model)
        xs = np.linspace(0.002, 0.05, 14)
        sigs = np.array(
            [conditional_covariance(model, math.sqrt(x)).sigma for x in xs]
        )
        L = sigs.shape[1]
        reduced = (sigs.reshape(len(xs), -1) - s0.ravel()[None, :]) / xs[:, None]
        design = np.vander(xs / xs.max(), 6, increasing=True)
        coef, *_ = np.linalg.lstsq(design, reduced, rcond=None)
        s2_numeric = coef[0].reshape(L, L)
        assert np.abs(s2_numeric - s2).max() < 5e-7

    @pytest.mark.parametrize("maker", [gaussian_model, cauchy_model])
    def test_residual_decays_quadratically(self, maker):
        model = maker(3)
        s0, s2 = sigma_expansion(model)
        ratios = []
        for r in (1e-2, 1e-3):
            resid = np.linalg.norm(
                conditional_covariance(model, r).sigma - s0 - s2 * r * r
            )
            ratios.append(resid / r ** 2)
        assert ratios[1] < 0.2 * ratios[0]

    def test_side_entries_negative_under_pairing_condition(self, gauss3):
        # both side columns of the packed diagonal stay negative for k < N
        L = gauss3.cond_dim
        for r in (0.05, 0.2, 0.5, 0.9):
            sig = conditional_covariance(gauss3, r).sigma
            for k in range(1, gauss3.n_dim):
                pos = tau_index(k, k) - 1
                assert sig[pos, L - 2] < 0.0
                assert sig[pos, L - 1] < 0.0


class TestCheckQualified:
    def test_gaussian_all_pass(self, gauss2):
        report = check_qualified(gauss2)
        assert report.overall_pass
        assert report.failed() == []

    def test_cauchy_all_pass(self, cauchy3):
        assert check_qualified(cauchy3).overall_pass

    def test_constants_for_steeper_gaussian(self):
        model = gaussian_model(2, a=2.0)
        report = check_qualified(model)
        check = report["deriv_cauchy_schwarz"]
        # alpha = rho'(0)^{-1} rho''(0)^2 = -8, beta = -8: margin 16/3
        assert model.alpha == pytest.approx(-8.0)
        assert model.beta == pytest.approx(-8.0)
        assert check.value == pytest.approx(16.0 / 3.0, rel=1e-12)
        assert check.passed

    def test_curvature_ratio_boundary_named(self):
        # rho''(0) pinned exactly at the lower bound N/(N+2) * rho'(0)^2
        n = 3
        d1 = -1.0
        d2 = n / (n + 2.0)
        d3 = -2.0
        model = RadialModel(
            n_dim=n,
            rho=lambda x: 1.0 + d1 * x + d2 * x ** 2 / 2.0 + d3 * x ** 3 / 6.0,
            rho_d1=lambda x: d1 + d2 * x + d3 * x ** 2 / 2.0,
            rho_d2=lambda x: d2 + d3 * x,
            rho_d3=lambda x: d3,
            validity_radius=0.3,
            name="boundary",
        )
        report = check_qualified(model)
        assert not report.overall_pass
        assert "curvature_ratio" in report.failed()
        assert report["curvature_ratio"].value == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("scale", [1e-6, 1e-5, 1e-3, 1.0, 1e3])
    def test_joint_nondegenerate_is_scale_free(self, gauss2, scale):
        # the correlation matrix of Sigma(r) does not move under rescaling,
        # while the smallest eigenvalue of Sigma(r) itself moves with scale^2
        check = check_qualified(rescale(gauss2, scale))["joint_nondegenerate"]
        assert check.passed
        assert check.value == pytest.approx(8.585458e-7, rel=1e-5)

    def test_report_serializes(self, gauss2):
        d = check_qualified(gauss2).to_dict()
        assert d["overall_pass"] is True
        assert {c["name"] for c in d["checks"]} >= {
            "unit_variance", "curvature_ratio", "gradient_bound",
            "paired_conditioning", "joint_nondegenerate",
        }


def test_contour_rule_follows_the_model_scale(tmp_path):
    # the circles are measured in the trusted window delta^2, which a
    # rescaled model shrinks with its singularities: every oracle error is
    # small and covered by its estimate, far from the unit scale too
    argv = ["sigma", "--verify", "--scale", "300", "--r", "0.05,0.02,0.005,0.001",
            "--tol", "1e-6", "--out", str(tmp_path)]
    assert main(argv) == 0
    with open(tmp_path / "sigma.json") as fh:
        verify = json.load(fh)["verify"]
    assert len(verify) == 4
    for rec in verify:
        assert rec["max_abs"] <= rec["estimate"], rec
        assert rec["max_abs"] < 1e-6, rec
    assert main(["check", "--scale", "1e6", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "check.json") as fh:
        assert json.load(fh)["overall_pass"]


@pytest.mark.parametrize("family", ["gaussian", "cauchy"])
@pytest.mark.parametrize("n_dim", [2, 3, 4])
def test_closed_form_matches_pinned(family, n_dim):
    # D13's deterministic rows: Sigma(r) and (Sigma0, Sigma2) as written by
    # tests/regenerate_pinned.py, each within 1e-12 of its largest entry
    with open(Path(__file__).with_name("sigma_closed_form.json")) as fh:
        pinned = json.load(fh)[family][str(n_dim)]
    model = model_from_spec(family, n_dim)
    s0, s2 = sigma_expansion(model)
    got = {r: conditional_covariance(model, float(r)).sigma for r in pinned["sigma"]}
    got.update(sigma0=s0, sigma2=s2)
    ref = {**pinned["sigma"], "sigma0": pinned["sigma0"], "sigma2": pinned["sigma2"]}
    assert len(pinned["sigma"]) == 4
    for key, want in ref.items():
        want = np.array(want)
        assert got[key].shape == want.shape, key
        assert np.abs(got[key] - want).max() <= 1e-12 * np.abs(want).max(), key


@pytest.mark.parametrize("n_dim", [2, 3, 4])
def test_closed_form_shares_no_partials_with_oracle(monkeypatch, n_dim):
    # the closed form reads the profile closures itself, so a fault in the
    # generic partials behind the oracle's structure tensor cannot reach it
    def forbidden(*args, **kwargs):
        raise AssertionError("the closed form called a generic partial")

    monkeypatch.setattr("critfield.covariance._partial", forbidden)
    monkeypatch.setattr("critfield.covariance._analytic_rho_derivs", forbidden)
    for model in (gaussian_model(n_dim), cauchy_model(n_dim)):
        for r in (1.0, 0.02):
            assert np.isfinite(conditional_covariance(model, r).sigma).all()
        s0, s2 = sigma_expansion(model)
        assert np.isfinite(s0).all() and np.isfinite(s2).all()
