import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from scipy.special import ndtr, owens_t

import critfield.cli as cli_mod
import critfield.rice as rice_mod
from critfield.covariance import (OracleConvergenceError, _g22_origin,
                                  conditional_covariance, sigma_expansion)
from critfield.models import cauchy_model, gaussian_model
from critfield.rice import (InsufficientSamplesError, index_ratio_mc,
                            maxima_share, mean_critical_density, psi_ratio,
                            ratio_sweep, rice_density_mc, rice_density_quadrature,
                            sign_ratio)
from critfield.symmetric import DEGEN_TOL, matriculate, packed_inertia


class TestDensityEstimator:
    def test_deterministic(self, gauss2):
        a = rice_density_mc(gauss2, 0.5, 0.0, k=2, n=40_000, seed=9)
        b = rice_density_mc(gauss2, 0.5, 0.0, k=2, n=40_000, seed=9)
        assert a.value == b.value and a.stderr == b.stderr

    def test_out_of_range_index_is_exact_zero(self, gauss2, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("an out-of-range index needs no samples")

        monkeypatch.setattr(rice_mod, "_accumulate", no_sampling)
        for k in (5, 3, -1):
            assert rice_density_mc(gauss2, 0.5, 0.0, k=k, n=1000, seed=0).value == 0.0
            est = mean_critical_density(gauss2, k=k, n=1000, seed=0)
            assert est.value == 0.0 and est.stderr == 0.0

    def test_partition_is_bitwise(self, gauss2):
        est = rice_density_mc(gauss2, 0.5, 0.0, k=None, n=120_000, seed=3)
        buckets = est.extras["bucket_sums"]
        assert float(np.sum(buckets)) == est.extras["raw_sum"]
        per_k = [
            rice_density_mc(gauss2, 0.5, 0.0, k=k, n=120_000, seed=3)
            for k in range(3)
        ]
        for k, e in enumerate(per_k):
            assert e.extras["raw_sum"] == buckets[k]

    def test_sign_split_partitions_total(self, gauss2):
        # even-index plus odd-index mass recovers the unrestricted mass
        est = rice_density_mc(gauss2, 0.3, 0.5, k=None, n=150_000, seed=4)
        b = est.extras["bucket_sums"]
        assert (b[0] + b[2]) + b[1] == pytest.approx(est.extras["raw_sum"], rel=1e-12)

    def test_value_positive_with_prefactor(self, gauss2):
        est = rice_density_mc(gauss2, 0.5, 0.0, k=2, n=60_000, seed=1)
        assert est.value > 0.0
        assert est.stderr > 0.0

    def test_rejects_bad_inputs(self, gauss2):
        with pytest.raises(ValueError):
            rice_density_mc(gauss2, 0.5, 0.0, n=0)


class TestQuadratureOracle:
    def test_matches_monte_carlo_at_zero_threshold(self, gauss2):
        quad = rice_density_quadrature(gauss2, 0.5, 0.0, 2)
        mc = rice_density_mc(gauss2, 0.5, 0.0, k=2, n=400_000, seed=2)
        assert abs(mc.value - quad.value) / quad.value < 0.02

    def test_node_refinement_stable(self, gauss2, monkeypatch):
        a = rice_density_quadrature(gauss2, 0.5, 0.0, 2)
        monkeypatch.setattr(rice_mod, "N_RAD", 110)
        monkeypatch.setattr(rice_mod, "T_START", 60)
        b = rice_density_quadrature(gauss2, 0.5, 0.0, 2)
        assert abs(a.value - b.value) / a.value < 1e-6

    def test_saddle_by_complement(self, gauss2):
        total = rice_density_quadrature(gauss2, 0.5, 0.0, None)
        parts = [rice_density_quadrature(gauss2, 0.5, 0.0, k) for k in (0, 1, 2)]
        assert sum(p.value for p in parts) == pytest.approx(total.value, rel=1e-9)

    def test_matches_pinned(self, gauss2):
        # D13's quadrature rows at u = 4, as written by tests/regenerate_pinned.py
        with open(Path(__file__).with_name("quadrature_values.json")) as fh:
            pinned = json.load(fh)
        assert sum(map(len, pinned.values())) == 7
        for r, row in pinned.items():
            for k, want in row.items():
                got = rice_density_quadrature(gauss2, float(r), 4.0, int(k)).value
                assert abs(got - want) <= 1e-12 * abs(want), (r, k)

    def test_runs_off_the_worker_pool(self, gauss2, monkeypatch):
        # the oracle shares only Sigma(r) and the prefactor with the Monte Carlo path
        want = rice_density_quadrature(gauss2, 0.02, 4.0, None)

        def forbidden():
            raise AssertionError("the quadrature reached the worker pool")

        monkeypatch.setattr(rice_mod, "_executor", forbidden)
        got = rice_density_quadrature(gauss2, 0.02, 4.0, None)
        assert (got.value, got.stderr, got.n) == (want.value, want.stderr, want.n)

    def test_requires_two_dimensions(self, gauss3):
        with pytest.raises(ValueError):
            rice_density_quadrature(gauss3, 0.5, 0.0, 2)

    def test_desk_scale_share(self, gauss2):
        # flip-paired Monte Carlo gives 0.51322 +- 0.00004 here
        maxima = rice_density_quadrature(gauss2, 0.02, 4.0, 2)
        saddles = rice_density_quadrature(gauss2, 0.02, 4.0, 1)
        assert abs(maxima.value / (maxima.value + saddles.value) - 0.51322) < 1e-4

    def test_share_matches_flip_paired_mc(self, gauss2):
        maxima = rice_density_quadrature(gauss2, 0.005, 4.0, 2)
        saddles = rice_density_quadrature(gauss2, 0.005, 4.0, 1)
        share = maxima.value / (maxima.value + saddles.value)
        flip = maxima_share(gauss2, 0.005, 4.0, n=2_000_000, seed=0, antithetic="flip")
        assert abs(share - flip.value) <= 4.0 * flip.stderr + 1e-5

    @pytest.mark.parametrize("a, r, u_thr, k", [(1.0, 1.0, 5.0, 0), (2.0, 1.0, 4.0, 2),
                                                (1.0, 0.01, 0.0, 1), (1.0, 0.001, 4.0, 2)])
    def test_error_estimate_covers_denser_rule(self, monkeypatch, a, r, u_thr, k):
        model = gaussian_model(2, a=a)
        est = rice_density_quadrature(model, r, u_thr, k)
        # twice the default radial and tau/rho nodes, four times the angular start
        monkeypatch.setattr(rice_mod, "PHI_START", 4 * rice_mod.PHI_START)
        monkeypatch.setattr(rice_mod, "N_RAD", 2 * rice_mod.N_RAD)
        monkeypatch.setattr(rice_mod, "T_START", 2 * rice_mod.T_START)
        dense = rice_density_quadrature(model, r, u_thr, k)
        assert est.stderr > 0.0
        assert abs(est.value - dense.value) <= est.stderr

    def test_converges_below_the_first_rule(self, gauss2):
        # the first tau/rho rule misses here, so the nodes double
        for r, u_thr, k in ((0.002, 0.0, 2), (0.001, 0.0, 0), (0.001, 0.0, 2),
                            (0.001, 4.0, 2)):
            est = rice_density_quadrature(gauss2, r, u_thr, k)
            assert est.value > 0.0
            assert est.stderr < rice_mod.QUAD_RTOL * est.value

    @staticmethod
    def _owens_t_survival(lo1, lo2, rho):
        # P(Z1 > lo1, Z2 > lo2) from the Owen's T pair alone, at every node
        h, k = (np.where(lo == 0.0, 1e-150, -lo) for lo in (lo1, lo2))
        denom = math.sqrt(max((1.0 - rho) * (1.0 + rho), 1e-300))
        out = (0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, ((k - h) + (1.0 - rho) * h) / (h * denom))
               - owens_t(k, ((h - k) + (1.0 - rho) * k) / (k * denom))
               - np.where(h * k < 0.0, 0.5, 0.0))
        return np.clip(out, 0.0, 1.0)

    @pytest.mark.parametrize("eta", [1.0 - 1.6e-15, 1.0 - 1e-9, 0.99, 0.5, 0.0, -0.5, -0.99])
    def test_survival_shortcut_matches_owens_t(self, eta):
        lo1 = np.linspace(-3.0, 8.0, 1101)
        for gap in (0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-3, 1.0, 12.0):  # 12 reaches the shortcut at eta = 0.5, 0
            for a, b in ((lo1, lo1 + gap), (lo1 + gap, lo1)):
                got = rice_mod._bvn_survival(a, b, eta)
                np.testing.assert_allclose(got, self._owens_t_survival(a, b, eta),
                                           rtol=0, atol=1e-15)
                if eta == 0.0:
                    np.testing.assert_allclose(got, ndtr(-a) * ndtr(-b), rtol=0, atol=1e-15)

    @staticmethod
    def _diagonal_survival_mpmath(lo, eta):
        # P(Z1 > lo, Z2 > lo) = int_lo^inf phi(x) Phi((eta x - lo) / s) dx at 40
        # digits, with breakpoints across the step of width s = sqrt(1 - eta^2)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            e = mpmath.mpf(eta)
            s = mpmath.sqrt((1 - e) * (1 + e))
            refs = []
            for b in map(mpmath.mpf, lo):
                refs.append(float(mpmath.quad(
                    lambda x: mpmath.npdf(x) * mpmath.ncdf((e * x - b) / s),
                    [b] + [b + j * s for j in (1, 4, 16, 64)] + [mpmath.inf])))
        return refs

    @pytest.mark.parametrize("eta", [1.0 - 1.6e-15, 1.0 - 1e-9])
    def test_survival_on_the_diagonal_matches_mpmath(self, eta):
        lo = np.array([-1.0, 0.0, 1e-3, 0.37, 1.0, 4.0])
        got = rice_mod._bvn_survival(lo, lo, eta)
        for b, value, ref in zip(lo, got, self._diagonal_survival_mpmath(lo, eta)):
            assert abs(value - ref) <= 1e-14, (b, value, ref)

    @pytest.mark.parametrize("eta", [1.0 - 1e-9, 1.0 - 1e-6])
    def test_survival_near_unit_correlation_keeps_every_digit(self, eta):
        # sqrt(1 - rho^2) taken as sqrt((1 - rho)(1 + rho)): rounding rho^2
        # would cost about 1e-15 here
        lo = np.array([-1.0, 0.0, 0.37])
        got = rice_mod._bvn_survival(lo, lo, eta)
        for b, value, ref in zip(lo, got, self._diagonal_survival_mpmath(lo, eta)):
            assert abs(value - ref) <= 3e-16, (b, value, ref)

    def test_few_survival_nodes_reach_owens_t(self, gauss2, monkeypatch):
        # at the desk scale the values' correlation is 1 - 1.6e-15, so only
        # the nodes next to the diagonal lo1 = lo2 need the Owen's T pair
        nodes, owens = [], []
        survival = rice_mod._bvn_survival
        monkeypatch.setattr(rice_mod, "_bvn_survival",
                            lambda lo1, lo2, rho: nodes.append(lo1.size) or survival(lo1, lo2, rho))
        # rice imports owens_t from scipy.special when the survival runs
        monkeypatch.setattr(scipy.special, "owens_t",
                            lambda h, a: owens.append(h.size) or owens_t(h, a))
        for k in (1, 2):
            rice_density_quadrature(gauss2, 0.02, 4.0, k)
        assert sum(nodes) > 0
        assert sum(owens) > 0  # the patch reaches the survival
        assert 0.5 * sum(owens) < 0.2 * sum(nodes)  # the pair makes two calls per node

    def test_unconverged_rule_raises(self, gauss2, monkeypatch):
        # too few radial nodes: neither more angular nor more tau/rho nodes help
        monkeypatch.setattr(rice_mod, "N_RAD", 4)
        monkeypatch.setattr(rice_mod, "T_START", 4)
        with pytest.raises(OracleConvergenceError):
            rice_density_quadrature(gauss2, 0.5, 0.0, 2)
        monkeypatch.undo()
        # too few angular nodes, and no doubling allowed
        monkeypatch.setattr(rice_mod, "PHI_START", 16)
        monkeypatch.setattr(rice_mod, "MAX_PHI_DOUBLINGS", 0)
        with pytest.raises(OracleConvergenceError):
            rice_density_quadrature(gauss2, 0.02, 0.0, None)


class TestRatios:
    def test_prefactor_never_enters(self, gauss2, monkeypatch):
        base = sign_ratio(gauss2, 0.1, 0.5, n=60_000, seed=5)
        monkeypatch.setattr(rice_mod, "_prefactor", lambda *a, **k: 1.0)
        patched = sign_ratio(gauss2, 0.1, 0.5, n=60_000, seed=5)
        assert base.value == patched.value
        assert base.stderr == patched.stderr

    def test_share_and_complement_sum_to_one(self, gauss2):
        top = maxima_share(gauss2, 0.1, 1.0, n=80_000, seed=6)
        other = index_ratio_mc(gauss2, 0.1, 1.0, (1,), (1, 2), n=80_000, seed=6,
                               stream="share")
        # the numerator masses partition the shared denominator exactly
        assert top.extras["num_sum"] + other.extras["num_sum"] == top.extras["den_sum"]
        assert top.value + other.value == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("model_name, estimator, antithetic, r, u_thr", [
        ("gauss2", "share", "flip", 0.02, 4.0), ("gauss2", "share", "flip", 0.001, 4.0),
        ("gauss3", "share", "negate", 0.02, 4.0), ("gauss4", "share", "negate", 0.02, 4.0),
        ("gauss2", "density", None, 0.3, 0.5), ("gauss3", "density", "negate", 0.05, 3.0),
        ("gauss3", "unconditional", None, 0.0, -math.inf)],
        ids=["0.02", "0.001", "gauss3-negate-0.02", "gauss4-negate-0.02",
             "density-plain", "gauss3-density-negate-shift", "gauss3-unconditional"])
    def test_ratio_stderr_matches_two_pass(self, request, monkeypatch, model_name, estimator,
                                           antithetic, r, u_thr):
        # one chunk of the estimator, its pair contributions rebuilt from the
        # stream with the mean shift the estimator made added to every draw
        # and a zeroed array per sample; sum((a - R b)^2) is taken at the
        # estimator's own R, since it moves by 1e-13 relative when R moves by
        # one rounding.  A density is the ratio with b = 1 per pair unit,
        # scaled to a mean per sample and by its prefactor
        model = request.getfixturevalue(model_name)
        n, m, n_dim = rice_mod.CHUNK, model.vech_dim, model.n_dim
        parts = 1 if antithetic is None else 2
        shifts, projection = [], rice_mod._projection_from
        monkeypatch.setattr(rice_mod, "_projection_from",
                            lambda *args: shifts.append(projection(*args)) or shifts[-1])
        if estimator == "unconditional":
            est = mean_critical_density(model, k=None, n=n, seed=1)
            factor = rice_mod._sym_root(_g22_origin(model.d2, n_dim))
            scale = (-4.0 * math.pi * model.d1) ** (-n_dim / 2.0)
        else:
            if estimator == "share":
                est = maxima_share(model, r, u_thr, n=n, seed=1, antithetic=antithetic)
                scale = 1.0
            else:
                est = rice_density_mc(model, r, u_thr, n=n, seed=1, antithetic=antithetic)
                scale = est.extras["prefactor"] / parts
            factor = rice_mod._factor_matrix(model, r, antithetic == "flip")
        assert len(shifts) <= 1
        shift = shifts[0] if shifts else None
        assert (shift is not None) == (u_thr >= 2.0)
        ys = np.empty((n, factor.shape[1]))
        rice_mod._chunk_rng(1, rice_mod.STREAMS[estimator], 0).standard_normal(out=ys[: n // parts])
        if antithetic == "flip":
            ys[n // 2:] = ys[: n // 2]
            ys[n // 2:, factor.shape[1] - n_dim - 1:] *= -1.0
        elif antithetic == "negate":
            ys[n // 2:] = -ys[: n // 2]
        log_w = np.zeros(n)
        if shift is not None:
            log_w = -(ys @ shift) - 0.5 * float(shift @ shift)
            ys += shift
        if estimator == "unconditional":
            rows = np.arange(n)
        else:
            vals = ys @ factor[m:].T
            rows = np.flatnonzero((vals[:, 0] > u_thr) & (vals[:, 1] > u_thr))
        det, idx, degen = packed_inertia(ys[rows] @ factor[:m].T, n_dim)
        mass = np.where(degen, 0.0, np.abs(det) * np.exp(log_w[rows]))
        a, b = np.zeros(n), np.zeros(n)
        if estimator == "share":
            a[rows] = np.where(idx == n_dim, mass, 0.0)
            b[rows] = np.where(idx >= n_dim - 1, mass, 0.0)
        else:
            a[rows] = mass
        a = a.reshape(parts, -1).sum(axis=0)
        b = b.reshape(parts, -1).sum(axis=0) if estimator == "share" else np.ones(n // parts)
        assert est.value == pytest.approx(scale * a.sum() / b.sum(), rel=1e-12)
        ratio = est.value / scale
        two_pass = math.sqrt(((a - ratio * b) ** 2).sum()) / b.sum()
        assert est.stderr == pytest.approx(scale * two_pass, rel=1e-12, abs=0)

    def test_share_within_unit_interval(self, gauss2):
        est = maxima_share(gauss2, 0.3, 0.0, n=50_000, seed=7)
        assert 0.0 <= est.value <= 1.0

    def test_two_seeds_agree(self, gauss2):
        a = sign_ratio(gauss2, 0.1, 1.0, n=400_000, seed=1)
        b = sign_ratio(gauss2, 0.1, 1.0, n=400_000, seed=2)
        assert abs(a.value - b.value) < 3.0 * math.hypot(a.stderr, b.stderr)

    def test_psi_numerator_is_low_indices(self, gauss2):
        est = psi_ratio(gauss2, 0.3, 0.5, n=60_000, seed=8)
        assert est.k == "psi"
        explicit = index_ratio_mc(gauss2, 0.3, 0.5, (0,), (1, 2), n=60_000, seed=8,
                                  stream="psi")
        assert est.value == explicit.value

    def test_psi_decreasing_in_threshold(self, gauss2):
        # monotone collapse of the low-index mass at moderate separation
        ests = [
            psi_ratio(gauss2, 0.3, u, n=300_000, seed=0)
            for u in (1.0, 2.0, 3.0, 4.0)
        ]
        for a, b in zip(ests, ests[1:]):
            assert a.value - b.value > math.hypot(a.stderr, b.stderr)

    def test_psi_unthresholded_limit(self, gauss2):
        # with the threshold far below every sample the indicators are all
        # live, so the ratio matches the unconstrained index ratio
        a = psi_ratio(gauss2, 0.3, -10.0, n=300_000, seed=9)
        b = psi_ratio(gauss2, 0.3, -math.inf, n=300_000, seed=10)
        assert a.value > 0.0
        assert abs(a.value - b.value) < 3.0 * math.hypot(a.stderr, b.stderr)

    @pytest.mark.parametrize("n", [0, -5, 0.5, math.nan])
    @pytest.mark.parametrize("estimator", [
        lambda m, n: rice_density_mc(m, 0.5, 0.0, n=n),
        lambda m, n: index_ratio_mc(m, 0.5, 0.0, (2,), (1,), n=n),
        lambda m, n: sign_ratio(m, 0.5, 0.0, n=n),
        lambda m, n: psi_ratio(m, 0.5, 0.0, n=n),
        lambda m, n: maxima_share(m, 0.5, 0.0, n=n),
        lambda m, n: mean_critical_density(m, n=n),
        lambda m, n: rice_density_mc(m, 0.5, 0.0, k=7, n=n),
        lambda m, n: mean_critical_density(m, k=7, n=n),
    ], ids=["density", "index_ratio", "sign", "psi", "share", "mean_density",
            "density_k_out_of_range", "mean_density_k_out_of_range"])
    def test_nonpositive_sample_count_is_caller_error(self, gauss2, estimator, n):
        # a caller error, not a sample that saw no mass
        with pytest.raises(ValueError, match="positive sample count"):
            estimator(gauss2, n)

    def test_empty_denominator_raises(self, gauss2):
        # the mean shift's weights underflow to 0 so far out
        with pytest.raises(InsufficientSamplesError):
            index_ratio_mc(gauss2, 0.1, 1e6, (2,), (1,), n=2000, seed=0)

    def test_flip_antithetic_resolves_deviation(self, gauss2):
        # the class-swapping pairing collapses shared noise: the systematic
        # deviation is visible and shrinks with r
        a = sign_ratio(gauss2, 0.2, 1.0, n=400_000, seed=0, antithetic="flip")
        b = sign_ratio(gauss2, 0.05, 1.0, n=400_000, seed=0, antithetic="flip")
        assert abs(a.value - 1.0) > 2.0 * a.stderr
        assert abs(a.value - 1.0) > abs(b.value - 1.0)

    @pytest.mark.parametrize("u_thr", [0.0, 1.0])
    def test_sign_ratio_monotone_convergence(self, gauss2, u_thr):
        # |ratio - 1| decreases along r = 0.2, 0.1, 0.05, 0.02 beyond error
        # bars (paired-reflection estimator resolves the deviation)
        ests = [
            sign_ratio(gauss2, r, u_thr, n=1_000_000, seed=0, antithetic="flip")
            for r in (0.2, 0.1, 0.05, 0.02)
        ]
        gaps = [abs(e.value - 1.0) for e in ests]
        for (ga, ea), (gb, eb) in zip(
            zip(gaps, ests), list(zip(gaps, ests))[1:]
        ):
            assert ga - gb > math.hypot(ea.stderr, eb.stderr)


class TestProjection:
    # the sampler's mean shift at u >= 2: _projection_from on the symmetric
    # root of Sigma(r), Sigma0 at r = 0
    @staticmethod
    def _shift(model, r, u_thr):
        sigma = sigma_expansion(model)[0] if r == 0 else conditional_covariance(model, r).sigma
        root = rice_mod._sym_root(sigma)
        return root, rice_mod._projection_from(root, u_thr)

    def test_candidates_coincide_in_limit(self, gauss2):
        _, small = self._shift(gauss2, 1e-9, 1.0)
        _, limit = self._shift(gauss2, 0.0, 1.0)
        assert np.abs(small - limit).max() < 1e-6

    def test_scaling_in_threshold(self, gauss2):
        _, one = self._shift(gauss2, 0.5, 1.0)
        _, three = self._shift(gauss2, 0.5, 3.0)
        assert np.allclose(three, 3.0 * one, rtol=1e-12)

    def test_negative_eigenvalue_count(self, gauss2, gauss3):
        # at least N-1 negative eigenvalues of the Hessian rebuilt at the
        # shift, by packed_inertia's DEGEN_TOL rule relative to ||H||_F
        for model in (gauss2, gauss3):
            for r in (0.0, 0.2, 0.5):
                root, y_hat = self._shift(model, r, 1.0)
                eigs = np.linalg.eigvalsh(matriculate(root @ y_hat, model.n_dim))
                assert (eigs < -DEGEN_TOL * np.linalg.norm(eigs)).sum() >= model.n_dim - 1

    def test_rebuilt_hessian_diagonal_with_negative_block(self, gauss3):
        root, y_hat = self._shift(gauss3, 0.4, 1.0)
        hess = matriculate(root @ y_hat, 3)
        off = hess - np.diag(np.diag(hess))
        assert np.abs(off).max() < 1e-10
        assert (np.diag(hess)[: gauss3.n_dim - 1] < 0).all()

    @pytest.mark.parametrize("maker", [gaussian_model, cauchy_model])
    @pytest.mark.parametrize("n_dim", [2, 3, 4])
    def test_shift_is_the_bisecting_projection(self, maker, n_dim):
        # the two field values have equal variances, so the nearest point of
        # {both values >= u} is where both equal u, along the sum of the two
        # value rows; a point on one face misses it by up to 3.8e-7 at r <= 0.005
        model, u_thr = maker(n_dim), 4.0
        for r in (0.0, 1e-3, 5e-3, 0.02, 0.3):
            pairs = [self._shift(model, r, u_thr)]
            if r > 0:
                flip = rice_mod._factor_matrix(model, r, True)
                pairs.append((flip, rice_mod._projection_from(flip, u_thr)))
            for factor, shift in pairs:
                s = factor[-2] + factor[-1]
                off = shift - (shift @ s) / (s @ s) * s
                assert np.linalg.norm(off) <= 1e-12 * np.linalg.norm(shift)
                assert np.abs(factor[-2:] @ shift - u_thr).max() <= 1e-12 * u_thr


@pytest.mark.parametrize("n_dim", [2, 3, 4])
def test_prefactor_matches_closed_form(n_dim):
    # gaussian(a=1) has 1 - k1^2 = -expm1(-2x) and 1 - k*^2 = 1 - e^(-2x) (1 - 2x)^2
    # at x = r^2; a log-determinant of the gradient pair's 2N x 2N covariance
    # has an error growing like 1/r^2, 2.9e-9 for N=2 at r = 1e-4
    mpmath = pytest.importorskip("mpmath")
    model, u_thr = gaussian_model(n_dim), 3.0
    for r in (1e-4, 1e-3):
        with mpmath.workdps(50):
            x = mpmath.mpf(r) ** 2
            q1 = -mpmath.expm1(-2 * x)
            qstar = 1 - mpmath.exp(-2 * x) * (1 - 2 * x) ** 2
            ref = float((4 * mpmath.pi) ** (-mpmath.mpf(n_dim) / 2)
                        / (mpmath.sqrt(q1 ** (n_dim - 1) * qstar) * mpmath.ncdf(-u_thr)))
        assert rice_mod._prefactor(model, r, u_thr) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_factor_matrix_follows_the_kernel():
    # the flip pairing negates the flip factor's last N+1 columns; these
    # continue ker Sigma0 past the eigenvalue crossings, so the negation
    # still swaps the determinant sign in most pairs (all of them as r -> 0)
    ys = np.random.default_rng(19).standard_normal((20_000, 5))
    flipped = ys.copy()
    flipped[:, 2:] *= -1.0  # L = 5 at N=2, the last N+1 = 3 columns
    for model, r in ((cauchy_model(2), 0.1), (cauchy_model(2), 0.3), (gaussian_model(2), 0.3)):
        factor = rice_mod._factor_matrix(model, r, True)
        det, det_flipped = (np.linalg.det(matriculate(y @ factor.T, 2))
                            for y in (ys, flipped))
        assert np.mean(det * det_flipped < 0) >= 0.6
    # both branches root Sigma(r); the negate pairing's root is symmetric
    for model in (gaussian_model(n_dim) for n_dim in (2, 3, 4)):
        for r in (0.02, 0.3):
            for flip in (True, False):
                factor = rice_mod._factor_matrix(model, r, flip)
                sigma = conditional_covariance(model, r).sigma
                scale = np.abs(sigma).max()
                assert np.abs(factor @ factor.T - sigma).max() <= 1e-12 * scale
                if not flip:
                    assert np.abs(factor - factor.T).max() <= 1e-12 * math.sqrt(scale)


def test_mean_critical_density_total_partition(gauss2):
    total = mean_critical_density(gauss2, k=None, n=200_000, seed=0)
    parts = [mean_critical_density(gauss2, k=k, n=200_000, seed=0) for k in (0, 1, 2)]
    assert sum(p.value for p in parts) == pytest.approx(total.value, rel=1e-12)


@pytest.mark.parametrize("k, factor", [(0, 1.0), (1, 2.0), (2, 1.0)])
def test_mean_critical_density_closed_form_n2(gauss2, k, factor):
    # at N=2 each extremum class has density d2 / (-d1) / (pi sqrt 3) and the
    # saddles twice that (Adler & Taylor, Random Fields and Geometry, ch. 11)
    exact = factor * gauss2.d2 / -gauss2.d1 / (math.pi * math.sqrt(3.0))
    est = mean_critical_density(gauss2, k=k, n=4_000_000, seed=0)
    assert abs(est.value - exact) < 4.0 * est.stderr


def _estimator_runs(model):
    """Every sampling estimator, at n = one full chunk and a partial one."""
    n = 150_000
    return {
        "density": lambda: rice_density_mc(model, 0.3, 0.5, k=None, n=n, seed=4),
        "share": lambda: maxima_share(model, 0.05, 3.0, n=n, seed=1),
        "share_flip": lambda: maxima_share(model, 0.05, 3.0, n=n, seed=1,
                                           antithetic="flip"),
        "sign": lambda: sign_ratio(model, 0.1, 1.0, n=n, seed=2),
        "psi": lambda: psi_ratio(model, 0.3, 0.5, n=n, seed=3),
        "unconditional": lambda: mean_critical_density(model, k=None, n=n, seed=5),
        "unconditional_top": lambda: mean_critical_density(model, k=model.n_dim,
                                                           n=n, seed=5),
    }


@pytest.mark.parametrize("model_name", ["gauss2", "gauss3", "gauss5"])
def test_estimates_match_eigvalsh_route(request, monkeypatch, eigvalsh_inertia, model_name):
    # the eigvalsh route survives only here, as the oracle of the fast path
    runs = _estimator_runs(request.getfixturevalue(model_name))
    fast = {name: run() for name, run in runs.items()}
    monkeypatch.setattr(rice_mod, "packed_inertia", eigvalsh_inertia)
    for name, run in runs.items():
        slow = run()
        assert fast[name].value == pytest.approx(slow.value, rel=1e-12, abs=0), name
        assert fast[name].stderr == pytest.approx(slow.stderr, rel=1e-12, abs=0), name
        assert fast[name].n_degenerate == slow.n_degenerate, name
        if "bucket_sums" in slow.extras:
            np.testing.assert_allclose(fast[name].extras["bucket_sums"],
                                       slow.extras["bucket_sums"], rtol=1e-12, atol=0)
            np.testing.assert_array_equal(fast[name].extras["class_hits"],
                                          slow.extras["class_hits"])


@pytest.mark.parametrize("model_name", ["gauss2", "gauss3"])
def test_estimates_do_not_depend_on_worker_count(request, monkeypatch, model_name):
    model = request.getfixturevalue(model_name)
    runs = _estimator_runs(model)
    # a short last chunk, which finishes first, so chunk order is put to the test
    runs["share_3_chunks"] = lambda: maxima_share(model, 0.05, 3.0, n=2 * rice_mod.CHUNK + 64)
    by_workers = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more workers than cores, switching often
    try:
        for workers in (1, 3):
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(rice_mod, "_executor", lambda: pool)
                by_workers.append({name: run() for name, run in runs.items()})
    finally:
        sys.setswitchinterval(switch)
    one, three = by_workers
    for name in runs:
        assert one[name].value == three[name].value, name
        assert one[name].stderr == three[name].stderr, name
        assert one[name].n_degenerate == three[name].n_degenerate, name
        np.testing.assert_array_equal(one[name].extras.get("class_hits"),
                                      three[name].extras.get("class_hits"))


def test_forked_child_makes_its_own_pool(gauss2):
    def share():
        return maxima_share(gauss2, 0.05, 3.0, n=rice_mod.CHUNK, seed=1).value

    expected = share()  # the parent's pool now has threads, which a fork does not copy
    ctx = multiprocessing.get_context("fork")
    results = ctx.SimpleQueue()
    child = ctx.Process(target=lambda: results.put((share(), rice_mod._pool[0] == os.getpid())))
    child.start()
    try:
        child.join(timeout=120)
        assert child.exitcode == 0
    finally:
        child.kill()
    assert results.get() == (expected, True)


def test_class_hits_count_live_samples(gauss2, gauss3):
    # plain sampling in one chunk: recount the live samples from the stream
    n, u_thr = 50_000, 0.5
    est = rice_density_mc(gauss2, 0.3, u_thr, n=n, seed=4, antithetic=None)
    factor = rice_mod._factor_matrix(gauss2, 0.3, False)
    rng = rice_mod._chunk_rng(4, rice_mod.STREAMS["density"], 0)
    vals = rng.standard_normal((n, factor.shape[1])) @ factor[-2:].T
    live = int(((vals[:, 0] > u_thr) & (vals[:, 1] > u_thr)).sum())
    hits = est.extras["class_hits"]
    assert hits.shape == (gauss2.n_dim + 2,)
    assert 0 < live < n
    assert int(hits.sum()) == live
    # with no threshold every sample is live, across chunks
    ratio = sign_ratio(gauss3, 0.3, -math.inf, n=150_000, seed=1)
    assert int(ratio.extras["class_hits"].sum()) == ratio.n


SINGLE = {"maxima_share": maxima_share, "sign_ratio": sign_ratio, "psi_ratio": psi_ratio}


def _assert_same_estimate(swept, single):
    assert (swept.value, swept.stderr, swept.n, swept.n_degenerate, swept.k, swept.r,
            swept.u_threshold, swept.seed) == (single.value, single.stderr, single.n,
                                               single.n_degenerate, single.k, single.r,
                                               single.u_threshold, single.seed)
    assert swept.extras.keys() == single.extras.keys()
    for key, value in single.extras.items():
        np.testing.assert_array_equal(swept.extras[key], value, err_msg=key)


@pytest.mark.parametrize("model_name, estimator, points, antithetic", [
    ("gauss2", "maxima_share", [(0.02, 1.0), (0.02, 2.0), (0.02, 4.0)], "negate"),
    ("gauss3", "maxima_share", [(0.02, 1.0), (0.02, 2.0), (0.02, 4.0)], "negate"),
    ("gauss2", "maxima_share", [(0.02, 1.0), (0.02, 2.0), (0.02, 4.0)], "flip"),
    ("gauss3", "maxima_share", [(0.05, 4.0), (0.05, 1.0)], "flip"),
    ("gauss2", "sign_ratio", [(0.1, 1.0), (0.05, 1.0), (0.02, 1.0)], "negate"),
    ("gauss3", "sign_ratio", [(0.2, 1.0), (0.05, 1.0)], "flip"),
    ("gauss3", "psi_ratio", [(0.05, 1.0), (0.05, 2.0), (0.3, 2.0)], "negate"),
], ids=["u-sweep-N2", "u-sweep-N3", "u-sweep-N2-flip", "u-sweep-N3-flip", "r-sweep-N2",
        "r-sweep-N3-flip", "psi-N3"])
def test_sweep_matches_single_points_bit_for_bit(request, model_name, estimator, points,
                                                 antithetic):
    # one pass maps each chunk's draws through every point; a short last
    # chunk puts the chunk-order reduction of every point to the test
    model = request.getfixturevalue(model_name)
    n = rice_mod.CHUNK + 4099
    swept = ratio_sweep(estimator, model, points, n, 5, antithetic=antithetic)
    assert len(swept) == len(points)
    for est, (r, u_thr) in zip(swept, points):
        single = SINGLE[estimator](model, r, u_thr, n=n, seed=5, antithetic=antithetic)
        _assert_same_estimate(est, single)


def test_sweep_with_an_empty_denominator_raises(gauss2):
    with pytest.raises(InsufficientSamplesError, match="u=1000000.0"):
        ratio_sweep("maxima_share", gauss2, [(0.1, 1.0), (0.1, 1e6)], 2000, 0)


def test_cli_sweep_is_one_pass_of_single_points(gauss2, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli_mod, "ratio_sweep",
                        lambda *args: calls.append(args) or ratio_sweep(*args))
    argv = ["share", "--u", "1,4", "--n", "4096", "--seed", "3", "--out", str(tmp_path)]
    assert cli_mod.main(argv) == 0
    assert len(calls) == 1
    with open(tmp_path / "share.json") as fh:
        results = json.load(fh)["results"]
    for rec, u_thr in zip(results, (1.0, 4.0)):
        single = maxima_share(gauss2, 0.1, u_thr, n=4096, seed=3)
        assert (rec["value"], rec["stderr"], rec["n"]) == (single.value, single.stderr, single.n)


def test_cli_sweep_with_an_empty_denominator_writes_nothing(tmp_path, capsys):
    # every point comes from the one pass, so nothing is printed or written
    # before the failing point raises
    out = tmp_path / "out"
    assert cli_mod.main(["share", "--u", "1,1e6", "--n", "4096", "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "denominator saw no mass at u=1000000.0" in captured.err


def test_mc_rows_match_pinned():
    # D13's Monte Carlo rows at n = 2^17, as written by tests/regenerate_pinned.py
    # with the call that makes each: value and stderr within 1e-3 of the row's
    # own stderr, n exactly
    with open(Path(__file__).with_name("mc_rows.json")) as fh:
        pinned = json.load(fh)
    assert len(pinned) == 13
    for name, row in pinned.items():
        got = getattr(rice_mod, row["estimator"])(model=gaussian_model(row["N"]), **row["kw"])
        got = got if isinstance(got, list) else [got]
        assert len(got) == len(row["estimates"]), name
        for est, want in zip(got, row["estimates"]):
            assert est.n == want["n"], name
            for key in ("value", "stderr"):
                assert abs(getattr(est, key) - want[key]) <= 1e-3 * want["stderr"], (name, key)
