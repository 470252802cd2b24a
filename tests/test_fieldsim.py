import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from critfield import fieldsim
from critfield.fieldsim import (_OFFSETS, CriticalPoint, EmbeddingError,
                                FieldRealization, FieldSurface, GridSpec,
                                _bezier_controls, _bspline_table, _candidate_cells,
                                _close_pairs,
                                _root_spectrum, _torus_kernel, euler_characteristic,
                                find_critical_points, pair_statistics, sample_field)
from critfield.models import cauchy_model, gaussian_model
from critfield.rice import mean_critical_density


@pytest.fixture(scope="module")
def grid():
    return GridSpec(n=128, spacing=11.3 / 128)


class TestSampling:
    def test_deterministic(self, gauss2, grid):
        a = sample_field(gauss2, grid, seed=42)
        b = sample_field(gauss2, grid, seed=42)
        assert np.array_equal(a.values, b.values)
        assert a.periodic

    def test_unit_variance(self, gauss2, grid):
        # lag-0 sample variance across realizations
        samples = [sample_field(gauss2, grid, seed=s).values.var() for s in range(200)]
        assert np.mean(samples) == pytest.approx(1.0, abs=0.05)

    def test_lag_correlation(self, gauss2, grid):
        # empirical correlation at a unit physical lag matches the profile
        shift = round(1.0 / grid.spacing)
        lag = shift * grid.spacing
        target = math.exp(-lag * lag)
        vals = []
        for s in range(200):
            v = sample_field(gauss2, grid, seed=s).values
            vals.append((v * np.roll(v, shift, axis=0)).mean())
        vals = np.array(vals)
        stderr = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) < 3.0 * stderr

    @pytest.mark.parametrize("model", [gaussian_model(2), cauchy_model(2, ell=2.0, nu=1.5)],
                             ids=["gaussian", "cauchy"])
    def test_kernel_matches_scalar_calls(self, model, grid):
        # one vectorized call of rho against the scalar min-image reference
        ax = np.arange(grid.n) * grid.spacing
        ax = np.minimum(ax, grid.extent - ax)
        ref = np.array([[float(model.rho(a * a + b * b)) for b in ax] for a in ax])
        np.testing.assert_allclose(_torus_kernel(model.rho, grid), ref,
                                   rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_ulp_change_of_kernel_barely_moves_field(self, gauss2, grid):
        # the spectrum's roundoff tail is zeroed, so the field is a smooth
        # function of the kernel; its square roots used to move it by ~1e-7
        bumped = replace(gauss2, rho=lambda x: gauss2.rho(x) * (1.0 + 2.0 ** -52))
        for seed in range(5):
            moved = sample_field(bumped, grid, seed=seed).values
            assert np.abs(moved - sample_field(gauss2, grid, seed=seed).values).max() <= 1e-9

    def test_root_spectrum_cached(self, gauss2, grid):
        # a second call with the same rho and grid evaluates no kernel and
        # colours the same noise with the same spectrum
        calls = []

        def rho(x):
            calls.append(1)
            return gauss2.rho(x)

        model = replace(gauss2, rho=rho)
        calls.clear()  # the model's own check of rho(0)
        cold = sample_field(model, grid, seed=3)
        assert len(calls) == 1
        warm = sample_field(model, GridSpec(grid.n, grid.spacing), seed=3)
        root = _root_spectrum(rho, grid)
        assert len(calls) == 1
        assert cold.values.tobytes() == warm.values.tobytes()
        assert not root.flags.writeable
        with pytest.raises(ValueError):
            root[0, 0] = 0.0

    def test_extent_precondition(self, gauss2):
        with pytest.raises(ValueError):
            sample_field(gauss2, GridSpec(n=16, spacing=0.1), seed=0)

    def test_requires_two_dimensions(self, gauss3, grid):
        with pytest.raises(ValueError):
            sample_field(gauss3, grid, seed=0)

    def test_negative_spectrum_raises(self, gauss2):
        # 5.66 is just past 8 correlation lengths, too short for the kernel
        # to wrap without a negative circulant eigenvalue; a cropped field
        # from a doubled grid would not be periodic, so none is returned; a
        # failed embedding is not cached, so every call raises
        for _ in range(2):
            with pytest.raises(EmbeddingError):
                sample_field(gauss2, GridSpec(n=64, spacing=5.66 / 64), seed=0)


@pytest.fixture(scope="module")
def cos_field():
    n = 64
    h = 4.0 * math.pi / n
    xs = np.arange(n) * h
    vals = np.cos(xs)[:, None] * np.cos(xs)[None, :]
    return FieldRealization(values=vals, spacing=h, extent=n * h, seed=0,
                            model_name="cosxcosy")


class TestDeterministicSurface:
    def test_full_critical_set(self, cos_field):
        points, diag = find_critical_points(cos_field)
        assert diag["diverged"] == 0
        # product-of-cosines on a double period: 8 maxima, 8 minima, 16 saddles
        by_index = {k: sum(1 for p in points if p.index == k) for k in (0, 1, 2)}
        assert by_index == {0: 8, 1: 16, 2: 8}
        assert euler_characteristic(points) == 0

    def test_maxima_on_even_pi_lattice(self, cos_field):
        points, _ = find_critical_points(cos_field)
        maxima = [p for p in points if p.index == 2]
        for p in maxima:
            lattice = p.position / math.pi
            assert np.allclose(lattice, np.round(lattice), atol=1e-8)
            assert round(lattice[0] + lattice[1]) % 2 == 0
            assert p.value == pytest.approx(1.0, abs=1e-9)

    def test_gradient_tolerance_met(self, cos_field):
        points, _ = find_critical_points(cos_field)
        scale = float(np.sqrt(np.mean(cos_field.values ** 2)))
        assert all(p.grad_norm < 1e-8 * scale for p in points)

    def test_interpolant_reproduces_values(self, cos_field):
        surface = FieldSurface(cos_field)
        nodes = np.array([[0.0, 0.0], [1.0, 2.0], [5.5, 0.25]])
        got = surface.jet(nodes)[0]
        expected = np.cos(nodes[:, 0]) * np.cos(nodes[:, 1])
        assert np.abs(got - expected).max() < 5e-5

    def test_jet_matches_analytic_derivatives(self, cos_field, rng):
        pts = rng.uniform(0.0, cos_field.extent, size=(2000, 2))
        value, grad, hess = FieldSurface(cos_field).jet(pts)
        cx, cy = np.cos(pts).T
        sx, sy = np.sin(pts).T
        assert np.abs(value - cx * cy).max() < 2e-5
        assert np.abs(grad - np.stack([-sx * cy, -cx * sy], axis=-1)).max() < 2e-4
        exact = np.stack([-cx * cy, sx * sy, sx * sy, -cx * cy], axis=-1)
        assert np.abs(hess - exact.reshape(-1, 2, 2)).max() < 1e-2

    def test_no_walker_stalls(self, cos_field, monkeypatch):
        # every walker settles within 4 steps; cut off before that, some stall
        assert find_critical_points(cos_field)[1]["stalled"] == 0
        monkeypatch.setattr(fieldsim, "_MAX_STEPS", 3)
        assert find_critical_points(cos_field)[1]["stalled"] > 0


def _bspline_weights_reference(frac, order):
    """Cubic B-spline basis (or its derivative) at offsets -1, 0, 1, 2, branch by branch."""
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
    return np.where(
        a < 1.0,
        (-12.0 + 18.0 * a) / 6.0,
        np.where(a < 2.0, (2.0 - a), 0.0),
    )


class TestSplineKernels:
    def test_weight_table_matches_branch_reference(self, rng):
        frac = np.concatenate([rng.uniform(0.0, 1.0, size=100_000),
                               [0.0, 0.5, np.nextafter(1.0, 0.0)]])
        table = _bspline_table(frac)
        for order in (0, 1, 2):
            ref = _bspline_weights_reference(frac, order)
            # bit for bit; "+ 0.0" maps -0.0 to 0.0 and leaves all else as is
            assert np.array_equal((table[order] + 0.0).view(np.uint64),
                                  (ref + 0.0).view(np.uint64))

    @staticmethod
    def _reference_controls(surface):
        """The (4, 4, n, n) value controls of every cell, from rolled coefficients."""
        ctrl = _bezier_controls([np.roll(surface.coeffs, -o, 0) for o in _OFFSETS])
        return _bezier_controls([np.roll(ctrl, -o, 2) for o in _OFFSETS])

    @staticmethod
    def _reference_flagged(ctrl):
        def straddles(diff):
            return (diff.min(axis=(0, 1)) <= 0.0) & (diff.max(axis=(0, 1)) >= 0.0)

        return straddles(np.diff(ctrl, axis=0)) & straddles(np.diff(ctrl, axis=1))

    def _check_value_bound(self, surface, thresholds):
        # the full-grid hull test, thresholded afterwards, is the reference
        ctrl = self._reference_controls(surface)
        flagged = _candidate_cells(surface)
        top = ctrl.max(axis=(0, 1))[flagged[:, 0], flagged[:, 1]]
        for u in thresholds:
            assert np.array_equal(_candidate_cells(surface, u), flagged[top > u])

    @pytest.mark.parametrize("seed", range(5))
    def test_value_bound_drops_no_cell(self, gauss2, grid, seed):
        self._check_value_bound(FieldSurface(sample_field(gauss2, grid, seed=seed)),
                                (0.0, 1.5, 2.5, 4.0))

    @pytest.mark.parametrize("seed", [0, 1, 2, 78, 834, 1108])
    def test_hull_test_matches_rolled_reference(self, gauss2, grid, seed):
        # the difference form and the stacked value controls flag the same cells
        surface = FieldSurface(sample_field(gauss2, grid, seed=seed))
        reference = np.argwhere(self._reference_flagged(self._reference_controls(surface)))
        assert np.array_equal(_candidate_cells(surface), reference)

    def test_hull_test_keeps_cells_of_known_points(self, cos_field):
        # every critical point of cos x cos y sits on a grid node, where the
        # difference form gives exact zeros and the stacked form roundoff, so
        # it flags fewer cells; each point still lies in a flagged cell
        surface = FieldSurface(cos_field)
        flagged = _candidate_cells(surface)
        assert len(flagged) == 73
        assert self._reference_flagged(self._reference_controls(surface)).sum() == 89
        node = np.pi / surface.h  # 16 cells
        known = [(a * node / 2, b * node / 2) for a in range(8) for b in range(8)
                 if a % 2 == b % 2]
        assert len(known) == 32
        for x, y in known:
            corner = np.round([x, y]).astype(int)
            touching = (corner - flagged) % surface.n
            assert ((touching == 0) | (touching == 1)).all(axis=1).any()

    def test_value_bound_spans_the_whole_window(self, cos_field):
        # one unit coefficient: the 16 cells whose windows hold it bound their
        # patches by 1/36, 1/9 or 4/9, by where in the window it sits
        surface = FieldSurface(cos_field)
        surface.coeffs = np.zeros_like(surface.coeffs)
        surface.coeffs[5, 7] = 1.0
        self._check_value_bound(surface, (0.01, 0.05, 0.2, 0.5))
        assert len(_candidate_cells(surface, 0.01)) == 16

    def test_threshold_above_every_value(self, gauss2, grid):
        points, diag = find_critical_points(sample_field(gauss2, grid, seed=0), u_thr=10.0)
        assert points == []
        assert diag["cells_flagged"] == 0


# Unthresholded finder output on hard seeds, recorded before walkers whose
# Newton step stops shrinking were retired: points per index (minima,
# saddles, maxima) and the sums of their x and y coordinates.  834 has a
# critical point in a cell whose corner gradients all share a sign; 78 and
# 534095829 have two critical points in one cell.  A single Newton start per
# quarter cell loses a point on 1108 (a saddle with Hessian eigenvalues
# -0.057 and 5.39) and on 1138 (a maximum 0.188 h from a saddle): there the
# walker in the root's quarter converges to the neighbouring root.
HARD_SEEDS = {
    300: ((23, 43, 20), 466.4888287716306, 500.2568054077665),
    301: ((20, 43, 23), 500.2947560160826, 464.3687311347899),
    302: ((26, 50, 24), 578.7860351329309, 543.8122146052137),
    303: ((20, 40, 20), 425.6943343235215, 402.8540986070314),
    304: ((23, 48, 25), 521.7976288338664, 526.0862792313048),
    305: ((25, 49, 24), 540.667338393671, 552.2155055738791),
    306: ((23, 49, 26), 538.7833416070574, 589.4447958000345),
    307: ((22, 47, 25), 524.5498234626626, 516.2235173057427),
    308: ((22, 47, 25), 535.5430455683105, 501.3227736714744),
    309: ((18, 43, 25), 431.8967942436693, 447.27543984252986),
    310: ((26, 52, 26), 595.7151174987775, 616.9771100685552),
    311: ((24, 49, 25), 562.136595020489, 555.5149714908167),
    78: ((28, 52, 24), 613.2209597036482, 588.5403992944497),
    834: ((25, 48, 23), 490.18833915465734, 556.4651214652527),
    1108: ((23, 48, 25), 555.7130637618163, 527.6218962248839),
    1138: ((23, 46, 23), 527.8099851878543, 505.36527553594635),
    534095829: ((23, 42, 19), 464.2230989811604, 464.89156697592796),
}


def _quarter_starts(surface, cells, u_thr):
    """The former start rule: a walker at each quarter point of every flagged cell."""
    quarters = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
    return ((cells[:, None, :] + quarters) * surface.h).reshape(-1, 2)


def _assert_same_points(got, expected, extent, tol):
    """The same points, matched one to one by index and within ``tol`` on the torus."""
    assert sorted(p.index for p in got) == sorted(p.index for p in expected)
    if not got:
        return
    a, b = (np.array([p.position for p in pts]) for pts in (got, expected))
    d = a[:, None] - b[None]
    d -= extent * np.round(d / extent)
    dist = np.linalg.norm(d, axis=-1)
    nearest = dist.argmin(axis=1)
    assert len(set(nearest.tolist())) == len(got)
    assert dist[np.arange(len(got)), nearest].max() <= tol
    assert [p.index for p in got] == [expected[k].index for k in nearest]


class TestRandomFields:
    @pytest.mark.parametrize("u", [-math.inf, 2.5])
    def test_sub_cell_starts_match_quarter_points(self, gauss2, grid, monkeypatch, u):
        # four walkers per flagged cell are the reference; the seeds include
        # 1108 and 1138, where one walker per quarter cell loses a point
        fields = [sample_field(gauss2, grid, seed=s) for s in range(1100, 1140)]
        found = [find_critical_points(field, u_thr=u)[0] for field in fields]
        monkeypatch.setattr(fieldsim, "_starts", _quarter_starts)
        for field, points in zip(fields, found):
            reference = find_critical_points(field, u_thr=u)[0]
            _assert_same_points(points, reference, field.extent, 1e-10 * grid.spacing)

    @pytest.mark.parametrize("seed", HARD_SEEDS)
    def test_hard_seed_output_pinned(self, gauss2, grid, seed):
        # the retirement rule loses no point and moves none by 1e-10
        counts, x_sum, y_sum = HARD_SEEDS[seed]
        points, _ = find_critical_points(sample_field(gauss2, grid, seed=seed))
        assert tuple(sum(p.index == k for p in points) for k in (0, 1, 2)) == counts
        pos = np.array([p.position for p in points])
        assert np.abs(pos.sum(axis=0) - (x_sum, y_sum)).max() <= 1e-10 * len(points)

    def test_euler_characteristic_vanishes(self, gauss2, grid):
        for seed in HARD_SEEDS:
            field = sample_field(gauss2, grid, seed=seed)
            points, _ = find_critical_points(field)
            assert euler_characteristic(points) == 0

    def test_threshold_monotone(self, gauss2, grid):
        field = sample_field(gauss2, grid, seed=77)
        counts = []
        for u in (-math.inf, 0.0, 1.0, 2.0):
            points, _ = find_critical_points(field, u_thr=u)
            counts.append(len(points))
        assert counts == sorted(counts, reverse=True)

    def test_minima_share_collapses_with_threshold(self, gauss2, grid):
        # among points above u, the index-0 share drops as u grows
        tallies = {u: [0, 0] for u in (0.5, 1.5, 2.5)}
        for seed in range(150):
            field = sample_field(gauss2, grid, seed=9000 + seed)
            points, _ = find_critical_points(field, u_thr=0.5)
            for u in tallies:
                above = [p for p in points if p.value > u]
                tallies[u][0] += sum(1 for p in above if p.index == 0)
                tallies[u][1] += len(above)
        shares = [tallies[u][0] / max(tallies[u][1], 1) for u in (0.5, 1.5, 2.5)]
        assert shares[0] > shares[1] > shares[2]

    def test_maxima_count_matches_kac_rice(self, gauss2, grid):
        counts = []
        for seed in range(100):
            field = sample_field(gauss2, grid, seed=700 + seed)
            points, _ = find_critical_points(field)
            counts.append(sum(1 for p in points if p.index == 2))
        emp = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        expected = mean_critical_density(gauss2, k=2, n=1_500_000, seed=13)
        area = grid.extent ** 2
        gap = abs(emp - expected.value * area)
        assert gap < 3.0 * math.hypot(se, expected.stderr * area)


def _min_image_pairs(pts, radius, extent):
    """Every pair i < j closer than ``radius`` on the torus, by the min-image loop."""
    pairs, dists = [], []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = pts[i] - pts[j]
            d -= extent * np.round(d / extent)
            dist = float(np.linalg.norm(d))
            if dist < radius:
                pairs.append([i, j])
                dists.append(dist)
    return pairs, dists


def _seam_points(rng):
    # on and past the box edges: np.mod(-1e-17, 10) is 10
    return np.concatenate([rng.uniform(0.0, 10.0, size=(150, 2)),
                           [[0.0, 5.0], [-1e-17, 5.1], [10.0, 5.2], [10.05, 5.3]]])


def _near_duplicates(rng):
    # the dedup radius 1e-3 h over clusters of walkers, some across the seam
    h = 11.3 / 128
    centres = rng.uniform(0.0, 11.3, size=(40, 2))
    centres[:4, 0] = [0.0, 1e-9, 11.3 - 1e-9, 11.3]
    scale = h * rng.choice([1e-10, 5e-4, 9.99e-4, 1.01e-3, 2e-3], size=(160, 1))
    return centres[np.arange(160) % 40] + scale * rng.normal(size=(160, 2)), 1e-3 * h, 11.3


# (points, radius, extent) from a generator
CLOSE_PAIR_CASES = {
    "empty": lambda rng: (np.empty((0, 2)), 0.4, 10.0),
    "single": lambda rng: (np.array([[3.0, 4.0]]), 0.4, 10.0),
    "seams": lambda rng: (_seam_points(rng), 0.4, 10.0),
    "near_duplicates": _near_duplicates,
    "below_half_extent": lambda rng: (rng.uniform(-10.0, 20.0, size=(80, 2)), 4.99, 10.0),
    "half_extent": lambda rng: (rng.uniform(-10.0, 20.0, size=(80, 2)), 5.0, 10.0),
    "wide": lambda rng: (rng.uniform(-10.0, 20.0, size=(80, 2)), 6.0, 10.0),
}


class TestPairStatistics:
    @pytest.mark.parametrize("case", CLOSE_PAIR_CASES)
    def test_close_pairs_match_min_image_loop(self, rng, case):
        pts, radius, extent = CLOSE_PAIR_CASES[case](rng)
        pairs, dists = _min_image_pairs(pts, radius, extent)
        got_pairs, got_dists = _close_pairs(pts, radius, extent)
        assert got_pairs.tolist() == pairs
        assert got_dists.tolist() == pytest.approx(dists, rel=1e-14)

    def test_empty_input(self):
        table = pair_statistics([], eps=0.5, extent=10.0)
        assert table.n_pairs == 0
        assert math.isnan(table.frac_max_saddle)

    def test_all_maxima_cluster(self):
        pts = [
            CriticalPoint(np.array([1.0, 1.0]), 3.0, 0.0, -np.eye(2), 2),
            CriticalPoint(np.array([1.1, 1.0]), 3.0, 0.0, -np.eye(2), 2),
            CriticalPoint(np.array([1.0, 1.1]), 3.0, 0.0, -np.eye(2), 2),
        ]
        table = pair_statistics(pts, eps=0.5, extent=10.0)
        assert table.n_pairs == 3
        assert table.counts == {(2, 2): 3}
        assert table.frac_opposite_det == 0.0

    def test_wraparound_distance(self):
        pts = [
            CriticalPoint(np.array([0.05, 5.0]), 3.0, 0.0, -np.eye(2), 2),
            CriticalPoint(np.array([9.95, 5.0]), 3.0, 0.0, np.diag([1.0, -1.0]), 1),
        ]
        table = pair_statistics(pts, eps=0.2, extent=10.0)
        assert table.n_pairs == 1
        assert table.frac_max_saddle == 1.0
        assert table.frac_opposite_det == 1.0

    def test_matches_brute_force_count(self, rng):
        # the min-image loop over all pairs is the reference; the last four
        # positions sit on and past the box edges, where np.mod(-1e-17, 10)
        # is 10, and lie within eps of each other across the seam
        extent, eps = 10.0, 0.4
        pos = np.concatenate([
            rng.uniform(0.0, extent, size=(300, 2)),
            [[0.0, 5.0], [-1e-17, 5.1], [extent, 5.2], [extent + 0.05, 5.3]],
        ])
        idx = rng.integers(0, 3, size=len(pos))
        pts = [CriticalPoint(p, 0.0, 0.0, np.eye(2), int(k)) for p, k in zip(pos, idx)]
        counts, pairs = {}, []
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = pts[i].position - pts[j].position
                d -= extent * np.round(d / extent)
                dist = float(np.linalg.norm(d))
                if dist < eps:
                    key = tuple(sorted((pts[i].index, pts[j].index)))
                    counts[key] = counts.get(key, 0) + 1
                    pairs.append((pts[i].index, pts[j].index, dist))
        table = pair_statistics(pts, eps=eps, extent=extent)
        assert table.n_points == len(pts)
        assert table.n_pairs == len(pairs) > 6
        assert table.counts == counts
        assert [p[:2] for p in table.pairs] == [p[:2] for p in pairs]
        dists = [p[2] for p in pairs]
        assert [p[2] for p in table.pairs] == pytest.approx(dists, rel=1e-14)


def test_torus_rows_match_pinned(gauss2, grid):
    # D13's torus rows, as written by tests/regenerate_pinned.py on criterion
    # 09's grid: per-index counts and the pair table, compared exactly
    with open(Path(__file__).with_name("torus_rows.json")) as fh:
        pinned = json.load(fh)
    assert len(pinned) == 3
    eps = 0.5 * gauss2.correlation_length
    for seed, rows in pinned.items():
        field = sample_field(gauss2, grid, seed=int(seed))
        for u_thr, want in rows.items():
            points, _ = find_critical_points(field, u_thr=float(u_thr))
            table = pair_statistics(points, eps, field.extent)
            assert [sum(p.index == i for p in points) for i in range(3)] == want["index_counts"]
            assert table.n_pairs == want["n_pairs"]
            assert {f"{i}-{j}": c for (i, j), c in table.counts.items()} == want["pair_counts"]
