"""
The three benchmark workloads: ``kac_rice``, ``torus`` and ``cli``.

Each workload builds its inputs from the run seed, warms up with one
operation of each kind, and then runs whole rounds of a fixed list of
operations.  Every operation is a call into a public name of ``critfield``,
timed from here, and its output is checked against a property the paper
states or against an independent route.  Every workload reports the same
metrics: the end-to-end ones from its operation times, and the per-layer
ones from the same instrumentation, installed in full for each workload.
See README.md for the make-up of each workload and for which metric each
layer figure should move.
"""

import contextlib
import io
import json
import math
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import replace

import numpy as np

import critfield.cli
import critfield.io
import critfield.rice
import critfield.spectral
from critfield import (GridSpec, euler_characteristic, find_critical_points,
                       gaussian_model, maxima_share, pair_statistics,
                       rice_density_quadrature, sample_field, sign_ratio)


def derived_seed(*parts):
    """Deterministic 32-bit seed for one operation of one round."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


class Ledger:
    """Counts operations attempted and failed, wrong answers and busy time.

    An operation fails when it raises, exits non-zero or its output fails a
    check.  A failed check also marks the run incorrect, unless the check is
    tagged with the known fault that makes it fail.  ``busy_s`` sums the wall
    time of every operation, by kind in ``busy_by_kind``; ``counts`` holds
    what the operations' outputs report (samples, points found), and is the
    tracer's own counter in a traced run.
    """

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.busy_s = 0.0
        self.busy_by_kind = Counter()
        self.tracer = tracer
        self.counts = tracer.counts if tracer else Counter()

    def call(self, span_name, fn):
        """Run one operation; returns (result, seconds), or (None, None) if it raised."""
        self.attempted += 1
        ctx = self.tracer.span(span_name) if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with ctx:
                out = fn()
        except Exception:
            self.failed += 1
            print(f"[{span_name}] raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None, None
        finally:
            wall = time.perf_counter() - t0
            self.busy_s += wall
            self.busy_by_kind[span_name] += wall
        return out, wall

    def check(self, label, problems, known_fault=None):
        """Record the outcome of an operation's checks (a list of problems)."""
        if not problems:
            return
        self.failed += 1
        if known_fault is None:
            self.wrong += 1
            print(f"[{label}] CHECK FAILED: {'; '.join(problems)}", file=sys.stderr)

    def check_run(self, label, problems):
        """A check on pooled outputs of many operations: no single one fails."""
        if problems:
            self.wrong += 1
            print(f"[{label}] CHECK FAILED: {'; '.join(problems)}", file=sys.stderr)


def note_estimate(counts, est):
    counts["rice.estimates"] += 1
    counts["rice.samples"] += est.n
    counts["rice.n_degenerate"] += est.n_degenerate
    # stderr^2 * n: the variance one sample carries, which variance reduction lowers
    counts["rice.variance_x_n"] += est.stderr ** 2 * est.n


def note_critical_points(counts, found, thresholded):
    points, diag = found
    if thresholded:
        counts["fieldsim.cells_flagged.thr"] += diag["cells_flagged"]
        counts["fieldsim.points.thr"] += len(points)
    else:
        counts["fieldsim.points.all"] += len(points)
        counts["fieldsim.diverged"] += diag["diverged"]
        counts["fieldsim.morse_violations"] += euler_characteristic(points) != 0


class Workload:
    """Defaults for a workload that needs no minimum count and no pooled check."""

    def enough(self):
        return True

    def finish(self, ledger):
        pass

    def count_rho(self, tracer):
        """Count ``rho`` calls of the models this workload builds itself."""


# ---------------------------------------------------------------------------
# kac_rice: the Monte Carlo sampling loop
# ---------------------------------------------------------------------------

class KacRice(Workload):
    """Kac-Rice ratios at the desk scale r=0.02, u=4, plus a plain-sampling ratio."""

    name = "kac_rice"
    R, U = 0.02, 4.0
    RATIO_R, RATIO_U = 0.05, 1.0
    N_SHARE = {2: 2_000_000, 3: 1 << 19, 4: 1 << 19}
    N_FLIP = 1 << 19
    N_RATIO = 1 << 19
    QUAD_FAULT = ("rice_density_quadrature takes the saddle class as total minus "
                  "definite across the |det| kink (0.5054 at u=4)")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.models = {n: gaussian_model(n) for n in (2, 3, 4)}

    def _quadrature_share(self):
        m2 = self.models[2]
        maxima = rice_density_quadrature(m2, self.R, self.U, 2).value
        saddles = rice_density_quadrature(m2, self.R, self.U, 1).value
        return maxima / (maxima + saddles)

    def warm_up(self):
        m2 = self.models[2]
        for model in self.models.values():
            maxima_share(model, self.R, self.U, n=critfield.rice.CHUNK, seed=1)
        maxima_share(m2, self.R, self.U, n=critfield.rice.CHUNK, seed=1, antithetic="flip")
        sign_ratio(m2, self.RATIO_R, self.RATIO_U, n=critfield.rice.CHUNK, seed=1)
        self._quadrature_share()

    def count_rho(self, tracer):
        self.models = {n: replace(m, rho=tracer.counting(m.rho, "rho"))
                       for n, m in self.models.items()}

    @staticmethod
    def _mc(ledger, span, fn):
        est, _ = ledger.call(span, fn)
        if est is not None:
            note_estimate(ledger.counts, est)
        return est

    @staticmethod
    def _share_problems(est, n_dim):
        problems = []
        if not abs(est.value - 0.5) <= 0.03:
            problems.append(f"N={n_dim} share {est.value:.5f} is not within 0.03 of 1/2")
        buckets = est.extras["bucket_sums"]
        low, top = float(buckets[: n_dim - 1].sum()), float(buckets[n_dim - 1:].sum())
        if not low < 0.01 * top:
            problems.append(f"N={n_dim} mass below index N-1 is {low / top:.3%} of the top two")
        return problems

    def run_round(self, k, ledger):
        r, u = self.R, self.U
        shares = {}
        for n_dim, model in self.models.items():
            seed = derived_seed(self.seed, k, n_dim)
            est = self._mc(ledger, "rice.maxima_share",
                           lambda: maxima_share(model, r, u, n=self.N_SHARE[n_dim], seed=seed))
            if est is not None:
                shares[n_dim] = est
                ledger.check(f"share N={n_dim}", self._share_problems(est, n_dim))

        m2 = self.models[2]
        seed = derived_seed(self.seed, k, 20)
        flip = self._mc(ledger, "rice.maxima_share",
                        lambda: maxima_share(m2, r, u, n=self.N_FLIP, seed=seed,
                                             antithetic="flip"))
        if flip is not None:
            problems = self._share_problems(flip, 2)
            if 2 in shares:
                gap = abs(flip.value - shares[2].value)
                tol = 4.0 * math.hypot(flip.stderr, shares[2].stderr)
                if not gap <= tol:
                    problems.append(f"flip {flip.value:.5f} and negate {shares[2].value:.5f} "
                                    f"differ by {gap:.2e} > {tol:.2e}")
            ledger.check("share N=2 flip", problems)

        seed = derived_seed(self.seed, k, 30)
        ratio = self._mc(ledger, "rice.sign_ratio",
                         lambda: sign_ratio(m2, self.RATIO_R, self.RATIO_U, n=self.N_RATIO,
                                            seed=seed))
        if ratio is not None:
            dev = abs(ratio.value - 1.0)
            ledger.check("sign ratio", [] if dev <= 4.0 * ratio.stderr else
                         [f"sign ratio {ratio.value:.5f} is {dev / ratio.stderr:.1f} se from 1"])

        quad, _ = ledger.call("rice.rice_density_quadrature", self._quadrature_share)
        if quad is not None and flip is not None:
            gap = abs(quad - flip.value)
            tol = 1e-4 + 4.0 * flip.stderr
            ledger.check("quadrature share",
                         [] if gap <= tol else
                         [f"quadrature {quad:.5f} vs flip {flip.value:.5f}: {gap:.2e} > {tol:.2e}"],
                         known_fault=self.QUAD_FAULT)


# ---------------------------------------------------------------------------
# torus: the field lab
# ---------------------------------------------------------------------------

def brute_pair_counts(points, eps, extent):
    """Index-pair counts of points closer than eps on the torus, all pairs at once."""
    if len(points) < 2:
        return {}
    pos = np.array([p.position for p in points])
    idx = [int(p.index) for p in points]
    d = pos[:, None, :] - pos[None, :, :]
    d -= extent * np.round(d / extent)
    close = np.triu(np.sqrt((d * d).sum(axis=-1)) < eps, 1)
    return dict(Counter(tuple(sorted((idx[a], idx[b]))) for a, b in zip(*np.nonzero(close))))


class Torus(Workload):
    """Criterion 09's 128^2 torus: one field per round, both finder paths."""

    name = "torus"
    GRID = GridSpec(n=128, spacing=11.3 / 128)
    U = 2.5
    MIN_FIELDS = 40

    def __init__(self, seed, workdir):
        self.seed = seed
        self.model = gaussian_model(2)
        self.field_model = self.model
        self.eps = 0.5 * self.model.correlation_length
        self._exact_moments()
        self.var_terms, self.lag_terms = [], []

    def _exact_moments(self):
        """Sampling variance of the per-field variance and lag-one products.

        The torus field has exactly the min-image kernel C as covariance, so by
        Isserlis' theorem the per-field means B = mean(v^2) and
        A = mean(v(x) v(x + h e1)) have Var B = 2/n^2 sum C^2,
        Var A = 1/n^2 sum (C^2 + C(l+e)C(l-e)) and Cov(A, B) = 2/n^2 sum C(l)C(l-e).
        """
        n, h = self.GRID.n, self.GRID.spacing
        ax = np.arange(n) * h
        ax = np.minimum(ax, self.GRID.extent - ax)
        d2 = ax[:, None] ** 2 + ax[None, :] ** 2
        c = np.array([[self.model.rho(x) for x in row] for row in d2.tolist()])
        c_plus, c_minus = np.roll(c, -1, axis=0), np.roll(c, 1, axis=0)
        npts = n * n
        self.lag_expected = float(c[1, 0])
        var_b = 2.0 * float((c * c).sum()) / npts
        var_a = float((c * c + c_plus * c_minus).sum()) / npts
        cov_ab = 2.0 * float((c * c_minus).sum()) / npts
        r0 = self.lag_expected
        self.var_b_per_field = var_b
        self.var_ratio_per_field = var_a - 2.0 * r0 * cov_ab + r0 * r0 * var_b

    def enough(self):
        return len(self.var_terms) >= self.MIN_FIELDS

    def warm_up(self):
        field = sample_field(self.model, self.GRID, seed=1)
        pair_statistics(find_critical_points(field)[0], self.eps, field.extent)
        pair_statistics(find_critical_points(field, u_thr=self.U)[0], self.eps, field.extent)

    def count_rho(self, tracer):
        self.field_model = replace(self.model, rho=tracer.counting(self.model.rho, "rho"))

    def _pair_problems(self, table, points, extent):
        expected = brute_pair_counts(points, self.eps, extent)
        if table.counts != expected or table.n_points != len(points):
            return [f"pair table {table.counts} over {table.n_points} points, "
                    f"direct count {expected} over {len(points)}"]
        return []

    def run_round(self, k, ledger):
        seed = derived_seed(self.seed, k)
        field, _ = ledger.call("fieldsim.sample_field",
                                lambda: sample_field(self.field_model, self.GRID, seed=seed))
        if field is None:
            return
        ok_shape = field.periodic and field.values.shape == (self.GRID.n, self.GRID.n)
        ledger.check("sample_field", [] if ok_shape and np.isfinite(field.values).all()
                     else ["field is not a finite periodic 128^2 grid"])
        v = field.values
        self.var_terms.append(float((v * v).mean()))
        self.lag_terms.append(float((v * np.roll(v, -1, axis=0)).mean()))

        found, _ = ledger.call("fieldsim.find_critical_points.all",
                               lambda: find_critical_points(field))
        pts_all = None
        if found is not None:
            pts_all = found[0]
            note_critical_points(ledger.counts, found, thresholded=False)
            # Counted, not failed: the finder misses a critical point on about
            # one field in 100, so a failing check would make the failed share
            # depend on the seed (see the FOUND line in CHANGES.md).
            chi = euler_characteristic(pts_all)
            if chi != 0:
                print(f"[find all] field seed {seed}: Morse count {chi} != 0",
                      file=sys.stderr)
            table, _ = ledger.call("fieldsim.pair_statistics",
                                   lambda: pair_statistics(pts_all, self.eps, field.extent))
            if table is not None:
                ledger.check("pairs all", self._pair_problems(table, pts_all, field.extent))

        found, _ = ledger.call("fieldsim.find_critical_points.thr",
                               lambda: find_critical_points(field, u_thr=self.U))
        if found is None:
            return
        pts_thr = found[0]
        note_critical_points(ledger.counts, found, thresholded=True)
        if pts_all is not None:
            ledger.check("find thr", self._agreement(pts_all, pts_thr, field.extent))
        table, _ = ledger.call("fieldsim.pair_statistics",
                               lambda: pair_statistics(pts_thr, self.eps, field.extent))
        if table is not None:
            ledger.check("pairs thr", self._pair_problems(table, pts_thr, field.extent))

    def _agreement(self, pts_all, pts_thr, extent):
        """The thresholded finder returns exactly the unthresholded points above u."""
        above = [p for p in pts_all if p.value > self.U]
        if len(above) != len(pts_thr):
            return [f"{len(pts_thr)} thresholded points, {len(above)} unthresholded above u"]

        def key(p):
            return tuple(p.position)

        for a, b in zip(sorted(above, key=key), sorted(pts_thr, key=key)):
            d = a.position - b.position
            d -= extent * np.round(d / extent)
            if np.abs(d).max() > 1e-12 or a.index != b.index:
                return [f"point {a.position} (index {a.index}) vs {b.position} "
                        f"(index {b.index})"]
        return []

    def finish(self, ledger):
        n = len(self.var_terms)
        var = statistics.fmean(self.var_terms)
        se_var = math.sqrt(self.var_b_per_field / n)
        lag = sum(self.lag_terms) / sum(self.var_terms)
        se_lag = math.sqrt(self.var_ratio_per_field / n) / var
        problems = []
        if not abs(var - 1.0) <= 4.0 * se_var:
            problems.append(f"pooled variance {var:.4f} +- {se_var:.4f} is not 1")
        if not abs(lag - self.lag_expected) <= 4.0 * se_lag:
            problems.append(f"lag-one correlation {lag:.5f} +- {se_lag:.5f} "
                            f"vs rho(h^2) = {self.lag_expected:.5f}")
        ledger.check_run(f"pooled statistics over {n} fields", problems)
        print(f"torus: pooled variance {var:.4f} +- {se_var:.4f}, lag-one correlation "
              f"{lag:.5f} +- {se_lag:.5f} vs rho(h^2) {self.lag_expected:.5f}", file=sys.stderr)


# ---------------------------------------------------------------------------
# cli: every command, in process
# ---------------------------------------------------------------------------

def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path) as fh:
        return sum(1 for line in fh if line.strip()) - 1


class Cli(Workload):
    """``critfield.cli.main`` for every command into a fresh directory per round."""

    name = "cli"
    COMMANDS = ("check", "sigma", "spectrum", "hpoly", "share", "ratio", "psi",
                "simulate", "report")
    SIGMA_R = "1,0.5,0.1,0.05,0.02,0.01"
    CAUCHY = "cauchy:ell=1,nu=2"
    # cauchy's oracle error reaches 2.8e-8 at r=0.01, above the 1e-8 default
    CAUCHY_TOL = "1e-7"
    MC_N = str(1 << 17)           # one sampling chunk
    # command: (radii, thresholds); ratio sweeps the radii, share and psi the thresholds
    SWEEPS = {"share": ("0.02", "1,4"), "ratio": ("0.1,0.05", "1"), "psi": ("0.05", "1,2")}

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def _main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = critfield.cli.main(list(argv))
        return code, buf.getvalue()

    def warm_up(self):
        out = str(self.workdir / "warmup")
        small = ("--n", "4096", "--out", out)
        for argv in (("check", "--out", out),
                     ("sigma", "--r", "0.1", "--verify", "--out", out),
                     ("spectrum", "--out", out),
                     ("hpoly", "--out", out),
                     ("share", "--u", "1,4") + small,
                     ("ratio",) + small,
                     ("psi",) + small,
                     ("simulate", "--realizations", "1", "--out", out),
                     ("report", "--out", out)):
            code, text = self._main(argv)
            if code != 0:
                raise RuntimeError(f"warm-up {' '.join(argv)} exited {code}: {text}")
        shutil.rmtree(out)

    def count_rho(self, tracer):
        # Every command builds its model through this name.
        build = critfield.cli.model_from_spec

        def counted_model(*args, **kwargs):
            model = build(*args, **kwargs)
            return replace(model, rho=tracer.counting(model.rho, "rho"))

        tracer.patch(critfield.cli, "model_from_spec", counted_model)

    def _run(self, ledger, argv, check):
        """One command as one operation; ``check`` returns a list of problems."""
        result, _ = ledger.call("cli." + argv[0], lambda: self._main(argv))
        if result is None:
            return
        code, text = result
        if code != 0:
            ledger.failed += 1
            print(f"[cli {' '.join(argv)}] exited {code}:\n{text}", file=sys.stderr)
            return
        try:
            problems = check()
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        ledger.check("cli " + " ".join(argv), problems)

    def run_round(self, k, ledger):
        seed = str(derived_seed(self.seed, k))
        top = self.workdir / f"round-{k}"
        for n_dim in (2, 3, 4):
            d = top / f"N{n_dim}"
            common = ("--N", str(n_dim), "--out", str(d))
            self._run(ledger, ("check",) + common,
                      lambda: [] if _load(d / "check.json")["overall_pass"]
                      else ["qualification failed"])
            self._run(ledger, ("sigma", "--r", self.SIGMA_R, "--verify") + common,
                      lambda: self._sigma_problems(d / "sigma.json"))
            self._run(ledger, ("spectrum",) + common,
                      lambda: self._spectrum_problems(d))
            self._run(ledger, ("hpoly", "--seed", seed) + common,
                      lambda: self._hpoly_problems(d / "hpoly.json", n_dim))
        d = top / "cauchy"
        self._run(ledger, ("sigma", "--model", self.CAUCHY, "--r", self.SIGMA_R, "--verify",
                           "--tol", self.CAUCHY_TOL, "--out", str(d)),
                  lambda: self._sigma_problems(d / "sigma.json"))
        for command, (radii, thresholds) in self.SWEEPS.items():
            points = max(len(radii.split(",")), len(thresholds.split(",")))
            self._run(ledger, (command, "--r", radii, "--u", thresholds, "--n", self.MC_N,
                               "--seed", seed, "--format", "csv", "--out", str(top)),
                      lambda: self._sweep_problems(top, command, points))
        self._run(ledger, ("simulate", "--realizations", "3", "--seed", seed,
                           "--out", str(top)),
                  lambda: self._simulate_problems(top / "simulate.json", seed))
        rerun = top / "rerun"
        rerun.mkdir(parents=True, exist_ok=True)
        saved = _load(top / "share.json") if (top / "share.json").exists() else None
        if saved is not None:
            with open(rerun / "config.json", "w") as fh:
                json.dump(saved["config"], fh)
            self._run(ledger, ("share", "--config", str(rerun / "config.json"),
                               "--out", str(rerun)),
                      lambda: self._rerun_problems(saved, rerun / "share.json"))
        self._run(ledger, ("report", "--out", str(top)),
                  lambda: self._report_problems(top))
        shutil.rmtree(top)

    @staticmethod
    def _sigma_problems(path):
        data = _load(path)
        tol = data["config"]["tol"]
        worst = max(v["max_abs"] for v in data["verify"])
        if len(data["verify"]) != len(data["config"]["r"]):
            return ["sigma verified fewer radii than asked"]
        return [] if worst <= tol else [f"verify diff {worst:.3e} > tol {tol:g}"]

    @staticmethod
    def _spectrum_problems(d):
        cat = _load(d / "spectrum.json")["catalogue"]["catalogue"]
        dense = sorted((e["value"] for e in cat for _ in range(e["multiplicity"])),
                       reverse=True)
        rec = _load(d / "sigma.json")["sigma0"]
        sigma0 = np.array(rec["data"], dtype=float).reshape(rec["shape"])
        numeric = np.sort(np.linalg.eigvalsh(sigma0))[::-1]
        if len(dense) != len(numeric):
            return [f"catalogue has {len(dense)} eigenvalues, Sigma0 has {len(numeric)}"]
        err = float(np.abs(numeric - np.array(dense)).max())
        return [] if err <= 1e-9 else [f"catalogue vs eigvalsh(Sigma0): {err:.2e}"]

    @staticmethod
    def _hpoly_problems(path, n_dim):
        data = _load(path)
        problems = []
        if not data["antisymmetry_residual"] < 1e-8:
            problems.append(f"antisymmetry residual {data['antisymmetry_residual']:.2e}")
        length = n_dim * (n_dim + 1) // 2 + 2
        rank0 = length - n_dim - 1
        for key in data["coefficients"]:
            idx = [int(i) for i in key.split("+")]
            if len(idx) != n_dim or sum(i > rank0 for i in idx) != 1:
                problems.append(f"monomial {key} does not have exactly one kernel index")
        return problems

    @staticmethod
    def _sweep_problems(top, command, n_points):
        results = _load(top / f"{command}.json")["results"]
        if len(results) != n_points or _csv_rows(top / f"{command}.csv") != n_points:
            return [f"{command} wrote {len(results)} results for {n_points} points"]
        if not all(math.isfinite(r["value"]) and math.isfinite(r["stderr"]) for r in results):
            return [f"{command} wrote a non-finite value"]
        return []

    @staticmethod
    def _simulate_problems(path, seed):
        data = _load(path)
        if data["realizations"] != 3:
            return [f"simulate ran {data['realizations']} realizations, not 3"]
        # Reported, not failed: the finder misses a critical point on about one
        # field in 100 (see the torus workload and CHANGES.md).
        if data["euler_failures"]:
            print(f"[cli simulate --seed {seed}] {data['euler_failures']} Euler failures",
                  file=sys.stderr)
        return []

    @staticmethod
    def _rerun_problems(saved, path):
        again = _load(path)["results"]
        fields = ("value", "stderr", "n")
        first = [[r[f] for f in fields] for r in saved["results"]]
        second = [[r[f] for f in fields] for r in again]
        return [] if first == second else [f"re-run gave {second}, saved {first}"]

    @staticmethod
    def _report_problems(top):
        rows = len(_load(top / "report.json")["rows"])
        expected = sum(_csv_rows(top / f"{c}.csv") for c in Cli.SWEEPS) + 1  # + simulate
        if rows != expected or _csv_rows(top / "report.csv") != expected:
            return [f"report merged {rows} rows, the sweeps and simulate wrote {expected}"]
        return []


WORKLOADS = {cls.name: cls for cls in (KacRice, Torus, Cli)}


# ---------------------------------------------------------------------------
# Per-layer metrics: the same instrumentation and figures for every workload
# ---------------------------------------------------------------------------

# Spans reported as ms per round, whichever workload opened them.
LAYER_SPANS = (
    "linalg.eigvalsh", "linalg.det", "fft",
    "rice.maxima_share", "rice.sign_ratio", "rice.rice_density_quadrature",
    "symmetric.matriculate_batch",
    "covariance.conditional_covariance", "covariance.conditional_covariance_oracle",
    "spectral.ordered_eigendecomposition", "spectral.eigenpath",
    "spectral.LimitPolynomial.coefficients", "spectral.LimitPolynomial.evaluate",
    "fieldsim.sample_field", "fieldsim.find_critical_points.thr",
    "fieldsim.find_critical_points.all", "fieldsim.pair_statistics",
    "io.write_json", "io.write_csv", "io.save_field",
) + tuple("cli." + c for c in Cli.COMMANDS)

# Counts reported per round.
LAYER_COUNTS = ("rice.samples", "rice.n_degenerate", "fieldsim.cells_flagged.thr",
                "fieldsim.points.all", "fieldsim.diverged", "fieldsim.morse_violations")

RICE_ESTIMATORS = ("rice.maxima_share", "rice.sign_ratio", "rice.psi_ratio")


def instrument(tracer, ledger, workload):
    """Wrap, for the measured rounds, every name the layers call each other through.

    The benchmark's own calls are spans named after the operation; these
    wrappers add the calls a layer makes into another: numpy's kernels, the
    names ``critfield.rice`` imported, and the names ``critfield.cli``
    imported.  ``cli simulate`` runs the unthresholded finder only.
    """
    counts = ledger.counts
    workload.count_rho(tracer)
    tracer.wrap(np.linalg, "eigvalsh", "linalg.eigvalsh")
    tracer.wrap(np.linalg, "det", "linalg.det")
    tracer.wrap(np.fft, "fft2", "fft")
    tracer.wrap(np.fft, "ifft2", "fft")
    tracer.wrap(critfield.rice, "matriculate_batch", "symmetric.matriculate_batch")
    for owner in (critfield.rice, critfield.cli):
        tracer.wrap(owner, "conditional_covariance", "covariance.conditional_covariance")
    tracer.wrap(critfield.rice, "ordered_eigendecomposition",
                "spectral.ordered_eigendecomposition")
    for name in RICE_ESTIMATORS:
        tracer.wrap(critfield.cli, name.split(".")[1], name,
                    on_result=lambda est: note_estimate(counts, est))
    tracer.wrap(critfield.cli, "sample_field", "fieldsim.sample_field")
    tracer.wrap(critfield.cli, "find_critical_points", "fieldsim.find_critical_points.all",
                on_result=lambda found: note_critical_points(counts, found, thresholded=False))
    tracer.wrap(critfield.cli, "pair_statistics", "fieldsim.pair_statistics")
    tracer.wrap(critfield.cli, "conditional_covariance_oracle",
                "covariance.conditional_covariance_oracle")
    tracer.wrap(critfield.cli, "eigenpath", "spectral.eigenpath")
    tracer.wrap(critfield.spectral.LimitPolynomial, "coefficients",
                "spectral.LimitPolynomial.coefficients")
    tracer.wrap(critfield.spectral.LimitPolynomial, "evaluate",
                "spectral.LimitPolynomial.evaluate")
    for name in ("write_json", "write_csv", "save_field"):
        tracer.wrap(critfield.io, name, "io." + name)


def layer_metrics(tracer, rounds):
    """Every per-layer metric, per round; a layer the workload never reached reads 0."""
    out = {name + ".ms": (tracer.total_ms(name) / rounds, "ms/round") for name in LAYER_SPANS}
    out["rice.self.ms"] = (tracer.self_ms(lambda s: s in RICE_ESTIMATORS) / rounds,
                           "ms/round")
    out["fieldsim.self.ms"] = (tracer.self_ms(lambda s: s.startswith("fieldsim.")) / rounds,
                               "ms/round")
    counts = tracer.counts
    for name in LAYER_COUNTS:
        out[name] = (counts[name] / rounds, "count/round")
    out["models.rho_calls"] = (counts["rho"] / rounds, "count/round")
    estimates = counts["rice.estimates"]
    out["rice.variance_per_sample"] = (counts["rice.variance_x_n"] / estimates if estimates
                                       else 0.0, "ratio")
    cells = counts["fieldsim.cells_flagged.thr"]
    out["fieldsim.points_per_cell.thr"] = (counts["fieldsim.points.thr"] / cells if cells
                                           else 0.0, "ratio")
    return out
