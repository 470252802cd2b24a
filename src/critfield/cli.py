"""
Batch front door: model configuration, command dispatch, sweep orchestration.

Configuration comes from an optional JSON file plus flag overrides (flags
win).  Every artifact embeds the fully resolved configuration and the root
seed.  Exit codes: 0 success, 2 configuration/validation failure, 3
numerical-contract failure (a verification miss or a conditioning error).
"""

import argparse
import functools
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import io as cfio
from .covariance import (OracleConvergenceError, SingularConditioningError,
                         check_qualified, conditional_covariance,
                         conditional_covariance_oracle, sigma_expansion)
from .fieldsim import (EmbeddingError, GridSpec, PairTable, euler_characteristic,
                       find_critical_points, pair_statistics, sample_field)
from .models import model_from_spec
from .rice import STREAMS, InsufficientSamplesError, _chunk_rng, ratio_sweep
from .spectral import (EigenpathError, EigenvalueCollisionError, eigenpath,
                       limit_polynomial, spectrum_sigma0)

N_POLY_SAMPLES = 10_000     # antisymmetry probes of `hpoly`


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str = ""
    model_family: str = "gaussian"
    model_params: dict = field(default_factory=dict)
    n_dim: int = 2
    scale: float = 1.0
    r_list: tuple = (0.1,)
    u_list: tuple = (1.0,)
    mc_n: int = 2_000_000
    seed: int = 0
    sim_grid: int = 128
    sim_spacing: float = 11.3 / 128
    sim_realizations: int = 200
    sim_eps: float = 0.5        # in correlation lengths
    out_dir: str = "."
    out_format: str = "json"
    verify: bool = False
    tol: float = 1e-8
    model: object = field(default=None, init=False, repr=False, compare=False)

    def validate(self):
        """Check the fields and build the model; returns self."""
        if self.command not in DISPATCH:
            raise ConfigError(f"unknown command {self.command!r}")
        if not self.r_list:
            raise ConfigError("r list must be nonempty")
        if not all(0 < r < math.inf for r in self.r_list):
            raise ConfigError("every r must be positive and finite")
        if not self.u_list:
            raise ConfigError("u list must be nonempty")
        if any(math.isnan(u) for u in self.u_list):
            raise ConfigError("no threshold may be NaN")
        if self.mc_n < 1:
            raise ConfigError("mc.n must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not self.tol > 0:
            raise ConfigError("tol must be positive")
        for name in ("sim_grid", "sim_spacing", "sim_realizations", "sim_eps"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"sim.{name[4:]} must be positive")
        if self.out_format not in ("json", "csv"):
            raise ConfigError("format must be json or csv")
        if self.n_dim < 2:
            raise ConfigError("N must be >= 2")
        try:  # an unknown family, or a parameter the family does not take
            model = model_from_spec(self.model_family, self.n_dim, scale=self.scale,
                                    **self.model_params)
            # rho'(0)^2 and rho''(0)^2 divide in the closed forms and the checks
            squares = (model.d1 ** 2, model.d2 ** 2)
            finite = all(map(math.isfinite, (model.d1, model.d2, model.d3)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"model {self.model_family!r}: {exc}") from exc
        except OverflowError:  # rescaled derivatives pick up factors scale^k
            finite = False
        if not finite:
            raise ConfigError(f"model {self.model_family!r}: the derivatives of rho at 0 "
                              f"are not finite at scale {self.scale:g}")
        if min(squares) < sys.float_info.min:
            raise ConfigError(f"model {self.model_family!r}: the squares of rho'(0) and "
                              f"rho''(0) underflow at scale {self.scale:g}")
        object.__setattr__(self, "model", model)
        return self

    def to_file_dict(self):
        """The config-file representation; feeding it back reproduces the run."""
        out = {"schema": cfio.SCHEMA}
        for name, keys, _, _ in FIELDS:
            value = getattr(self, name)
            node = out
            for key in keys[:-1]:
                node = node.setdefault(key, {})
            node[keys[-1]] = list(value) if isinstance(value, tuple) else value
        return out


DEFAULT = RunConfig()

# RunConfig field, its path in the config file, its flag (None: no flag of
# its own) and the flag's help.  A field's type is that of its default.
FIELDS = (
    ("command", ("command",), None, None),
    ("model_family", ("model", "family"), None, None),
    ("model_params", ("model", "params"), None, None),
    ("n_dim", ("model", "N"), "--N", "field dimension"),
    ("scale", ("model", "scale"), "--scale", "argument rescale factor"),
    ("r_list", ("r",), "--r", "comma-separated radii"),
    ("u_list", ("u",), "--u", "comma-separated thresholds"),
    ("mc_n", ("mc", "n"), "--n", "Monte Carlo sample budget"),
    ("seed", ("mc", "seed"), "--seed", "root seed (default 0)"),
    ("out_dir", ("output", "path"), "--out", "output directory"),
    ("out_format", ("output", "format"), "--format", "table format: json or csv"),
    ("verify", ("verify",), "--verify", "sigma: cross-check against the independent oracle"),
    ("tol", ("tol",), "--tol", "verification tolerance"),
    ("sim_grid", ("sim", "grid"), "--grid", "simulate: cells per axis"),
    ("sim_spacing", ("sim", "spacing"), "--spacing", "simulate: grid spacing"),
    ("sim_realizations", ("sim", "realizations"), "--realizations",
     "simulate: realizations"),
    ("sim_eps", ("sim", "eps"), "--eps", "simulate: pair radius in correlation lengths"),
)


def _parse_model(spec):
    """'gaussian:a=1' or 'cauchy:ell=1,nu=2' -> (family, params)."""
    family, _, rest = spec.partition(":")
    if not family.strip():
        raise ConfigError(f"model {spec!r} names no family")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not key or not val:
                raise ConfigError(f"malformed model parameter {item!r}")
            params[key.strip()] = float(val)
    return family.strip().lower(), params


def _parse_floats(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _convert(name, value):
    """``value`` (a file entry or flag text) as the type of the field's default.

    Text converts as a flag's does.  A switch takes only a JSON bool, and no
    other field does; a list holds numbers, and an int field no fraction.
    """
    kind = type(getattr(DEFAULT, name))
    try:
        if isinstance(value, bool) != (kind is bool):
            raise TypeError("only a switch takes a bool")
        if kind is tuple and isinstance(value, str):
            return _parse_floats(value)
        if kind is tuple and not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                     for v in value):
            raise TypeError("a list holds numbers")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("not an integer")
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed {name} {value!r}") from exc


def load_config(path):
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    values = {}
    for name, keys, _, _ in FIELDS:
        node = raw
        for key in keys[:-1]:
            node = node.get(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"config {key!r} must be an object")
        if keys[-1] in node:  # keys no row names, such as mc.shards, are ignored
            values[name] = _convert(name, node[keys[-1]])
    if "model" in raw and "model_family" not in values:
        raise ConfigError("config model requires a 'family'")
    return RunConfig(**values)


@functools.cache  # once per process, however many commands run in it
def build_parser():
    parser = argparse.ArgumentParser(
        prog="critfield",
        description="Critical-point pair structure of isotropic Gaussian fields",
    )
    parser.add_argument("command", choices=tuple(DISPATCH))
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--model", help="family:key=val,... e.g. gaussian:a=1")
    for name, _, flag, text in FIELDS:
        if flag:
            # no argparse type: resolve_config converts, so a bad value exits 2
            switch = isinstance(getattr(DEFAULT, name), bool)
            parser.add_argument(flag, help=text,
                                **({"action": "store_true", "default": None} if switch else {}))
    return parser


def resolve_config(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    changes = {"command": args.command}
    if args.model is not None:
        changes["model_family"], changes["model_params"] = _parse_model(args.model)
    for name, _, flag, _ in FIELDS:
        if flag and getattr(args, flag[2:]) is not None:
            changes[name] = _convert(name, getattr(args, flag[2:]))
    return replace(cfg, **changes).validate()


def _artifact(cfg, payload):
    payload = dict(payload)
    payload.setdefault("schema", cfio.SCHEMA)
    payload["config"] = cfg.to_file_dict()
    payload["seed"] = cfg.seed
    return payload


def _emit_table(cfg, name, header, rows):
    base = Path(cfg.out_dir) / name
    if cfg.out_format == "csv":
        cfio.write_csv(base.with_suffix(".csv"), header, rows)
    return base


def cmd_check(cfg):
    model = cfg.model
    report = check_qualified(model)
    path = cfio.write_json(Path(cfg.out_dir) / "check.json",
                           _artifact(cfg, report.to_dict()))
    status = "PASS" if report.overall_pass else "FAIL: " + ", ".join(report.failed())
    print(f"check {model.name} N={model.n_dim}: {status} -> {path}")
    return 0


def cmd_sigma(cfg):
    model = cfg.model
    s0, s2 = sigma_expansion(model)
    records = {
        "sigma0": cfio.matrix_record(s0, model.n_dim, r=0.0),
        "sigma2": cfio.matrix_record(s2, model.n_dim, r=0.0),
        "sigma_r": [],
        "verify": [],
    }
    worst = worst_est = 0.0
    worst_loc = None
    for r in cfg.r_list:
        cc = conditional_covariance(model, r)
        records["sigma_r"].append(
            cfio.matrix_record(cc.sigma, model.n_dim, r=r, u=model.axis_direction())
        )
        if cfg.verify:
            oracle = conditional_covariance_oracle(model, r)
            diff = np.abs(cc.sigma - oracle.sigma)
            loc = tuple(int(i) for i in np.unravel_index(diff.argmax(), diff.shape))
            records["verify"].append(
                {"r": r, "max_abs": float(diff.max()), "at": list(loc),
                 "estimate": oracle.error_estimate}
            )
            worst_est = max(worst_est, oracle.error_estimate)
            if diff.max() > worst:
                worst = float(diff.max())
                worst_loc = (r, loc)
    path = cfio.write_json(Path(cfg.out_dir) / "sigma.json", _artifact(cfg, records))
    if cfg.verify:
        print(f"sigma verify: max |closed - oracle| = {worst:.3e} at {worst_loc}, "
              f"oracle error estimate <= {worst_est:.3e}")
        if worst > cfg.tol:
            print(f"sigma verify FAILED tolerance {cfg.tol:g}", file=sys.stderr)
            return 3
    print(f"sigma: wrote {path}")
    return 0


def cmd_spectrum(cfg):
    model = cfg.model
    cat = spectrum_sigma0(model)
    expansion = eigenpath(model)
    payload = {"catalogue": cat.to_dict(), "expansion": expansion.to_dict()}
    path = cfio.write_json(Path(cfg.out_dir) / "spectrum.json", _artifact(cfg, payload))
    rows = [(v, mult) for v, mult in cat.entries]
    _emit_table(cfg, "spectrum", ("value", "multiplicity"), rows)
    print(f"spectrum: {len(cat.entries)} distinct eigenvalues -> {path}")
    return 0


def cmd_hpoly(cfg):
    poly = limit_polynomial(cfg.model)
    rng = _chunk_rng(cfg.seed, STREAMS["hpoly"], 0)
    ys = rng.standard_normal((N_POLY_SAMPLES, poly.L))
    vals = poly.evaluate(ys)
    resid = float(np.max(np.abs(vals + poly.evaluate(poly.flip(ys)))
                         / (1.0 + np.abs(vals))))
    coeffs = {"+".join(map(str, key)): c for key, c in poly.coefficients().items()}
    payload = {"coefficients": coeffs, "antisymmetry_residual": resid,
               "n_samples": N_POLY_SAMPLES}
    path = cfio.write_json(Path(cfg.out_dir) / "hpoly.json", _artifact(cfg, payload))
    print(f"hpoly: {len(coeffs)} monomials, antisymmetry residual {resid:.2e} -> {path}")
    return 0


# command: (the estimator it runs, the list it sweeps); the other list gives
# its first entry.
SWEEPS = {"ratio": ("sign_ratio", "r"), "psi": ("psi_ratio", "u"),
          "share": ("maxima_share", "u")}


def cmd_sweep(cfg):
    """Every point of the sweep from one pass over shared draws, then the output."""
    name = cfg.command
    estimator, axis = SWEEPS[name]
    sweep = cfg.r_list if axis == "r" else cfg.u_list
    points = [(x, cfg.u_list[0]) if axis == "r" else (cfg.r_list[0], x) for x in sweep]
    rows = []
    records = []
    for x, est in zip(sweep, ratio_sweep(estimator, cfg.model, points, cfg.mc_n, cfg.seed)):
        label = f"{axis}={x:g}"
        rows.append((label, est.value, est.stderr, est.n))
        records.append(est.to_dict(name, {"sweep": label}))
        print(f"{name} {label}: {est.value:.6f} +- {est.stderr:.6f} (n={est.n})")
    cfio.write_json(Path(cfg.out_dir) / f"{name}.json",
                    _artifact(cfg, {"results": records}))
    _emit_table(cfg, name, ("point", "value", "stderr", "n"), rows)
    return 0


def cmd_simulate(cfg):
    model = cfg.model
    grid = GridSpec(n=cfg.sim_grid, spacing=cfg.sim_spacing)
    u_thr = cfg.u_list[0]
    eps = cfg.sim_eps * model.correlation_length
    euler_failures = 0
    pair_counts = Counter()
    n_points = 0
    finder = Counter()
    point_rows = []
    out = Path(cfg.out_dir)
    for k in range(cfg.sim_realizations):
        seed = cfg.seed + k
        realization = sample_field(model, grid, seed=seed)
        if k == 0:
            cfio.save_field(realization, out / "field_000")
        points, diagnostics = find_critical_points(realization)
        finder.update(diagnostics)
        if euler_characteristic(points) != 0:
            euler_failures += 1
        above = [p for p in points if p.value > u_thr]
        n_points += len(above)
        pair_counts.update(pair_statistics(above, eps, realization.extent).counts)
        if k == 0:
            for p in points:
                point_rows.append(
                    (p.position[0], p.position[1], p.value, p.index, p.grad_norm)
                )
    pooled = PairTable(eps=eps, n_points=n_points, n_pairs=pair_counts.total(),
                       counts=dict(pair_counts))
    cfio.write_csv(out / "critical_points.csv",
                   ("x", "y", "value", "index", "grad_norm"), point_rows)
    pair_rows = [(f"{i}-{j}", cnt) for (i, j), cnt in sorted(pair_counts.items())]
    cfio.write_csv(out / "pairs.csv", ("index_pair", "count"), pair_rows)
    payload = {
        "realizations": cfg.sim_realizations,
        "euler_failures": euler_failures,
        "points_above_threshold": n_points,
        "pairs_within_eps": pooled.n_pairs,
        "pair_counts": {f"{i}-{j}": c for (i, j), c in pair_counts.items()},
        "opposite_det_fraction": pooled.frac_opposite_det if pooled.n_pairs else None,
        "threshold": u_thr,
        "eps_physical": eps,
        "finder": dict(finder),
    }
    path = cfio.write_json(out / "simulate.json", _artifact(cfg, payload))
    print(
        f"simulate: {cfg.sim_realizations} realizations, euler failures "
        f"{euler_failures}, pairs {pooled.n_pairs} -> {path}"
    )
    return 0


def cmd_report(cfg):
    out = Path(cfg.out_dir)
    rows = []
    for path in sorted(out.glob("*.json")):
        if path.name == "report.json":
            continue
        with open(path) as fh:
            data = json.load(fh)
        if "results" in data:
            for rec in data["results"]:
                rows.append((path.stem, rec["params"].get("sweep", ""),
                             rec["value"], rec["stderr"], rec["n"]))
        elif "overall_pass" in data:
            rows.append((path.stem, "overall_pass", int(data["overall_pass"]), 0, 0))
        elif "opposite_det_fraction" in data:
            fraction = data["opposite_det_fraction"]
            rows.append((path.stem, "opposite_det_fraction",
                         math.nan if fraction is None else fraction, 0,
                         data["realizations"]))
    cfio.write_csv(out / "report.csv", ("artifact", "point", "value", "stderr", "n"), rows)
    cfio.write_json(out / "report.json", _artifact(cfg, {"rows": rows}))
    print(f"report: merged {len(rows)} rows from {out}")
    return 0


DISPATCH = {
    "check": cmd_check,
    "sigma": cmd_sigma,
    "spectrum": cmd_spectrum,
    "hpoly": cmd_hpoly,
    "ratio": cmd_sweep,
    "psi": cmd_sweep,
    "share": cmd_sweep,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def run(config):
    """Dispatch a validated configuration; returns the process exit code."""
    t0 = time.perf_counter()
    try:
        code = DISPATCH[config.command](config)
    except (SingularConditioningError, OracleConvergenceError, EigenvalueCollisionError,
            EigenpathError, InsufficientSamplesError, EmbeddingError) as exc:
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # the library's own input checks, such as the grid extent
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if code == 0:
        print(f"done in {time.perf_counter() - t0:.2f}s")
    return code


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
