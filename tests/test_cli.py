import json

import numpy as np
import pytest

from critfield.cli import (FIELDS, RunConfig, build_parser, load_config, main,
                           resolve_config)
from critfield.io import load_field, matrix_from_record
from critfield.models import cauchy_model
from critfield.spectral import eigenpath


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path) as fh:
        return json.load(fh)


class TestExitCodes:
    def test_check_passes(self, tmp_path):
        assert run_cli("check", "--model", "gaussian:a=1", "--N", "2",
                       "--out", str(tmp_path)) == 0
        payload = read(tmp_path / "check.json")
        assert payload["overall_pass"] is True
        assert payload["schema"] == 1

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("frobnicate")
        assert err.value.code == 2

    @pytest.mark.parametrize("n_dim", [3, 4, 5])
    @pytest.mark.parametrize("scale, code", [("1e-3", 0), ("1e-6", 3)])
    def test_spectrum_collision_check_at_small_scale(self, n_dim, scale, code, tmp_path):
        # lambda_minus nears 8 rho''(0) as the scale shrinks: a gap of 4e-6
        # relative at 1e-3 is no collision, but at 1e-6 the computed gap is
        # below lambda_minus's own rounding
        assert run_cli("spectrum", "--N", str(n_dim), "--scale", scale,
                       "--out", str(tmp_path)) == code

    def test_malformed_model_flag(self, tmp_path):
        assert run_cli("check", "--model", "gaussian:a", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("spec", ["foo", "gaussian:b=1"])
    def test_unbuildable_model_is_config_error(self, spec, tmp_path, capsys):
        # an unknown family and a parameter the family does not take
        assert run_cli("check", "--model", spec, "--out", str(tmp_path)) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_config_missing_family(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": {"N": 2}}))
        assert run_cli("check", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("raw", [
        pytest.param({"r": ["0.1"]}, id="r-text-entry"),
        pytest.param({"u": [None]}, id="u-null-entry"),
        pytest.param({"u": [True]}, id="u-bool-entry"),
        pytest.param({"verify": "false"}, id="verify-text"),
        pytest.param({"verify": 0}, id="verify-number"),
        pytest.param({"mc": {"n": 4096.9}}, id="n-fraction"),
        pytest.param({"mc": {"n": float("inf")}}, id="n-inf"),
        pytest.param({"mc": {"seed": True}}, id="seed-bool"),
        pytest.param({"model": {"family": "gaussian", "N": 2.5}}, id="N-fraction"),
        pytest.param({"tol": True}, id="tol-bool"),
    ])
    def test_malformed_config_value_is_config_error(self, raw, tmp_path, capsys):
        # a file entry of the wrong JSON type exits 2 with one line: it is
        # neither coerced nor left to fail later
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli("share", "--config", str(cfg), "--n", "4096", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not out.exists()

    def test_empty_config_loads_defaults(self, tmp_path):
        # a file run and a flag run start from the same defaults
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        assert load_config(cfg) == RunConfig()

    def test_empty_r_list_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"r": []}))
        assert run_cli("sigma", "--config", str(cfg), "--out", str(tmp_path)) == 2
        # an explicitly empty flag is rejected the same way, not ignored
        assert run_cli("sigma", "--r", "", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("flag", ["--N", "--n", "--tol", "--u"])
    def test_malformed_flag_value(self, flag, tmp_path):
        # values are converted after parsing, so main returns 2 and does not exit
        assert run_cli("check", flag, "x", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("argv", [
        pytest.param(("share", "--n", "0"), id="0"),
        pytest.param(("share", "--n", "-5"), id="-5"),
        pytest.param(("sigma", "--r", "0"), id="r-zero"),
        pytest.param(("sigma", "--r", "0.1,-0.5"), id="r-negative"),
        pytest.param(("sigma", "--r", "inf"), id="r-inf"),
        # the rescaled rho'''(0) = scale^3 rho'''(0) overflows
        pytest.param(("check", "--scale", "1e200"), id="scale-overflow"),
        # rho'(0)^2 = scale^2 rho'(0)^2 underflows to 0
        pytest.param(("check", "--scale", "1e-200"), id="scale-underflow"),
        pytest.param(("sigma", "--scale", "1e-100"), id="scale-underflow-sigma"),
        pytest.param(("simulate", "--grid", "0"), id="grid-zero"),
        pytest.param(("simulate", "--spacing", "-0.1"), id="spacing-negative"),
        # a positive grid whose extent is below 8 correlation lengths
        pytest.param(("simulate", "--grid", "16"), id="grid-too-small"),
        pytest.param(("simulate", "--eps", "-1"), id="eps-negative"),
        pytest.param(("simulate", "--realizations", "-2"), id="realizations-negative"),
        pytest.param(("share", "--u", "nan"), id="u-nan"),
        pytest.param(("check", "--seed", "-1"), id="seed-negative"),
        pytest.param(("sigma", "--verify", "--tol", "-1"), id="tol-negative"),
        pytest.param(("sigma", "--verify", "--tol", "0"), id="tol-zero"),
    ])
    def test_nonpositive_sample_count_is_config_error(self, argv, tmp_path, capsys):
        # an out-of-range value exits 2 with one line and no traceback
        assert run_cli(*argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_overflowing_radius_is_one_line(self, tmp_path, capsys, recwarn):
        # r^2 near the float maximum: the non-finite Sigma(r) is the only report
        assert run_cli("sigma", "--r", "1e154", "--out", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical contract failure:") and err.count("\n") == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_verify_failure_is_contract_error(self, tmp_path):
        code = run_cli("sigma", "--model", "gaussian:a=1", "--N", "2",
                       "--r", "0.5", "--verify", "--tol", "1e-20",
                       "--out", str(tmp_path))
        assert code == 3

    def test_verify_passes_at_documented_tolerance(self, tmp_path):
        code = run_cli("sigma", "--model", "gaussian:a=1", "--N", "3",
                       "--r", "0.5", "--verify", "--out", str(tmp_path))
        assert code == 0
        payload = read(tmp_path / "sigma.json")
        assert payload["verify"][0]["max_abs"] < 1e-8

    def test_verify_passes_near_origin_at_default_tolerance(self, tmp_path):
        # the contour oracle resolves the r^2 gap at r = 1e-3 to ~2e-10
        code = run_cli("sigma", "--r", "1e-3", "--verify", "--out", str(tmp_path))
        assert code == 0

    def test_verify_line_prints_plain_numbers(self, tmp_path, capsys):
        # the worst location reads (r, (i, j)), with no numpy scalar reprs
        assert run_cli("sigma", "--r", "0.5", "--verify", "--out", str(tmp_path)) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("sigma verify:") and "np." not in line

    def test_verify_cauchy_passes_at_default_tolerance(self, tmp_path):
        code = run_cli("sigma", "--model", "cauchy:ell=1,nu=2",
                       "--r", "1,0.5,0.1,0.05,0.02,0.01", "--verify",
                       "--out", str(tmp_path))
        assert code == 0
        # every verify record carries the oracle's own error estimate
        for rec in read(tmp_path / "sigma.json")["verify"]:
            assert rec["max_abs"] <= rec["estimate"] <= 1e-8


class TestArtifacts:
    def test_sigma_matrices_round_trip(self, tmp_path, gauss3):
        from critfield.covariance import conditional_covariance

        run_cli("sigma", "--model", "gaussian:a=1", "--N", "3", "--r", "0.4",
                "--out", str(tmp_path))
        payload = read(tmp_path / "sigma.json")
        stored = matrix_from_record(payload["sigma_r"][0])
        direct = conditional_covariance(gauss3, 0.4).sigma
        assert np.abs(stored - direct).max() < 1e-15

    def test_ratio_artifact_reproducible(self, tmp_path):
        args = ("ratio", "--model", "gaussian:a=1", "--N", "2", "--r", "0.1",
                "--u", "1", "--n", "50000", "--seed", "3")
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        rec_a = read(tmp_path / "a" / "ratio.json")["results"][0]
        rec_b = read(tmp_path / "b" / "ratio.json")["results"][0]
        assert rec_a["value"] == rec_b["value"]
        assert rec_a["stderr"] == rec_b["stderr"]
        assert rec_a["seed"] == 3

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"family": "gaussian", "params": {"a": 1.0}, "N": 2},
            "u": [2.0],
            "mc": {"n": 40000, "seed": 5},
        }))
        run_cli("psi", "--config", str(cfg), "--r", "0.3", "--u", "1",
                "--out", str(tmp_path))
        payload = read(tmp_path / "psi.json")
        assert payload["config"]["u"] == [1.0]
        assert payload["config"]["mc"]["n"] == 40000
        assert payload["seed"] == 5

    def test_config_with_shards_key_still_loads(self, tmp_path):
        # configs written by older versions carry an unused mc.shards key
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({
            "schema": 1,
            "model": {"family": "gaussian", "params": {"a": 1.0}, "N": 2},
            "r": [0.1], "u": [1.0],
            "mc": {"n": 30000, "seed": 7, "shards": 4},
        }))
        assert run_cli("share", "--config", str(cfg), "--out", str(tmp_path)) == 0
        payload = read(tmp_path / "share.json")
        assert payload["config"]["mc"] == {"n": 30000, "seed": 7}
        assert payload["results"][0]["seed"] == 7

    def test_saved_artifact_config_reproduces_run(self, tmp_path):
        # the embedded config is a valid config file: feeding it back yields
        # bit-identical values
        run_cli("ratio", "--model", "gaussian:a=1", "--N", "2", "--r", "0.08",
                "--u", "1", "--n", "60000", "--seed", "11",
                "--out", str(tmp_path / "first"))
        first = read(tmp_path / "first" / "ratio.json")
        cfg_path = tmp_path / "replay.json"
        cfg_path.write_text(json.dumps(first["config"]))
        run_cli("ratio", "--config", str(cfg_path), "--out", str(tmp_path / "second"))
        second = read(tmp_path / "second" / "ratio.json")
        for a, b in zip(first["results"], second["results"]):
            assert a["value"] == b["value"]
            assert a["stderr"] == b["stderr"]

    def test_spectrum_artifact(self, tmp_path):
        run_cli("spectrum", "--model", "gaussian:a=1", "--N", "4",
                "--out", str(tmp_path), "--format", "csv")
        payload = read(tmp_path / "spectrum.json")
        mults = [e["multiplicity"] for e in payload["catalogue"]["catalogue"]]
        assert sum(mults) == 12
        assert (tmp_path / "spectrum.csv").exists()
        # Sigma(r) is even in r: the linear terms are exact zeros, and lambda2
        # is the closed form
        assert run_cli("spectrum", "--model", "cauchy", "--N", "2",
                       "--out", str(tmp_path / "cauchy")) == 0
        expansion = read(tmp_path / "cauchy" / "spectrum.json")["expansion"]
        assert expansion["lambda1"] == [0.0] * 5
        assert expansion["P1"] == [0.0] * 25
        assert expansion["lambda2"] == eigenpath(cauchy_model(2)).Lambda2.tolist()

    def test_hpoly_artifact(self, tmp_path):
        run_cli("hpoly", "--model", "gaussian:a=1", "--N", "2",
                "--out", str(tmp_path))
        payload = read(tmp_path / "hpoly.json")
        assert payload["antisymmetry_residual"] < 1e-12
        assert len(payload["coefficients"]) >= 1

    def test_simulate_and_report(self, tmp_path):
        code = run_cli("simulate", "--model", "gaussian:a=1", "--N", "2",
                       "--realizations", "3", "--u", "2.5",
                       "--out", str(tmp_path))
        assert code == 0
        sim = read(tmp_path / "simulate.json")
        assert sim["euler_failures"] == 0
        # finder counters summed over the realizations
        finder = sim["finder"]
        assert set(finder) == {"cells_flagged", "starts", "diverged", "stalled"}
        assert finder["cells_flagged"] > 3 * 100
        assert all(isinstance(v, int) and v >= 0 for v in finder.values())
        field = load_field(tmp_path / "field_000")
        assert field.values.shape == (128, 128)
        assert (tmp_path / "critical_points.csv").exists()
        assert (tmp_path / "pairs.csv").exists()
        assert run_cli("report", "--out", str(tmp_path)) == 0
        assert (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("fraction", [0.0, 0.25, None])
    def test_report_keeps_opposite_det_fraction(self, tmp_path, fraction):
        # a fraction of 0.0 is a result; only a missing one (no pairs) is NaN
        with open(tmp_path / "simulate.json", "w") as fh:
            json.dump({"opposite_det_fraction": fraction, "realizations": 4}, fh)
        assert run_cli("report", "--out", str(tmp_path)) == 0
        (row,) = read(tmp_path / "report.json")["rows"]
        assert row[:2] == ["simulate", "opposite_det_fraction"] and row[3:] == [0, 4]
        assert row[2] == fraction  # a missing fraction is NaN, written as null
        with open(tmp_path / "report.csv") as fh:
            row = fh.read().splitlines()[1].split(",")
        assert row[2] == ("nan" if fraction is None else str(fraction))

    def test_report_json_is_strict_json(self, tmp_path):
        # NaN has no JSON token, so the report writes it as null
        with open(tmp_path / "simulate.json", "w") as fh:
            json.dump({"opposite_det_fraction": None, "realizations": 4}, fh)
        assert run_cli("report", "--out", str(tmp_path)) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        with open(tmp_path / "report.json") as fh:
            (row,) = json.load(fh, parse_constant=reject)["rows"]
        assert row[2] is None


# the flag of every row of FIELDS (None: set otherwise) and a valid value
# different from the default
NON_DEFAULT = {
    "command": (None, "sigma"),
    "model_family": (None, "cauchy"),
    "model_params": (None, {"ell": 2.0, "nu": 1.5}),
    "n_dim": ("--N", 3),
    "scale": ("--scale", 0.5),
    "r_list": ("--r", (0.3, 0.02)),
    "u_list": ("--u", (2.5, 4.0)),
    "mc_n": ("--n", 4096),
    "seed": ("--seed", 9),
    "sim_grid": ("--grid", 64),
    "sim_spacing": ("--spacing", 0.25),
    "sim_realizations": ("--realizations", 5),
    "sim_eps": ("--eps", 0.75),
    "out_dir": ("--out", "elsewhere"),
    "out_format": ("--format", "csv"),
    "verify": ("--verify", True),
    "tol": ("--tol", 1e-6),
}


def test_minus_infinity_threshold_round_trips(tmp_path):
    # -inf is a valid threshold (no conditioning on the field value)
    cfg = RunConfig(command="share", u_list=(-float("inf"),)).validate()
    assert load_config(_write(tmp_path / "inf.json", cfg)) == cfg


def test_non_default_config_round_trips(tmp_path):
    assert set(NON_DEFAULT) == {row[0] for row in FIELDS}
    assert all(getattr(RunConfig(), k) != v for k, (_, v) in NON_DEFAULT.items())
    changed = RunConfig(**{k: v for k, (_, v) in NON_DEFAULT.items()})
    assert load_config(_write(tmp_path / "all.json", changed)) == changed


@pytest.mark.parametrize("name", [row[0] for row in FIELDS])
def test_field_table(name, tmp_path):
    flag, value = NON_DEFAULT[name]
    one = RunConfig(**{name: value})
    assert load_config(_write(tmp_path / "one.json", one)) == one
    if flag is None:
        return
    # the flag wins over the default held in a config file
    argv = ["check", "--config", str(_write(tmp_path / "base.json", RunConfig())), flag]
    if not isinstance(value, bool):
        argv.append(",".join(map(str, value)) if isinstance(value, tuple) else str(value))
    cfg = resolve_config(build_parser().parse_args(argv))
    assert cfg == RunConfig(command="check", **{name: value})


def _write(path, cfg):
    path.write_text(json.dumps(cfg.to_file_dict()))
    return path
