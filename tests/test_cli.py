import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stackgame import cli, noise_model
from stackgame.errors import ConfigError
from stackgame.tradeoff import ALPHA_MIN


def write_config(tmp_path: Path, extra: dict | None = None) -> Path:
    cfg = {
        "eta_grid": {"values": [2.0, 2.5]},
        "alpha_grid": {"start": 0.001, "stop": 1.0, "num": 200},
        "report_alphas": {"values": [0.4, 0.9]},
        "simulation": {"n_nodes": [2], "trials": 5000, "seed": 9},
        "envelope": {"grid_size": 512},
        "oracle": {"grid_size": 256},
    }
    cfg.update(extra or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run(args, tmp_path, name="out", config=None):
    out = tmp_path / name
    argv = list(args) + ["--output", str(out)]
    if config is not None:
        argv += ["--config", str(config)]
    code = cli.main(argv)
    return code, out


def test_defaults_parse():
    cfg = cli.parse_config(None)
    assert cfg.noise.kind == "uniform" and cfg.noise.delta == 1.0
    assert cfg.eta_grid[0] == 2.0 and cfg.eta_grid[-1] == 8.0
    assert cfg.eta_grid.size == 601
    assert cfg.alpha_grid.size == 1000
    assert len(cfg.config_hash) == 64


def test_grid_spec_forms():
    np.testing.assert_allclose(cli._resolve_grid({"values": [1, 2, 3]}, "/x"), [1, 2, 3])
    np.testing.assert_allclose(cli._resolve_grid({"start": 0, "stop": 1, "step": 0.5}, "/x"),
                               [0, 0.5, 1.0])
    np.testing.assert_allclose(cli._resolve_grid({"start": 0, "stop": 1, "num": 3}, "/x"),
                               [0, 0.5, 1.0])
    with pytest.raises(ConfigError):
        cli._resolve_grid({"values": [2.0, 1.0]}, "/x")
    with pytest.raises(ConfigError):
        cli._resolve_grid({"start": 0.0}, "/x")
    # a step or num grid holds at most 2**20 points
    assert cli._resolve_grid({"start": 0, "stop": 1, "num": 2**20}, "/x").size == 2**20
    assert cli._resolve_grid({"start": 0, "stop": 2**20 - 1, "step": 1}, "/x").size == 2**20
    with pytest.raises(ConfigError, match=r"^/x/num: must be at most 1048576, got 1048577$"):
        cli._resolve_grid({"start": 0, "stop": 1, "num": 2**20 + 1}, "/x")
    with pytest.raises(ConfigError, match=r"^/x/step: "):
        cli._resolve_grid({"start": 0, "stop": 2**20, "step": 1}, "/x")


def test_config_error_paths(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"eta_grid": {"values": [1.5]}}))
    with pytest.raises(ConfigError, match="/eta_grid"):
        cli.parse_config(bad)
    bad.write_text(json.dumps({"data": {"m": 1000.0}}))  # no statistic reads the collected values
    with pytest.raises(ConfigError, match=r"^/: unknown keys \['data'\]$"):
        cli.parse_config(bad)
    bad.write_text(json.dumps({"unknown_key": 1}))
    with pytest.raises(ConfigError, match="unknown_key"):
        cli.parse_config(bad)
    bad.write_text(json.dumps({"output_dir": "out"}))  # --output alone names the directory
    with pytest.raises(ConfigError, match=r"^/: unknown keys \['output_dir'\]$"):
        cli.parse_config(bad)
    bad.write_text(json.dumps({"simulation": {"chunk_size": 1024}}))  # one chunk size, 8192
    with pytest.raises(ConfigError, match=r"^/simulation: unknown keys \['chunk_size'\]$"):
        cli.parse_config(bad)
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        cli.parse_config(bad)
    bad.write_text("[1]")
    with pytest.raises(ConfigError, match=r"^/: must be an object, got \[1\]$"):
        cli.parse_config(bad)


def test_a_seed_beyond_philox_keys_fails_at_its_pointer(tmp_path, capsys):
    """Cell k runs on seed + k, a Philox key below 2**128: a seed of 2**128 - 1 once wrote
    seven artifacts, then crashed on its second cell. Seeds stop below 2**64."""
    config = write_config(tmp_path, {"simulation": {"n_nodes": [2], "trials": 100,
                                                    "seed": 2**128 - 1}})
    code, out = run(["sweep"], tmp_path, config=config)
    assert code == 2 and not out.exists()
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith("/simulation/seed: must be an integer >= 0 and < ")
    config = write_config(tmp_path, {"simulation": {"n_nodes": [2], "trials": 100,
                                                    "seed": 2**64 - 1}})
    code, out = run(["sweep"], tmp_path, config=config)
    assert code == 0
    seeds = [int(row.split(",")[-1]) for row in
             (out / "sweep_simulations.csv").read_text().splitlines()[1:]]
    assert seeds == [2**64 - 1, 2**64]


def test_incomplete_utility_spec_names_required_params(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"utility": {"adversary": {"family": "weighted_sum", "params": {}}}}))
    with pytest.raises(ConfigError, match="a > 0 and b > 0"):
        cli.parse_config(bad)
    bad.write_text(json.dumps({"utility": {"dc": {"family": "nope"}}}))
    with pytest.raises(ConfigError, match="linear_penalty"):
        cli.parse_config(bad)


def test_other_utility_family_takes_only_its_own_params(tmp_path, capsys):
    weighted = {"family": "weighted_sum", "params": {"a": 1, "b": 2}}
    config = write_config(tmp_path, {"utility": {"adversary": weighted}})
    code, out = run(["validate-noise"], tmp_path, config=config)
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["utility"]["adversary"] == weighted

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"utility": {"adversary": {"family": "weighted_sum"}}}))
    code = cli.main(["solve", "--config", str(bad), "--output", str(tmp_path / "o")])
    assert code == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message == "weighted_sum needs a > 0 and b > 0, got {}"

    # the default families merge as before, so their configs keep their hash
    default = tmp_path / "default.json"
    default.write_text(json.dumps({"utility": {"adversary": {"family": "scaled_product"},
                                               "dc": {"family": "linear_penalty"}}}))
    assert cli.parse_config(default).config_hash == (
        "e6220fe5eb112ec5dd1a2bef72aed5105d699888d0859467146267aac81c078b")


def test_grid_step_must_divide_the_range(tmp_path):
    with pytest.raises(ConfigError, match="/eta_grid: .* not a whole number of steps"):
        cli._resolve_grid({"start": 2, "stop": 2.25, "step": 0.1}, "/eta_grid")
    np.testing.assert_allclose(
        cli._resolve_grid({"start": 2, "stop": 2.25, "step": 0.125}, "/x"), [2, 2.125, 2.25])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alpha_grid": {"start": 0.1, "stop": 1.0, "step": 0.25}}))
    with pytest.raises(ConfigError, match="/alpha_grid"):
        cli.parse_config(bad)


@pytest.mark.parametrize("grid, key, resolved, size", [
    ({"start": 2, "stop": 3, "num": 5}, "eta_grid", {"start": 2, "stop": 3, "num": 5}, 5),
    ({"num": 61}, "eta_grid", {"start": 2.0, "stop": 8.0, "num": 61}, 61),
    ({"values": [0.4]}, "report_alphas", {"start": 0.1, "stop": 1.0, "values": [0.4]}, 1),
    ({"start": 0.5, "step": 0.25}, "alpha_grid", {"start": 0.5, "stop": 1.0, "step": 0.25}, 3),
])
def test_a_grid_naming_its_shape_takes_no_other_shape_from_the_default(tmp_path, grid, key,
                                                                      resolved, size):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: grid}))
    cfg = cli.parse_config(path)
    assert cfg.raw[key] == resolved
    assert getattr(cfg, key).size == size


def test_a_grid_naming_the_default_shape_keeps_the_default_hash(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"eta_grid": {"step": 0.01}, "report_alphas": {"num": 10}}))
    assert cli.parse_config(path).config_hash == cli.parse_config(None).config_hash


@pytest.mark.parametrize("utility, pointer", [
    ({"adversary": {"family": "scaled_product", "params": {"c": "1"}}},
     "/utility/adversary/params/c"),
    ({"adversary": {"params": {"c": "1"}}}, "/utility/adversary/params/c"),
    ({"adversary": {"family": "weighted_sum", "params": {"a": 1, "b": [2]}}},
     "/utility/adversary/params/b"),
    ({"dc": {"family": "exp_penalty", "params": {"s": None}}}, "/utility/dc/params/s"),
])
def test_utility_param_types_fail_at_the_boundary(tmp_path, capsys, utility, pointer):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"utility": utility}))
    code = cli.main(["solve", "--config", str(bad), "--output", str(tmp_path / "o")])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError" and error["message"].startswith(pointer)


def test_invalid_tabulated_noise_is_a_config_error(tmp_path, capsys):
    asymmetric = {"kind": "tabulated", "delta": 1.0,
                  "params": {"xs": [-1, -0.5, 0, 0.5, 1], "pdf": [0.2, 0.2, 0.6, 0.8, 0.8]}}
    config = write_config(tmp_path, {"honest_noise": asymmetric})
    code, _ = run(["tradeoff"], tmp_path, config=config)
    assert code == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message.startswith("/honest_noise") and "symmetry" in message
    # validate-noise still loads it, to report the failure
    code, out = run(["validate-noise"], tmp_path, config=config)
    assert code == 1
    report = json.loads((out / "noise_validation.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["symmetry"]


_HALF_WIDTH_2 = {"kind": "tabulated", "params": {"xs": [-2, 0, 2], "pdf": [0.25, 0.25, 0.25]}}


def test_a_table_without_delta_takes_its_own_half_width(tmp_path):
    config = write_config(tmp_path, {"honest_noise": _HALF_WIDTH_2})
    for command in ("validate-noise", "solve"):
        code, out = run([command], tmp_path, name=command, config=config)
        assert code == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["honest_noise"] == {"delta": 2.0, **_HALF_WIDTH_2}
    noise = json.loads((tmp_path / "validate-noise" / "noise_validation.json").read_text())
    assert noise["noise"]["delta"] == 2.0


def test_valid_tabulated_noise_runs(tmp_path):
    # a wavy 4096-point table: valid, though quadrature of its ~4096 kinks
    # cannot confirm its unit mass to 1e-8
    xs = np.linspace(-1.0, 1.0, 4096)
    pdf = 1.0 - 0.6 * np.abs(xs) + 0.3 * np.cos(9.0 * np.pi * xs)
    wavy = {"kind": "tabulated", "delta": 1.0,
            "params": {"xs": xs.tolist(), "pdf": pdf.tolist()}}
    code, out = run(["tradeoff"], tmp_path, config=write_config(tmp_path, {"honest_noise": wavy}))
    assert code == 0
    summary = json.loads((out / "tradeoff_summary.json").read_text())
    assert summary["max_rel_diff"] <= 5e-3


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"eta_grid": {"values": [1.0]}}))
    code = cli.main(["solve", "--config", str(bad), "--output", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"]["type"] == "ConfigError"
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["adversary", "--alpha", "inf"], "--alpha"),
    (["adversary", "--alpha", "-0.5"], "--alpha"),
    (["adversary", "--alpha", "nan"], "--alpha"),
    (["adversary", "--alpha", "0"], "--alpha"),
    (["adversary", "--alpha", "1.5"], "--alpha"),
    (["adversary", "--alpha", "1e-300"], "--alpha"),  # its atoms' acceptance reads 0
    (["adversary", "--alpha", "0.0005"], "--alpha"),  # below the lowest reported level
])
def test_bad_flags_fail_at_the_boundary(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    code = cli.main(argv + ["--config", str(write_config(tmp_path)), "--output", str(out)])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError" and error["message"].startswith(flag + ":")
    assert not out.exists()


# a run's eta is its eta_grid's start, and tradeoff reports at report_alphas: no flag sets them
@pytest.mark.parametrize("argv", [["tradeoff", "--eta", "2"], ["tradeoff", "--alphas", "0.5"],
                                  ["adversary", "--eta", "2", "--alpha", "0.5"]])
def test_eta_and_the_reported_levels_are_no_flags(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--output", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:3]) in capsys.readouterr().err
    assert not out.exists()


# verify runs a fixed 100 000 scenario realizations and 20 + 2 random candidates
@pytest.mark.parametrize("flag", ["--realizations", "--candidates"])
def test_verify_counts_are_no_flags(tmp_path, capsys, flag):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", flag, "5", "--output", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not out.exists()


# the config's level grids take the --alpha flag's domain, [ALPHA_MIN, 1], with no slack
@pytest.mark.parametrize("key", ["alpha_grid", "report_alphas"])
@pytest.mark.parametrize("level", [0.0005, 0.0, 1.5, float("nan"),
                                   float(np.nextafter(ALPHA_MIN, 0.0))])
def test_levels_outside_the_domain_fail_at_their_grid(tmp_path, capsys, key, level):
    out = tmp_path / "o"
    config = write_config(tmp_path, {key: {"values": [level]}})
    assert cli.main(["solve", "--config", str(config), "--output", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError" and error["message"].startswith(f"/{key}")
    assert not out.exists()


def test_validate_noise_artifact(tmp_path):
    code, out = run(["validate-noise"], tmp_path, config=write_config(tmp_path))
    assert code == 0
    report = json.loads((out / "noise_validation.json").read_text())
    assert report["passed"] is True
    assert (out / "resolved_config.json").exists()


def test_solve_artifacts(tmp_path):
    code, out = run(["solve"], tmp_path, config=write_config(tmp_path))
    assert code == 0
    eq = json.loads((out / "equilibrium.json").read_text())
    assert eq["eta_star"] in (2.0, 2.5)
    assert len(eq["per_eta"]) == 2
    assert "config_hash" in eq and "seed" in eq
    lines = (out / "eta_utility.csv").read_text().strip().splitlines()
    assert lines[0].startswith("eta,") and len(lines) == 3


def test_tradeoff_artifacts(tmp_path):
    code, out = run(["tradeoff"], tmp_path,
                    config=write_config(tmp_path, {"report_alphas": {"values": [0.3, 0.8]}}))
    assert code == 0
    rows = (out / "tradeoff.csv").read_text().strip().splitlines()
    assert rows[0] == "alpha,c_formula,c_oracle,abs_diff"
    assert len(rows) == 3
    summary = json.loads((out / "tradeoff_summary.json").read_text())
    assert summary["max_abs_diff"] <= 5e-3
    level = (out / "level_curve.csv").read_text().splitlines()
    assert level[0] == "q,h,h_star,is_touch"


def test_level_curve_has_one_row_per_grid_point(tmp_path):
    # uniform noise at eta = 2 has a chord, whose exact ends are not grid points
    config = write_config(tmp_path, {"envelope": {"grid_size": 4096}})
    code, out = run(["tradeoff"], tmp_path, config=config)
    assert code == 0
    assert len(json.loads((out / "tradeoff_summary.json").read_text())["chords"]) == 1
    rows = (out / "level_curve.csv").read_text().splitlines()
    assert rows[0] == "q,h,h_star,is_touch" and len(rows) == 1 + 4096


# the touch tolerance is relative at every scale: a narrow noise has a wide one's chords,
# and its c_alpha is the wide one's times delta^2
@pytest.mark.parametrize("kind, sigma", [("uniform", None), ("truncated-normal", 3.0)])
def test_narrow_noise_keeps_its_chords(tmp_path, kind, sigma):
    def tradeoff(delta):
        params = {} if sigma is None else {"sigma": sigma * delta}
        config = write_config(tmp_path, {"honest_noise": {"kind": kind, "delta": delta,
                                                          "params": params}})
        code, out = run(["tradeoff"], tmp_path, name=f"{delta}", config=config)
        assert code == 0
        rows = (out / "tradeoff.csv").read_text().strip().splitlines()[1:]
        return (json.loads((out / "tradeoff_summary.json").read_text())["chords"],
                [float(row.split(",")[1]) / delta ** 2 for row in rows])

    chords, cs = tradeoff(1.0)
    assert chords
    for delta in (1e-4, 1e-50):
        narrow_chords, narrow_cs = tradeoff(delta)
        np.testing.assert_allclose(narrow_chords, chords, rtol=0, atol=1e-12)
        np.testing.assert_allclose(narrow_cs, cs, rtol=1e-12, atol=0)


def test_adversary_and_simulate_roundtrip(tmp_path):
    config = write_config(tmp_path)
    code, out = run(["adversary", "--alpha", "0.9"], tmp_path, config=config)
    assert code == 0
    adv = json.loads((out / "adversary.json").read_text())
    assert abs(adv["achieved_pa"] - 0.9) < 1e-8
    assert len(adv["atoms"]) == 4

    code2, out2 = run(["simulate", "--adversary", str(out / "adversary.json")],
                      tmp_path, name="sim", config=config)
    assert code2 == 0
    sim = json.loads((out2 / "simulation.json").read_text())
    res = sim["results"][0]
    assert abs(res["pa_hat"] - 0.9) <= 4.0 * res["pa_stderr"]
    first = {p.name: p.read_bytes() for p in out2.iterdir()}
    assert len(first["simulations.csv"].decode().strip().splitlines()) == 2  # header + one N

    # a rerun rewrites every artifact, byte for byte
    code3, _ = run(["simulate", "--adversary", str(out / "adversary.json")],
                   tmp_path, name="sim", config=config)
    assert code3 == 0
    assert {p.name: p.read_bytes() for p in out2.iterdir()} == first


def test_verify_command(tmp_path):
    # the dominance game's budget is simulation.trials; verify has no flag of its own for it
    config = write_config(tmp_path, {"simulation": {"n_nodes": [2], "trials": 4000, "seed": 9}})
    code, out = run(["verify"], tmp_path, config=config)
    assert code == 0
    with pytest.raises(SystemExit):
        run(["verify", "--trials", "4000"], tmp_path, config=config)
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["scenario_suite"]["passed"] is True
    assert "dominance" in rep


def test_sweep_byte_identical(tmp_path):
    config = write_config(tmp_path)
    code, out = run(["sweep"], tmp_path, config=config)
    assert code == 0
    names = ["resolved_config.json", "equilibrium.json", "eta_utility.csv",
             "level_curve.csv", "tradeoff.csv", "tradeoff_summary.json",
             "adversary.json", "sweep_simulations.csv", "sweep_report.json"]
    first = {n: (out / n).read_bytes() for n in names}
    code2, _ = run(["sweep"], tmp_path, config=config)
    assert code2 == 0
    for n in names:
        assert (out / n).read_bytes() == first[n], n


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_artifacts_do_not_depend_on_where_they_are_written(tmp_path, command):
    # the same config, copied into two directories, run to two absolute outputs whose paths
    # differ in length: every file is the same, byte for byte
    config = write_config(tmp_path, {"simulation": {"n_nodes": [2, 3], "trials": 9000,
                                                    "seed": 9}})
    trees = []
    for where, out in (("a", "o1"), ("b/c", "other/output22")):
        copy = tmp_path / where / "config.json"
        copy.parent.mkdir(parents=True)
        copy.write_bytes(config.read_bytes())
        code, out = run([command], tmp_path, name=out, config=copy)
        assert code == 0
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert trees[0] == trees[1] and "resolved_config.json" in trees[0]


@pytest.mark.parametrize("make, reason", [
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b'{"eta_grid": "\xff"}'), "invalid start byte"),
    (lambda path: None, "No such file or directory"),
], ids=["directory", "non-UTF-8", "missing"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, make, reason):
    config, out = tmp_path / "config.json", tmp_path / "o"
    make(config)
    assert cli.main(["solve", "--config", str(config), "--output", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith(f"--config: cannot read {config}: ")
    assert reason in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("output", ["file", "file/out"])
def test_uncreatable_output_is_a_config_error(tmp_path, capsys, output):
    (tmp_path / "file").write_text("kept\n")
    code = cli.main(["validate-noise", "--output", str(tmp_path / output)])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith(f"--output: cannot create {tmp_path / output}: ")
    assert sorted(tmp_path.iterdir()) == [tmp_path / "file"]
    assert (tmp_path / "file").read_text() == "kept\n"


def run_module(args, timeout=60):
    """python -m stackgame args, with this checkout's package on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "stackgame"] + list(args), env=env,
                          capture_output=True, timeout=timeout)


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "out"
    proc = run_module(["validate-noise", "--output", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "noise_validation.json").read_text())["passed"] is True


def test_oracle_table_scales_its_quadrature_with_delta(tmp_path):
    # an absolute tolerance of 1e-10 on moments of size delta^2 = 1e80 never converges;
    # scaled by delta^k, the table is the delta = 1 table scaled. The gap is relative
    # to c itself, so on narrow noise it does not vanish with c ~ delta^2
    summaries = []
    for name, extra in (("unit", {}),
                        ("huge", {"honest_noise": {"delta": 1e40}}),
                        ("tiny", {"honest_noise": {"delta": 1e-4}})):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(extra))
        out = tmp_path / name
        proc = run_module(["tradeoff", "--config", str(config), "--output", str(out)])
        assert proc.returncode == 0, proc.stderr
        summaries.append(json.loads((out / "tradeoff_summary.json").read_text()))
    unit, huge, tiny = summaries
    assert huge["chords"] == unit["chords"]
    assert huge["max_rel_diff"] == pytest.approx(unit["max_rel_diff"], rel=1e-6)
    assert tiny["max_rel_diff"] == pytest.approx(unit["max_rel_diff"], rel=1e-6)


def _noise(kind, **params):
    return {"honest_noise": {"kind": kind, "params": params}}


# each kind or family takes only its own params, each of its own type
@pytest.mark.parametrize("config, pointer", [
    (_noise("truncated-normal", sigma="1"), "/honest_noise/params/sigma"),
    (_noise("truncated-normal", sigma=True), "/honest_noise/params/sigma"),
    (_noise("tabulated", xs="abc", pdf=[0.5] * 3), "/honest_noise/params/xs"),
    (_noise("tabulated", xs=[-1.0, 0.0, 1.0], pdf=[0.5, "x", 0.5]), "/honest_noise/params/pdf"),
    (_noise("tabulated", csv=5), "/honest_noise/params/csv"),
    (_noise("uniform", sigma=0.5), "/honest_noise/params"),
    ({"utility": {"adversary": {"params": {"a": 1, "b": 2}}}}, "/utility/adversary/params"),
])
def test_typed_params_fail_at_the_boundary(tmp_path, capsys, config, pointer):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    code = cli.main(["solve", "--config", str(bad), "--output", str(tmp_path / "o")])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError" and error["message"].startswith(pointer)


# NaN, Infinity and integers too large for a float parse as numbers; no config number may
# be one, no eta and delta may put the largest MSE, ((eta + 2) delta)^2, or its square
# beyond the float range, and no small number may set a size beyond 2**20 points, which would
# be a MemoryError (or, for a step of 5e-324, an OverflowError) deep inside the command
@pytest.mark.parametrize("text, pointer", [
    ('{"eta_grid": {"start": 2, "stop": 3, "step": NaN}}', "/eta_grid/step"),
    ('{"eta_grid": {"start": 2, "stop": 3, "step": Infinity}}', "/eta_grid/step"),
    ('{"eta_grid": {"values": [2, -Infinity]}}', "/eta_grid/values/1"),
    ('{"utility": {"adversary": {"params": {"c": Infinity}}}}', "/utility/adversary/params/c"),
    ('{"honest_noise": {"delta": NaN}}', "/honest_noise/delta"),
    ('{"honest_noise": {"delta": 1%s}}' % ("0" * 400), "/honest_noise/delta"),
    ('{"honest_noise": {"delta": 1e200}}', "/eta_grid"),
    ('{"eta_grid": {"values": [1e307]}}', "/eta_grid"),
    ('{"honest_noise": {"delta": 1e-80}}', "/honest_noise/delta"),  # delta^4 underflows
    ('{"honest_noise": {"kind": "tabulated", "params": {"xs": [-1, 0, 1], "pdf": [1, NaN, 1]}}}',
     "/honest_noise/params/pdf/1"),
    ('{"eta_grid": {"step": 1e-15}}', "/eta_grid/step"),
    ('{"eta_grid": {"step": 5e-324}}', "/eta_grid/step"),
    ('{"alpha_grid": {"num": 10000000000000}}', "/alpha_grid/num"),
    ('{"report_alphas": {"num": 10000000000000}}', "/report_alphas/num"),
    ('{"envelope": {"grid_size": 10000000000000}}', "/envelope/grid_size"),
    ('{"oracle": {"grid_size": 10000000000000}}', "/oracle/grid_size"),
])
def test_non_finite_numbers_fail_at_their_pointer(tmp_path, capsys, text, pointer):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "o"
    code = cli.main(["solve", "--config", str(bad), "--output", str(out)])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError" and error["message"].startswith(pointer + ": ")
    assert not out.exists()


# an atom's offset, a float near (eta + 1) delta, places its acceptance only to
# pdf_max * spacing((eta + 1) delta), the figure on each case; above 1e-8, the tolerance an
# AtomicAdversary holds acceptance to, the config is refused, even where a run's atoms land
# within it by luck (sigma 1e-8) and for solve, which builds no atoms
@pytest.mark.parametrize("config, refused", [
    ({"eta_grid": {"values": [1e8]}}, False),  # 7.5e-9
    ({**_noise("truncated-normal", sigma=3e-8), "eta_grid": {"values": [2.0]}}, False),  # 5.9e-9
    ({"eta_grid": {"values": [1e9]}}, True),  # 6.0e-8
    ({**_noise("truncated-normal", sigma=3e-9), "eta_grid": {"values": [2.0, 8.0]}}, True),
    ({**_noise("truncated-normal", sigma=1e-8), "eta_grid": {"values": [2.0]}}, True),  # 1.8e-8
    # a density of 4e154 at 0, whose model builds although (delta / sigma)^2 overflows
    ({**_noise("truncated-normal", sigma=1e-155), "eta_grid": {"values": [2.0]}}, True),
])
@pytest.mark.parametrize("command", ["sweep", "solve"])
def test_offsets_must_resolve_acceptance_to_1e_8(tmp_path, capsys, config, refused, command):
    code, out = run([command], tmp_path, config=write_config(tmp_path, config))
    assert code == (2 if refused else 0)
    if refused:
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError" and error["message"].startswith("/eta_grid: eta ")
        assert "pdf_max * spacing((eta + 1) delta)" in error["message"]
        assert not out.exists()


@pytest.mark.parametrize("config, start", [
    (_noise("truncated-normal"), "/honest_noise/params: truncated-normal noise requires sigma"),
    (_noise("tabulated", xs=[], pdf=[]), "/honest_noise/params: tabulated grid needs"),
    (_noise("tabulated", xs=[-1, 0, 1], pdf=[1, 1]), "/honest_noise/params: tabulated grid needs"),
    (_noise("tabulated", xs=[-1, 1, 0], pdf=[1, 1, 1]), "/honest_noise/params: tabulated x grid"),
    (_noise("tabulated", xs=[-1, 0, 1]), "/honest_noise/params: tabulated noise requires"),
    ({"honest_noise": {"kind": "tabulated", "delta": 2.0,
                       "params": {"xs": [-1, 0, 1], "pdf": [1, 1, 1]}}},
     "/honest_noise/delta: tabulated grid implies delta=1.0"),
    ({"honest_noise": {**_HALF_WIDTH_2, "delta": 1.0}},
     "/honest_noise/delta: tabulated grid implies delta=2.0, config says 1.0"),
    # the mismatch is relative to the grid's half-width, not an absolute 1e-9
    ({"honest_noise": {"kind": "tabulated", "delta": 5e-10,
                       "params": {"xs": [-1e-10, 0, 1e-10], "pdf": [1, 1, 1]}}},
     "/honest_noise/delta: tabulated grid implies delta=1e-10, config says 5e-10"),
])
def test_noise_spec_errors_name_their_pointer(tmp_path, capsys, config, start):
    code, _ = run(["solve"], tmp_path, config=write_config(tmp_path, config))
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError" and error["message"].startswith(start)


def test_every_problem_is_reported_in_pointer_order(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "z": 1, "simulation": {"n_nodes": [2, 1.5], "seed": -1},
        "eta_grid": {"values": [2, "a", True], "q": 2}, "honest_noise": 5,
        "utility": {"dc": {"family": "nope", "params": {"x": 1}}}}))
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(bad)
    assert str(exc.value).split("; ") == [
        "/: unknown keys ['z']",
        "/eta_grid: unknown keys ['q']",
        "/eta_grid/values/1: must be a finite number, got 'a'",
        "/eta_grid/values/2: must be a finite number, got True",
        "/honest_noise: must be an object, got 5",
        "/simulation/n_nodes/1: must be an integer >= 2, got 1.5",
        "/simulation/seed: must be an integer >= 0 and < 18446744073709551616, got -1",
        "/utility/dc/family: must be one of ('linear_penalty', 'exp_penalty'), got 'nope'",
    ]


@pytest.mark.parametrize("csv", ["missing.csv", "."])
def test_unreadable_noise_table_is_a_config_error(tmp_path, capsys, csv):
    config = write_config(tmp_path, {"honest_noise": {"kind": "tabulated",
                                                      "params": {"csv": csv}}})
    code, out = run(["tradeoff"], tmp_path, config=config)
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith("/honest_noise/params/csv: cannot read")


def test_malformed_noise_table_row_is_a_config_error(tmp_path, capsys):
    (tmp_path / "table.csv").write_text("x\n-1\n0\n1\n")
    config = write_config(tmp_path, {"honest_noise": {"kind": "tabulated",
                                                      "params": {"csv": "table.csv"}}})
    code, _ = run(["solve"], tmp_path, config=config)
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith("/honest_noise/params/csv: row 2 of ")


_LOADED_MODULES = """
import json, sys
sys.modules["scipy"] = None  # an import of scipy or any of its modules now fails
exec(sys.argv.pop(1))  # what the host program runs before main
preloaded = sys.modules.get("_hashlib")
from stackgame import cli
assert cli.main(sys.argv[1:]) == 0
if preloaded is None:
    try:
        maps = open("/proc/self/maps").read()
    except OSError:  # no procfs: the sys.modules check below stands alone
        maps = ""
    assert "libcrypto" not in maps
else:  # a program that loaded OpenSSL's _hashlib before main keeps it, and its digests work
    import hashlib
    assert sys.modules["_hashlib"] is preloaded
    assert hashlib.new("sha256", b"x").hexdigest() == (
        "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881")
print(json.dumps(sorted(m for m, mod in sys.modules.items() if mod is not None
                        and (m.split(".")[0] in ("scipy", "jsonschema", "_hashlib")
                             or m == "numpy.ma"))))
"""
_TRUNCATED_NORMAL = {"kind": "truncated-normal", "params": {"sigma": 0.5}}
_FLAGS = {"adversary": ["--alpha", "0.5"]}


@pytest.mark.parametrize("prelude, command, noise", [
    pytest.param("", command, noise, id=f"{command}-{noise['kind']}")
    for command, noise in [
        ("solve", {"kind": "uniform"}), ("solve", {"kind": "triangular"}),
        ("solve", _TRUNCATED_NORMAL),
        ("solve", {"kind": "tabulated",
                   "params": {"xs": [-1.0, 0.0, 1.0], "pdf": [0.5, 1.0, 0.5]}}),
        ("tradeoff", _TRUNCATED_NORMAL), ("adversary", _TRUNCATED_NORMAL),
        ("validate-noise", _TRUNCATED_NORMAL), ("simulate", _TRUNCATED_NORMAL),
        ("sweep", _TRUNCATED_NORMAL), ("verify", _TRUNCATED_NORMAL),
    ]
] + [pytest.param("import hashlib", "sweep", _TRUNCATED_NORMAL,
                  id="sweep-truncated-normal-after-hashlib")])
def test_no_command_needs_scipy(tmp_path, prelude, command, noise):
    # nor loads numpy.ma, which np.unique imports, jsonschema, which only the tests use, or
    # OpenSSL's _hashlib, which numpy.random reaches through secrets and hmac. The child
    # leaves _hashlib alone before main, so it sees whether main keeps it out: hashlib and
    # hmac fall back to CPython's built-in digests without a word either way
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    config = write_config(tmp_path, {"honest_noise": noise})
    argv = [command, *_FLAGS.get(command, []), "--config", str(config),
            "--output", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, prelude, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == ({"_hashlib"} if prelude else set())


def test_config_hashes_are_unchanged(tmp_path):
    # the default config, and the benchmark workloads' configs at seed 11; re-recorded
    # when the resolved config stopped echoing a range for the collected values, again
    # when it stopped echoing the output directory, and when it lost simulation.chunk_size
    assert cli.parse_config(None).config_hash == (
        "e6220fe5eb112ec5dd1a2bef72aed5105d699888d0859467146267aac81c078b")
    uniform = {"kind": "uniform", "delta": 1.0}
    workloads = [
        ({"honest_noise": uniform,
          "utility": {"dc": {"family": "linear_penalty", "params": {"gamma": 0.02}}},
          "simulation": {"seed": 11}},
         "8569e17cbb42f74bef77100290396840c5e833e1b3df450107a3b0dc3d7e18d5"),
        ({"honest_noise": {"kind": "truncated-normal", "delta": 1.0, "params": {"sigma": 0.5}},
          "eta_grid": {"start": 2.0, "stop": 3.0, "step": 0.25},
          "simulation": {"n_nodes": [2, 5], "trials": 100_000, "seed": 11}},
         "8806304a59ce01f8ba29443c39f37cd527053400c0a777e40dc886931b152af0"),
        ({"honest_noise": uniform,
          "simulation": {"n_nodes": [2, 5], "trials": 200_000, "seed": 11}},
         "8a6f7af146a632d1a91182d5cbc9f63004a20918adec39a65a7516c47efeacc1"),
    ]
    path = tmp_path / "config.json"
    for config, digest in workloads:
        path.write_text(json.dumps(config))
        assert cli.parse_config(path).config_hash == digest


# the benchmark workloads: uniform noise up to the default grid's eta 8, and sigma 0.5 up to
# eta 3; each resolves acceptance far finer than the rule's 1e-8
@pytest.mark.parametrize("noise, eta", [(noise_model.uniform(1.0), 8.0),
                                        (noise_model.truncated_normal(1.0, 0.5), 3.0)])
def test_the_workloads_resolve_acceptance_to_1e_15(noise, eta):
    assert noise.law.pdf_max * np.spacing((eta + 1.0) * noise.delta) < 1e-15


# an alpha outside [ALPHA_MIN, 1] is refused as the --alpha flag refuses it, and so is
# one the atoms do not achieve: at +/-1.2 they are accepted with probability 0.9
@pytest.mark.parametrize("field, value, config", [
    ("delta", 1.0, {"honest_noise": {"kind": "uniform", "delta": 2.0}}),
    ("eta", 1.5, {}),
    ("eta", float("nan"), {}),
    ("alpha", float("nan"), {}),
    ("alpha", 0.0, {}),
    ("alpha", 7.5, {}),
    ("alpha", 0.5, {}),
    ("eta", 1e9, {}),  # its offsets place acceptance only to 6e-8
    ("eta", "2.0", {}),  # only JSON numbers: no string or boolean is read as one
    ("alpha", True, {}),
    ("delta", "1.0", {}),
    ("eta", 10**400, {}),  # an integer too large for a float
])
def test_simulate_rejects_an_adversary_built_for_another_game(tmp_path, capsys, field, value,
                                                                config):
    adversary = {"eta": 2.0, "delta": 1.0, "alpha": 0.9,
                 "atoms": [{"z": -1.2, "weight": 0.5}, {"z": 1.2, "weight": 0.5}]}
    adversary[field] = value
    path = tmp_path / "adversary.json"
    path.write_text(json.dumps(adversary))
    out = tmp_path / "sim"
    code = cli.main(["simulate", "--adversary", str(path), "--output", str(out),
                     "--config", str(write_config(tmp_path, config))])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError" and error["message"].startswith("--adversary:")
    assert not out.exists()


def test_simulate_rejects_an_adversary_below_the_lowest_level(tmp_path, capsys):
    # atoms at z_hi = 3 are never accepted, so they achieve alpha 1e-300 within 1e-8
    adversary = {"eta": 2.0, "delta": 1.0, "alpha": 1e-300,
                 "atoms": [{"z": -3.0, "weight": 0.5}, {"z": 3.0, "weight": 0.5}]}
    path = tmp_path / "adversary.json"
    path.write_text(json.dumps(adversary))
    out = tmp_path / "sim"
    code = cli.main(["simulate", "--adversary", str(path), "--output", str(out)])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"] == (f"--adversary: alpha must be an acceptance level in "
                                f"[{ALPHA_MIN}, 1], got 1e-300")
    assert not out.exists()


def test_simulate_rejects_an_adversary_beyond_the_float_range(tmp_path, capsys):
    # the scale rule holds for the file's eta as for the grid's: its MSE would overflow
    adversary = {"eta": 1e307, "delta": 1.0, "alpha": 1.0,
                 "atoms": [{"z": -1e307, "weight": 0.5}, {"z": 1e307, "weight": 0.5}]}
    path = tmp_path / "adversary.json"
    path.write_text(json.dumps(adversary))
    out = tmp_path / "sim"
    code = cli.main(["simulate", "--adversary", str(path), "--output", str(out)])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith("--adversary: eta 1e+307 with delta 1.0")
    assert not out.exists()


@pytest.mark.parametrize("atom, field, value", [
    (0, "weight", float("nan")),
    (0, "z", float("nan")),
    (1, "z", float("inf")),
    (1, "weight", float("inf")),
    (0, "weight", "0.5"),
    (1, "z", True),
])
def test_simulate_rejects_non_finite_atoms(tmp_path, capsys, atom, field, value):
    adversary = {"eta": 2.0, "delta": 1.0, "alpha": 0.9,
                 "atoms": [{"z": -1.5, "weight": 0.5}, {"z": 1.5, "weight": 0.5}]}
    adversary["atoms"][atom][field] = value
    path = tmp_path / "adversary.json"
    path.write_text(json.dumps(adversary))  # NaN and Infinity are JSON extensions Python reads
    out = tmp_path / "sim"
    code = cli.main(["simulate", "--adversary", str(path), "--output", str(out)])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError" and error["message"].startswith("--adversary:")
    assert not out.exists()
