"""Command-line interface: curves, equilibria, adversaries, simulation.

Commands read a JSON run configuration (all keys optional, defaults are
documented in docs/formats), echo the fully resolved configuration next to
their outputs, and write deterministic artifacts: the same bytes for the same
resolved config, wherever `--output` puts them. Reports embed the
resolved-config hash and the seed, and data files carry no timestamps.

Exit codes: 0 success, 1 computation or check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import noise_model
from .envelope import DEFAULT_GRID_SIZE, MIN_GRID_SIZE, build_envelope
from .errors import ConfigError, DomainError
from .kernel import KernelContext
from .simulator import (GameConfig, IidStrategy, ReplicatedStrategy, dominance_check,
                        run_monte_carlo, run_scenario_suite)
from .strategy import (ACCEPT_TOL, ADVERSARY_FAMILIES, DC_FAMILIES, DEFAULT_UTILITY,
                       AtomicAdversary, UtilitySpec, best_alpha_set, build_adversary,
                       solve_equilibrium)
from .tradeoff import (ALPHA_MIN, DEFAULT_ORACLE_GRID, MIN_ORACLE_GRID, build_oracle_table,
                       c_alpha, oracle_c2, zero_limit)

# a start/stop/step grid must span a whole number of steps, up to fp rounding
_STEP_SLACK = 1e-9
_DELTA_MIN = sys.float_info.min ** 0.25  # the scale rule's lower half: delta^4 stays normal

DEFAULT_CONFIG = {
    "honest_noise": {"kind": "uniform", "params": {}},  # from_spec owns delta's default
    "eta_grid": {"start": 2.0, "stop": 8.0, "step": 0.01},
    "alpha_grid": {"start": ALPHA_MIN, "stop": 1.0, "num": 1000},
    "report_alphas": {"start": 0.1, "stop": 1.0, "num": 10},
    # "utility" is resolved over DEFAULT_UTILITY by UtilitySpec.from_spec
    "simulation": {"n_nodes": [2, 3, 5], "trials": 100000, "seed": 20260814},
    "envelope": {"grid_size": DEFAULT_GRID_SIZE},
    "oracle": {"grid_size": DEFAULT_ORACLE_GRID},
}


# What each config key must be. A dict is an object that takes only its keys.
# A (type, bound) pair is a leaf: a finite float > bound, an int >= bound, a
# str among bound, or any dict; a None bound is no bound. (int, bound, limit)
# is an int >= bound and < limit. (list, n, rule) is an array of at least n
# items that each meet rule. A function maps an object to the rule it must meet.
_NUMBER, _POSITIVE = (float, None), (float, 0)
_GRID = {"values": (list, 1, _NUMBER), "start": _NUMBER, "stop": _NUMBER, "step": _POSITIVE,
         "num": (int, 1)}
_GRID_SHAPES = {"values", "step", "num"}  # the keys that pick a grid's shape
_PARAMS = {"sigma": _POSITIVE, "csv": (str, None), "xs": (list, 0, _NUMBER),
           "pdf": (list, 0, _NUMBER)}


def _choice(key: str, params_of: dict, default: str, **rules):
    """An object whose `key` (default: default) picks a row of params_of, and takes its params.

    The params of an unknown choice are left untyped: only the choice is reported.
    """
    def rule(obj: dict) -> dict:
        choice = obj.get(key, default)
        names = params_of.get(choice) if isinstance(choice, str) else None
        params = (dict, None) if names is None else {n: _PARAMS.get(n, _NUMBER) for n in names}
        return {key: (str, tuple(params_of)), "params": params, **rules}
    return rule


_RULES = {
    "honest_noise": _choice("kind", {k: names for k, (names, _) in noise_model.KINDS.items()},
                            DEFAULT_CONFIG["honest_noise"]["kind"], delta=_POSITIVE),
    "eta_grid": _GRID,
    "alpha_grid": _GRID,
    "report_alphas": _GRID,
    "utility": {role: _choice("family", {f: names for f, (names, _) in families.items()},
                              DEFAULT_UTILITY[role]["family"])
                for role, families in (("adversary", ADVERSARY_FAMILIES), ("dc", DC_FAMILIES))},
    # a cell's seed, seed + cell index, must stay a Philox key, below 2**128
    "simulation": {"n_nodes": (list, 1, (int, 2)), "trials": (int, 1), "seed": (int, 0, 2**64)},
    "envelope": {"grid_size": (int, MIN_GRID_SIZE)},
    "oracle": {"grid_size": (int, MIN_ORACLE_GRID)},
}


def _problems(value, rule=_RULES, path=()) -> list:
    """(path, message) for each way value breaks rule, a rule as in _RULES."""
    if callable(rule):
        rule = rule(value) if isinstance(value, dict) else {}
    if isinstance(rule, dict):
        if not isinstance(value, dict):
            return [(path, f"must be an object, got {value!r}")]
        unknown = sorted(value.keys() - rule.keys())
        found = [(path, f"unknown keys {unknown}")] if unknown else []
        for key in value.keys() & rule.keys():
            found += _problems(value[key], rule[key], path + (key,))
        return found
    kind, bound, *item = rule
    if kind is list:
        if not isinstance(value, list) or len(value) < bound:
            return [(path, f"must be {'a nonempty' if bound else 'an'} array, got {value!r}")]
        return [p for i, v in enumerate(value) for p in _problems(v, item[0], path + (i,))]
    # finite as a float: this excludes NaN, the infinities and ints too large to convert
    number = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    if kind is float:
        ok = number and (bound is None or value > bound)
        need = "a finite number" + ("" if bound is None else f" > {bound}")
    elif kind is int:
        ok = (number and (isinstance(value, int) or value.is_integer()) and value >= bound
              and (not item or value < item[0]))
        need = f"an integer >= {bound}" + (f" and < {item[0]}" if item else "")
    elif kind is str:
        ok = isinstance(value, str) and (bound is None or value in bound)
        need = "a string" if bound is None else f"one of {bound}"
    else:
        ok, need = isinstance(value, dict), "an object"
    return [] if ok else [(path, f"must be {need}, got {value!r}")]


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def _resolve_grid(spec: dict, path: str) -> np.ndarray:
    if "values" in spec:
        grid = np.asarray(spec["values"], dtype=float)
    elif "start" in spec and "stop" in spec and "step" in spec:
        start, stop, step = spec["start"], spec["stop"], spec["step"]
        if stop < start:
            raise ConfigError(f"{path}: stop must be >= start")
        steps = (stop - start) / step
        if abs(steps - round(steps)) > _STEP_SLACK * max(1.0, steps):
            raise ConfigError(
                f"{path}: (stop - start) / step = {steps:.10g} is not a whole number of steps")
        grid = np.linspace(start, stop, int(round(steps)) + 1)
    elif "start" in spec and "stop" in spec and "num" in spec:
        if spec["stop"] < spec["start"]:
            raise ConfigError(f"{path}: stop must be >= start")
        grid = np.linspace(spec["start"], spec["stop"], int(spec["num"]))
    else:
        raise ConfigError(f"{path}: grid needs either values or start/stop with step or num")
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ConfigError(f"{path}: grid must be nonempty and finite")
    if np.any(np.diff(grid) <= 0):
        raise ConfigError(f"{path}: grid values must be strictly increasing")
    return grid


def _check_scale(where: str, eta: float, noise) -> None:
    """The scale rule at eta, a ConfigError at the pointer or flag where if broken:
    ((eta + 2) delta)^2, the largest MSE, and its square, which the Monte Carlo sums,
    are finite, and an atom's offset, a float near (eta + 1) delta, places acceptance
    to ACCEPT_TOL: pdf_max * spacing((eta + 1) delta) <= ACCEPT_TOL."""
    with np.errstate(over="ignore"):
        m_max = np.float64((eta + 2.0) * noise.delta) ** 2
        if not np.isfinite(m_max * m_max):
            raise ConfigError(f"{where}: eta {eta} with delta {noise.delta} puts the largest "
                              "MSE, ((eta + 2) delta)^2, or its square beyond the float range")
    resolution = noise.law.pdf_max * np.spacing((eta + 1.0) * noise.delta)
    if resolution > ACCEPT_TOL:
        raise ConfigError(f"{where}: eta {eta} places acceptance only to pdf_max * "
                          f"spacing((eta + 1) delta) = {resolution:.3g} > {ACCEPT_TOL}")


class RunConfig:
    """Fully resolved run configuration plus the derived model objects."""

    def __init__(self, resolved: dict, base_dir=None, check_noise: bool = True):
        self.noise = noise_model.from_spec(resolved["honest_noise"], base_dir=base_dir)
        self.eta_grid = _resolve_grid(resolved["eta_grid"], "/eta_grid")
        self.alpha_grid = _resolve_grid(resolved["alpha_grid"], "/alpha_grid")
        self.report_alphas = _resolve_grid(resolved["report_alphas"], "/report_alphas")
        self.utility = UtilitySpec.from_spec(resolved.get("utility", {}))
        sim = resolved["simulation"]
        self.n_nodes = [int(n) for n in sim["n_nodes"]]
        self.trials = int(sim["trials"])
        self.seed = int(sim["seed"])
        self.envelope_grid = int(resolved["envelope"]["grid_size"])
        self.oracle_grid = int(resolved["oracle"]["grid_size"])
        self.raw = dict(resolved)
        # a config without delta echoes the one from_spec built the model with
        self.raw["honest_noise"] = {"delta": self.noise.delta, **resolved["honest_noise"]}
        self.raw["utility"] = {role: {"family": u.family, "params": u.params}
                               for role, u in vars(self.utility).items()}
        self.config_hash = hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

        self._semantic_checks(check_noise)

    def _semantic_checks(self, check_noise: bool):
        problems = []
        # the analytic families are valid by construction; a table may not be
        if check_noise and self.noise.kind == "tabulated":
            failures = noise_model.validate(self.noise).failures
            if failures:
                problems.append("/honest_noise: tabulated noise fails validation: " + ", ".join(
                    f"{c.name} ({c.detail})" for c in failures))
        if self.noise.delta < _DELTA_MIN:
            problems.append(f"/honest_noise/delta: must be >= {_DELTA_MIN:.4g}, where delta^4 "
                            f"underflows, got {self.noise.delta}")
        if self.eta_grid[0] < 2.0:
            problems.append(
                "/eta_grid: every threshold multiple must satisfy eta >= 2; the "
                "acceptance window must cover the worst honest-only spread of 2*delta")
        for key, grid in (("alpha_grid", self.alpha_grid), ("report_alphas", self.report_alphas)):
            if not _DOMAINS["alpha"][0](grid):
                problems.append(f"/{key}: acceptance levels must lie in [{ALPHA_MIN}, 1]")
        try:
            _check_scale("/eta_grid", self.eta_grid[-1], self.noise)
        except ConfigError as exc:
            problems.append(str(exc))
        if problems:
            raise ConfigError("; ".join(problems))


def parse_config(path=None, check_noise: bool = True) -> RunConfig:
    """Load, validate, and resolve a JSON run configuration.

    Breaks of _RULES are all reported, each at its JSON pointer; no path
    means an empty configuration (all defaults). A tabulated noise model that
    fails noise_model.validate is a config error unless check_noise is false,
    which is how `validate-noise` reports on it instead.
    """
    user: dict = {}
    base_dir = None
    if path is not None:
        p = Path(path)
        base_dir = p.parent
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"--config: cannot read {p}: {reason}") from exc
        try:
            user = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    problems = sorted(_problems(user))
    if problems:
        raise ConfigError("; ".join("/" + "/".join(map(str, keys)) + f": {message}"
                                    for keys, message in problems))
    resolved = _merge(DEFAULT_CONFIG, user)
    # a grid naming its shape takes no other shape key from the default
    for key in (key for key, rule in _RULES.items() if rule is _GRID):
        named = user.get(key, {}).keys() & _GRID_SHAPES
        if named:
            resolved[key] = {k: v for k, v in resolved[key].items()
                             if k in named or k not in _GRID_SHAPES}
    try:
        return RunConfig(resolved, base_dir=base_dir, check_noise=check_noise)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


# --- deterministic writers -----------------------------------------------------

def _np_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=_np_default) + "\n")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# --- command implementations ----------------------------------------------------

def _stamp(cfg: RunConfig) -> dict:
    return {"config_hash": cfg.config_hash, "seed": cfg.seed}


def cmd_validate_noise(cfg: RunConfig, out: Path) -> int:
    report = noise_model.validate(cfg.noise)
    payload = {
        "noise": cfg.raw["honest_noise"],
        **report.to_json_dict(),
        **_stamp(cfg),
    }
    _write_json(out / "noise_validation.json", payload)
    return 0 if report.passed else 1


def _envelope(cfg: RunConfig):
    """The envelope at the eta grid's start."""
    return build_envelope(KernelContext(float(cfg.eta_grid[0]), cfg.noise), cfg.envelope_grid)


def cmd_tradeoff(cfg: RunConfig, out: Path) -> int:
    _write_tradeoff(cfg, out, _envelope(cfg))
    return 0


def _write_tradeoff(cfg: RunConfig, out: Path, env) -> None:
    """level_curve.csv, tradeoff.csv and tradeoff_summary.json for env at report_alphas."""
    ctx = env.ctx
    levels = cfg.report_alphas
    values = c_alpha(env, levels)
    table = build_oracle_table(ctx, cfg.oracle_grid)
    oracle_vals = np.array([oracle_c2(ctx, a, table=table) for a in levels])
    diffs = np.abs(values - oracle_vals)

    _write_csv(out / "level_curve.csv", ["q", "h", "h_star", "is_touch"],
               zip(env.source_qs, env.source_vals, env.evaluate(env.source_qs),
                   env.is_touch(env.source_qs)))
    _write_csv(out / "tradeoff.csv", ["alpha", "c_formula", "c_oracle", "abs_diff"],
               zip(levels, values, oracle_vals, diffs))
    summary = {
        "eta": float(ctx.eta),
        "n_alphas": int(levels.size),
        "max_abs_diff": float(np.max(diffs)),
        "max_rel_diff": float(np.max(diffs / values)),
        "zero_limit": zero_limit(env),
        "chords": [[c.q1, c.q2] for c in env.chords()],
        **_stamp(cfg),
    }
    _write_json(out / "tradeoff_summary.json", summary)


def _solve(cfg: RunConfig):
    ctxs = [KernelContext(float(e), cfg.noise) for e in cfg.eta_grid]
    return solve_equilibrium(ctxs, cfg.utility, cfg.alpha_grid,
                             grid_size=cfg.envelope_grid)


def cmd_solve(cfg: RunConfig, out: Path, report=None) -> int:
    report = report or _solve(cfg)
    payload = {**report.to_json_dict(), **_stamp(cfg)}
    _write_json(out / "equilibrium.json", payload)
    rows = []
    for eta in sorted(report.dc_guaranteed_utility):
        aset = report.best_alpha_sets[eta]
        rows.append((eta, report.dc_guaranteed_utility[eta], len(aset),
                     float(aset[0]), float(aset[-1])))
    _write_csv(out / "eta_utility.csv",
               ["eta", "dc_guaranteed_utility", "n_best_alphas",
                "alpha_best_min", "alpha_best_max"], rows)
    return 0


def cmd_adversary(cfg: RunConfig, out: Path, alpha: float) -> int:
    env = _envelope(cfg)
    adv = build_adversary(env, alpha)
    achieved_mse = float(sum(w * env.ctx.error_moment(z) for z, w in adv.atoms)
                         / (4.0 * adv.achieved_pa))
    payload = {
        **adv.to_json_dict(),
        "achieved_pa": adv.achieved_pa,
        "achieved_mse": achieved_mse,
        "c_alpha": float(c_alpha(env, alpha)),
        **_stamp(cfg),
    }
    _write_json(out / "adversary.json", payload)
    return 0


def _number(obj: dict, key: str) -> float:
    """obj[key], a JSON number, as a float: a string or a boolean is a TypeError."""
    if isinstance(obj[key], bool) or not isinstance(obj[key], (int, float)):
        raise TypeError(f"{key} must be a number, got {obj[key]!r}")
    return float(obj[key])


def _load_adversary(path, noise) -> AtomicAdversary:
    """The adversary file at path: valid eta and alpha, and noise's delta, as AtomicAdversary."""
    try:
        raw = json.loads(Path(path).read_text())
        atoms = tuple((_number(a, "z"), _number(a, "weight")) for a in raw["atoms"])
        eta, alpha, delta = (_number(raw, key) for key in ("eta", "alpha", "delta"))
    except (OSError, KeyError, OverflowError, TypeError, ValueError) as exc:  # JSON errors too
        raise ConfigError(f"--adversary: cannot load {path}: {exc}") from exc
    for name, value in (("eta", eta), ("alpha", alpha)):
        accepts, need = _DOMAINS[name]
        if not accepts(value):
            raise ConfigError(f"--adversary: {name} must be {need}, got {value}")
    if not abs(delta - noise.delta) <= 1e-9 * noise.delta:
        raise ConfigError(f"--adversary: built for delta {delta}, "
                          f"but the configured noise has delta {noise.delta}")
    _check_scale("--adversary", eta, noise)
    try:
        return AtomicAdversary(atoms, alpha, KernelContext(eta, noise))
    except DomainError as exc:
        raise ConfigError(f"--adversary: {exc}") from exc


_SIM_HEADER = ["n_nodes", "eta", "alpha", "pa_hat", "mse_hat",
               "pa_stderr", "mse_stderr", "seed"]


def _simulate_cells(cfg: RunConfig, cells):
    """Monte Carlo runs of replicated adversaries over (n_nodes, adversary, seed) cells.

    Returns one _SIM_HEADER row and one SimulationResult per cell.
    """
    rows, results = [], []
    for n, adv, seed in cells:
        game = GameConfig(adv.ctx, n, cfg.trials, seed)
        res = run_monte_carlo(game, ReplicatedStrategy.from_atomic(adv))
        rows.append((n, adv.ctx.eta, adv.alpha, res.pa_hat, res.mse_hat,
                     res.pa_stderr, res.mse_stderr, seed))
        results.append(res)
    return rows, results


def cmd_simulate(cfg: RunConfig, out: Path, adversary: AtomicAdversary | None = None) -> int:
    adv = adversary
    if adv is None:
        report = _solve(cfg)
        adv = build_adversary(report.envelope, report.equilibrium_pa)
    rows, results = _simulate_cells(
        cfg, [(n, adv, cfg.seed + i) for i, n in enumerate(cfg.n_nodes)])
    _write_csv(out / "simulations.csv", _SIM_HEADER, rows)
    payload = {"adversary": adv.to_json_dict(),
               "results": [{"n_nodes": row[0], "seed": row[-1], **res.to_json_dict()}
                           for row, res in zip(rows, results)],
               **_stamp(cfg)}
    _write_json(out / "simulation.json", payload)
    return 0


def _symmetric_atoms(rng, z_hi: float):
    """1 or 2 random offset pairs +/-z on [0, z_hi], mirrored weights summing to 1."""
    n_atoms = int(rng.integers(1, 3))
    zs = rng.uniform(0.0, z_hi, n_atoms)
    w = rng.uniform(0.2, 1.0, n_atoms)
    w = np.concatenate([w, w])
    return np.concatenate([-zs, zs]), w / w.sum()


_REALIZATIONS = 100_000  # verify's scenario suite
_CANDIDATES = (20, 2)  # verify's random replicated and iid candidates


def _random_candidates(ctx, rng, n_replicated: int, n_iid: int):
    """Random symmetric atomic strategies: replicated, then independent draws."""
    return [(f"{kind}_{i}", strategy(*_symmetric_atoms(rng, ctx.z_hi)))
            for kind, strategy, n in (("replicated", ReplicatedStrategy, n_replicated),
                                      ("iid", IidStrategy, n_iid))
            for i in range(n)]


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    env = _envelope(cfg)
    scenario = run_scenario_suite(env.ctx, _REALIZATIONS, max(cfg.n_nodes) - 1, cfg.seed)

    aset = best_alpha_set(env, cfg.utility, cfg.alpha_grid)
    alpha_star = float(aset[0])
    optimum = ReplicatedStrategy.from_atomic(build_adversary(env, alpha_star))
    rng = np.random.default_rng(cfg.seed)
    cands = _random_candidates(env.ctx, rng, *_CANDIDATES)
    game = GameConfig(env.ctx, cfg.n_nodes[0], cfg.trials, cfg.seed)
    dom = dominance_check(game, cfg.utility, cands, optimum)

    payload = {
        "scenario_suite": scenario,
        "dominance": dom.to_json_dict(),
        "alpha_star": alpha_star,
        "eta": env.ctx.eta,
        **_stamp(cfg),
    }
    _write_json(out / "verify_report.json", payload)
    return 0 if scenario["passed"] else 1


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    report = _solve(cfg)
    cmd_solve(cfg, out, report=report)

    eta_star = report.eta_star
    env = report.envelope
    _write_tradeoff(cfg, out, env)
    adv_eq = build_adversary(env, report.equilibrium_pa)
    _write_json(out / "adversary.json", {**adv_eq.to_json_dict(), **_stamp(cfg)})

    advs = [build_adversary(env, float(a)) for a in cfg.report_alphas]
    # cell k = (n, alpha), n outer and alpha inner, runs on seed + k
    rows, results = _simulate_cells(
        cfg, [(n, adv, cfg.seed + k)
              for k, (n, adv) in enumerate(itertools.product(cfg.n_nodes, advs))])
    worst_pa_sigmas = 0.0
    worst_mse_sigmas = 0.0
    for row, res in zip(rows, results):
        alpha = row[2]
        if res.pa_stderr > 0:
            worst_pa_sigmas = max(worst_pa_sigmas, abs(res.pa_hat - alpha) / res.pa_stderr)
        if res.mse_hat is not None and res.mse_stderr and res.mse_stderr > 0:
            worst_mse_sigmas = max(worst_mse_sigmas,
                                   abs(res.mse_hat - c_alpha(env, alpha)) / res.mse_stderr)
    _write_csv(out / "sweep_simulations.csv", _SIM_HEADER, rows)

    payload = {
        "eta_star": eta_star,
        "equilibrium": {"mse": report.equilibrium_mse, "pa": report.equilibrium_pa},
        "cells": len(rows),
        "worst_pa_deviation_sigmas": worst_pa_sigmas,
        "worst_mse_deviation_sigmas": worst_mse_sigmas,
        "artifacts": ["equilibrium.json", "eta_utility.csv", "level_curve.csv",
                      "tradeoff.csv", "tradeoff_summary.json", "adversary.json",
                      "sweep_simulations.csv"],
        **_stamp(cfg),
    }
    _write_json(out / "sweep_report.json", payload)
    return 0


# --- argument parsing ------------------------------------------------------------

COMMANDS = {
    "validate-noise": cmd_validate_noise,
    "tradeoff": cmd_tradeoff,
    "solve": cmd_solve,
    "adversary": cmd_adversary,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}

# flag, or number of an adversary file -> (accepts the parsed value, what it must be);
# checked before any output. The levels' rule is also the config's level grids' rule.
_DOMAINS = {
    "eta": (lambda v: 2.0 <= v < np.inf, "a finite threshold multiple >= 2"),
    "alpha": (lambda v: bool(np.all((v >= ALPHA_MIN) & (v <= 1.0))),
              f"an acceptance level in [{ALPHA_MIN}, 1]"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stackgame",
        description="Trade-off curves, equilibria, and optimal adversaries for the "
                    "accept/estimate aggregation game.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration (defaults apply)")
        p.add_argument("--output", default="out", help="output directory (default: ./out)")

    common(sub.add_parser("validate-noise", help="check the noise model assumptions"))

    common(sub.add_parser("tradeoff", help="formula-vs-oracle trade-off curve"))

    common(sub.add_parser("solve", help="equilibrium threshold and best responses"))

    p = sub.add_parser("adversary", help="optimal atoms at a given acceptance level")
    common(p)
    p.add_argument("--alpha", type=float, required=True)

    p = sub.add_parser("simulate", help="Monte Carlo runs of a replicated adversary")
    common(p)
    p.add_argument("--adversary",
                   help="adversary JSON (default: the solved equilibrium optimum)")

    common(sub.add_parser("verify", help="scenario-reduction and dominance suites"))

    common(sub.add_parser("sweep", help="full pipeline with a combined report"))
    return parser


def main(argv=None) -> int:
    """Run one command: its flags' destination names are its keyword arguments."""
    options = vars(_build_parser().parse_args(argv))
    command, config, output = options.pop("command"), options.pop("config"), options.pop("output")
    options = {flag: value for flag, value in options.items() if value is not None}
    try:
        for flag, (accepts, need) in _DOMAINS.items():
            if flag in options and not accepts(options[flag]):
                raise ConfigError(f"--{flag}: must be {need}, got {options[flag]}")
        cfg = parse_config(config, check_noise=command != "validate-noise")
        if "adversary" in options:
            options["adversary"] = _load_adversary(options["adversary"], cfg.noise)
        out = Path(output)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--output: cannot create {out}: {exc.strerror or exc}") from exc
        _write_json(out / "resolved_config.json", cfg.raw)
        return COMMANDS[command](cfg, out, **options)
    except ConfigError as exc:
        json.dump({"error": {"type": "ConfigError", "message": str(exc)}},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2
    except Exception as exc:  # computation/check failures -> structured stderr
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
