"""Command-line interface: curves, equilibria, adversaries, simulation.

Commands read a JSON run configuration (all keys optional, defaults are
documented in docs/formats), echo the fully resolved configuration next to
their outputs, and write deterministic artifacts: byte-identical reruns for
identical configs. Reports embed the resolved-config hash and the seed, and
data files carry no timestamps.

Exit codes: 0 success, 1 computation or check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import noise_model
from .envelope import DEFAULT_GRID_SIZE, MIN_GRID_SIZE, build_envelope
from .errors import ConfigError, DomainError
from .kernel import KernelContext
from .noise_model import DataModel
from .simulator import (DEFAULT_CHUNK_SIZE, GameConfig, IidStrategy, ReplicatedStrategy,
                        dominance_check, run_monte_carlo, run_scenario_suite)
from .strategy import (ADVERSARY_FAMILIES, DC_FAMILIES, DEFAULT_UTILITY, AtomicAdversary,
                       UtilitySpec, best_alpha_set, build_adversary, solve_equilibrium)
from .tradeoff import (ALPHA_MIN, DEFAULT_ORACLE_GRID, MIN_ORACLE_GRID, build_oracle_table,
                       c_alpha, oracle_c2, zero_limit)

OUTPUT_DIR_ENV = "STACKGAME_OUTPUT_DIR"
# a start/stop/step grid must span a whole number of steps, up to fp rounding
_STEP_SLACK = 1e-9
_DELTA_MIN = sys.float_info.min ** 0.25  # the scale rule's lower half: delta^4 stays normal

DEFAULT_CONFIG = {
    "honest_noise": {"kind": "uniform", "params": {}},  # from_spec owns delta's default
    "data": {"m": 1000.0},
    "eta_grid": {"start": 2.0, "stop": 8.0, "step": 0.01},
    "alpha_grid": {"start": ALPHA_MIN, "stop": 1.0, "num": 1000},
    "report_alphas": {"start": 0.1, "stop": 1.0, "num": 10},
    # "utility" is resolved over DEFAULT_UTILITY by UtilitySpec.from_spec
    "simulation": {"n_nodes": [2, 3, 5], "trials": 100000, "seed": 20260814,
                   "chunk_size": DEFAULT_CHUNK_SIZE},
    "envelope": {"grid_size": DEFAULT_GRID_SIZE},
    "oracle": {"grid_size": DEFAULT_ORACLE_GRID},
}


# What each config key must be. A dict is an object that takes only its keys.
# A (type, bound) pair is a leaf: a finite float > bound, an int >= bound, a
# str among bound, or any dict; a None bound is no bound. (list, n, rule) is
# an array of at least n items that each meet rule. A function maps an object
# to the rule it must meet.
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
    "data": {"m": _POSITIVE},
    "eta_grid": _GRID,
    "alpha_grid": _GRID,
    "report_alphas": _GRID,
    "utility": {role: _choice("family", {f: names for f, (names, _) in families.items()},
                              DEFAULT_UTILITY[role]["family"])
                for role, families in (("adversary", ADVERSARY_FAMILIES), ("dc", DC_FAMILIES))},
    "simulation": {"n_nodes": (list, 1, (int, 2)), "trials": (int, 1), "seed": (int, 0),
                   "chunk_size": (int, 1)},
    "envelope": {"grid_size": (int, MIN_GRID_SIZE)},
    "oracle": {"grid_size": (int, MIN_ORACLE_GRID)},
    "output_dir": (str, None),
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
        ok = number and (isinstance(value, int) or value.is_integer()) and value >= bound
        need = f"an integer >= {bound}"
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


def _check_scale(where: str, eta: float, delta: float) -> None:
    """The scale rule: ((eta + 2) delta)^2, the largest MSE at eta, and its square,
    which the Monte Carlo sums, must be finite: a ConfigError at the pointer or flag
    where if not."""
    with np.errstate(over="ignore"):
        m_max = np.float64((eta + 2.0) * delta) ** 2
        if not np.isfinite(m_max * m_max):
            raise ConfigError(f"{where}: eta {eta} with delta {delta} puts the largest MSE, "
                              "((eta + 2) delta)^2, or its square beyond the float range")


class RunConfig:
    """Fully resolved run configuration plus the derived model objects."""

    def __init__(self, resolved: dict, base_dir=None, output_override=None,
                 check_noise: bool = True):
        self.noise = noise_model.from_spec(resolved["honest_noise"], base_dir=base_dir)
        self.data = DataModel(resolved["data"]["m"])
        self.eta_grid = _resolve_grid(resolved["eta_grid"], "/eta_grid")
        self.alpha_grid = _resolve_grid(resolved["alpha_grid"], "/alpha_grid")
        self.report_alphas = _resolve_grid(resolved["report_alphas"], "/report_alphas")
        self.utility = UtilitySpec.from_spec(resolved.get("utility", {}))
        sim = resolved["simulation"]
        self.n_nodes = [int(n) for n in sim["n_nodes"]]
        self.trials = int(sim["trials"])
        self.seed = int(sim["seed"])
        self.chunk_size = int(sim["chunk_size"])
        self.envelope_grid = int(resolved["envelope"]["grid_size"])
        self.oracle_grid = int(resolved["oracle"]["grid_size"])
        out = output_override or resolved.get("output_dir") \
            or os.environ.get(OUTPUT_DIR_ENV) or "out"
        self.output_dir = Path(out)
        self.raw = dict(resolved)
        # a config without delta echoes the one from_spec built the model with
        self.raw["honest_noise"] = {"delta": self.noise.delta, **resolved["honest_noise"]}
        self.raw["output_dir"] = str(out)
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
            if grid[0] < ALPHA_MIN - 1e-15 or grid[-1] > 1.0:
                problems.append(f"/{key}: acceptance levels must lie in [{ALPHA_MIN}, 1]")
        if self.data.m < 100.0 * self.noise.delta:
            problems.append(
                "/data/m: the value range must dominate the noise (m >= 100 * delta)")
        try:
            _check_scale("/eta_grid", self.eta_grid[-1], self.noise.delta)
        except ConfigError as exc:
            problems.append(str(exc))
        if problems:
            raise ConfigError("; ".join(problems))


def parse_config(path=None, output_override=None, check_noise: bool = True) -> RunConfig:
    """Load, validate, and resolve a JSON run configuration.

    Breaks of _RULES are all reported, each at its JSON pointer; a missing path
    means an empty configuration (all defaults). A tabulated noise model that
    fails noise_model.validate is a config error unless check_noise is false,
    which is how `validate-noise` reports on it instead.
    """
    user: dict = {}
    base_dir = None
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        base_dir = p.parent
        try:
            user = json.loads(p.read_text())
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
        return RunConfig(resolved, base_dir=base_dir, output_override=output_override,
                         check_noise=check_noise)
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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=_np_default) + "\n")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(path: Path, header, rows, append: bool = False) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fresh = not (append and path.exists() and path.stat().st_size > 0)
    with open(path, "a" if append else "w") as fh:
        if fresh:
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


def _envelope(cfg: RunConfig, eta: float | None = None):
    """The envelope at eta, by default the eta grid's start."""
    ctx = KernelContext(float(cfg.eta_grid[0]) if eta is None else eta, cfg.noise)
    return build_envelope(ctx, cfg.envelope_grid)


def cmd_tradeoff(cfg: RunConfig, out: Path, eta: float | None = None, alphas=None) -> int:
    _write_tradeoff(cfg, out, _envelope(cfg, eta), cfg.report_alphas if alphas is None else alphas)
    return 0


def _write_tradeoff(cfg: RunConfig, out: Path, env, alphas) -> None:
    """level_curve.csv, tradeoff.csv and tradeoff_summary.json for the envelope env."""
    ctx = env.ctx
    levels = np.unique(alphas)  # sorted, distinct
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


def cmd_adversary(cfg: RunConfig, out: Path, alpha: float, eta: float | None = None) -> int:
    env = _envelope(cfg, eta)
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


def _load_adversary(path, noise) -> AtomicAdversary:
    """The adversary file at path: valid eta and alpha, and noise's delta, as AtomicAdversary."""
    try:
        raw = json.loads(Path(path).read_text())
        atoms = tuple((float(a["z"]), float(a["weight"])) for a in raw["atoms"])
        eta, alpha, delta = (float(raw[key]) for key in ("eta", "alpha", "delta"))
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"--adversary: cannot load {path}: {exc}") from exc
    for name, value in (("eta", eta), ("alpha", alpha)):
        accepts, need = _FLAG_DOMAINS[name]
        if not accepts(value):
            raise ConfigError(f"--adversary: {name} must be {need}, got {value}")
    if not abs(delta - noise.delta) <= 1e-9 * noise.delta:
        raise ConfigError(f"--adversary: built for delta {delta}, "
                          f"but the configured noise has delta {noise.delta}")
    _check_scale("--adversary", eta, noise.delta)
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
    rows = []
    results = []
    for n, adv, seed in cells:
        game = GameConfig(n_nodes=n, eta=adv.ctx.eta, data=cfg.data, noise=cfg.noise,
                          trials=cfg.trials, seed=seed, chunk_size=cfg.chunk_size)
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
    _write_csv(out / "simulations.csv", _SIM_HEADER, rows, append=True)
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


def _random_candidates(ctx, rng, n_replicated: int, n_iid: int):
    """Random symmetric atomic strategies: replicated, then independent draws."""
    return [(f"{kind}_{i}", strategy(*_symmetric_atoms(rng, ctx.z_hi)))
            for kind, strategy, n in (("replicated", ReplicatedStrategy, n_replicated),
                                      ("iid", IidStrategy, n_iid))
            for i in range(n)]


def cmd_verify(cfg: RunConfig, out: Path, realizations: int = 100_000,
               candidates: int = 20, trials: int | None = None) -> int:
    env = _envelope(cfg)
    eta = env.ctx.eta
    scenario = run_scenario_suite(cfg.noise, eta, realizations,
                                  max(cfg.n_nodes) - 1, cfg.seed)

    aset = best_alpha_set(env, cfg.utility, cfg.alpha_grid)
    alpha_star = float(aset[0])
    optimum = ReplicatedStrategy.from_atomic(build_adversary(env, alpha_star))
    rng = np.random.default_rng(cfg.seed)
    cands = _random_candidates(env.ctx, rng, candidates, max(2, candidates // 10))
    game = GameConfig(n_nodes=cfg.n_nodes[0], eta=eta, data=cfg.data, noise=cfg.noise,
                      trials=cfg.trials if trials is None else trials, seed=cfg.seed,
                      chunk_size=cfg.chunk_size)
    dom = dominance_check(game, cfg.utility, cands, optimum)

    payload = {
        "scenario_suite": scenario,
        "dominance": dom.to_json_dict(),
        "alpha_star": alpha_star,
        "eta": eta,
        **_stamp(cfg),
    }
    _write_json(out / "verify_report.json", payload)
    return 0 if scenario["passed"] else 1


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    report = _solve(cfg)
    cmd_solve(cfg, out, report=report)

    eta_star = report.eta_star
    env = report.envelope
    _write_tradeoff(cfg, out, env, cfg.report_alphas)
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

def _parse_alpha_spec(spec: str) -> np.ndarray:
    """Either comma-separated values or start:stop:count."""
    try:
        if ":" in spec:
            start, stop, num = spec.split(":")
            return np.linspace(float(start), float(stop), int(num))
        return np.array([float(tok) for tok in spec.split(",") if tok.strip()])
    except ValueError as exc:
        raise ConfigError(f"--alphas: bad spec {spec!r}: {exc}") from exc


COMMANDS = {
    "validate-noise": cmd_validate_noise,
    "tradeoff": cmd_tradeoff,
    "solve": cmd_solve,
    "adversary": cmd_adversary,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}

# flag -> (accepts the parsed value, what it must be); checked before any output
_FLAG_DOMAINS = {
    "eta": (lambda v: 2.0 <= v < np.inf, "a finite threshold multiple >= 2"),
    "alpha": (lambda v: 0.0 < v <= 1.0, "an acceptance level in (0, 1]"),
    "alphas": (lambda v: v.size > 0 and bool(np.all((v >= ALPHA_MIN) & (v <= 1.0))),
               f"one or more acceptance levels in [{ALPHA_MIN}, 1]"),
    "realizations": (lambda v: v >= 1, "at least 1"),
    "candidates": (lambda v: v >= 0, "at least 0"),
    "trials": (lambda v: v >= 1, "at least 1"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stackgame",
        description="Trade-off curves, equilibria, and optimal adversaries for the "
                    "accept/estimate aggregation game.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration (defaults apply)")
        p.add_argument("--output", help="output directory (default: config, "
                                        f"then ${OUTPUT_DIR_ENV}, then ./out)")

    common(sub.add_parser("validate-noise", help="check the noise model assumptions"))

    p = sub.add_parser("tradeoff", help="formula-vs-oracle trade-off curve")
    common(p)
    p.add_argument("--eta", type=float, help="threshold multiple (default: grid start)")
    p.add_argument("--alphas", help="acceptance levels: 'a,b,c' or 'start:stop:count'")

    common(sub.add_parser("solve", help="equilibrium threshold and best responses"))

    p = sub.add_parser("adversary", help="optimal atoms at a given acceptance level")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eta", type=float, help="threshold multiple (default: grid start)")

    p = sub.add_parser("simulate", help="Monte Carlo runs of a replicated adversary")
    common(p)
    p.add_argument("--adversary",
                   help="adversary JSON (default: the solved equilibrium optimum)")

    p = sub.add_parser("verify", help="scenario-reduction and dominance suites")
    common(p)
    p.add_argument("--realizations", type=int, help="scenario realizations (default: 100000)")
    p.add_argument("--candidates", type=int,
                   help="random replicated candidates (default: 20)")
    p.add_argument("--trials", type=int)

    common(sub.add_parser("sweep", help="full pipeline with a combined report"))
    return parser


def main(argv=None) -> int:
    """Run one command: its flags' destination names are its keyword arguments."""
    options = vars(_build_parser().parse_args(argv))
    command, config, output = options.pop("command"), options.pop("config"), options.pop("output")
    options = {flag: value for flag, value in options.items() if value is not None}
    try:
        if "alphas" in options:
            options["alphas"] = _parse_alpha_spec(options["alphas"])
        for flag, (accepts, need) in _FLAG_DOMAINS.items():
            if flag in options and not accepts(options[flag]):
                raise ConfigError(f"--{flag}: must be {need}, got {options[flag]}")
        cfg = parse_config(config, output_override=output,
                           check_noise=command != "validate-noise")
        if "eta" in options:
            _check_scale("--eta", options["eta"], cfg.noise.delta)
        if "adversary" in options:
            options["adversary"] = _load_adversary(options["adversary"], cfg.noise)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        _write_json(cfg.output_dir / "resolved_config.json", cfg.raw)
        return COMMANDS[command](cfg, cfg.output_dir, **options)
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
