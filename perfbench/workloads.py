"""The benchmark's workloads: generated configs, CLI commands and output checks.

Each workload runs one `stackgame` command on a JSON config generated from the
benchmark seed; the program receives nothing else. Why each one is here:

solve-uniform
    `stackgame solve`, uniform noise, delta = 1, default grids (601 etas x
    4096-sample envelopes x 1000 alphas) and defender gamma = 0.02. That gamma
    puts eta_star inside the grid (6.0) instead of on its lower edge (2.0 with
    the default gamma), so a coarse-to-fine eta search cannot pass trivially.
    The pure-Python hull and the per-eta strategy loop do most of the work; the
    kernel is closed form and nothing is sampled. The command is deterministic
    and ignores the seed (it only appears in the report stamp).

sweep-truncnormal
    `stackgame sweep`, truncated-normal sigma = 0.5, 5 etas (2.0:3.0 step
    0.25), n_nodes [2, 5], 100 000 trials per cell (20 Monte Carlo cells).
    Per-point adaptive quadrature in `KernelContext.error_moment` dominates,
    and every layer runs once end to end: solve, tradeoff + oracle, adversary
    and Monte Carlo. The envelope here is kernel-bound, not hull-bound.

verify-uniform
    `stackgame verify`, uniform noise, n_nodes [2, 5], 200 000 trials: 23
    Monte Carlo runs (the optimum, 20 replicated and 2 iid candidates) plus
    100 000 scenario realizations. Bisection `inv_cdf` sampling dominates and
    the simulator's iid `CustomJointStrategy` path runs; kernel and envelope
    are nearly idle.

Tabulated noise is deliberately not a workload: when the benchmark was
defined, one 4096-point tabulated envelope took 108 s (27 chords, 7136
samples) and `Envelope.is_touch` another 29 s, too long for the 22 runs a
comparison makes.

Every check returns a list of problems; an empty list means the output is
correct. The bounds are the acceptance criteria's, never looser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# criterion 3: formula vs brute-force oracle, relative to max(1, value)
FORMULA_ORACLE_REL = 5e-3
# criterion 6: Monte Carlo estimates within 4 standard errors
MC_SIGMAS = 4.0
# `simulation.seed` must be a nonnegative integer
_SIM_SEED_MODULUS = 2**31

_UNIFORM = {"kind": "uniform", "delta": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the stackgame subcommand
    config: Callable[[int], dict]  # simulation seed -> config document
    check: Callable[[Path, object], list]  # (output dir, RunConfig) -> problems
    uses_seed: bool
    dominant_layer: str  # the per-layer metric expected to take most of the traced wall


def simulation_seed(seed: int) -> int:
    """The `simulation.seed` a benchmark seed maps to."""
    return int(seed) % _SIM_SEED_MODULUS


def _read(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _solve_config(sim_seed: int) -> dict:
    return {
        "honest_noise": dict(_UNIFORM),
        "utility": {"dc": {"family": "linear_penalty", "params": {"gamma": 0.02}}},
        "simulation": {"seed": sim_seed},
    }


def _check_solve(out: Path, cfg) -> list:
    from stackgame.kernel import KernelContext
    from stackgame.tradeoff import oracle_c2

    eq = _read(out, "equilibrium.json")
    problems = []
    eta_star = eq["eta_star"]
    if eq["eta_on_grid_boundary"] or eta_star in (cfg.eta_grid[0], cfg.eta_grid[-1]):
        problems.append(f"eta_star {eta_star} lies on the eta grid boundary")
    mse, pa = eq["equilibrium"]["mse"], eq["equilibrium"]["pa"]
    oracle = oracle_c2(KernelContext(eta_star, cfg.noise), pa, grid_size=cfg.oracle_grid)
    rel = abs(mse - oracle) / max(1.0, abs(mse))
    if not rel <= FORMULA_ORACLE_REL:
        problems.append(f"equilibrium mse {mse} vs oracle {oracle}: rel diff {rel:.3e} "
                        f"> {FORMULA_ORACLE_REL}")
    return problems


def _sweep_config(sim_seed: int) -> dict:
    return {
        "honest_noise": {"kind": "truncated-normal", "delta": 1.0, "params": {"sigma": 0.5}},
        "eta_grid": {"start": 2.0, "stop": 3.0, "step": 0.25},
        "simulation": {"n_nodes": [2, 5], "trials": 100_000, "seed": sim_seed},
    }


def _check_sweep(out: Path, cfg) -> list:
    summary = _read(out, "tradeoff_summary.json")
    report = _read(out, "sweep_report.json")
    problems = []
    if not summary["max_rel_diff"] <= FORMULA_ORACLE_REL:
        problems.append(f"tradeoff max_rel_diff {summary['max_rel_diff']:.3e} "
                        f"> {FORMULA_ORACLE_REL}")
    for key in ("worst_pa_deviation_sigmas", "worst_mse_deviation_sigmas"):
        if not report[key] <= MC_SIGMAS:
            problems.append(f"{key} {report[key]:.3f} > {MC_SIGMAS}")
    cells = len(cfg.n_nodes) * len(cfg.report_alphas)
    if report["cells"] != cells:
        problems.append(f"{report['cells']} Monte Carlo cells, expected {cells}")
    return problems


def _verify_config(sim_seed: int) -> dict:
    return {
        "honest_noise": dict(_UNIFORM),
        "simulation": {"n_nodes": [2, 5], "trials": 200_000, "seed": sim_seed},
    }


def _check_verify(out: Path, cfg) -> list:
    report = _read(out, "verify_report.json")
    problems = []
    suite = report["scenario_suite"]
    for key in ("acceptance_mismatches", "error_bound_violations", "pair_mismatches"):
        if suite[key] != 0:
            problems.append(f"scenario suite {key} = {suite[key]}")
    if suite["passed"] is not True:
        problems.append("scenario suite did not pass")
    # verify exits 0 even when dominance fails, so the report is the only signal
    if report["dominance"]["passed"] is not True:
        problems.append(f"dominance violations: {report['dominance']['violations']}")
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload("solve-uniform", "solve", _solve_config, _check_solve, uses_seed=False,
                 dominant_layer="envelope.hull.self_s"),
        Workload("sweep-truncnormal", "sweep", _sweep_config, _check_sweep, uses_seed=True,
                 dominant_layer="kernel.error_moment.self_s"),
        Workload("verify-uniform", "verify", _verify_config, _check_verify, uses_seed=True,
                 dominant_layer="noise_model.sample.total_s"),
    )
}
