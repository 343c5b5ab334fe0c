"""End-to-end acceptance suite.

Each test covers one numbered criterion, records a single [PASS]/[FAIL] line
(echoed in the pytest terminal summary), enforces the stated tolerance, and
checks its runtime budget. Tolerances are absolute unless stated otherwise.
"""

import inspect
import json
import time
from pathlib import Path

import numpy as np
import pytest

import stackgame as sg
from stackgame import cli
from stackgame.tradeoff import build_oracle_table

from conftest import record_criterion
from oracles import accept_prob_quad, bisect_scalar, error_moment_quad


def _finish(number, title, budget, t0, ok, detail):
    elapsed = time.perf_counter() - t0
    detail = f"{detail}; {elapsed:.2f}s of {budget:.0f}s budget"
    ok = ok and elapsed < budget
    record_criterion(number, title, ok, detail)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_kernel_closed_forms(uniform_ctx):
    t0 = time.perf_counter()
    checks = {
        "k(2)": (uniform_ctx.accept_prob(2.0), 0.5),
        "nu(2)": (uniform_ctx.error_moment(2.0), 19.0 / 6.0),
        "nu(1)": (uniform_ctx.error_moment(1.0), 4.0 / 3.0),
        "k_quad(2)": (accept_prob_quad(uniform_ctx, 2.0), 0.5),
        "nu_quad(2)": (error_moment_quad(uniform_ctx, 2.0), 19.0 / 6.0),
        "nu_quad(1)": (error_moment_quad(uniform_ctx, 1.0), 4.0 / 3.0),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    _finish(1, "kernel closed forms vs quadrature", 1.0, t0,
            worst < 1e-9, f"max abs err {worst:.2e} < 1e-9")


def test_criterion_2_envelope(uniform_ctx, uniform_env):
    t0 = time.perf_counter()
    env = uniform_env
    qs, hs = env.source_qs, env.source_vals
    major_gap = float(np.min(env.evaluate(qs) - hs))

    rng = np.random.default_rng(2024)
    triples = np.sort(rng.uniform(0.0, 1.0, (1000, 3)), axis=1)
    ok_triples = triples[:, 0] + 1e-9 < triples[:, 2]
    a, b, c = (triples[ok_triples, i] for i in range(3))
    t = (b - a) / (c - a)
    concave_gap = float(np.min(
        env.evaluate(b) - ((1 - t) * env.evaluate(a) + t * env.evaluate(c))))

    end_gap = max(abs(env.evaluate(0.0) - uniform_ctx.moment_at_level(0.0)),
                  abs(env.evaluate(1.0) - uniform_ctx.moment_at_level(1.0)))

    chords = env.chords()
    one_chord = len(chords) == 1
    q1 = chords[0].q1 if one_chord else float("nan")
    q2 = chords[0].q2 if one_chord else float("nan")

    # independent tangency solve: phi(q) = h'(q)(1-q) - (h(1) - h(q)) with a
    # central-difference derivative of the implementation's level curve
    h = uniform_ctx.moment_at_level
    dq = 1e-6
    phi = lambda q: (h(q + dq) - h(q - dq)) / (2 * dq) * (1 - q) - (h(1.0) - h(q))
    root = bisect_scalar(phi, 0.77, 0.80, xtol=1e-12)

    ok = (major_gap >= -1e-12 and concave_gap >= -1e-12 and end_gap < 1e-12
          and one_chord and 0.77 <= q1 <= 0.80 and q2 == 1.0
          and abs(q1 - root) < 1e-3)
    _finish(2, "envelope invariants and tangency", 5.0, t0, ok,
            f"majorize {major_gap:.1e}, concavity {concave_gap:.1e}, "
            f"q1 {q1:.6f} vs solve {root:.6f}, q2 {q2}")


@pytest.mark.parametrize("noise_kind", ["uniform", "truncated-normal"])
def test_criterion_3_formula_vs_oracle(noise_kind):
    t0 = time.perf_counter()
    noise = sg.uniform(1.0) if noise_kind == "uniform" else sg.truncated_normal(1.0, 0.5)
    alphas = np.round(np.linspace(0.1, 1.0, 10), 10)
    worst = 0.0
    where = ""
    for eta in (2.0, 2.5, 3.0):
        ctx = sg.KernelContext(eta, noise)
        env = sg.build_envelope(ctx)
        table = build_oracle_table(ctx)
        for a in alphas:
            cf = sg.c_alpha(env, float(a))
            co = sg.oracle_c2(ctx, float(a), table=table)
            rel = abs(cf - co) / max(1.0, cf)
            if rel > worst:
                worst, where = rel, f"eta={eta}, alpha={a}"
    _finish(3, f"trade-off formula vs brute-force oracle [{noise_kind}]",
            120.0, t0, worst <= 5e-3, f"worst rel diff {worst:.2e} at {where}")


def test_criterion_4_adversary_achievability(uniform_ctx, uniform_env):
    t0 = time.perf_counter()
    alphas = np.linspace(0.02, 1.0, 50)  # spans touch (<11/14) and chord (>11/14)
    worst_pa = worst_mse = 0.0
    for a in alphas:
        adv = sg.build_adversary(uniform_env, float(a))
        pa = sum(w * uniform_ctx.accept_prob(z) for z, w in adv.atoms)
        mse = sum(w * uniform_ctx.error_moment(z) for z, w in adv.atoms) / (4 * a)
        worst_pa = max(worst_pa, abs(pa - a))
        worst_mse = max(worst_mse, abs(mse - sg.c_alpha(uniform_env, float(a))))
    ok = worst_pa < 1e-8 and worst_mse < 1e-6
    _finish(4, "optimal adversary achieves the curve", 10.0, t0, ok,
            f"worst pa err {worst_pa:.2e} < 1e-8, worst mse err {worst_mse:.2e} < 1e-6")


def test_criterion_5_monte_carlo_equilibrium(uniform_ctx, uniform_env):
    t0 = time.perf_counter()
    adv = sg.build_adversary(uniform_env, 0.5)
    cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=2, trials=10**6, seed=20260814)
    res = sg.run_monte_carlo(cfg, sg.ReplicatedStrategy.from_atomic(adv))
    pa_tol = 4.0 * np.sqrt(0.25 / 10**6)
    pa_ok = abs(res.pa_hat - 0.5) <= pa_tol
    mse_ok = abs(res.mse_hat - 19.0 / 12.0) <= 4.0 * res.mse_stderr
    _finish(5, "Monte Carlo hits (pa, mse) = (1/2, 19/12)", 30.0, t0,
            pa_ok and mse_ok,
            f"pa {res.pa_hat:.5f} (tol {pa_tol:.1e}), mse {res.mse_hat:.5f} "
            f"+- {res.mse_stderr:.1e}")


def test_criterion_6_sybil_resistance(uniform_ctx, uniform_env):
    t0 = time.perf_counter()
    adv = sg.build_adversary(uniform_env, 0.5)
    strat = sg.ReplicatedStrategy.from_atomic(adv)
    results = {}
    for n in (2, 3, 5, 8):
        cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=n, trials=10**6, seed=777 + n)
        results[n] = sg.run_monte_carlo(cfg, strat)
    ok = True
    worst = 0.0
    ns = sorted(results)
    for i, na in enumerate(ns):
        for nb in ns[i + 1:]:
            ra, rb = results[na], results[nb]
            z_pa = abs(ra.pa_hat - rb.pa_hat) / np.hypot(ra.pa_stderr, rb.pa_stderr)
            z_mse = abs(ra.mse_hat - rb.mse_hat) / np.hypot(ra.mse_stderr, rb.mse_stderr)
            worst = max(worst, z_pa, z_mse)
            ok = ok and z_pa <= 4.0 and z_mse <= 4.0
    # structural: nothing in the solve pipeline takes a node count
    sig_params = set()
    for fn in (sg.solve_equilibrium, sg.build_envelope, sg.c_alpha, sg.build_adversary):
        sig_params |= set(inspect.signature(fn).parameters)
    structural = not sig_params & {"n", "n_nodes", "num_nodes", "nodes"}
    ok = ok and structural
    _finish(6, "replication-count invariance of (pa, mse) and eta*", 180.0, t0,
            ok, f"worst pairwise z {worst:.2f} <= 4; no node-count parameter: "
                f"{structural}")


def test_criterion_7_scenario_reductions(uniform_ctx):
    t0 = time.perf_counter()
    suite = sg.run_scenario_suite(uniform_ctx, 10**5, 4, seed=31337)
    ok = (suite["passed"] and suite["acceptance_mismatches"] == 0
          and suite["error_bound_violations"] == 0 and suite["pair_mismatches"] == 0)
    _finish(7, "scenario reductions exact on 1e5 realizations", 30.0, t0, ok,
            f"{suite['realizations']} cases, {suite['accepted']} accepted, "
            f"0 mismatches required: {suite['acceptance_mismatches']}/"
            f"{suite['error_bound_violations']}/{suite['pair_mismatches']}")


def _random_replicated(rng, z_hi, count):
    out = []
    for i in range(count):
        n_pairs = int(rng.integers(1, 3))
        zs = rng.uniform(0.0, z_hi, n_pairs)
        w = rng.uniform(0.2, 1.0, n_pairs)
        locs = np.concatenate([-zs, zs])
        ws = np.concatenate([w, w])
        out.append((f"rep_{i}", sg.ReplicatedStrategy(locs, ws / ws.sum())))
    return out


def _random_iid(rng, z_hi, count):
    out = []
    for i in range(count):
        n_atoms = int(rng.integers(2, 5))
        locs = rng.uniform(-z_hi, z_hi, n_atoms)
        w = rng.dirichlet(np.ones(n_atoms))
        out.append((f"iid_{i}", sg.IidStrategy(locs, w)))
    return out


@pytest.mark.parametrize("family,params", [
    ("scaled_product", {"c": 1.0}),
    ("weighted_sum", {"a": 1.0, "b": 4.0}),
])
def test_criterion_8_dominance(uniform_ctx, uniform_env, family, params):
    t0 = time.perf_counter()
    spec = sg.UtilitySpec.from_spec({"adversary": {"family": family, "params": params}})
    aset = sg.best_alpha_set(uniform_env, spec, np.linspace(1e-3, 1.0, 1000))
    opt = sg.ReplicatedStrategy.from_atomic(
        sg.build_adversary(uniform_env, float(aset[0])))
    rng = np.random.default_rng({"scaled_product": 101, "weighted_sum": 202}[family])
    cands = (_random_replicated(rng, uniform_ctx.z_hi, 100)
             + _random_iid(rng, uniform_ctx.z_hi, 10))
    cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=3, trials=10**5, seed=4242)
    report = sg.dominance_check(cfg, spec, cands, opt)
    _finish(8, f"no candidate beats the optimum [{family}]", 300.0, t0,
            report["passed"], f"110 candidates, violations: {report['violations']}")


def test_criterion_9_sweep_determinism(tmp_path):
    t0 = time.perf_counter()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "eta_grid": {"values": [2.0, 2.5]},
        "alpha_grid": {"start": 0.001, "stop": 1.0, "num": 200},
        "report_alphas": {"values": [0.5, 0.9]},
        "simulation": {"n_nodes": [2, 3], "trials": 20000, "seed": 77},
        "envelope": {"grid_size": 1024},
        "oracle": {"grid_size": 512},
    }))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(config), "--output", str(out)]) == 0
    snapshot = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert cli.main(["sweep", "--config", str(config), "--output", str(out)]) == 0
    rerun = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    same = set(snapshot) == set(rerun) and all(rerun[n] == snapshot[n] for n in snapshot)
    _finish(9, "sweep reruns byte-identical", 120.0, t0, same,
            f"{len(snapshot)} artifacts compared")
