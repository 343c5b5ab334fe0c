import itertools
import json
from dataclasses import fields

import numpy as np
import pytest

import stackgame as sg
from stackgame import cli
from stackgame.envelope import (BLOCK_ETAS, DEFAULT_GRID_SIZE, build_envelopes,
                                has_reflex_sample, level_grid, majorant_rows)
from stackgame.errors import DomainError
from stackgame.strategy import ADVERSARY_FAMILIES, DC_FAMILIES, TIE_TOL_REL, EquilibriumReport


@pytest.fixture(scope="module")
def alphas():
    return np.linspace(1e-3, 1.0, 1000)


def test_utility_families():
    ws = sg.AdversaryUtility("weighted_sum", {"a": 2.0, "b": 3.0})
    assert ws.value(1.0, 0.5) == 2.0 + 1.5
    sp = sg.AdversaryUtility("scaled_product", {"c": 1.0})
    assert sp.value(2.0, 0.5) == 1.5
    lp = sg.DCUtility("linear_penalty", {"gamma": 2.0})
    assert lp.value(1.0, 0.8) == 0.8 - 2.0
    ep = sg.DCUtility("exp_penalty", {"s": 1.0})
    assert abs(ep.value(1.0, 1.0) - np.exp(-1.0)) < 1e-15


def test_utility_param_validation():
    with pytest.raises(DomainError):
        sg.AdversaryUtility("weighted_sum", {"a": -1.0, "b": 1.0})
    with pytest.raises(DomainError):
        sg.AdversaryUtility("scaled_product", {"c": 0.0})
    with pytest.raises(DomainError):
        sg.DCUtility("nope", {})


@pytest.mark.parametrize("spec, message", [
    ({"adversary": {"params": {"c": np.inf}}}, "scaled_product needs c > 0, got {'c': inf}"),
    ({"dc": {"params": {"gamma": np.nan}}}, "linear_penalty needs gamma > 0, got {'gamma': nan}"),
])
def test_utility_params_must_be_finite(spec, message):
    with pytest.raises(DomainError) as exc:
        sg.UtilitySpec.from_spec(spec)
    assert str(exc.value) == message


def test_utility_families_are_monotone_at_unit_params():
    mse, pa = np.meshgrid(np.linspace(0.0, 25.0, 101), np.linspace(1e-3, 1.0, 101))

    def steps(utility, families, family):
        value = utility(family, dict.fromkeys(families[family][0], 1.0)).value(mse, pa)
        return np.diff(value, axis=1), np.diff(value, axis=0)  # along mse, along pa

    for family in ADVERSARY_FAMILIES:
        d_mse, d_pa = steps(sg.AdversaryUtility, ADVERSARY_FAMILIES, family)
        assert np.all(d_mse > 0.0) and np.all(d_pa > 0.0), family
    for family in DC_FAMILIES:
        d_mse, d_pa = steps(sg.DCUtility, DC_FAMILIES, family)
        assert np.all(d_mse <= 0.0) and np.all(d_pa >= 0.0), family


@pytest.mark.parametrize("adversary", [
    {"family": "scaled_product", "params": {"c": 1e13}},
    {"family": "weighted_sum", "params": {"a": 1e-9, "b": 1.0}},
], ids=["scaled_product-c-1e13", "weighted_sum-a-1e-9"])
def test_extreme_utility_params_solve(tmp_path, adversary):
    # monotone for every finite parameter > 0, though a rounded difference may not show it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"eta_grid": {"values": [2, 3]},
                                  "utility": {"adversary": adversary}}))
    assert cli.main(["solve", "--config", str(config), "--output", str(tmp_path / "out")]) == 0


def test_scaled_product_interior_optimum(uniform_env, alphas):
    """Exact stationary point: maximizing alpha*(c+1) on the touch region gives
    h'(alpha) = -4, i.e. 28 a^2 - 48 a + 20 = 0 -> alpha = 5/7, utility 200/147."""
    spec = sg.UtilitySpec.from_spec({})
    aset = sg.best_alpha_set(uniform_env, spec, alphas)
    assert aset.size == 1
    a_star = float(aset[0])
    assert abs(a_star - 5.0 / 7.0) <= 1.5e-3  # within one grid step
    util = spec.adversary.value(sg.c_alpha(uniform_env, a_star), a_star)
    assert abs(util - 200.0 / 147.0) < 1e-6


def test_weighted_sum_corner_optima(uniform_env, alphas):
    # equal weights: the mse term dominates, so push acceptance to the floor
    low = sg.UtilitySpec.from_spec(
        {"adversary": {"family": "weighted_sum", "params": {"a": 1.0, "b": 1.0}}})
    aset = sg.best_alpha_set(uniform_env, low, alphas)
    assert float(aset[0]) == alphas[0]
    # acceptance-heavy: optimum at alpha=1 with utility 1/3 + 4
    high = sg.UtilitySpec.from_spec(
        {"adversary": {"family": "weighted_sum", "params": {"a": 1.0, "b": 4.0}}})
    aset2 = sg.best_alpha_set(uniform_env, high, alphas)
    assert float(aset2[-1]) == 1.0
    util = high.adversary.value(sg.c_alpha(uniform_env, 1.0), 1.0)
    assert abs(util - 13.0 / 3.0) < 1e-12


def test_acceptance_heavy_adversary_pushes_alpha_to_one(uniform_env, alphas):
    # mse weight is negligible, so the maximizer is the largest acceptance
    spec = sg.UtilitySpec.from_spec(
        {"adversary": {"family": "weighted_sum", "params": {"a": 1e-6, "b": 1.0}}})
    aset = sg.best_alpha_set(uniform_env, spec, alphas)
    assert aset.size == 1 and float(aset[0]) == 1.0
    with pytest.raises(DomainError):
        sg.best_alpha_set(uniform_env, spec, [])


def test_random_strategies_never_beat_best_response(uniform_env, uniform_ctx, rng):
    """Any symmetric atomic strategy's utility stays below the curve optimum."""
    spec = sg.UtilitySpec.from_spec({})
    aset = sg.best_alpha_set(uniform_env, spec, np.linspace(1e-3, 1.0, 1000))
    top = max(spec.adversary.value(sg.c_alpha(uniform_env, a), a) for a in aset)
    zs = rng.uniform(0.0, uniform_ctx.z_hi, (1000, 2))
    ws = rng.uniform(0.0, 1.0, 1000)
    for (z1, z2), w in zip(zs, ws):
        pa = w * uniform_ctx.accept_prob(z1) + (1.0 - w) * uniform_ctx.accept_prob(z2)
        if pa <= 0.0:
            continue
        moment = w * uniform_ctx.error_moment(z1) + (1.0 - w) * uniform_ctx.error_moment(z2)
        util = spec.adversary.value(moment / (4.0 * pa), pa)
        assert util <= top + 1e-6


def test_solve_equilibrium_prefers_high_eta_when_penalty_vanishes(uniform_noise, alphas):
    ctxs = [sg.KernelContext(e, uniform_noise) for e in (2.0, 2.5, 3.0)]
    spec = sg.UtilitySpec.from_spec(
        {"dc": {"family": "linear_penalty", "params": {"gamma": 1e-9}}})
    rep = sg.solve_equilibrium(ctxs, spec, alphas)
    assert rep.eta_star == 3.0
    assert rep.eta_on_grid_boundary
    # guarantee is then essentially the adversary's chosen acceptance level
    assert rep.dc_guaranteed_utility[3.0] == pytest.approx(0.736, abs=2e-3)


def test_solve_equilibrium_tie_goes_to_smaller_eta(uniform_noise, alphas):
    # a constant dc utility ties every eta; the first (smallest) must win
    ctxs = [sg.KernelContext(e, uniform_noise) for e in (3.0, 2.0, 2.5)]
    spec = sg.UtilitySpec(
        adversary=sg.AdversaryUtility("scaled_product", {"c": 1.0}),
        dc=sg.DCUtility("linear_penalty", {"gamma": 1e-300}),
    )
    # gamma ~ 0 makes dc utility equal to alpha; not constant across eta, so
    # instead check determinism of ordering: passing shuffled contexts cannot
    # change the answer
    rep1 = sg.solve_equilibrium(ctxs, spec, alphas)
    rep2 = sg.solve_equilibrium(list(reversed(ctxs)), spec, alphas)
    assert rep1.eta_star == rep2.eta_star
    assert rep1.dc_guaranteed_utility == rep2.dc_guaranteed_utility


def test_solve_equilibrium_single_and_empty_grid(uniform_noise, alphas):
    rep = sg.solve_equilibrium([sg.KernelContext(2.0, uniform_noise)],
                               sg.UtilitySpec.from_spec({}), alphas)
    assert rep.eta_star == 2.0 and rep.eta_on_grid_boundary
    with pytest.raises(DomainError, match="at least one kernel context"):
        build_envelopes([])
    with pytest.raises(DomainError, match="at least one kernel context"):
        sg.solve_equilibrium([], sg.UtilitySpec.from_spec({}), alphas)


def test_solve_equilibrium_refuses_mixed_noise_models(uniform_noise, alphas):
    ctxs = [sg.KernelContext(2.0, uniform_noise), sg.KernelContext(2.5, sg.uniform(1.0))]
    with pytest.raises(DomainError, match="share one noise model"):
        build_envelopes(ctxs)
    with pytest.raises(DomainError, match="share one noise model"):
        sg.solve_equilibrium(ctxs, sg.UtilitySpec.from_spec({}), alphas)


def test_solve_equilibrium_grid_refinement_consistency(uniform_noise, alphas):
    spec = sg.UtilitySpec.from_spec(
        {"dc": {"family": "linear_penalty", "params": {"gamma": 0.3}}})
    coarse = [sg.KernelContext(e, uniform_noise) for e in np.arange(2.0, 3.01, 0.5)]
    fine = [sg.KernelContext(e, uniform_noise) for e in np.arange(2.0, 3.01, 0.25)]
    rep_c = sg.solve_equilibrium(coarse, spec, alphas, grid_size=1024)
    rep_f = sg.solve_equilibrium(fine, spec, alphas, grid_size=1024)
    assert abs(rep_f.eta_star - rep_c.eta_star) <= 0.5


def test_report_serializes(uniform_noise, alphas, tmp_path):
    ctxs = [sg.KernelContext(e, uniform_noise) for e in (2.0, 2.5)]
    rep = sg.solve_equilibrium(ctxs, sg.UtilitySpec.from_spec({}), alphas)
    assert cli.cmd_solve(cli.parse_config(None), tmp_path, report=rep) == 0
    d = json.loads((tmp_path / "equilibrium.json").read_text())
    assert set(d) == {"eta_star", "equilibrium", "adversary_utility_at_eq",
                      "eta_on_grid_boundary", "per_eta", "config_hash", "seed"}
    assert len(d["per_eta"]) == 2
    mse, pa = rep.equilibrium_mse, rep.equilibrium_pa
    assert mse == d["equilibrium"]["mse"] and pa == d["equilibrium"]["pa"]


def test_build_adversary_touch(uniform_env, uniform_ctx):
    adv = sg.build_adversary(uniform_env, 0.5)
    assert adv.atoms == ((-2.0, 0.5), (2.0, 0.5))
    np.testing.assert_allclose(sum(w for _, w in adv.atoms), 1.0)


def test_build_adversary_chord(uniform_env, uniform_ctx):
    adv = sg.build_adversary(uniform_env, 0.9)
    assert len(adv.atoms) == 4
    zs = np.array([z for z, _ in adv.atoms])
    # outer pair near k_inv(11/14) = 10/7, inner pair at the full-accept edge
    np.testing.assert_allclose(np.abs(zs), [10.0 / 7.0, 1.0, 1.0, 10.0 / 7.0],
                               atol=1e-10)
    pa = sum(w * uniform_ctx.accept_prob(z) for z, w in adv.atoms)
    assert abs(pa - 0.9) < 1e-8


@pytest.mark.parametrize("alpha", [0.05, 0.3, 5.0 / 7.0, 0.85, 0.99, 1.0])
def test_adversary_achieves_curve(uniform_env, uniform_ctx, alpha):
    adv = sg.build_adversary(uniform_env, alpha)
    pa = sum(w * uniform_ctx.accept_prob(z) for z, w in adv.atoms)
    mse = sum(w * uniform_ctx.error_moment(z) for z, w in adv.atoms) / (4 * pa)
    assert abs(pa - alpha) < 1e-8
    assert abs(mse - sg.c_alpha(uniform_env, alpha)) < 1e-6


def test_atomic_adversary_validation():
    with pytest.raises(DomainError):
        sg.AtomicAdversary(atoms=((-1.0, 0.6), (1.0, 0.6)), alpha=0.5,
                           ctx=sg.KernelContext(2.0, sg.uniform(1.0)))  # weights exceed 1
    with pytest.raises(DomainError):
        sg.AtomicAdversary(atoms=((-1.0, 0.5), (2.0, 0.5)), alpha=0.5,
                           ctx=sg.KernelContext(2.0, sg.uniform(1.0)))  # not mirror-symmetric
    with pytest.raises(DomainError):  # the same shape near the float limit
        sg.AtomicAdversary(atoms=((-2e296, 0.5), (2.5e296, 0.5)), alpha=0.5,
                           ctx=sg.KernelContext(2.0, sg.uniform(1e296)))
    # and far below 1: these atoms achieve alpha 0.5, but their offsets differ by 2 delta
    with pytest.raises(DomainError, match="symmetric"):
        sg.AtomicAdversary(atoms=((-1e-10, 0.5), (3e-10, 0.5)), alpha=0.5,
                           ctx=sg.KernelContext(2.0, sg.uniform(1e-10)))


def reference_solve_equilibrium(ctxs, spec, alpha_grid, grid_size=DEFAULT_GRID_SIZE,
                                tie_tol=TIE_TOL_REL):
    """The per-eta solver the block solver replaced: one envelope per eta."""
    ctxs = sorted(ctxs, key=lambda c: c.eta)
    alphas = np.unique(np.asarray(alpha_grid, dtype=float))
    best_sets, guarantees, best = {}, {}, None
    for ctx in ctxs:
        env = sg.build_envelope(ctx, grid_size)
        utils = spec.adversary.value(sg.c_alpha(env, alphas), alphas)
        top = float(np.max(utils))
        aset = alphas[utils >= top - tie_tol * max(1.0, abs(top))]
        cs = sg.c_alpha(env, aset)
        dc_vals = np.asarray(spec.dc.value(cs, aset), dtype=float)
        guarantee = float(np.min(dc_vals))
        best_sets[ctx.eta] = aset
        guarantees[ctx.eta] = guarantee
        if best is None or guarantee > best[0]:
            best = (guarantee, ctx.eta, env, aset, cs, dc_vals)
    _, eta_star, env_star, aset_star, cs_star, dc_star = best
    i_eq = int(np.argmin(dc_star))
    etas = [c.eta for c in ctxs]
    return EquilibriumReport(
        eta_star=float(eta_star), best_alpha_sets=best_sets, dc_guaranteed_utility=guarantees,
        adversary_utility_at_eq=float(np.max(spec.adversary.value(cs_star, aset_star))),
        equilibrium_mse=float(cs_star[i_eq]), equilibrium_pa=float(aset_star[i_eq]),
        eta_on_grid_boundary=bool(eta_star in (min(etas), max(etas))), envelope=env_star)


def _wavy_table():
    xs = np.linspace(-1.0, 1.0, 4096)
    return sg.tabulated(xs, 1.0 - 0.6 * np.abs(xs) + 0.3 * np.cos(25.0 * np.pi * xs))


_GAMMA_002 = {"dc": {"family": "linear_penalty", "params": {"gamma": 0.02}}}
_WS_EXP = {"adversary": {"family": "weighted_sum", "params": {"a": 1.0, "b": 4.0}},
           "dc": {"family": "exp_penalty", "params": {"s": 2.0}}}
_FULL, _SHORT = np.linspace(2.0, 8.0, 601), np.linspace(2.0, 3.0, 101)
# (noise, etas, utility spec, envelope grid size)
BLOCK_CASES = {
    # 67 etas with a reflex sample (2.00-2.66), 534 without; eta_star 6.0 has none
    "uniform-gamma-0.02": (sg.uniform(1.0), _FULL, _GAMMA_002, DEFAULT_GRID_SIZE),
    # eta_star 2.0 has a reflex sample and a chord
    "uniform": (sg.uniform(1.0), _SHORT, {}, DEFAULT_GRID_SIZE),
    "truncated-normal-sigma-3": (sg.truncated_normal(1.0, 3.0), _SHORT, {}, DEFAULT_GRID_SIZE),
    "truncated-normal-sigma-0.5": (sg.truncated_normal(1.0, 0.5), _FULL[::5], {},
                                   DEFAULT_GRID_SIZE),
    "triangular": (sg.triangular(1.0), _FULL[::5], _GAMMA_002, DEFAULT_GRID_SIZE),
    "wavy-table": (_wavy_table(), _FULL[:5], {}, DEFAULT_GRID_SIZE),
    "weighted-sum-exp-penalty": (sg.uniform(1.0), _SHORT, _WS_EXP, DEFAULT_GRID_SIZE),
    "one-reflex-eta": (sg.uniform(1.0), [2.0], {}, DEFAULT_GRID_SIZE),
    "one-concave-eta": (sg.uniform(1.0), [6.0], {}, DEFAULT_GRID_SIZE),
    "ragged-last-block": (sg.uniform(1.0), np.linspace(2.3, 3.5, 2 * BLOCK_ETAS + 3),
                          _GAMMA_002, 1024),
}


def _report_fields(rep: EquilibriumReport) -> dict:
    """Every field of rep but its envelope, each eta's best alpha set as a list."""
    return {**{f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "envelope"},
            "best_alpha_sets": {eta: a.tolist() for eta, a in rep.best_alpha_sets.items()}}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_solver_matches_the_per_eta_solver(case, alphas):
    noise, etas, utility, grid_size = BLOCK_CASES[case]
    ctxs = [sg.KernelContext(float(e), noise) for e in etas]
    spec = sg.UtilitySpec.from_spec(utility)
    got = sg.solve_equilibrium(ctxs, spec, alphas, grid_size=grid_size)
    want = reference_solve_equilibrium(ctxs, spec, alphas, grid_size=grid_size)
    assert _report_fields(got) == _report_fields(want)
    assert np.array_equal(got.envelope.chord_ends, want.envelope.chord_ends)


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_one_builder_for_a_grid_and_for_one_eta(case, alphas):
    noise, etas, _, grid_size = BLOCK_CASES[case]
    envs = build_envelopes([sg.KernelContext(float(e), noise) for e in etas], grid_size)
    for env in envs:
        one = sg.build_envelope(env.ctx, grid_size)
        assert np.array_equal(env.chord_ends, one.chord_ends), env.ctx.eta
        assert env.touch_tolerance == one.touch_tolerance, env.ctx.eta
    blocks = list(majorant_rows(envs, alphas))
    assert [rows.shape[0] for rows in blocks[:-1]] == [BLOCK_ETAS] * (len(blocks) - 1)
    for env, row in itertools.zip_longest(envs, np.concatenate(blocks)):
        assert np.array_equal(row, env.evaluate(alphas)), env.ctx.eta


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_rows_are_the_per_eta_curves(case, alphas):
    noise, etas, _, grid_size = BLOCK_CASES[case]
    for levels in (level_grid(grid_size), alphas):
        rows = sg.KernelContext(np.asarray(etas)[:, None], noise).moment_at_level(levels)
        for eta, row in zip(etas, rows):
            assert np.array_equal(row, sg.KernelContext(eta, noise).moment_at_level(levels))


def test_block_cases_take_both_paths():
    noise, etas, _, grid_size = BLOCK_CASES["uniform-gamma-0.02"]
    qs = level_grid(grid_size)
    rows = sg.KernelContext(np.asarray(etas)[:, None], noise).moment_at_level(qs)
    assert np.flatnonzero(has_reflex_sample(qs, rows)).tolist() == list(range(67))


def test_other_adversary_family_does_not_take_the_default_params():
    with pytest.raises(DomainError, match=r"weighted_sum needs a > 0 and b > 0, got \{\}$"):
        sg.UtilitySpec.from_spec({"adversary": {"family": "weighted_sum"}})
    with pytest.raises(DomainError, match=r"exp_penalty needs s > 0, got \{\}$"):
        sg.UtilitySpec.from_spec({"dc": {"family": "exp_penalty"}})
    default = sg.UtilitySpec.from_spec({"adversary": {"family": "scaled_product"}})
    assert default.adversary.params == {"c": 1.0}


def test_default_family_params_merge_over_the_defaults(tmp_path):
    # the API resolves a utility as a config file does: given params over the default ones
    utility = {"adversary": {"params": {}}, "dc": {"params": {"gamma": 0.5}}}
    spec = sg.UtilitySpec.from_spec(utility)
    assert (spec.adversary.params, spec.dc.params) == ({"c": 1.0}, {"gamma": 0.5})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"utility": utility}))
    cfg = cli.parse_config(config)
    assert cfg.utility == spec
    assert cfg.raw["utility"] == {"adversary": {"family": "scaled_product", "params": {"c": 1.0}},
                                  "dc": {"family": "linear_penalty", "params": {"gamma": 0.5}}}


@pytest.mark.parametrize("noise", [sg.uniform(1.0), sg.truncated_normal(1.0, 3.0)],
                         ids=["uniform", "truncated-normal-sigma-3"])
def test_batched_tangencies_match_one_eta_solves(noise):
    # the full grid solves every reflex eta's chords in one batch; each eta
    # solved alone must come out the same to the bit
    cfg = cli.parse_config(None)
    spec, etas = cfg.utility, cfg.eta_grid
    qs = level_grid(DEFAULT_GRID_SIZE)
    reflex = [float(e) for e in etas
              if has_reflex_sample(qs, sg.KernelContext(float(e), noise).moment_at_level(qs))]
    assert len(reflex) >= 50
    full = sg.solve_equilibrium([sg.KernelContext(float(e), noise) for e in etas], spec,
                                cfg.alpha_grid)
    for eta in reflex:
        one = sg.solve_equilibrium([sg.KernelContext(eta, noise)], spec, cfg.alpha_grid)
        assert one.dc_guaranteed_utility[eta] == full.dc_guaranteed_utility[eta], eta
        assert np.array_equal(one.best_alpha_sets[eta], full.best_alpha_sets[eta]), eta
