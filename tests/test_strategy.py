import numpy as np
import pytest

import stackgame as sg
from stackgame.errors import DomainError


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


def test_monotonicity_probe_clean():
    spec = sg.UtilitySpec.from_spec({})
    assert spec.monotonicity_violations(m_max=25.0) == []
    spec2 = sg.UtilitySpec.from_spec({
        "adversary": {"family": "weighted_sum", "params": {"a": 1.0, "b": 4.0}},
        "dc": {"family": "exp_penalty", "params": {"s": 2.0}},
    })
    assert spec2.monotonicity_violations(m_max=25.0) == []


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
        pa = (w * sg.atom_accept_prob(uniform_ctx, z1)
              + (1.0 - w) * sg.atom_accept_prob(uniform_ctx, z2))
        if pa <= 0.0:
            continue
        moment = (w * sg.atom_error_moment(uniform_ctx, z1)
                  + (1.0 - w) * sg.atom_error_moment(uniform_ctx, z2))
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
    with pytest.raises(DomainError):
        sg.solve_equilibrium([], sg.UtilitySpec.from_spec({}), alphas)


def test_solve_equilibrium_grid_refinement_consistency(uniform_noise, alphas):
    spec = sg.UtilitySpec.from_spec(
        {"dc": {"family": "linear_penalty", "params": {"gamma": 0.3}}})
    coarse = [sg.KernelContext(e, uniform_noise) for e in np.arange(2.0, 3.01, 0.5)]
    fine = [sg.KernelContext(e, uniform_noise) for e in np.arange(2.0, 3.01, 0.25)]
    rep_c = sg.solve_equilibrium(coarse, spec, alphas, grid_size=1024)
    rep_f = sg.solve_equilibrium(fine, spec, alphas, grid_size=1024)
    assert abs(rep_f.eta_star - rep_c.eta_star) <= 0.5


def test_report_serializes(uniform_noise, alphas):
    ctxs = [sg.KernelContext(e, uniform_noise) for e in (2.0, 2.5)]
    rep = sg.solve_equilibrium(ctxs, sg.UtilitySpec.from_spec({}), alphas)
    d = rep.to_json_dict()
    assert set(d) == {"eta_star", "equilibrium", "adversary_utility_at_eq",
                      "eta_on_grid_boundary", "per_eta"}
    assert len(d["per_eta"]) == 2
    mse, pa = rep.equilibrium_mse, rep.equilibrium_pa
    assert mse == d["equilibrium"]["mse"] and pa == d["equilibrium"]["pa"]


def test_build_adversary_touch(uniform_env, uniform_ctx):
    adv = sg.build_adversary(uniform_env, uniform_ctx, 0.5)
    assert adv.atoms == ((-2.0, 0.5), (2.0, 0.5))
    np.testing.assert_allclose(adv.weights().sum(), 1.0)


def test_build_adversary_chord(uniform_env, uniform_ctx):
    adv = sg.build_adversary(uniform_env, uniform_ctx, 0.9)
    assert len(adv.atoms) == 4
    zs = adv.locations()
    # outer pair near k_inv(11/14) = 10/7, inner pair at the full-accept edge
    np.testing.assert_allclose(np.abs(zs), [10.0 / 7.0, 1.0, 1.0, 10.0 / 7.0],
                               atol=1e-4)
    pa = sum(w * sg.atom_accept_prob(uniform_ctx, z) for z, w in adv.atoms)
    assert abs(pa - 0.9) < 1e-8


@pytest.mark.parametrize("alpha", [0.05, 0.3, 5.0 / 7.0, 0.85, 0.99, 1.0])
def test_adversary_achieves_curve(uniform_env, uniform_ctx, alpha):
    adv = sg.build_adversary(uniform_env, uniform_ctx, alpha)
    pa = sum(w * sg.atom_accept_prob(uniform_ctx, z) for z, w in adv.atoms)
    mse = sum(w * sg.atom_error_moment(uniform_ctx, z) for z, w in adv.atoms) / (4 * pa)
    assert abs(pa - alpha) < 1e-8
    assert abs(mse - sg.c_alpha(uniform_env, alpha)) < 1e-6


def test_atomic_adversary_validation():
    with pytest.raises(DomainError):
        sg.AtomicAdversary(atoms=((-1.0, 0.6), (1.0, 0.6)), alpha=0.5,
                           eta=2.0, delta=1.0)  # weights exceed 1
    with pytest.raises(DomainError):
        sg.AtomicAdversary(atoms=((-1.0, 0.5), (2.0, 0.5)), alpha=0.5,
                           eta=2.0, delta=1.0)  # not mirror-symmetric

