import numpy as np
import pytest

import stackgame as sg
from stackgame.errors import DomainError
from stackgame.tradeoff import ALPHA_MIN, MIN_ORACLE_GRID, build_oracle_table, oracle_c2_witness


def test_known_values(uniform_env):
    assert abs(sg.c_alpha(uniform_env, 0.5) - 19.0 / 12.0) < 1e-12
    assert abs(sg.c_alpha(uniform_env, 1.0) - 1.0 / 3.0) < 1e-12
    # 5/7 sits in the touch region: c = h(5/7)/(20/7) = 19/21
    assert abs(sg.c_alpha(uniform_env, 5.0 / 7.0) - 19.0 / 21.0) < 1e-12


def test_vectorized_and_domain(uniform_env):
    arr = sg.c_alpha(uniform_env, np.array([0.25, 0.5, 1.0]))
    assert arr.shape == (3,)
    assert np.all(np.diff(arr) < 0)  # c is strictly decreasing here
    with pytest.raises(DomainError):
        sg.c_alpha(uniform_env, 0.0)
    with pytest.raises(DomainError):
        sg.c_alpha(uniform_env, 1.1)


def test_zero_limit(uniform_env):
    # h'(0) = 16 for uniform delta=1 eta=2, so c -> 4
    assert abs(sg.zero_limit(uniform_env) - 4.0) < 1e-12


def test_atom_functionals_extended(uniform_ctx):
    # inside the always-accept zone the acceptance is 1 and the moment is
    # m2 + z^2 (uniform, m1 = 0)
    assert uniform_ctx.accept_prob(0.5) == 1.0
    assert abs(uniform_ctx.error_moment(0.5) - (1.0 / 3.0 + 0.25)) < 1e-9
    assert uniform_ctx.accept_prob(3.5) == 0.0
    assert uniform_ctx.error_moment(3.5) == 0.0
    # sign is irrelevant
    assert uniform_ctx.accept_prob(-2.0) == uniform_ctx.accept_prob(2.0)


def test_oracle_matches_formula(uniform_ctx, uniform_env):
    for a in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        cf = sg.c_alpha(uniform_env, a)
        co = sg.oracle_c2(uniform_ctx, a)
        assert abs(cf - co) <= 5e-3 * max(1.0, cf)


def test_oracle_alpha1_exact(uniform_ctx):
    # full acceptance forces |z| <= 1; best atom is z = 1 with mse 1/3
    assert abs(sg.oracle_c2(uniform_ctx, 1.0) - 1.0 / 3.0) < 1e-12
    with pytest.raises(DomainError):
        sg.oracle_c2(uniform_ctx, 1.5)
    with pytest.raises(DomainError):
        build_oracle_table(uniform_ctx, MIN_ORACLE_GRID - 1)


def test_oracle_witness_feasible(uniform_ctx):
    table = build_oracle_table(uniform_ctx, 512)
    for a in (0.25, 0.6, 0.95):
        val, atoms = oracle_c2_witness(uniform_ctx, a, table=table)
        ks = np.array([uniform_ctx.accept_prob(z) for z, _ in atoms])
        ws = np.array([w for _, w in atoms])
        assert abs(ws.sum() - 1.0) < 1e-12
        assert ws @ ks >= a - 1e-9
        nus = np.array([uniform_ctx.error_moment(z) for z, _ in atoms])
        achieved = (ws @ nus) / (4.0 * max(ws @ ks, a))
        assert abs(achieved - val) < 1e-12


def test_oracle_witness_pair_structure(uniform_ctx):
    # at alpha=0.9 the optimum is a binding pair: the always-accepted edge
    # atom at (eta-1)*delta plus the chord tangency offset 10/7
    _, atoms = oracle_c2_witness(uniform_ctx, 0.9)
    assert len(atoms) == 2
    locs = np.sort(np.abs([z for z, _ in atoms]))
    np.testing.assert_allclose(locs, [1.0, 10.0 / 7.0], rtol=0, atol=5e-3)


def test_oracle_inner_atoms_redundant(uniform_ctx):
    """Dropping always-accepted offsets below (eta-1)*delta never hurts."""
    full = build_oracle_table(uniform_ctx, 512)
    keep = full.zs >= uniform_ctx.z_lo - 1e-15
    clipped = type(full)(zs=full.zs[keep], accept=full.accept[keep],
                         moment=full.moment[keep])
    for a in (0.3, 0.7, 0.95):
        v_full = sg.oracle_c2(uniform_ctx, a, table=full)
        v_clip = sg.oracle_c2(uniform_ctx, a, table=clipped)
        assert v_clip >= v_full - 1e-9


def test_alpha_times_c_is_concave(uniform_env, rng):
    qs = np.sort(rng.uniform(ALPHA_MIN, 1.0, (100, 3)), axis=1)
    prod = lambda a: 4.0 * a * sg.c_alpha(uniform_env, a)
    t = (qs[:, 1] - qs[:, 0]) / (qs[:, 2] - qs[:, 0])
    interp = (1.0 - t) * prod(qs[:, 0]) + t * prod(qs[:, 2])
    assert np.all(prod(qs[:, 1]) >= interp - 1e-9)


def test_random_mixtures_never_beat_oracle(uniform_ctx, rng):
    """Three-support-point mixtures stay below the two-point oracle optimum."""
    table = build_oracle_table(uniform_ctx, 512)
    zs_all = np.linspace(0.0, uniform_ctx.z_hi, 301)
    ks = uniform_ctx.accept_prob(zs_all)
    nus = uniform_ctx.error_moment(zs_all)
    for a in (0.2, 0.5, 0.8):
        best = sg.oracle_c2(uniform_ctx, a, table=table)
        for _ in range(300):
            idx = rng.integers(0, zs_all.size, 3)
            w = rng.dirichlet(np.ones(3))
            pa = w @ ks[idx]
            if pa < a:
                continue
            # the oracle's own offset grid is ~1e-5 coarse, so allow that much
            val = (w @ nus[idx]) / (4.0 * pa)
            assert val <= best + 1e-4


@pytest.mark.parametrize("noise", [sg.truncated_normal(1.0, 0.5), sg.triangular(1.0)])
def test_oracle_agreement_other_models(noise):
    ctx = sg.KernelContext(2.0, noise)
    env = sg.build_envelope(ctx, 1024)
    for a in (0.3, 0.7, 1.0):
        cf = sg.c_alpha(env, a)
        co = sg.oracle_c2(ctx, a, grid_size=512)
        assert abs(cf - co) <= 5e-3 * max(1.0, cf), (noise.kind, a)
