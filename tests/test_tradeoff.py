import tracemalloc

import numpy as np
import pytest

import stackgame as sg
from stackgame.errors import DomainError
from stackgame.tradeoff import (ALPHA_MIN, MIN_ORACLE_GRID, ORACLE_BLOCK, OracleTable,
                                build_oracle_table, check_levels, oracle_c2_witness)


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


# --- the row-blocked pair search against one search over every pair ---------

def reference_oracle_c2_witness(ctx, alpha, grid_size=2048, table=None):
    """oracle_c2_witness over the whole hi x lo pair matrix at once."""
    alpha = float(check_levels(alpha))
    if table is None:
        table = build_oracle_table(ctx, grid_size)
    zs, k, nu = table.zs, table.accept, table.moment

    best = -np.inf
    witness = None

    feasible = k >= alpha - 1e-12
    if np.any(feasible):
        ratios = nu[feasible] / (4.0 * k[feasible])
        i = int(np.argmax(ratios))
        best = float(ratios[i])
        zi = float(zs[feasible][i])
        witness = ((zi, 1.0),)

    hi_mask = k > alpha
    lo_mask = k < alpha
    if np.any(hi_mask) and np.any(lo_mask):
        k_hi = k[hi_mask][:, None]
        k_lo = k[lo_mask][None, :]
        w = (alpha - k_lo) / (k_hi - k_lo)  # in (0, 1) by construction
        num = w * nu[hi_mask][:, None] + (1.0 - w) * nu[lo_mask][None, :]
        ratios = num / (4.0 * alpha)
        flat = int(np.argmax(ratios))
        val = float(ratios.flat[flat])
        if val > best:
            best = val
            i, j = np.unravel_index(flat, ratios.shape)
            w_ij = float(w[i, j])
            witness = ((float(zs[hi_mask][i]), w_ij),
                       (float(zs[lo_mask][j]), 1.0 - w_ij))

    if witness is None:
        raise DomainError(f"no feasible atom reaches acceptance {alpha}")
    return best, witness


ORACLE_NOISES = {
    "uniform": sg.uniform(1.0),
    "triangular": sg.triangular(1.0),
    "truncated-normal-0.5": sg.truncated_normal(1.0, 0.5),
    "truncated-normal-3": sg.truncated_normal(1.0, 3.0),
}


@pytest.mark.parametrize("grid", [512, 2048])
@pytest.mark.parametrize("eta", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("kind", list(ORACLE_NOISES))
def test_blocked_oracle_matches_the_whole_matrix(kind, eta, grid):
    # ~grid hi rows: several blocks of ORACLE_BLOCK, and a partial last one
    ctx = sg.KernelContext(eta, ORACLE_NOISES[kind])
    table = build_oracle_table(ctx, grid)
    for a in np.linspace(ALPHA_MIN, 1.0, 42):
        assert oracle_c2_witness(ctx, a, table=table) == \
            reference_oracle_c2_witness(ctx, a, table=table), (kind, eta, grid, a)


def test_blocked_oracle_keeps_the_first_maximum_across_blocks(uniform_ctx):
    # acceptances 1, 0.99, ... above alpha = 0.25, then 0.2 and 0 below it; the
    # moments make rows 1 and 2 * ORACLE_BLOCK + 3 tie for the best pair
    n_hi = 3 * ORACLE_BLOCK + 5
    k_hi = 1.0 - 0.001 * np.arange(n_hi)
    nu_hi = np.full(n_hi, 0.5)
    nu_hi[[1, 2 * ORACLE_BLOCK + 3]] = 9.0
    k_hi[2 * ORACLE_BLOCK + 3] = k_hi[1]  # same weight, so the same ratio to the bit
    table = OracleTable(zs=np.arange(n_hi + 2, dtype=float),
                        accept=np.append(k_hi, [0.2, 0.0]),
                        moment=np.append(nu_hi, [0.1, 1.0]))
    got = oracle_c2_witness(uniform_ctx, 0.25, table=table)
    assert got == reference_oracle_c2_witness(uniform_ctx, 0.25, table=table)
    assert [z for z, _ in got[1]] == [1.0, n_hi + 1.0]  # the first tied row, then k = 0


def _oracle_peak_bytes(ctx, grid):
    table = build_oracle_table(ctx, grid)
    tracemalloc.start()
    try:
        for a in (0.1, 0.5, 0.9):
            oracle_c2_witness(ctx, a, table=table)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_is_linear_in_the_grid(uniform_ctx):
    # one matrix over every pair peaked at 31 MiB at grid 2048 and 4x that at 4096,
    # and fresh temporaries per block of 64 rows at 3.7 MiB
    small, large = (_oracle_peak_bytes(uniform_ctx, grid) for grid in (2048, 4096))
    assert small < 2 * 2 ** 20
    assert large < 3 * small
