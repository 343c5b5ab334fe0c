from types import SimpleNamespace

import numpy as np
import pytest

import stackgame as sg
from stackgame.errors import DomainError


@pytest.fixture(scope="module")
def base_cfg(uniform_ctx):
    return sg.GameConfig(ctx=uniform_ctx, n_nodes=2, trials=50_000, seed=123)


def test_replicated_strategy_shape(rng):
    strat = sg.ReplicatedStrategy([-2.0, 2.0], [0.5, 0.5])
    out = strat.sample(rng, 100, 3)
    assert out.shape == (3, 100)
    assert np.all(out == out[0])
    with pytest.raises(DomainError):
        sg.ReplicatedStrategy([1.0, 2.0], [0.7, 0.7])


@pytest.mark.parametrize("locations, weights", [
    ([np.nan, 1.0], [0.5, 0.5]),
    ([-np.inf, 1.0], [0.5, 0.5]),
    ([-1.0, 1.0], [np.nan, 0.5]),
    ([-1.0, 1.0], [np.inf, 0.5]),
])
def test_atom_strategies_reject_non_finite_atoms(locations, weights):
    for strategy in (sg.ReplicatedStrategy, sg.IidStrategy):
        with pytest.raises(DomainError):
            strategy(locations, weights)


def _rng():
    return np.random.Generator(np.random.Philox(key=77))


@pytest.mark.parametrize("weights", [[1.0], [0.3, 0.7], [0.2, 0.5, 0.3], [0.1, 0.2, 0.3, 0.4],
                                     [0.4, 0.1, 0.1, 0.3, 0.1], [1 / 6] * 6, [0.1] * 10])
def test_atom_picks_match_rng_choice(weights):
    """Each strategy picks the atoms rng.choice(K, shape, p=weights) picks, from the
    same draws: the next draw after the pick matches too."""
    k = len(weights)
    locations = np.arange(k, dtype=float)
    replicated, iid = sg.ReplicatedStrategy(locations, weights), sg.IidStrategy(locations, weights)
    for count in (0, 1, 1000):
        for n_adv in (1, 3):
            for strategy, shape in ((replicated, count), (iid, (n_adv, count))):
                ref_rng, rng = _rng(), _rng()
                ref = ref_rng.choice(k, size=shape, p=weights).astype(float)
                got = strategy.sample(rng, count, n_adv)
                assert got.shape == (n_adv, count)
                assert np.array_equal(got, np.broadcast_to(ref, (n_adv, count)))
                assert rng.random() == ref_rng.random()


def test_zero_noise_adversary_mse(base_cfg):
    """A do-nothing adversary always gets accepted; the error is then half the
    honest noise, so the mse is m2/4 = 1/12 for uniform delta=1."""
    strat = sg.ReplicatedStrategy([0.0], [1.0])
    res = sg.run_monte_carlo(base_cfg, strat)
    assert res.accepted_count == res.trials
    assert res.pa_hat == 1.0
    assert abs(res.mse_hat - 1.0 / 12.0) <= 4.0 * res.mse_stderr


def test_chunk_size_changes_stream_but_stays_reproducible(base_cfg):
    # the chunk layout is part of the stream contract: a different chunk size
    # is a different (but itself reproducible) experiment
    strat = sg.ReplicatedStrategy([-2.0, 2.0], [0.5, 0.5])
    alt = sg.GameConfig(ctx=base_cfg.ctx, n_nodes=2, trials=50_000, seed=123, chunk_size=1024)
    res_a = sg.run_monte_carlo(alt, strat)
    assert sg.run_monte_carlo(alt, strat) == res_a
    base = sg.run_monte_carlo(base_cfg, strat)
    assert abs(res_a.pa_hat - base.pa_hat) <= 4.0 * np.hypot(res_a.pa_stderr,
                                                             base.pa_stderr)


def test_monte_carlo_stream_is_pinned(uniform_ctx):
    # the per-chunk draw order (honest noise, then adversary noise) is the
    # stream contract: adding, dropping or reordering a draw moves these
    cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=3, trials=10_000, seed=2024, chunk_size=4096)
    locs, weights = np.array([-1.5, 0.0, 1.5]), [0.25, 0.5, 0.25]
    replicated = sg.ReplicatedStrategy(locs, weights)
    iid = sg.IidStrategy(locs, weights)
    pinned = [(replicated, 8743, 0.3959893641049866), (iid, 7212, 0.4044687968748035)]
    for strategy, accepted, mse in pinned:
        res = sg.run_monte_carlo(cfg, strategy)
        assert (res.accepted_count, res.mse_hat) == (accepted, mse)


def accept(y, eta: float, delta: float) -> bool:
    """Collector's rule: accept when max(y) - min(y) <= eta * delta."""
    return max(y) - min(y) <= eta * delta


def estimate(y) -> float:
    """Midrange estimator: (max(y) + min(y)) / 2."""
    return 0.5 * (max(y) + min(y))


@pytest.mark.parametrize("iid", [False, True])
def test_monte_carlo_matches_a_per_trial_reference(uniform_ctx, iid):
    """Every trial replayed from the same substreams in the same draw order,
    accepted and estimated one report vector at a time in value space. The
    collected values come from a generator of their own: no statistic reads them."""
    locs, weights = np.array([-1.5, 0.0, 1.5]), [0.25, 0.5, 0.25]  # +/-1.5: accepted 3/4
    strategy = (sg.IidStrategy if iid else sg.ReplicatedStrategy)(locs, weights)
    cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=3, trials=2500, seed=31, chunk_size=1000)
    values = np.random.default_rng(8)
    accepted, s2 = 0, 0.0
    for index, start in enumerate(range(0, cfg.trials, cfg.chunk_size)):
        count = min(cfg.chunk_size, cfg.trials - start)
        bitgen = np.random.Philox(key=cfg.seed)
        rng = np.random.Generator(bitgen.jumped(index) if index else bitgen)
        u = values.uniform(-1000.0, 1000.0, count)
        honest = cfg.ctx.noise.sample(rng, count)
        adv = strategy.sample(rng, count, cfg.n_nodes - 1)
        for i in range(count):
            noise = [float(honest[i])] + [float(a) for a in adv[:, i]]
            if accept(noise, cfg.ctx.eta, cfg.ctx.delta):
                accepted += 1
                s2 += (estimate([float(u[i]) + n for n in noise]) - float(u[i])) ** 2
    res = sg.run_monte_carlo(cfg, strategy)
    assert 0 < res.accepted_count < res.trials
    assert res.accepted_count == accepted
    assert abs(res.mse_hat - s2 / accepted) <= 1e-12 * (s2 / accepted)


def test_monte_carlo_matches_kernel_prediction(base_cfg, uniform_ctx, uniform_env):
    adv = sg.build_adversary(uniform_env, 0.9)  # chord regime
    res = sg.run_monte_carlo(base_cfg, sg.ReplicatedStrategy.from_atomic(adv))
    assert abs(res.pa_hat - 0.9) <= 4.0 * res.pa_stderr
    assert abs(res.mse_hat - sg.c_alpha(uniform_env, 0.9)) <= 4.0 * res.mse_stderr


def test_zero_acceptance_flagged(uniform_ctx):
    cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=2, trials=2000, seed=3)
    never = sg.ReplicatedStrategy([50.0], [1.0])  # spread always > eta*delta
    res = sg.run_monte_carlo(cfg, never)
    assert res.accepted_count == 0 and res.pa_hat == 0.0
    assert res.mse_hat is None and res.mse_stderr is None


@pytest.mark.parametrize("shape", [lambda count, n_adv: (2, count),
                                   lambda count, n_adv: (n_adv, count + 1),
                                   lambda count, n_adv: (count,)],
                         ids=["node-count", "trial-count", "one-axis"])
def test_run_monte_carlo_refuses_a_wrong_shaped_draw(uniform_ctx, shape):
    """Any object with sample(rng, count, n_adv) is a strategy; its draw must be (n_adv, count)."""
    strategy = SimpleNamespace(
        sample=lambda r, count, n_adv: r.normal(0.0, 0.1, shape(count, n_adv)))
    cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=2, trials=1000, seed=9)
    with pytest.raises(DomainError, match="shape"):
        sg.run_monte_carlo(cfg, strategy)  # two nodes: each chunk must draw (1, count)
    right = SimpleNamespace(sample=lambda r, count, n_adv: r.normal(0.0, 0.1, (n_adv, count)))
    assert sg.run_monte_carlo(cfg, right).trials == 1000


def test_the_simulator_refuses_a_column_of_etas(uniform_noise):
    """A KernelContext may hold a column of etas for the envelope; a game has one."""
    grid = sg.KernelContext(np.array([[2.0], [3.0]]), uniform_noise)
    with pytest.raises(DomainError, match="eta"):
        sg.GameConfig(ctx=grid, n_nodes=2, trials=1000, seed=1)
    with pytest.raises(DomainError, match="eta"):
        sg.run_scenario_suite(grid, 1000, 2, seed=1)


def test_scenario_suite_exact(uniform_ctx):
    suite = sg.run_scenario_suite(uniform_ctx, 20_000, 3, seed=17)
    assert suite["passed"]
    assert suite["acceptance_mismatches"] == 0
    assert suite["error_bound_violations"] == 0
    assert suite["pair_mismatches"] == 0
    assert 0 < suite["accepted"] < suite["realizations"]


def test_dominance_smoke(uniform_ctx, uniform_env):
    spec = sg.UtilitySpec.from_spec({})
    cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=3, trials=20_000, seed=21)
    aset = sg.best_alpha_set(uniform_env, spec, np.linspace(1e-3, 1.0, 1000))
    opt = sg.ReplicatedStrategy.from_atomic(
        sg.build_adversary(uniform_env, float(aset[0])))
    cands = [
        ("mid", sg.ReplicatedStrategy([-1.5, 1.5], [0.5, 0.5])),
        ("zero", sg.ReplicatedStrategy([0.0], [1.0])),
        ("far", sg.ReplicatedStrategy([-20.0, 20.0], [0.5, 0.5])),  # never accepted
        ("self", opt),  # common random numbers make this an exact tie
    ]
    rep = sg.dominance_check(cfg, spec, cands, opt)
    assert rep.passed
    notes = {e.label: e.note for e in rep.entries}
    assert notes["far"] == "no accepted trials"
    self_entry = next(e for e in rep.entries if e.label == "self")
    assert self_entry.utility == rep.optimum.utility and not self_entry.violation
    d = rep.to_json_dict()
    assert d["passed"] and len(d["candidates"]) == 4


def test_dominance_entries_equal_standalone_runs():
    """The dominance check draws each chunk's common part once; every entry still
    equals a standalone run of its strategy, to the bit."""
    spec = sg.UtilitySpec.from_spec({})
    cfg = sg.GameConfig(ctx=sg.KernelContext(2.0, sg.truncated_normal(1.0, 0.5)), n_nodes=3,
                        trials=7000, seed=5, chunk_size=2000)
    locs, weights = np.array([-1.5, 0.0, 1.5]), [0.25, 0.5, 0.25]
    optimum = sg.ReplicatedStrategy([-1.2, 1.2], [0.5, 0.5])
    candidates = [
        ("replicated", sg.ReplicatedStrategy(locs, weights)),
        ("iid", sg.IidStrategy(locs, weights)),
        ("joint", SimpleNamespace(
            sample=lambda r, count, n_adv: r.normal(0.0, 0.8, (n_adv, count)))),
        ("never", sg.ReplicatedStrategy([50.0], [1.0])),
    ]
    report = sg.dominance_check(cfg, spec, candidates, optimum)
    entries = [report.optimum, *report.entries]
    assert [e.label for e in entries] == ["optimum", "replicated", "iid", "joint", "never"]
    assert entries[-1].note == "no accepted trials" and entries[-1].mse_hat is None
    for entry, strategy in zip(entries, [optimum] + [s for _, s in candidates]):
        res = sg.run_monte_carlo(cfg, strategy)
        assert (entry.pa_hat, entry.mse_hat) == (res.pa_hat, res.mse_hat), entry.label
        if res.mse_hat is not None:
            assert entry.utility == float(spec.adversary.value(res.mse_hat, res.pa_hat))


def test_dominance_refuses_an_optimum_with_no_accepted_trials(uniform_ctx):
    cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=2, trials=2000, seed=3)
    never = sg.ReplicatedStrategy([50.0], [1.0])  # spread always > eta*delta
    candidates = [("zero", sg.ReplicatedStrategy([0.0], [1.0]))]
    with pytest.raises(sg.NumericalError, match="optimum"):
        sg.dominance_check(cfg, sg.UtilitySpec.from_spec({}), candidates, never)


def test_violation_labels_are_the_flagged_entries(uniform_ctx):
    """A candidate that beats the planted optimum by far is flagged, and the report's
    violation labels are read from the entries' flags."""
    spec = sg.UtilitySpec.from_spec({})
    cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=2, trials=20_000, seed=4)
    weak = sg.ReplicatedStrategy([0.0], [1.0])
    candidates = [("strong", sg.ReplicatedStrategy([-2.0, 2.0], [0.5, 0.5])),
                  ("same", weak)]
    report = sg.dominance_check(cfg, spec, candidates, weak)
    assert [e.violation for e in report.entries] == [True, False]
    assert report.violation_labels == ("strong",) and not report.passed
    assert report.to_json_dict()["violations"] == ["strong"]
