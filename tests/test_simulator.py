import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import stackgame as sg
from stackgame import simulator
from stackgame.errors import DomainError

from oracles import chunk_stats_whole, scenario_suite_full


@pytest.fixture(scope="module")
def base_cfg(uniform_ctx):
    return sg.GameConfig(ctx=uniform_ctx, n_nodes=2, trials=50_000, seed=123)


def test_replicated_strategy_shape(rng):
    """One row of uniforms, one atom per trial: both extremes are that atom."""
    strat = sg.ReplicatedStrategy([-2.0, 2.0], [0.5, 0.5])
    assert strat.rows(3) == 1
    lo, hi = strat.extremes(rng.random((1, 100)))
    assert lo.shape == (100,)
    assert np.array_equal(lo, hi) and set(lo) == {-2.0, 2.0}
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


_C = simulator._CHUNK  # trials per chunk


def _rng():
    return np.random.Generator(np.random.Philox(key=77))


def _chunk_rng(cfg, index: int):
    """The generator of chunk index: Philox keyed by the seed, jumped by the index."""
    bitgen = np.random.Philox(key=cfg.seed)
    return np.random.Generator(bitgen.jumped(index) if index else bitgen)


@pytest.mark.parametrize("weights", [[1.0], [0.3, 0.7], [0.2, 0.5, 0.3], [0.1, 0.2, 0.3, 0.4],
                                     [0.4, 0.1, 0.1, 0.3, 0.1], [1 / 6] * 6, [0.1] * 10])
def test_atom_picks_match_rng_choice(weights):
    """Each strategy's extremes are those of the atoms rng.choice(K, shape, p=weights)
    picks from the same draws: the next draw after the pick matches too."""
    k = len(weights)
    locations = np.arange(k, dtype=float)
    replicated, iid = sg.ReplicatedStrategy(locations, weights), sg.IidStrategy(locations, weights)
    for count in (0, 1, 1000):
        for n_adv in (1, 3):
            for strategy, rows in ((replicated, 1), (iid, n_adv)):
                assert strategy.rows(n_adv) == rows
                ref_rng, rng = _rng(), _rng()
                picks = ref_rng.choice(k, size=(rows, count), p=weights).astype(float)
                lo, hi = strategy.extremes(rng.random((rows, count)))
                assert np.array_equal(lo, picks.min(axis=0))
                assert np.array_equal(hi, picks.max(axis=0))
                assert rng.random() == ref_rng.random()


def test_zero_noise_adversary_mse(base_cfg):
    """A do-nothing adversary always gets accepted; the error is then half the
    honest noise, so the mse is m2/4 = 1/12 for uniform delta=1."""
    strat = sg.ReplicatedStrategy([0.0], [1.0])
    res = sg.run_monte_carlo(base_cfg, strat)
    assert res.accepted_count == res.trials
    assert res.pa_hat == 1.0
    assert abs(res.mse_hat - 1.0 / 12.0) <= 4.0 * res.mse_stderr


def test_monte_carlo_stream_is_pinned(uniform_ctx):
    # the per-chunk draw order (honest noise, then the adversary's uniforms) and the
    # chunk size are the stream contract: changing either moves these. Re-recorded when
    # chunks went from 65536 trials to 8192, so these 10 000 trials span two substreams
    cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=3, trials=10_000, seed=2024)
    locs, weights = np.array([-1.5, 0.0, 1.5]), [0.25, 0.5, 0.25]
    replicated = sg.ReplicatedStrategy(locs, weights)
    iid = sg.IidStrategy(locs, weights)
    pinned = [(replicated, 8756, 0.3951375363188887), (iid, 7209, 0.3981674127801912)]
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
    """Every trial replayed from the same substreams in the same draw order, each
    node's atom picked from the chunk's uniforms by rng.choice's cut rule in plain
    Python, and accepted and estimated one report vector at a time in value space.
    The collected values come from a generator of their own: no statistic reads them."""
    locs, weights = [-1.5, 0.0, 1.5], [0.25, 0.5, 0.25]  # +/-1.5: accepted 3/4
    strategy = (sg.IidStrategy if iid else sg.ReplicatedStrategy)(locs, weights)
    cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=3, trials=2 * _C + 1000, seed=31)
    n_adv = cfg.n_nodes - 1
    cuts = [sum(weights[:j + 1]) / sum(weights) for j in range(len(weights))]

    def atom(x: float) -> float:  # the first atom whose normalized CDF exceeds x
        return locs[sum(1 for cut in cuts if cut <= x)]

    values = np.random.default_rng(8)
    accepted, s2 = 0, 0.0
    for index, start in enumerate(range(0, cfg.trials, _C)):
        count = min(_C, cfg.trials - start)
        rng = _chunk_rng(cfg, index)
        u = values.uniform(-1000.0, 1000.0, count)
        honest = cfg.ctx.noise.sample(rng, count)
        draws = rng.random((n_adv if iid else 1, count))
        for i in range(count):
            adv = [atom(float(draws[j if iid else 0, i])) for j in range(n_adv)]
            noise = [float(honest[i])] + adv
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


def _scaled(u):
    return 0.2 * u - 0.1


@pytest.mark.parametrize("extremes", [lambda u: (_scaled(np.vstack([u, u])),) * 2,
                                      lambda u: (_scaled(np.append(u[0], 0.5)),) * 2,
                                      lambda u: (_scaled(u[:1]),) * 2],
                         ids=["node-count", "trial-count", "one-axis"])
def test_run_monte_carlo_refuses_a_wrong_shaped_draw(uniform_ctx, extremes):
    """Any object with rows(n_adv) and extremes(u) is a strategy; its extremes must each be
    one value per trial of the block: not one per node, nor one trial too many, nor a
    (1, block) row with a second axis."""
    cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=2, trials=1000, seed=9)
    strategy = SimpleNamespace(rows=lambda n_adv: n_adv, extremes=extremes)
    with pytest.raises(DomainError, match="shape"):
        sg.run_monte_carlo(cfg, strategy)
    right = SimpleNamespace(rows=lambda n_adv: n_adv, extremes=lambda u: (_scaled(u[0]),) * 2)
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


_XS = np.linspace(-1.0, 1.0, 9)
_SUITE_NOISES = {
    "uniform": sg.uniform(1.0),
    "truncated-normal-0.5": sg.truncated_normal(1.0, 0.5),
    "tabulated": sg.tabulated(_XS, 1.0 - 0.6 * np.abs(_XS)),
}


@pytest.mark.parametrize("realizations", [1, _C - 1, _C, _C + 1, 3 * _C + 5])
@pytest.mark.parametrize("n_adv", [1, 4, 7])
@pytest.mark.parametrize("kind", list(_SUITE_NOISES))
def test_scenario_suite_blocks_match_the_whole_arrays(kind, n_adv, realizations):
    """Blocks that end short, exactly at, or just past a block edge give the whole-array counts."""
    ctx = sg.KernelContext(2.0, _SUITE_NOISES[kind])
    assert (sg.run_scenario_suite(ctx, realizations, n_adv, seed=5)
            == scenario_suite_full(ctx, realizations, n_adv, seed=5))


def test_scenario_suite_memory_is_bounded(uniform_ctx):
    """Every stream is read per block: the whole offsets alone would be 3.2 MB here."""
    tracemalloc.start()
    try:
        sg.run_scenario_suite(uniform_ctx, 100_000, 4, seed=31337)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


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
                        trials=2 * _C + 1000, seed=5)
    locs, weights = np.array([-1.5, 0.0, 1.5]), [0.25, 0.5, 0.25]
    optimum = sg.ReplicatedStrategy([-1.2, 1.2], [0.5, 0.5])
    candidates = [
        ("replicated", sg.ReplicatedStrategy(locs, weights)),
        ("iid", sg.IidStrategy(locs, weights)),
        ("joint", SimpleNamespace(  # every node uniform on [-0.8, 0.8], not atomic
            rows=lambda n_adv: n_adv,
            extremes=lambda u: (1.6 * u.min(axis=0) - 0.8, 1.6 * u.max(axis=0) - 0.8))),
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


def _dominance_peak_bytes(ctx, trials, n_nodes=3):
    spec = sg.UtilitySpec.from_spec({})
    cfg = sg.GameConfig(ctx=ctx, n_nodes=n_nodes, trials=trials, seed=8)
    candidates = [("replicated", sg.ReplicatedStrategy([-1.5, 0.0, 1.5], [0.25, 0.5, 0.25])),
                  ("iid", sg.IidStrategy([-1.5, 1.5], [0.5, 0.5]))]
    _chunk_rng(cfg, 1)  # numpy.random imports lazily, about 0.7 MiB: not in the trace
    tracemalloc.start()
    try:
        sg.dominance_check(cfg, spec, candidates, sg.ReplicatedStrategy([-1.2, 1.2], [0.5, 0.5]))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dominance_memory_does_not_grow_with_the_trials(uniform_ctx):
    """The strategies run chunk by chunk, so four chunks of trials peak as one does;
    holding every chunk's honest draw would add 8 bytes per trial."""
    one, four = (_dominance_peak_bytes(uniform_ctx, k * _C) for k in (1, 4))
    assert four - one < 0.25 * 2**20


def test_dominance_memory_is_one_array_of_uniforms(uniform_ctx):
    """At five nodes a chunk's uniforms are 4 rows of 64 KiB, drawn once for every strategy.
    With 65536-trial chunks, whose extremes were formed 8192 trials at a time, this peaked
    at 3.76 MiB; drawing every strategy's whole-chunk (4, 65536) node values, and reducing
    them over the nodes, peaked at 7.0 MiB."""
    peak = _dominance_peak_bytes(uniform_ctx, 2 * _C, n_nodes=5)
    assert peak < 1 * 2**20


def _sums_whole(cfg, locations, weights, iid):
    """run_monte_carlo's (accepted, s2, s4) from the whole-chunk statistics: each chunk's
    atoms picked by rng.choice after the honest draw, then reduced over the nodes."""
    locations, n_adv = np.asarray(locations), cfg.n_nodes - 1
    sums = [0, 0.0, 0.0]
    for index, start in enumerate(range(0, cfg.trials, _C)):
        count = min(_C, cfg.trials - start)
        rng = _chunk_rng(cfg, index)
        honest = cfg.ctx.noise.sample(rng, count)
        picks = rng.choice(len(locations), size=(n_adv if iid else 1, count), p=weights)
        adv = np.broadcast_to(locations[picks], (n_adv, count))
        for k, part in enumerate(chunk_stats_whole(cfg.ctx, honest, adv)):
            sums[k] += part
    return sums


@pytest.mark.parametrize("trials", [_C - 1, _C, _C + 1, 3 * _C + 5])
@pytest.mark.parametrize("n_nodes", [2, 5])
def test_blocked_stats_match_the_whole_chunk(uniform_ctx, n_nodes, trials):
    """Trials that end short of, at, or just past a chunk edge, and a last chunk shorter
    than the rest, give the whole-chunk sums to the bit; the replicated and iid
    strategies run together, so the replicated one reads row 0 of a deeper draw."""
    locs, weights = [-1.5, 0.0, 1.5], [0.25, 0.5, 0.25]
    cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=n_nodes, trials=trials, seed=41)
    strategies = [sg.ReplicatedStrategy(locs, weights), sg.IidStrategy(locs, weights)]
    assert simulator._run_strategies(cfg, strategies) == [
        _sums_whole(cfg, locs, weights, iid) for iid in (False, True)]


@pytest.mark.parametrize("iid, rows", [(False, 1), (True, 3)])
def test_a_chunk_draws_honest_noise_then_its_rows_of_uniforms(uniform_ctx, monkeypatch, iid,
                                                               rows):
    """The stream contract: one chunk draws count honest uniforms, then rows x count
    uniforms, and nothing else; a twin generator that skips as many is in the same place."""
    model = type(uniform_ctx.noise)
    sample, seen = model.sample, []

    def spy(self, rng, count):
        seen.append(rng)
        return sample(self, rng, count)

    monkeypatch.setattr(model, "sample", spy)
    count = 5000
    cfg = sg.GameConfig(ctx=uniform_ctx, n_nodes=4, trials=count, seed=12)
    strategy = (sg.IidStrategy if iid else sg.ReplicatedStrategy)([-1.0, 1.0], [0.5, 0.5])
    sg.run_monte_carlo(cfg, strategy)
    (rng,) = seen
    twin = _chunk_rng(cfg, 0)
    twin.random(count + rows * count)
    assert rng.random(8).tolist() == twin.random(8).tolist()


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
