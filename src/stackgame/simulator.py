"""Monte Carlo game simulator and the exact scenario-reduction suite.

One honest node draws from the noise model; the other n-1 nodes are the
adversary's. The collector accepts when the report spread is within
eta*delta (inclusive) and estimates by the midrange. Acceptance and the
estimation error depend only on the noise vector (the collected value shifts
every report equally), so statistics are accumulated in noise space where
that identity is exact and independent of the data magnitude.

Trials are split into fixed-size chunks; each chunk draws from its own
counter-based substream (Philox keyed by the seed, jumped by the chunk
index) and partial sums are merged in chunk order, so results are bitwise
reproducible for a given (seed, trials, chunk size). Within a chunk the
draw order is fixed: collected values, honest noise, adversary noise. No
statistic reads the collected values, but they are still drawn first: the
draw is part of the pinned stream, and dropping it would move every noise
draw after it.

The collected values and the honest noise are common to every strategy run
on one config. The dominance check draws them once per chunk, keeps the
honest noise (8 bytes per trial) and the generator state after it, and
replays each strategy's adversary draw from that state, so each of its runs
equals a standalone run of the same strategy to the bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .noise_model import DataModel, HonestNoiseModel
from .strategy import AtomicAdversary

DEFAULT_CHUNK_SIZE = 65536


# --- adversary strategies ----------------------------------------------------

class ReplicatedStrategy:
    """One draw from an atom mixture, copied to every controlled node.

    Any finite atom list is allowed here (including a point mass at zero);
    the strategies constructed from the trade-off optimum restrict offsets to
    the replicated-atom domain, but the simulator itself does not care.
    """

    def __init__(self, locations, weights):
        self.locations = np.asarray(locations, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        if self.locations.ndim != 1 or self.locations.shape != self.weights.shape:
            raise DomainError("locations and weights must be matching 1-d arrays")
        if not (np.all(np.isfinite(self.locations)) and np.all(self.weights > 0)
                and abs(float(np.sum(self.weights)) - 1.0) <= 1e-9):
            raise DomainError("offsets must be finite, weights positive and summing to 1")
        cdf = np.cumsum(self.weights)
        self._cuts = (cdf / cdf[-1])[:-1]

    @classmethod
    def from_atomic(cls, adv: AtomicAdversary) -> "ReplicatedStrategy":
        return cls(*zip(*adv.atoms))

    def _atoms(self, rng: np.random.Generator, shape) -> np.ndarray:
        """The atoms rng.choice(K, shape, p=weights) picks from the same draws, by its own
        rule (normalized-CDF cuts at or below rng.random(shape)), at a quarter of its cost."""
        u = rng.random(shape)
        idx = np.zeros(u.shape, dtype=np.intp)
        for cut in self._cuts:
            idx += u >= cut
        return self.locations[idx]

    def sample(self, rng: np.random.Generator, count: int, n_adv: int) -> np.ndarray:
        return np.broadcast_to(self._atoms(rng, count), (n_adv, count))


class IidStrategy(ReplicatedStrategy):
    """An independent draw from an atom mixture for each controlled node."""

    def sample(self, rng: np.random.Generator, count: int, n_adv: int) -> np.ndarray:
        return self._atoms(rng, (n_adv, count))


class CustomJointStrategy:
    """Arbitrary joint noise sampler for a fixed number of controlled nodes.

    sampler(rng, count, n_adv) -> array (n_adv, count).
    """

    def __init__(self, sampler, n_adv: int):
        if n_adv < 1:
            raise DomainError(f"need at least one controlled node, got {n_adv}")
        self.sampler = sampler
        self.n_adv = int(n_adv)

    def sample(self, rng: np.random.Generator, count: int, n_adv: int) -> np.ndarray:
        if n_adv != self.n_adv:
            raise DomainError(f"strategy is for {self.n_adv} controlled nodes, asked {n_adv}")
        out = np.asarray(self.sampler(rng, count, n_adv), dtype=float)
        if out.shape != (n_adv, count):
            raise DomainError(f"sampler returned shape {out.shape}, expected {(n_adv, count)}")
        return out


# --- the simulation loop ------------------------------------------------------

@dataclass(frozen=True)
class GameConfig:
    n_nodes: int
    eta: float
    data: DataModel
    noise: HonestNoiseModel
    trials: int
    seed: int
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self):
        if self.n_nodes < 2:
            raise DomainError(f"need at least 2 nodes, got {self.n_nodes}")
        if self.eta < 2.0:
            raise DomainError(f"threshold multiple eta must be >= 2, got {self.eta}")
        if self.trials < 1:
            raise DomainError(f"need at least one trial, got {self.trials}")
        if self.chunk_size < 1:
            raise DomainError(f"chunk size must be positive, got {self.chunk_size}")


@dataclass(frozen=True)
class SimulationResult:
    trials: int
    accepted_count: int
    pa_hat: float
    pa_stderr: float
    mse_hat: float | None
    mse_stderr: float | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _common_draws(cfg: GameConfig):
    """Per chunk, in order: its generator, the state after the common draws, the honest noise.

    The common draws, collected values (never read) then honest noise, precede the adversary's.
    """
    for index, offset in enumerate(range(0, cfg.trials, cfg.chunk_size)):
        count = min(cfg.chunk_size, cfg.trials - offset)
        bitgen = np.random.Philox(key=cfg.seed)
        rng = np.random.Generator(bitgen.jumped(index) if index else bitgen)
        cfg.data.sample(rng, count)
        honest = cfg.noise.sample(rng, count)
        yield rng, rng.bit_generator.state, honest


def _chunk_stats(cfg: GameConfig, honest: np.ndarray, adv: np.ndarray):
    nmax = np.maximum(honest, adv.max(axis=0))
    nmin = np.minimum(honest, adv.min(axis=0))
    mask = (nmax - nmin) <= cfg.eta * cfg.noise.delta
    err = 0.5 * (nmax + nmin)[mask]
    e2 = err * err
    return int(np.count_nonzero(mask)), float(np.sum(e2)), float(np.sum(e2 * e2))


def run_monte_carlo(cfg: GameConfig, strategy, common=None) -> SimulationResult:
    """Estimate acceptance probability and conditional MSE for a strategy.

    When no trial is accepted the conditional MSE is reported as absent
    (None) rather than zero. pa_stderr is the binomial standard error;
    mse_stderr is the sample standard error of the squared errors among
    accepted trials. common, which only dominance_check passes, is the list
    of _common_draws(cfg) already drawn; without it each chunk draws its own.
    """
    accepted = 0
    s2 = 0.0
    s4 = 0.0
    for rng, state, honest in _common_draws(cfg) if common is None else common:
        rng.bit_generator.state = state  # replay the adversary's draw from the common state
        adv = strategy.sample(rng, honest.size, cfg.n_nodes - 1)
        acc, p2, p4 = _chunk_stats(cfg, honest, adv)  # merged in chunk order
        accepted += acc
        s2 += p2
        s4 += p4

    pa_hat = accepted / cfg.trials
    pa_stderr = math.sqrt(pa_hat * (1.0 - pa_hat) / cfg.trials)
    if accepted == 0:
        return SimulationResult(cfg.trials, 0, pa_hat, pa_stderr, None, None)
    mse_hat = s2 / accepted
    var_e2 = max(s4 / accepted - mse_hat * mse_hat, 0.0)
    mse_stderr = math.sqrt(var_e2 / accepted)
    return SimulationResult(cfg.trials, accepted, pa_hat, pa_stderr, mse_hat, mse_stderr)


# --- scenario reductions (exact, noise-space) ---------------------------------

def run_scenario_suite(noise: HonestNoiseModel, eta: float, n_realizations: int,
                       n_adv: int, seed: int) -> dict:
    """Vectorized scenario-reduction suite over random valid realizations.

    Adversarial noises are drawn as a common center plus offsets within
    +/- eta*delta/2, which guarantees the pairwise-spread precondition, with
    centers wide enough to exercise both accepted and rejected realizations.
    """
    if n_realizations < 1 or n_adv < 1:
        raise DomainError("need at least one realization and one adversarial node")
    delta = noise.delta
    bound = eta * delta
    rng = np.random.default_rng(seed)
    center = rng.uniform(-(eta + 1.0) * delta, (eta + 1.0) * delta, n_realizations)
    offsets = rng.uniform(-0.5 * bound, 0.5 * bound, (n_adv, n_realizations))
    adv = center + offsets
    honest = noise.sample(rng, n_realizations)

    amax = adv.max(axis=0)
    amin = adv.min(axis=0)
    fmax = np.maximum(honest, amax)
    fmin = np.minimum(honest, amin)
    acc1 = (fmax - fmin) <= bound
    mid1 = 0.5 * (fmax + fmin)

    pick = np.argmax(np.abs(adv), axis=0)
    n_abs = np.take_along_axis(adv, pick[None, :], axis=0)[0]
    rmax = np.maximum(honest, n_abs)
    rmin = np.minimum(honest, n_abs)
    acc2 = (rmax - rmin) <= bound
    mid2 = 0.5 * (rmax + rmin)

    # two-node pair: identical extremes as the reduced scenario, so equality
    # checks below compare independently recomputed values
    pmax = np.where(honest >= n_abs, honest, n_abs)
    pmin = np.where(honest >= n_abs, n_abs, honest)
    acc3 = (pmax - pmin) <= bound
    mid3 = 0.5 * (pmax + pmin)

    acceptance_mismatch = int(np.count_nonzero(acc1 != acc2))
    error_violations = int(np.count_nonzero(acc1 & (np.abs(mid1) > np.abs(mid2))))
    pair_mismatch = int(np.count_nonzero((acc2 != acc3) | (acc2 & (mid2 != mid3))))
    return {
        "realizations": int(n_realizations),
        "adversarial_nodes": int(n_adv),
        "accepted": int(np.count_nonzero(acc1)),
        "acceptance_mismatches": acceptance_mismatch,
        "error_bound_violations": error_violations,
        "pair_mismatches": pair_mismatch,
        "passed": acceptance_mismatch == 0 and error_violations == 0 and pair_mismatch == 0,
    }


# --- dominance ----------------------------------------------------------------

@dataclass(frozen=True)
class DominanceEntry:
    label: str
    pa_hat: float
    mse_hat: float | None
    utility: float | None
    utility_stderr: float | None
    violation: bool
    note: str = ""


@dataclass(frozen=True)
class DominanceReport:
    optimum: DominanceEntry
    entries: tuple
    violation_labels: tuple

    @property
    def passed(self) -> bool:
        return len(self.violation_labels) == 0

    def to_json_dict(self) -> dict:
        return {"passed": self.passed,
                "optimum": asdict(self.optimum),
                "candidates": [asdict(e) for e in self.entries],
                "violations": list(self.violation_labels)}


def _utility_sigma(adv_utility, mse, pa, mse_sd, pa_sd) -> float:
    """First-order error propagation through the utility surface."""
    hm = 1e-6 * max(1.0, abs(mse))
    dm = (adv_utility.value(mse + hm, pa) - adv_utility.value(mse - hm, pa)) / (2 * hm)
    hp = 1e-6
    dp = (adv_utility.value(mse, pa + hp) - adv_utility.value(mse, pa - hp)) / (2 * hp)
    return math.sqrt((dm * mse_sd) ** 2 + (dp * pa_sd) ** 2)


def dominance_check(cfg: GameConfig, spec, candidates, optimum) -> DominanceReport:
    """Monte Carlo test that no candidate beats the optimum's utility.

    All runs share the same seed, so candidate-vs-optimum comparisons use
    common random numbers. The common part of each chunk (collected values,
    honest noise) is drawn once and held, 8 bytes per trial; each strategy
    replays its adversary draw from the generator state saved after it, so
    every entry equals a standalone run_monte_carlo of its strategy. A
    candidate is flagged only when its estimated utility exceeds the
    optimum's by more than 4 combined standard errors. Candidates with no
    accepted trials have undefined utility and cannot be flagged; they are
    recorded with a note.
    """
    common = list(_common_draws(cfg))
    opt_res = run_monte_carlo(cfg, optimum, common)
    if opt_res.mse_hat is None:
        raise NumericalError("optimum strategy produced no accepted trials")
    opt_util = float(spec.adversary.value(opt_res.mse_hat, opt_res.pa_hat))
    opt_sigma = _utility_sigma(spec.adversary, opt_res.mse_hat, opt_res.pa_hat,
                               opt_res.mse_stderr, opt_res.pa_stderr)
    opt_entry = DominanceEntry("optimum", opt_res.pa_hat, opt_res.mse_hat,
                               opt_util, opt_sigma, False)

    entries = []
    violations = []
    for label, strat in candidates:
        res = run_monte_carlo(cfg, strat, common)
        if res.mse_hat is None:
            entries.append(DominanceEntry(label, res.pa_hat, None, None, None,
                                          False, note="no accepted trials"))
            continue
        util = float(spec.adversary.value(res.mse_hat, res.pa_hat))
        sigma = _utility_sigma(spec.adversary, res.mse_hat, res.pa_hat,
                               res.mse_stderr, res.pa_stderr)
        combined = math.sqrt(sigma * sigma + opt_sigma * opt_sigma)
        bad = util > opt_util + 4.0 * combined
        entries.append(DominanceEntry(label, res.pa_hat, res.mse_hat, util, sigma, bad))
        if bad:
            violations.append(label)
    return DominanceReport(opt_entry, tuple(entries), tuple(violations))
