"""Monte Carlo game simulator and the exact scenario-reduction suite.

One honest node draws from the noise model; the other n-1 nodes are the
adversary's. The collector accepts when the report spread is within
eta*delta (inclusive) and estimates by the midrange. Every report carries the
same collected value, which shifts every report equally, so acceptance and
the estimation error depend only on the noise vector: the game is played in
noise space, on the kernel's context (eta and the honest noise).

Trials are split into chunks of _CHUNK; each chunk draws from its own
counter-based substream (Philox keyed by the seed, jumped by the chunk
index) and partial sums are merged in chunk order, so results are bitwise
reproducible for a given seed and trial count. Within a chunk the draw
order is fixed: honest noise, then one (rows, count) uniform draw.

The collector reads the adversary's n-1 noises only through their lowest
and highest, so a strategy maps its rows of the chunk's uniforms to those
two extremes. Row 0 holds the values of rng.random(count), and the first k
rows those of rng.random((k, count)). So strategies run together read one
draw, of the most rows any of them reads: the dominance check draws each
chunk once for the optimum and every candidate, and each of its runs equals
a standalone run to the bit. The scenario suite reads its streams in blocks
of _CHUNK realizations, so memory never grows with trials or realizations.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .kernel import KernelContext
from .strategy import AtomicAdversary

_CHUNK = 8192  # trials per random substream, and realizations per scenario-suite block


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

    def _atoms(self, u: np.ndarray) -> np.ndarray:
        """The atoms rng.choice(K, u.shape, p=weights) picks from the draws u = rng.random(shape),
        by its own rule (normalized-CDF cuts at or below u), at a quarter of its cost."""
        idx = np.zeros(u.shape, dtype=np.intp)
        for cut in self._cuts:
            idx += u >= cut
        return self.locations[idx]

    def rows(self, n_adv: int) -> int:
        return 1

    def extremes(self, u: np.ndarray):
        z = self._atoms(u[0])
        return z, z


class IidStrategy(ReplicatedStrategy):
    """An independent draw from an atom mixture for each controlled node."""

    def rows(self, n_adv: int) -> int:
        return n_adv

    def extremes(self, u: np.ndarray):
        z = self._atoms(u)
        return z.min(axis=0), z.max(axis=0)


# --- the simulation loop ------------------------------------------------------

def _check_one_game(ctx: KernelContext) -> None:
    """The simulator plays one game: a context with a column of etas is refused."""
    if np.ndim(ctx.eta) != 0:
        raise DomainError(f"the simulator needs one threshold multiple eta, got {ctx.eta}")


@dataclass(frozen=True)
class GameConfig:
    """The kernel's game (eta and the honest noise) among n_nodes, and its Monte Carlo budget."""
    ctx: KernelContext
    n_nodes: int
    trials: int
    seed: int

    def __post_init__(self):
        _check_one_game(self.ctx)
        if self.n_nodes < 2:
            raise DomainError(f"need at least 2 nodes, got {self.n_nodes}")
        if self.trials < 1:
            raise DomainError(f"need at least one trial, got {self.trials}")


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


def _result(trials: int, accepted: int, s2: float, s4: float) -> SimulationResult:
    pa_hat = accepted / trials
    pa_stderr = math.sqrt(pa_hat * (1.0 - pa_hat) / trials)
    if accepted == 0:
        return SimulationResult(trials, 0, pa_hat, pa_stderr, None, None)
    mse_hat = s2 / accepted
    var_e2 = max(s4 / accepted - mse_hat * mse_hat, 0.0)
    mse_stderr = math.sqrt(var_e2 / accepted)
    return SimulationResult(trials, accepted, pa_hat, pa_stderr, mse_hat, mse_stderr)


def _chunk_stats(strategy, u: np.ndarray, honest: np.ndarray, bound: float):
    """A strategy's (accepted, s2, s4) over one chunk, from its rows u of the chunk's uniforms."""
    lo, hi = strategy.extremes(u)
    if np.shape(lo) != honest.shape or np.shape(hi) != honest.shape:
        raise DomainError(f"strategy gave extremes of shapes {np.shape(lo)} and "
                          f"{np.shape(hi)}, expected {honest.shape}")
    nmax = np.maximum(honest, hi)
    nmin = np.minimum(honest, lo)
    mask = nmax - nmin <= bound
    nmax += nmin  # twice the midrange
    err = nmax.compress(mask)  # in place from here: the midrange, then its square and fourth power
    err *= 0.5
    err *= err
    s2 = float(err.sum())
    err *= err
    return err.size, s2, float(err.sum())


def _run_strategies(cfg: GameConfig, strategies) -> list:
    """Each strategy's [accepted, s2, s4], the strategies run together on one draw per chunk.

    A strategy reads the first rows(n_adv) rows of the draw, the values a run
    of it alone draws, and its sums are merged in chunk order, so each equals
    a run of that strategy alone to the bit.
    """
    rows = [strategy.rows(cfg.n_nodes - 1) for strategy in strategies]
    depth = max(rows)
    uniforms = np.empty(depth * min(_CHUNK, cfg.trials))  # reused by every chunk
    bound = cfg.ctx.eta * cfg.ctx.delta
    sums = [[0, 0.0, 0.0] for _ in strategies]
    for index, start in enumerate(range(0, cfg.trials, _CHUNK)):
        count = min(_CHUNK, cfg.trials - start)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(index))
        honest = cfg.ctx.noise.sample(rng, count)
        u = rng.random(out=uniforms[:depth * count].reshape(depth, count))
        for strategy, r, acc in zip(strategies, rows, sums):
            for k, part in enumerate(_chunk_stats(strategy, u[:r], honest, bound)):
                acc[k] += part
    return sums


def run_monte_carlo(cfg: GameConfig, strategy) -> SimulationResult:
    """Estimate acceptance probability and conditional MSE for a strategy.

    strategy is any object with two methods: rows(n_adv), how many rows of a
    chunk's uniforms it reads, and extremes(u), which maps u[:rows] to the
    n_adv controlled nodes' lowest and highest noise in each trial of the
    chunk. Extremes of another shape raise DomainError. When no trial is
    accepted the conditional MSE is reported as absent (None) rather than
    zero. pa_stderr is the binomial standard error; mse_stderr is the sample
    standard error of the squared errors among accepted trials. Memory holds
    one chunk, whatever the trials.
    """
    return _result(cfg.trials, *_run_strategies(cfg, [strategy])[0])


# --- scenario reductions (exact, noise-space) ---------------------------------

def run_scenario_suite(ctx: KernelContext, n_realizations: int, n_adv: int,
                       seed: int) -> dict:
    """Scenario-reduction suite over random valid realizations, in blocks.

    Adversarial noises are drawn as a common center plus offsets within
    +/- eta*delta/2, which guarantees the pairwise-spread precondition, with
    centers wide enough to exercise both accepted and rejected realizations.
    default_rng(seed) would draw the centers, then each node's offsets, then
    the honest noise, R = n_realizations doubles each. Here each of those
    n_adv + 2 streams has its own generator, PCG64(seed) advanced by k*R
    doubles, read block by block; uniform and random take one 64-bit output
    per double, so every block of _CHUNK realizations gets the values of the
    whole arrays, and only the four counts are kept.
    """
    _check_one_game(ctx)
    if n_realizations < 1 or n_adv < 1:
        raise DomainError("need at least one realization and one adversarial node")
    bound = ctx.eta * ctx.delta
    center_rng, *offset_rngs, honest_rng = (
        np.random.Generator(np.random.PCG64(seed).advance(k * n_realizations))
        for k in range(n_adv + 2))

    accepted = acceptance_mismatch = error_violations = pair_mismatch = 0
    for start in range(0, n_realizations, _CHUNK):
        count = min(_CHUNK, n_realizations - start)
        center = center_rng.uniform(-ctx.z_hi, ctx.z_hi, count)
        block = np.array([r.uniform(-0.5 * bound, 0.5 * bound, count) for r in offset_rngs])
        block += center  # center + offsets, in the offsets' buffer
        honest = ctx.noise.sample(honest_rng, count)

        fmax = np.maximum(honest, block.max(axis=0))
        fmin = np.minimum(honest, block.min(axis=0))
        acc1 = (fmax - fmin) <= bound
        mid1 = 0.5 * (fmax + fmin)

        pick = np.argmax(np.abs(block), axis=0)
        n_abs = np.take_along_axis(block, pick[None, :], axis=0)[0]
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

        accepted += int(np.count_nonzero(acc1))
        acceptance_mismatch += int(np.count_nonzero(acc1 != acc2))
        error_violations += int(np.count_nonzero(acc1 & (np.abs(mid1) > np.abs(mid2))))
        pair_mismatch += int(np.count_nonzero((acc2 != acc3) | (acc2 & (mid2 != mid3))))
    return {
        "realizations": int(n_realizations),
        "adversarial_nodes": int(n_adv),
        "accepted": accepted,
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

    @property
    def violation_labels(self) -> tuple:
        return tuple(e.label for e in self.entries if e.violation)

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
    common random numbers. The optimum and every candidate run together,
    chunk by chunk, on one draw per chunk: its honest noise, then the rows of
    uniforms the most demanding strategy reads. Each strategy reads its own
    first rows, so every entry equals a standalone run_monte_carlo of its
    strategy, and memory holds one chunk whatever the trials. A candidate is
    flagged only when its estimated utility exceeds the optimum's by more
    than 4 combined standard errors. Candidates with no accepted trials have
    undefined utility and cannot be flagged; they are recorded with a note.
    An optimum with none raises NumericalError, once every strategy has run.
    """
    labels, strategies = zip(("optimum", optimum), *candidates)
    scored = []  # the optimum's entry, then each candidate's
    for label, sums in zip(labels, _run_strategies(cfg, strategies)):
        res = _result(cfg.trials, *sums)
        if res.mse_hat is None:
            if not scored:
                raise NumericalError("optimum strategy produced no accepted trials")
            scored.append(DominanceEntry(label, res.pa_hat, None, None, None,
                                         False, note="no accepted trials"))
            continue
        util = float(spec.adversary.value(res.mse_hat, res.pa_hat))
        sigma = _utility_sigma(spec.adversary, res.mse_hat, res.pa_hat,
                               res.mse_stderr, res.pa_stderr)
        opt = scored[0] if scored else None
        bad = opt is not None and util > opt.utility + 4.0 * math.sqrt(
            sigma * sigma + opt.utility_stderr * opt.utility_stderr)
        scored.append(DominanceEntry(label, res.pa_hat, res.mse_hat, util, sigma, bad))
    return DominanceReport(scored[0], tuple(scored[1:]))
