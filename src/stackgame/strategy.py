"""Leader/follower best responses and the optimal atomic adversary.

The adversary observes the threshold multiple eta and the honest noise, then
picks an acceptance level alpha maximizing its utility along the trade-off
curve; the defender picks eta maximizing its own utility against that best
response, with ties broken toward the smaller (stricter) threshold. The
attaining noise distribution is atomic: two symmetric offsets where the
majorant touches the moment curve, four where it rides a chord.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envelope import (DEFAULT_GRID_SIZE, Envelope, build_envelope, chord_line, chord_segments,
                       has_reflex_sample, hull_chords, level_grid, tangent_chords)
from .errors import DomainError, NumericalError
from .kernel import KernelContext
from .tradeoff import c_alpha, check_levels, mixture_accept_prob

TIE_TOL_REL = 1e-9
BLOCK_ETAS = 8  # etas solved together: 4 to 16 run equally fast, 32 or more spill the cache
# utility family -> (its parameter names, all numbers > 0; its value(params, mse, pa))
ADVERSARY_FAMILIES = {
    "weighted_sum": (("a", "b"), lambda p, mse, pa: p["a"] * mse + p["b"] * pa),
    "scaled_product": (("c",), lambda p, mse, pa: pa * (mse + p["c"])),
}
DC_FAMILIES = {
    "linear_penalty": (("gamma",), lambda p, mse, pa: pa - p["gamma"] * mse),
    "exp_penalty": (("s",),
                    lambda p, mse, pa: pa * np.exp(-np.asarray(mse, dtype=float) / p["s"])),
}
DEFAULT_UTILITY = {
    "adversary": {"family": "scaled_product", "params": {"c": 1.0}},
    "dc": {"family": "linear_penalty", "params": {"gamma": 1.0}},
}


@dataclass(frozen=True)
class _Utility:
    """A utility family from a subclass's table, with every named param finite and > 0."""
    family: str
    params: dict

    def __post_init__(self):
        if self.family not in self._families:
            raise DomainError(f"unknown {self._role} utility family {self.family!r}; "
                              f"expected {tuple(self._families)}")
        names = self._families[self.family][0]
        if not all(self.params.get(n) and 0 < self.params[n] < np.inf for n in names):
            need = " and ".join(f"{n} > 0" for n in names)
            raise DomainError(f"{self.family} needs {need}, got {self.params}")

    def value(self, mse, pa):
        return self._families[self.family][1](self.params, mse, pa)


class AdversaryUtility(_Utility):
    """Strictly increasing in both conditional MSE and acceptance probability."""
    _families = ADVERSARY_FAMILIES
    _role = "adversary"


class DCUtility(_Utility):
    """Nonincreasing in conditional MSE, nondecreasing in acceptance probability."""
    _families = DC_FAMILIES
    _role = "defender"


@dataclass(frozen=True)
class UtilitySpec:
    adversary: AdversaryUtility
    dc: DCUtility

    @classmethod
    def from_spec(cls, spec: dict) -> "UtilitySpec":
        def build(role, utility):
            given, default = spec.get(role, {}), DEFAULT_UTILITY[role]
            family = given.get("family", default["family"])
            # the default params belong to the default family only
            params = default["params"] if family == default["family"] else {}
            return utility(family, dict(given.get("params", params)))
        return cls(build("adversary", AdversaryUtility), build("dc", DCUtility))


def _alpha_levels(alpha_grid) -> np.ndarray:
    alphas = np.unique(np.asarray(alpha_grid, dtype=float))
    if alphas.size == 0:
        raise DomainError("alpha grid is empty")
    return alphas


def _best_alphas(spec: UtilitySpec, alphas, cs):
    """Mask of the levels within TIE_TOL_REL (relative) of the best adversary
    utility, and that utility; per row when cs holds one c_alpha row per eta."""
    utils = spec.adversary.value(cs, alphas)
    top = np.max(utils, axis=-1, keepdims=True)
    return utils >= top - TIE_TOL_REL * np.maximum(1.0, np.abs(top)), top


def best_alpha_set(env: Envelope, spec: UtilitySpec, alpha_grid) -> np.ndarray:
    """Acceptance levels maximizing the adversary utility on the grid.

    All grid points within a relative tie tolerance of the maximum are kept,
    so downstream code can see genuinely flat optima.
    """
    alphas = _alpha_levels(alpha_grid)
    return alphas[_best_alphas(spec, alphas, c_alpha(env, alphas))[0]]


@dataclass(frozen=True)
class EquilibriumReport:
    eta_star: float
    best_alpha_sets: dict
    dc_guaranteed_utility: dict
    adversary_utility_at_eq: float
    equilibrium_mse: float
    equilibrium_pa: float
    eta_on_grid_boundary: bool
    envelope: Envelope = field(repr=False)  # the envelope at eta_star

    def to_json_dict(self) -> dict:
        etas = sorted(self.best_alpha_sets)
        return {
            "eta_star": self.eta_star,
            "equilibrium": {"mse": self.equilibrium_mse, "pa": self.equilibrium_pa},
            "adversary_utility_at_eq": self.adversary_utility_at_eq,
            "eta_on_grid_boundary": self.eta_on_grid_boundary,
            "per_eta": [
                {
                    "eta": e,
                    "dc_guaranteed_utility": self.dc_guaranteed_utility[e],
                    "best_alphas": [float(a) for a in self.best_alpha_sets[e]],
                }
                for e in etas
            ],
        }


def solve_equilibrium(ctxs, spec: UtilitySpec, alpha_grid,
                      grid_size: int = DEFAULT_GRID_SIZE) -> EquilibriumReport:
    """Leader optimization over a threshold grid against best-responding noise.

    For each context the adversary's best acceptance set is computed; the
    defender is credited with the worst utility over that set, and the
    threshold with the best guarantee wins. Exact ties go to the smaller eta.

    The contexts share one noise model (a DomainError if they do not). Their
    etas are solved in blocks of BLOCK_ETAS, a constant that keeps the arrays
    in cache: a context with a column of etas samples their curves at the
    levels and at the alphas, each row to the bit. A row with no reflex
    sample is its own hull, with no chord, so its c_alpha is the curve over
    4 alpha. A row with a reflex sample may have chords, which the curve
    misses: its hull's chords are kept as sample indices (hull_chords), with
    its curve row at the alphas, and after the last block the exact
    tangencies of every such chord are solved in one batch (tangent_chords,
    the same solve build_envelope makes for one eta), and the chord line
    replaces the curve on the alphas inside a chord (chord_line, as
    Envelope.evaluate applies it).
    """
    ctxs = sorted(ctxs, key=lambda c: c.eta)
    if not ctxs:
        raise DomainError("need at least one kernel context")
    alphas = check_levels(_alpha_levels(alpha_grid))
    noise = ctxs[0].noise
    if any(c.noise is not noise for c in ctxs):
        raise DomainError("kernel contexts must share one noise model")
    qs = level_grid(grid_size)

    # per context: guarantee, alpha and c_alpha where it is attained, top utility, best alphas
    found = [None] * len(ctxs)

    def settle(indices, cs):
        keep, top = _best_alphas(spec, alphas, cs)
        dc_vals = np.where(keep, spec.dc.value(cs, alphas), np.inf)
        worst = np.argmin(dc_vals, axis=1)
        for i, k in enumerate(indices):
            found[k] = (float(dc_vals[i, worst[i]]), alphas[worst[i]], cs[i, worst[i]],
                        top[i, 0], alphas[keep[i]])

    reflex_rows = []  # (index, moment row at the alphas, chords as sample-index pairs)
    for start in range(0, len(ctxs), BLOCK_ETAS):
        block = range(start, min(start + BLOCK_ETAS, len(ctxs)))
        block_ctx = KernelContext(np.array([[ctxs[k].eta] for k in block]), noise)
        rows = block_ctx.moment_at_level(qs)
        moments = block_ctx.moment_at_level(alphas)
        reflex = has_reflex_sample(qs, rows)
        for i in np.flatnonzero(reflex).tolist():
            reflex_rows.append((block[i], moments[i].copy(), hull_chords(qs, rows[i])[0]))
        settle([k for k, r in zip(block, reflex.tolist()) if not r],
               moments[~reflex] / (4.0 * alphas))
    if reflex_rows:
        indices, curves, sampled = zip(*reflex_rows)
        counts = [e.shape[0] for e in sampled]
        exact = tangent_chords(KernelContext(np.repeat([ctxs[k].eta for k in indices], counts),
                                             noise), qs, np.concatenate(sampled))
        for k, row, chords in zip(indices, curves, np.split(exact, np.cumsum(counts)[:-1])):
            chord_line(chords.ravel(), ctxs[k].moment_at_level, alphas, row)
        settle(indices, np.array(curves) / (4.0 * alphas))

    k_star = int(np.argmax([f[0] for f in found]))  # the first eta with the best guarantee
    _, alpha_eq, mse_eq, adv_util, _ = found[k_star]
    ctx_star = ctxs[k_star]
    return EquilibriumReport(
        eta_star=float(ctx_star.eta),
        best_alpha_sets={ctx.eta: f[4] for ctx, f in zip(ctxs, found)},
        dc_guaranteed_utility={ctx.eta: f[0] for ctx, f in zip(ctxs, found)},
        adversary_utility_at_eq=float(adv_util),
        equilibrium_mse=float(mse_eq),
        equilibrium_pa=float(alpha_eq),
        eta_on_grid_boundary=ctx_star.eta in (ctxs[0].eta, ctxs[-1].eta),
        envelope=build_envelope(ctx_star, grid_size),
    )


# --- the attaining adversary -------------------------------------------------

@dataclass(frozen=True)
class AtomicAdversary:
    """Symmetric atomic noise distribution attaining the trade-off curve."""
    atoms: tuple  # ((offset, weight), ...) sorted by offset
    alpha: float
    eta: float
    delta: float

    def __post_init__(self):
        if len(self.atoms) not in (2, 4):
            raise DomainError(f"expected 2 or 4 atoms, got {len(self.atoms)}")
        weights = np.array([w for _, w in self.atoms], dtype=float)
        locs = np.array([z for z, _ in self.atoms], dtype=float)
        if not (np.all(np.isfinite(locs)) and np.all(weights > 0.0)):
            raise DomainError("atom offsets must be finite and weights positive")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise DomainError(f"atom weights sum to {np.sum(weights)}, expected 1")
        slack = 1e-9 * self.delta
        lo = (self.eta - 1.0) * self.delta
        hi = (self.eta + 1.0) * self.delta
        if np.any(np.abs(locs) < lo - slack) or np.any(np.abs(locs) > hi + slack):
            raise DomainError("atom offsets must lie in the replicated-atom domain")
        # mirror symmetry: each (+z, w) pairs with (-z, w)
        key = sorted(zip(np.abs(locs).tolist(), weights.tolist()))
        for (z1, w1), (z2, w2) in zip(key[::2], key[1::2]):
            if abs(z1 - z2) > 1e-9 * max(1.0, self.delta) or abs(w1 - w2) > 1e-12:
                raise DomainError("atoms must be symmetric in offset and weight")

    def locations(self) -> np.ndarray:
        return np.array([z for z, _ in self.atoms], dtype=float)

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=float)

    def to_json_dict(self) -> dict:
        return {
            "eta": self.eta,
            "delta": self.delta,
            "alpha": self.alpha,
            "atoms": [{"z": z, "weight": w} for z, w in self.atoms],
        }


def build_adversary(env: Envelope, ctx: KernelContext, alpha: float) -> AtomicAdversary:
    """Atoms attaining c(alpha): two on a touch, four on a chord.

    Touch at alpha: offsets +/- z1 with z1 = accept_prob_inv(alpha), weights
    1/2 each. Chord [q1, q2] containing alpha: offsets +/- accept_prob_inv(q1)
    and +/- accept_prob_inv(q2) with weights (q2-alpha)/(2(q2-q1)) and
    (alpha-q1)/(2(q2-q1)), which make the achieved acceptance exactly alpha.
    """
    alpha = float(check_levels(alpha))
    if env.is_touch(alpha)[0]:
        z1 = float(ctx.accept_prob_inv(alpha))
        atoms = ((-z1, 0.5), (z1, 0.5))
    else:
        i = int(chord_segments(env.chord_ends, np.array([alpha]))[0][0])
        q1, q2 = env.chord_ends[i:i + 2].tolist()
        z1 = float(ctx.accept_prob_inv(q1))
        z2 = float(ctx.accept_prob_inv(q2))
        b1 = (q2 - alpha) / (2.0 * (q2 - q1))
        b2 = (alpha - q1) / (2.0 * (q2 - q1))
        pairs = sorted([(-z1, b1), (-z2, b2), (z2, b2), (z1, b1)])
        atoms = tuple(pairs)
    adv = AtomicAdversary(atoms=atoms, alpha=alpha, eta=ctx.eta, delta=ctx.delta)
    achieved = mixture_accept_prob(ctx, adv.atoms)
    if abs(achieved - alpha) > 1e-8:
        raise NumericalError(
            f"constructed atoms achieve acceptance {achieved}, wanted {alpha}")
    return adv
