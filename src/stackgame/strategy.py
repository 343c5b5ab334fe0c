"""Leader/follower best responses and the optimal atomic adversary.

The adversary observes the threshold multiple eta and the honest noise, then
picks an acceptance level alpha maximizing its utility along the trade-off
curve; the defender picks eta maximizing its own utility against that best
response, with ties broken toward the smaller (stricter) threshold. Every
eta's envelope comes from envelope.build_envelopes; this module holds only
the game. The attaining noise distribution is atomic: two symmetric offsets
where the majorant touches the moment curve, four where it rides a chord.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envelope import DEFAULT_GRID_SIZE, Envelope, build_envelopes, chord_segments, majorant_rows
from .errors import DomainError
from .kernel import KernelContext
from .tradeoff import c_alpha, check_levels

TIE_TOL_REL = 1e-9
ACCEPT_TOL = 1e-8  # how close an AtomicAdversary's acceptance must come to its alpha
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
            # the given params merge over the default ones, which belong to the default family only
            params = default["params"] if family == default["family"] else {}
            return utility(family, {**params, **given.get("params", {})})
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

    The defender is credited with its worst utility over the adversary's best
    acceptance set at each eta; the best guarantee wins, exact ties going to the
    smaller eta. The contexts share one noise model (a DomainError if not).
    """
    ctxs = sorted(ctxs, key=lambda c: c.eta)
    alphas = check_levels(_alpha_levels(alpha_grid))
    envs = build_envelopes(ctxs, grid_size)
    # per eta: guarantee, alpha and c_alpha where it is attained, top utility, best alphas
    found = []
    for rows in majorant_rows(envs, alphas):
        cs = rows / (4.0 * alphas)
        keep, top = _best_alphas(spec, alphas, cs)
        dc_vals = np.where(keep, spec.dc.value(cs, alphas), np.inf)
        for i, worst in enumerate(np.argmin(dc_vals, axis=1)):
            found.append((float(dc_vals[i, worst]), alphas[worst], cs[i, worst], top[i, 0],
                          alphas[keep[i]]))

    k_star = int(np.argmax([f[0] for f in found]))  # the first eta with the best guarantee
    _, alpha_eq, mse_eq, adv_util, _ = found[k_star]
    eta_star = ctxs[k_star].eta
    return EquilibriumReport(
        eta_star=float(eta_star),
        best_alpha_sets={ctx.eta: f[4] for ctx, f in zip(ctxs, found)},
        dc_guaranteed_utility={ctx.eta: f[0] for ctx, f in zip(ctxs, found)},
        adversary_utility_at_eq=float(adv_util),
        equilibrium_mse=float(mse_eq),
        equilibrium_pa=float(alpha_eq),
        eta_on_grid_boundary=eta_star in (ctxs[0].eta, ctxs[-1].eta),
        envelope=envs[k_star],
    )


# --- the attaining adversary -------------------------------------------------

@dataclass(frozen=True)
class AtomicAdversary:
    """Symmetric atomic noise distribution achieving acceptance alpha in ctx's game.

    Constructing one is the one check of an adversary: 2 or 4 atoms, finite
    offsets with |z| in [ctx.z_lo, ctx.z_hi], positive weights summing to 1,
    mirror symmetry in offset and weight, and acceptance within ACCEPT_TOL of alpha.
    """
    atoms: tuple  # ((offset, weight), ...) sorted by offset
    alpha: float
    ctx: KernelContext

    def __post_init__(self):
        if len(self.atoms) not in (2, 4):
            raise DomainError(f"expected 2 or 4 atoms, got {len(self.atoms)}")
        weights = np.array([w for _, w in self.atoms], dtype=float)
        locs = np.array([z for z, _ in self.atoms], dtype=float)
        if not (np.all(np.isfinite(locs)) and np.all(weights > 0.0)):
            raise DomainError("atom offsets must be finite and weights positive")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise DomainError(f"atom weights sum to {np.sum(weights)}, expected 1")
        ctx, slack = self.ctx, 1e-9 * self.ctx.delta
        if np.any(np.abs(locs) < ctx.z_lo - slack) or np.any(np.abs(locs) > ctx.z_hi + slack):
            raise DomainError(f"|atom offsets| must lie in [{ctx.z_lo}, {ctx.z_hi}]")
        # mirror symmetry: each (+z, w) pairs with (-z, w)
        key = sorted(zip(np.abs(locs).tolist(), weights.tolist()))
        for (z1, w1), (z2, w2) in zip(key[::2], key[1::2]):
            if abs(z1 - z2) > slack or abs(w1 - w2) > 1e-12:
                raise DomainError("atoms must be symmetric in offset and weight")
        if not abs(self.achieved_pa - self.alpha) <= ACCEPT_TOL:
            raise DomainError(f"the atoms achieve acceptance {self.achieved_pa} at eta "
                              f"{ctx.eta}, not alpha {self.alpha}")

    @property
    def achieved_pa(self) -> float:
        """Acceptance probability of the atoms replicated across the nodes."""
        return float(sum(w * self.ctx.accept_prob(z) for z, w in self.atoms))

    def to_json_dict(self) -> dict:
        return {
            "eta": self.ctx.eta,
            "delta": self.ctx.delta,
            "alpha": self.alpha,
            "atoms": [{"z": z, "weight": w} for z, w in self.atoms],
        }


def build_adversary(env: Envelope, alpha: float) -> AtomicAdversary:
    """Atoms attaining c(alpha) on env's kernel context: two on a touch, four on a chord.

    Touch at alpha: offsets +/- z1 with z1 = accept_prob_inv(alpha), weights
    1/2 each. Chord [q1, q2] containing alpha: offsets +/- accept_prob_inv(q1)
    and +/- accept_prob_inv(q2) with weights (q2-alpha)/(2(q2-q1)) and
    (alpha-q1)/(2(q2-q1)), which make the achieved acceptance exactly alpha.
    """
    alpha = float(check_levels(alpha))
    ctx = env.ctx
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
    return AtomicAdversary(atoms=atoms, alpha=alpha, ctx=ctx)
