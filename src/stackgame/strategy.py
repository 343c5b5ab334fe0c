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

from .envelope import Envelope, Touch, build_envelope
from .errors import DomainError, NumericalError
from .kernel import KernelContext
from .tradeoff import c_alpha

TIE_TOL_REL = 1e-9
# utility family -> its parameter names, all numbers
ADVERSARY_FAMILIES = {"weighted_sum": ("a", "b"), "scaled_product": ("c",)}
DC_FAMILIES = {"linear_penalty": ("gamma",), "exp_penalty": ("s",)}


@dataclass(frozen=True)
class AdversaryUtility:
    """Strictly increasing in both conditional MSE and acceptance probability.

    weighted_sum:   a * mse + b * pa          (a > 0, b > 0)
    scaled_product: pa * (mse + c)            (c > 0)
    """
    family: str
    params: dict

    def __post_init__(self):
        if self.family == "weighted_sum":
            a, b = self.params.get("a"), self.params.get("b")
            if not (a and b and a > 0 and b > 0):
                raise DomainError(f"weighted_sum needs a > 0 and b > 0, got {self.params}")
        elif self.family == "scaled_product":
            c = self.params.get("c")
            if not (c and c > 0):
                raise DomainError(f"scaled_product needs c > 0, got {self.params}")
        else:
            raise DomainError(f"unknown adversary utility family {self.family!r}; "
                              f"expected {tuple(ADVERSARY_FAMILIES)}")

    def value(self, mse, pa):
        if self.family == "weighted_sum":
            return self.params["a"] * mse + self.params["b"] * pa
        return pa * (mse + self.params["c"])


@dataclass(frozen=True)
class DCUtility:
    """Nonincreasing in conditional MSE, nondecreasing in acceptance probability.

    linear_penalty: pa - gamma * mse          (gamma > 0)
    exp_penalty:    pa * exp(-mse / s)        (s > 0)
    """
    family: str
    params: dict

    def __post_init__(self):
        if self.family == "linear_penalty":
            gamma = self.params.get("gamma")
            if not (gamma and gamma > 0):
                raise DomainError(f"linear_penalty needs gamma > 0, got {self.params}")
        elif self.family == "exp_penalty":
            s = self.params.get("s")
            if not (s and s > 0):
                raise DomainError(f"exp_penalty needs s > 0, got {self.params}")
        else:
            raise DomainError(f"unknown defender utility family {self.family!r}; "
                              f"expected {tuple(DC_FAMILIES)}")

    def value(self, mse, pa):
        if self.family == "linear_penalty":
            return pa - self.params["gamma"] * mse
        return pa * np.exp(-np.asarray(mse, dtype=float) / self.params["s"])


@dataclass(frozen=True)
class UtilitySpec:
    adversary: AdversaryUtility
    dc: DCUtility

    @classmethod
    def from_spec(cls, spec: dict) -> "UtilitySpec":
        adv = spec.get("adversary", {})
        dc = spec.get("dc", {})
        return cls(AdversaryUtility(adv.get("family", "scaled_product"),
                                    dict(adv.get("params", {"c": 1.0}))),
                   DCUtility(dc.get("family", "linear_penalty"),
                             dict(dc.get("params", {"gamma": 1.0}))))

    def monotonicity_violations(self, m_max: float, n_pairs: int = 10_000,
                                step: float = 1e-3, strict_tol: float = 1e-12,
                                seed: int = 7) -> list[str]:
        """Probe the monotonicity contract on random (mse, pa) pairs.

        The adversary utility must strictly increase in each argument; the
        defender utility must be nonincreasing in MSE and nondecreasing in
        acceptance. Returns human-readable violation messages (empty = ok).
        """
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.0, m_max, n_pairs)
        p = rng.uniform(0.0, 1.0 - step, n_pairs)
        out = []
        adv = self.adversary.value
        if np.min(adv(m + step, p) - adv(m, p)) <= strict_tol:
            out.append("adversary utility not strictly increasing in MSE")
        if np.min(adv(m, p + step) - adv(m, p)) <= strict_tol:
            out.append("adversary utility not strictly increasing in acceptance")
        dcv = self.dc.value
        if np.max(dcv(m + step, p) - dcv(m, p)) > 0.0:
            out.append("defender utility increases in MSE")
        if np.min(dcv(m, p + step) - dcv(m, p)) < 0.0:
            out.append("defender utility decreases in acceptance")
        return out


def best_alpha_set(env: Envelope, spec: UtilitySpec, alpha_grid,
                   tie_tol: float = TIE_TOL_REL) -> np.ndarray:
    """Acceptance levels maximizing the adversary utility on the grid.

    All grid points within a relative tie tolerance of the maximum are kept,
    so downstream code can see genuinely flat optima.
    """
    alphas = np.unique(np.asarray(alpha_grid, dtype=float))
    if alphas.size == 0:
        raise DomainError("alpha grid is empty")
    utils = spec.adversary.value(c_alpha(env, alphas), alphas)
    top = float(np.max(utils))
    keep = utils >= top - tie_tol * max(1.0, abs(top))
    return alphas[keep]


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

    @property
    def equilibrium_pair(self) -> tuple[float, float]:
        return (self.equilibrium_mse, self.equilibrium_pa)

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
                      grid_size: int | None = None,
                      tie_tol: float = TIE_TOL_REL) -> EquilibriumReport:
    """Leader optimization over a threshold grid against best-responding noise.

    For each context the adversary's best acceptance set is computed; the
    defender is credited with the worst utility over that set, and the
    threshold with the best guarantee wins. Exact ties go to the smaller eta,
    which is also why iteration runs in ascending eta order.
    """
    ctxs = sorted(ctxs, key=lambda c: c.eta)
    if not ctxs:
        raise DomainError("need at least one kernel context")
    alphas = np.unique(np.asarray(alpha_grid, dtype=float))

    best_sets: dict = {}
    guarantees: dict = {}
    best = None  # (guarantee, eta, env, alpha_set)
    for ctx in ctxs:
        env = build_envelope(ctx) if grid_size is None else build_envelope(ctx, grid_size)
        aset = best_alpha_set(env, spec, alphas, tie_tol)
        dc_vals = np.asarray(spec.dc.value(c_alpha(env, aset), aset), dtype=float)
        guarantee = float(np.min(dc_vals))
        best_sets[ctx.eta] = aset
        guarantees[ctx.eta] = guarantee
        if best is None or guarantee > best[0]:
            best = (guarantee, ctx.eta, env, aset)

    _, eta_star, env_star, aset_star = best
    dc_star = np.asarray(spec.dc.value(c_alpha(env_star, aset_star), aset_star), dtype=float)
    alpha_eq = float(aset_star[int(np.argmin(dc_star))])
    mse_eq = c_alpha(env_star, alpha_eq)
    adv_util = float(np.max(spec.adversary.value(c_alpha(env_star, aset_star), aset_star)))
    etas = [c.eta for c in ctxs]
    on_boundary = eta_star in (min(etas), max(etas))

    return EquilibriumReport(
        eta_star=float(eta_star),
        best_alpha_sets=best_sets,
        dc_guaranteed_utility=guarantees,
        adversary_utility_at_eq=adv_util,
        equilibrium_mse=float(mse_eq),
        equilibrium_pa=alpha_eq,
        eta_on_grid_boundary=bool(on_boundary),
        envelope=env_star,
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
        if np.any(weights <= 0.0):
            raise DomainError("atom weights must be positive")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise DomainError(f"atom weights sum to {np.sum(weights)}, expected 1")
        slack = 1e-9 * self.delta
        lo = (self.eta - 1.0) * self.delta
        hi = (self.eta + 1.0) * self.delta
        if np.any(np.abs(locs) < lo - slack) or np.any(np.abs(locs) > hi + slack):
            raise DomainError("atom offsets must lie in the replicated-atom domain")
        # mirror symmetry: each (+z, w) pairs with (-z, w)
        key = sorted(zip(np.round(np.abs(locs), 12), weights))
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
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise DomainError("acceptance level must lie in (0, 1]")
    sc = env.supporting_chord(alpha)
    if isinstance(sc, Touch):
        z1 = float(ctx.accept_prob_inv(alpha))
        atoms = ((-z1, 0.5), (z1, 0.5))
    else:
        q1, q2 = sc.q1, sc.q2
        z1 = float(ctx.accept_prob_inv(q1))
        z2 = float(ctx.accept_prob_inv(q2))
        b1 = (q2 - alpha) / (2.0 * (q2 - q1))
        b2 = (alpha - q1) / (2.0 * (q2 - q1))
        pairs = sorted([(-z1, b1), (-z2, b2), (z2, b2), (z1, b1)])
        atoms = tuple(pairs)
    adv = AtomicAdversary(atoms=atoms, alpha=alpha, eta=ctx.eta, delta=ctx.delta)
    achieved = float(sum(w * ctx.accept_prob(min(max(abs(z), ctx.z_lo), ctx.z_hi))
                         for z, w in adv.atoms))
    if abs(achieved - alpha) > 1e-8:
        raise NumericalError(
            f"constructed atoms achieve acceptance {achieved}, wanted {alpha}")
    return adv
