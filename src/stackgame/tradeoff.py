"""Maximum conditional MSE at a given acceptance level, two ways.

The formula path divides the concave-envelope value by 4*alpha. The oracle
path ignores the formula entirely: it brute-forces the best atomic noise
distribution on a dense offset grid, subject to achieved acceptance >= alpha.
For mixtures the objective is a ratio of two weight-linear forms, so on any
two-atom segment it is monotone in the mixing weight and the optimum sits at
a vertex (single atom) or at the weight where the acceptance constraint
binds. Singles plus binding pairs therefore cover the search space; a random
three-atom probe in the tests spot-checks this reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import Envelope, chord_line
from .errors import DomainError
from .kernel import QUAD_TOL, KernelContext
from .numerics import adaptive_simpson

ALPHA_MIN = 1e-3  # lowest reported level: below it the conditional MSE means little
DEFAULT_ORACLE_GRID = 2048
MIN_ORACLE_GRID = 64


def check_levels(alpha) -> np.ndarray:
    """alpha as an array of acceptance levels, each in (0, 1]."""
    arr = np.asarray(alpha, dtype=float)
    if np.any((arr <= 0.0) | (arr > 1.0)) or not np.all(np.isfinite(arr)):
        raise DomainError("acceptance level must lie in (0, 1]")
    return arr


def c_alpha(env: Envelope, alpha):
    """Worst-case conditional MSE at acceptance level alpha: envelope/(4 alpha).

    The majorant is the exact curve, with the chord line in place of it strictly
    inside each chord (chord_line), not the piecewise-linear hull, which would
    sit O(grid step^2) low on strictly concave stretches.
    """
    arr = check_levels(alpha)
    flat = np.atleast_1d(arr)
    vals = np.array(env.curve_value(flat), dtype=float)
    chord_line(env.chord_ends, env.curve_value, flat, vals)
    out = vals.reshape(arr.shape) / (4.0 * arr)
    return float(out) if np.ndim(alpha) == 0 else out


def zero_limit(env: Envelope) -> float:
    """Limit of c_alpha as alpha -> 0: right slope of the majorant at 0, over 4.

    That is the slope of a chord starting at 0, and otherwise the curve's own
    slope h'(0+) when the curve is known; raw samples give their first hull
    segment's slope.
    """
    if env.ctx is not None and env.chord_ends[:1].tolist() != [env.breakpoint_qs[0]]:
        return float(env.ctx.slope_at_level(0.0) / 4.0)
    q0, q1 = env.breakpoint_qs[0], env.breakpoint_qs[1]
    v0, v1 = env.breakpoint_vals[0], env.breakpoint_vals[1]
    return float((v1 - v0) / (q1 - q0) / 4.0)


def mixture_accept_prob(ctx: KernelContext, atoms) -> float:
    """Acceptance probability of replicated atoms ((z, weight), ...) at any offsets."""
    return float(sum(w * ctx.accept_prob(z) for z, w in atoms))


@dataclass(frozen=True)
class OracleTable:
    """Tabulated atom functionals on an offset grid over [0, (eta+1)*delta]."""
    zs: np.ndarray
    accept: np.ndarray
    moment: np.ndarray


def build_oracle_table(ctx: KernelContext, grid_size: int = DEFAULT_ORACLE_GRID) -> OracleTable:
    """Evaluate the atom functionals on a dense offset grid.

    The grid is uniform over [0, (eta+1)*delta] with (eta-1)*delta appended so
    the boundary between always-accepted and partially-accepted offsets is
    represented exactly (it carries the full-acceptance optimum). Below it the
    moments come from quadrature of the density over its whole support.
    """
    if grid_size < MIN_ORACLE_GRID:
        raise DomainError(f"oracle grid too small: {grid_size}")
    zs = np.unique(np.append(np.linspace(0.0, ctx.z_hi, grid_size), ctx.z_lo))
    moment = np.empty_like(zs)
    inner = zs < ctx.z_lo  # never empty: zs starts at 0
    # expand (x+z)^2 once: full-support partial moments do not depend on z
    lo, hi = ctx.noise.support
    pdf = ctx.noise.pdf_scalar
    m0, m1, m2 = (adaptive_simpson(lambda x: x ** k * pdf(x), lo, 0.0, QUAD_TOL)
                  + adaptive_simpson(lambda x: x ** k * pdf(x), 0.0, hi, QUAD_TOL)
                  for k in range(3))
    zi = zs[inner]
    moment[inner] = m2 + 2.0 * zi * m1 + zi * zi * m0
    moment[~inner] = ctx.error_moment(zs[~inner])
    return OracleTable(zs=zs, accept=ctx.accept_prob(zs), moment=moment)


def oracle_c2(ctx: KernelContext, alpha: float,
              grid_size: int = DEFAULT_ORACLE_GRID,
              table: OracleTable | None = None) -> float:
    """Brute-force worst conditional MSE with acceptance >= alpha (two nodes)."""
    value, _ = oracle_c2_witness(ctx, alpha, grid_size=grid_size, table=table)
    return value


def oracle_c2_witness(ctx: KernelContext, alpha: float,
                      grid_size: int = DEFAULT_ORACLE_GRID,
                      table: OracleTable | None = None):
    """oracle_c2 plus the attaining atoms as ((z, weight), ...)."""
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

