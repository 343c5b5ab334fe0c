"""Maximum conditional MSE at a given acceptance level, two ways.

The formula path divides the concave-envelope value by 4*alpha. The oracle
path ignores the formula entirely: it brute-forces the best atomic noise
distribution on a dense offset grid, subject to achieved acceptance >= alpha.
For mixtures the objective is a ratio of two weight-linear forms, so on any
two-atom segment it is monotone in the mixing weight and the optimum sits at
a vertex (single atom) or at the weight where the acceptance constraint
binds. Singles plus binding pairs therefore cover the search space; a random
three-atom probe in the tests spot-checks this reduction. The pair search runs
in blocks of rows, filled in place into two (ORACLE_BLOCK, grid) buffers
allocated once per call, and returns the same first maximum as one search
over every pair would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import Envelope
from .errors import DomainError
from .kernel import KernelContext
from .numerics import adaptive_simpson

ALPHA_MIN = 1e-3  # lowest reported level: below it the conditional MSE means little
DEFAULT_ORACLE_GRID = 2048
MIN_ORACLE_GRID = 64
ORACLE_BLOCK = 64  # hi rows per block of the pair search: two 64 x grid buffers
QUAD_TOL = 1e-10  # absolute tolerance of the oracle table's quadrature, scaled by delta^k


def check_levels(alpha) -> np.ndarray:
    """alpha as an array of acceptance levels, each in (0, 1]."""
    arr = np.asarray(alpha, dtype=float)
    if np.any((arr <= 0.0) | (arr > 1.0)) or not np.all(np.isfinite(arr)):
        raise DomainError("acceptance level must lie in (0, 1]")
    return arr


def c_alpha(env: Envelope, alpha):
    """Worst-case conditional MSE at acceptance level alpha: envelope/(4 alpha)."""
    arr = check_levels(alpha)
    out = env.evaluate(arr) / (4.0 * arr)
    return float(out) if np.ndim(alpha) == 0 else out


def zero_limit(env: Envelope) -> float:
    """Limit of c_alpha as alpha -> 0: right slope of the majorant at 0, over 4.

    That is the slope of a chord starting at 0, and otherwise the curve's own
    slope h'(0+).
    """
    ends = env.chord_ends[:2]
    if ends[:1].tolist() != [0.0]:
        return float(env.ctx.slope_at_level(0.0) / 4.0)
    v0, v1 = env.ctx.moment_at_level(ends)
    return float((v1 - v0) / (ends[1] - ends[0]) / 4.0)


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
    moments come from quadrature of the density over its whole support, M_k to
    the absolute tolerance QUAD_TOL * max(1, delta)^k, the scale of x^k there.
    """
    if grid_size < MIN_ORACLE_GRID:
        raise DomainError(f"oracle grid too small: {grid_size}")
    zs = np.sort(np.append(np.linspace(0.0, ctx.z_hi, grid_size), ctx.z_lo))
    zs = zs[np.append(True, zs[1:] != zs[:-1])]  # np.unique, without numpy.ma
    moment = np.empty_like(zs)
    inner = zs < ctx.z_lo  # never empty: zs starts at 0
    # expand (x+z)^2 once: full-support partial moments do not depend on z
    lo, hi = ctx.noise.support
    pdf = ctx.noise.pdf_scalar
    scale = max(1.0, ctx.delta)
    m0, m1, m2 = (adaptive_simpson(lambda x: x ** k * pdf(x), lo, 0.0, QUAD_TOL * scale ** k)
                  + adaptive_simpson(lambda x: x ** k * pdf(x), 0.0, hi, QUAD_TOL * scale ** k)
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
    zs_hi, k_hi, nu_hi = zs[hi_mask], k[hi_mask], nu[hi_mask]
    zs_lo, k_lo, nu_lo = zs[lo_mask], k[lo_mask], nu[lo_mask]
    # pairs need an atom on each side of alpha. A block's maximum replaces the
    # best only when strictly greater: the first maximum in row order, as one
    # argmax over the whole matrix picks
    gap = alpha - k_lo
    w_buf = np.empty((min(ORACLE_BLOCK, k_hi.size), k_lo.size))
    num_buf = np.empty_like(w_buf)
    for start in range(0, k_hi.size if k_lo.size else 0, ORACLE_BLOCK):
        rows = slice(start, start + ORACLE_BLOCK)
        w, num = w_buf[:k_hi.size - start], num_buf[:k_hi.size - start]
        np.subtract(k_hi[rows, None], k_lo, out=w)
        np.divide(gap, w, out=w)  # the hi atom's weight, in (0, 1) by construction
        np.subtract(1.0, w, out=num)
        num *= nu_lo
        w *= nu_hi[rows, None]
        num += w  # (1 - w) nu_lo + w nu_hi: addition commutes, so these are its bits
        num /= 4.0 * alpha
        flat = int(np.argmax(num))
        val = float(num.flat[flat])
        if val > best:
            best = val
            i, j = np.unravel_index(flat, num.shape)
            w_ij = float(gap[j] / (k_hi[start + i] - k_lo[j]))
            witness = ((float(zs_hi[start + i]), w_ij), (float(zs_lo[j]), 1.0 - w_ij))

    if witness is None:
        raise DomainError(f"no feasible atom reaches acceptance {alpha}")
    return best, witness

