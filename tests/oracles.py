"""Independent oracles the tests check the package against: direct quadrature of
the kernel, a scalar bisection, and the scenario suite and the Monte Carlo
chunk statistics on whole arrays. The package itself never calls them."""

import numpy as np

from stackgame.errors import DomainError, NumericalError
from stackgame.numerics import adaptive_simpson
from stackgame.tradeoff import QUAD_TOL

# fp slack when checking offsets against the closed domain
_EDGE_SLACK = 1e-9


def check_z(ctx, z: float) -> None:
    """The quadrature oracles' input check: z on [(eta-1)*delta, (eta+1)*delta]."""
    lo, hi = ctx.z_lo, ctx.z_hi
    slack = _EDGE_SLACK * ctx.delta
    if z < lo - slack or z > hi + slack:
        raise DomainError(f"offset outside [{lo}, {hi}] for eta={ctx.eta}, delta={ctx.delta}")


def accept_prob_quad(ctx, z: float) -> float:
    """accept_prob by adaptive Simpson on the density itself."""
    check_z(ctx, z)
    return adaptive_simpson(ctx.noise.pdf_scalar, z - ctx.eta * ctx.delta, ctx.delta, QUAD_TOL)


def error_moment_quad(ctx, z: float) -> float:
    """error_moment by adaptive Simpson on (x+z)^2 f(x)."""
    check_z(ctx, z)
    pdf = ctx.noise.pdf_scalar
    return adaptive_simpson(lambda x: (x + z) ** 2 * pdf(x),
                            z - ctx.eta * ctx.delta, ctx.delta, QUAD_TOL)


def bisect_scalar(f, lo: float, hi: float, *, xtol: float = 1e-12,
                  max_iter: int = 200) -> float:
    """Root of a monotone f on [lo, hi] by bisection.

    Requires f(lo) and f(hi) to bracket zero (either orientation).
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NumericalError(
            f"bisection bracket does not straddle a root: f({lo})={flo}, f({hi})={fhi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo = mid
            flo = fmid
    return 0.5 * (lo + hi)


def scenario_suite_full(ctx, n_realizations: int, n_adv: int, seed: int) -> dict:
    """run_scenario_suite's counts from whole (n_adv, R) and R-length arrays:
    the same draws in the same order, with no blocks."""
    bound = ctx.eta * ctx.delta
    rng = np.random.default_rng(seed)
    center = rng.uniform(-ctx.z_hi, ctx.z_hi, n_realizations)
    offsets = rng.uniform(-0.5 * bound, 0.5 * bound, (n_adv, n_realizations))
    adv = center + offsets
    honest = ctx.noise.sample(rng, n_realizations)

    fmax = np.maximum(honest, adv.max(axis=0))
    fmin = np.minimum(honest, adv.min(axis=0))
    acc1 = (fmax - fmin) <= bound
    mid1 = 0.5 * (fmax + fmin)

    pick = np.argmax(np.abs(adv), axis=0)
    n_abs = np.take_along_axis(adv, pick[None, :], axis=0)[0]
    rmax = np.maximum(honest, n_abs)
    rmin = np.minimum(honest, n_abs)
    acc2 = (rmax - rmin) <= bound
    mid2 = 0.5 * (rmax + rmin)

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


def chunk_stats_whole(ctx, honest, adv) -> tuple:
    """One chunk's (accepted, s2, s4) from the whole (n_adv, count) array of adversarial
    noises: every node's noise held at once and reduced over the nodes, with no blocks."""
    nmax = adv.max(axis=0)
    np.maximum(honest, nmax, out=nmax)
    nmin = adv.min(axis=0)
    np.minimum(honest, nmin, out=nmin)
    mask = (nmax - nmin) <= ctx.eta * ctx.delta
    nmax += nmin  # in place from here: the midrange, then its square and fourth power
    err = nmax[mask]
    err *= 0.5
    err *= err
    s2 = float(np.sum(err))
    err *= err
    return int(np.count_nonzero(mask)), s2, float(np.sum(err))
