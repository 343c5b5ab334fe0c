"""Independent oracles the tests check the package against: direct quadrature of
the kernel and a scalar bisection. The package itself never calls them."""

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
