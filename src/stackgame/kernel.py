"""Acceptance kernel of a replicated atom against the honest noise.

An adversary that replicates a single offset z across its nodes is accepted
exactly when the honest noise lands within eta*delta of it. This defines:

  accept_prob(z)   -- probability of acceptance, 1 - F(|z| - eta*delta)
  error_moment(z)  -- integral of (x + z)^2 f(x) over the accepting x;
                      note (x + z)/2 is the midrange estimation error, so
                      error_moment(z)/4 is the unnormalized conditional MSE
  moment_at_level(q) -- error_moment at the offset whose acceptance is q
  slope_at_level(q)  -- its derivative in q

moment_at_level is the curve whose least concave majorant drives the whole
trade-off analysis downstream; its slope places the majorant's chords. All
are closed forms of the noise model: its density, CDF, inverse CDF and
partial moments, which clamp outside its support, so they hold at every
offset: always accepted below (eta-1)*delta, never beyond (eta+1)*delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .noise_model import HonestNoiseModel
from .numerics import adaptive_simpson

# fp slack when checking offsets against the closed domain
_EDGE_SLACK = 1e-9
# absolute tolerance of every adaptive_simpson quadrature of the noise density
QUAD_TOL = 1e-10


@dataclass(frozen=True)
class KernelContext:
    """A (threshold multiple, honest noise) pair.

    eta may also be a column of etas: each method then broadcasts it against
    its argument, and each row is that eta's own result to the bit.
    """
    eta: float
    noise: HonestNoiseModel

    def __post_init__(self):
        if not (np.all(np.isfinite(self.eta)) and np.all(np.asarray(self.eta) >= 2.0)):
            raise DomainError(f"threshold multiple eta must be >= 2, got {self.eta}")

    @property
    def delta(self) -> float:
        return self.noise.delta

    @property
    def z_lo(self) -> float:
        return (self.eta - 1.0) * self.delta

    @property
    def z_hi(self) -> float:
        return (self.eta + 1.0) * self.delta

    def _check_z(self, z) -> None:
        """The quadrature oracles' input check: z on [(eta-1)*delta, (eta+1)*delta]."""
        arr = np.asarray(z, dtype=float)
        lo, hi = self.z_lo, self.z_hi
        slack = _EDGE_SLACK * self.delta
        if np.any(arr < lo - slack) or np.any(arr > hi + slack):
            raise DomainError(
                f"offset outside [{lo}, {hi}] for eta={self.eta}, delta={self.delta}")

    # --- forward kernel ----------------------------------------------------

    def accept_prob(self, z):
        """P(honest noise >= |z| - eta*delta) = 1 - F(|z| - eta*delta): the noise is symmetric."""
        arr = np.abs(np.asarray(z, dtype=float))
        out = 1.0 - self.noise.cdf(arr - self.eta * self.delta)
        return float(out) if np.ndim(z) == 0 else np.asarray(out)

    def error_moment(self, z):
        """integral of (x+|z|)^2 f(x) over x in [L, delta], L = |z| - eta*delta.

        Expanding the square gives z^2 M0(L) + 2|z| M1(L) + M2(L) in the noise
        model's partial moments.
        """
        arr = np.abs(np.asarray(z, dtype=float))
        m0, m1, m2 = self.noise.partial_moments(arr - self.eta * self.delta)
        out = np.maximum(arr * (arr * m0 + 2.0 * m1) + m2, 0.0)
        return float(out) if arr.ndim == 0 else out

    # --- inverse kernel ------------------------------------------------------

    def accept_prob_inv(self, q):
        """Offset achieving acceptance probability q: eta*delta + F^-1(1 - q)."""
        arr = np.asarray(q, dtype=float)
        if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails too
            raise DomainError("acceptance level must lie in [0, 1]")
        out = self.eta * self.delta + self.noise.law.inv_cdf(1.0 - arr)
        return float(out) if arr.ndim == 0 else out

    def moment_at_level(self, q):
        """error_moment at the offset whose acceptance probability is q."""
        return self.error_moment(self.accept_prob_inv(q))

    def slope_at_level(self, q):
        """Derivative of moment_at_level in q, in closed form.

        With z = accept_prob_inv(q) and L = z - eta*delta, error_moment has
        z-derivative 2(z M0(L) + M1(L)) - f(L)(z + L)^2 and dz/dq = -1/f(L), so

          h'(q) = (z + L)^2 - 2(z M0(L) + M1(L)) / f(L).

        At q = 0 (L = delta) the quotient's limit 0 is taken.
        """
        arr = np.asarray(q, dtype=float)
        z = self.accept_prob_inv(arr)
        level = z - self.eta * self.delta
        m0, m1, _ = self.noise.partial_moments(level)
        pull = 2.0 * (z * m0 + m1)
        quotient = np.divide(pull, self.noise.pdf(level), out=np.zeros(np.shape(pull)),
                             where=arr > 0.0)
        out = (z + level) ** 2 - quotient
        return float(out) if np.ndim(out) == 0 else out


# --- direct quadrature (independent cross-check of the closed forms) --------

def accept_prob_quad(ctx: KernelContext, z: float) -> float:
    """accept_prob by adaptive Simpson on the density itself."""
    ctx._check_z(z)
    return adaptive_simpson(ctx.noise.pdf_scalar, z - ctx.eta * ctx.delta,
                            ctx.delta, QUAD_TOL)


def error_moment_quad(ctx: KernelContext, z: float) -> float:
    """error_moment by adaptive Simpson on (x+z)^2 f(x)."""
    ctx._check_z(z)
    pdf = ctx.noise.pdf_scalar
    return adaptive_simpson(lambda x: (x + z) ** 2 * pdf(x),
                            z - ctx.eta * ctx.delta, ctx.delta, QUAD_TOL)
