"""Acceptance kernel of a replicated atom against the honest noise.

An adversary that replicates a single offset z across its nodes is accepted
exactly when the honest noise lands within eta*delta of it. This defines:

  accept_prob(z)   -- probability of acceptance, 1 - F(|z| - eta*delta)
  error_moment(z)  -- integral of (x + z)^2 f(x) over the accepting x;
                      note (x + z)/2 is the midrange estimation error, so
                      error_moment(z)/4 is the unnormalized conditional MSE
  moment_at_level(q) -- error_moment at the offset whose acceptance is q:
                        with L = F^-1(1 - q) and z = eta*delta + L it is
                        z^2 M0(L) + 2z M1(L) + M2(L), and neither L nor the
                        partial moments depend on eta
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


@dataclass(frozen=True)
class KernelContext:
    """A (threshold multiple, honest noise) pair.

    eta may also be a column of etas: each method then broadcasts it against
    its argument, and each row is that eta's own result to the bit.
    """
    eta: float
    noise: HonestNoiseModel

    def __post_init__(self):
        e = np.asarray(self.eta)
        if not np.all((e >= 2.0) & (e < np.inf)):  # NaN fails both
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

    def _level(self, q):
        """F^-1(1 - q): the noise value from which acceptance is q, for q in [0, 1]."""
        arr = np.asarray(q, dtype=float)
        if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails too
            raise DomainError("acceptance level must lie in [0, 1]")
        return self.noise.law.inv_cdf(1.0 - arr)

    def accept_prob_inv(self, q):
        """Offset achieving acceptance probability q: eta*delta + F^-1(1 - q)."""
        out = self.eta * self.delta + self._level(q)
        return float(out) if np.ndim(q) == 0 else out

    def moment_at_level(self, q):
        """error_moment at the offset whose acceptance probability is q, from the
        partial moments at L = F^-1(1 - q) itself: one set for a column of etas."""
        level = self._level(q)
        m0, m1, m2 = self.noise.partial_moments(level)
        z = self.eta * self.delta + level
        out = np.maximum(z * (z * m0 + 2.0 * m1) + m2, 0.0)
        return float(out) if np.ndim(out) == 0 else out

    def slope_at_level(self, q):
        """Derivative of moment_at_level in q, in closed form.

        With L = F^-1(1 - q) and z = eta*delta + L, the level and offset
        moment_at_level takes, error_moment has z-derivative
        2(z M0(L) + M1(L)) - f(L)(z + L)^2 and dz/dq = -1/f(L), so

          h'(q) = (z + L)^2 - 2(z M0(L) + M1(L)) / f(L).

        At q = 0 (L = delta) the quotient's limit 0 is taken; where f(L) = 0
        inside (0, 1], the slope's limit -inf.
        """
        arr = np.asarray(q, dtype=float)
        level = self._level(arr)
        z = self.eta * self.delta + level
        m0, m1, _ = self.noise.partial_moments(level)
        pull = 2.0 * (z * m0 + m1)
        with np.errstate(divide="ignore"):  # a zero density gives the limit, -inf
            quotient = np.divide(pull, self.noise.pdf(level), out=np.zeros(np.shape(pull)),
                                 where=arr > 0.0)
        out = (z + level) ** 2 - quotient
        return float(out) if np.ndim(out) == 0 else out

