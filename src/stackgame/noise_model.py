"""Honest-node noise models and the scalar data model.

The honest node reports value + noise, where the noise is symmetric, bounded
on [-delta, delta], and has a strictly increasing CDF on its support. Four
families are built in: uniform, truncated-normal, triangular, and tabulated
(a two-column x/pdf grid). Each family is one law object that gives, in
closed form, the density, the CDF, the inverse CDF and the partial moments

  M_k(L) = integral of x^k f(x) over [L, delta],  k = 0, 1, 2:

polynomials for uniform and triangular noise, erf/phi identities for the
truncated normal (Johnson, Kotz & Balakrishnan, Continuous Univariate
Distributions vol. 1, ch. 13), and exact cell-wise integrals of the linear
interpolant for tabulated grids. Sampling is by inverse-CDF transform, and
every public inverse is checked against the CDF it inverts, so each model
draws from exactly the CDF it reports.
"""

from __future__ import annotations

import csv
import math
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, NumericalError

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
# inv_cdf is accurate to 1e-12 on x; its round-trip check allows that error
# times the steepest density, plus the rounding of the CDF itself
_INV_CDF_XTOL = 1e-12
_CDF_ROUNDING = 1e-15
# points of the grid on which validate checks symmetry and strict CDF increase
_VALIDATE_GRID = 1025
# sigma / delta from which a truncated normal takes the forms of _WideNormal
WIDE_SIGMA = 8.0
# row j: 1 / (k! (2k + j + 1)), k = 11 down to 0, the series of the j-th partial moment
_WIDE_SERIES = [[1.0 / (math.factorial(k) * (2 * k + j + 1)) for k in range(11, -1, -1)]
                for j in range(3)]


# --- per-family laws --------------------------------------------------------
#
# Each law gives pdf, cdf, inv_cdf and partial_moments for
# arguments inside its support (the model clamps and masks), plus the support
# and the density's maximum. The three analytic families are symmetric on
# [-delta, delta].

class _Symmetric:
    """The support [-delta, delta] of an analytic law, for a positive finite delta."""

    def __init__(self, delta: float):
        if not (math.isfinite(delta) and delta > 0):
            raise DomainError(f"delta must be positive and finite, got {delta}")
        self._d = float(delta)
        self.support = (-self._d, self._d)


class _Uniform(_Symmetric):
    def __init__(self, delta: float):
        super().__init__(delta)
        self.pdf_max = 1.0 / (2.0 * self._d)

    def pdf(self, x):
        return self.pdf_max

    def cdf(self, x):
        return (x + self._d) / (2.0 * self._d)

    def inv_cdf(self, p):
        return 2.0 * self._d * p - self._d

    def partial_moments(self, L):
        # (d^(k+1) - L^(k+1)) / (2d (k+1)), factored so that no power is taken
        d = self._d
        u, v = d - L, d + L
        return u / (2.0 * d), u * v / (4.0 * d), u * (d * d + L * v) / (6.0 * d)


class _Triangular(_Symmetric):
    def __init__(self, delta: float):
        super().__init__(delta)
        self.pdf_max = 1.0 / self._d

    def pdf(self, x):
        return (self._d - np.abs(x)) / (self._d * self._d)

    def cdf(self, x):
        d = self._d
        neg = (x + d) ** 2 / (2.0 * d * d)
        pos = 1.0 - (d - x) ** 2 / (2.0 * d * d)
        return np.where(x <= 0.0, neg, pos)

    def inv_cdf(self, p):
        # the mass beyond |x| is (d - |x|)^2 / (2 d^2)
        q = np.minimum(p, 1.0 - p)
        return np.copysign(self._d * (1.0 - np.sqrt(2.0 * q)), p - 0.5)

    def partial_moments(self, L):
        # integrals over [|L|, d] in u = d - |L|; a negative L takes the mirror
        # image of that tail away from the full moments (1, 0, d^2/6)
        d = self._d
        u = d - np.abs(L)
        w = u * u / (d * d)
        m0 = 0.5 * w
        m1 = w * (0.5 * d - u / 3.0)
        m2 = w * (0.5 * d * d + u * (0.25 * u - 2.0 * d / 3.0))
        neg = L < 0.0
        return np.where(neg, 1.0 - m0, m0), m1, np.where(neg, d * d / 6.0 - m2, m2)


class _TruncatedNormal(_Symmetric):
    def __init__(self, delta: float, sigma: float):
        super().__init__(delta)
        if not (math.isfinite(sigma) and sigma > 0):
            raise DomainError(f"truncated-normal requires sigma > 0, got {sigma}")
        from scipy import special  # only this law needs scipy, so only it loads it
        self._erf, self._erfcinv = special.erf, special.erfcinv
        d, s = self._d, sigma
        self._s = s
        self._scale = s * _SQRT2
        # probability mass of the untruncated normal on [-delta, delta], and
        # the mass beyond it, exact even where the first rounds to 1
        self._mass = math.erf(d / self._scale)
        self._tail = math.erfc(d / self._scale)
        self._norm = s * _SQRT2PI * self._mass
        self.pdf_max = 1.0 / self._norm
        self._phi_d = math.exp(-0.5 * (d / s) * (d / s)) / (_SQRT2PI * self._mass)

    def pdf(self, x):
        return np.exp(-0.5 * (x / self._s) ** 2) / self._norm

    def cdf(self, x):
        return (self._erf(x / self._scale) + self._mass) / (2.0 * self._mass)

    def inv_cdf(self, p):
        # the tail mass beyond |x| is (erfc(|x|/(s sqrt 2)) - erfc(d/(s sqrt 2))) / (2 mass)
        q = np.minimum(p, 1.0 - p)
        t = self._scale * self._erfcinv(2.0 * self._mass * q + self._tail)
        return np.copysign(np.minimum(t, self._d), p - 0.5)

    def partial_moments(self, L):
        # with a = L/s, b = d/s and phi the standard normal density:
        #   M0 = (Phi(b) - Phi(a)) / mass
        #   M1 = s (phi(a) - phi(b)) / mass
        #   M2 = s^2 M0 + s (L phi(a) - d phi(b)) / mass
        s = self._s
        a = L / s
        phi_a = np.exp(-0.5 * a * a) / (_SQRT2PI * self._mass)
        m0 = 0.5 - self._erf(L / self._scale) / (2.0 * self._mass)
        m1 = s * (phi_a - self._phi_d)
        m2 = s * s * m0 + s * (L * phi_a - self._d * self._phi_d)
        return m0, m1, m2


class _WideNormal(_TruncatedNormal):
    """A truncated normal with sigma >= WIDE_SIGMA * delta, where the erf/phi forms cancel
    to (sigma/delta)^2 eps. Its density's series in x^2, integrated term by term, gives
    M_j(L) = f(0) sum_k (-1/(2 s^2))^k / k! (delta^n - L^n) / n, n = 2k + j + 1, whose terms
    fall by delta^2/(2 s^2) <= 1/128: 12 reach the rounding. x = s sqrt(2) erfinv((2p-1) mass)."""

    def __init__(self, delta: float, sigma: float):
        super().__init__(delta, sigma)
        from scipy import special
        self._erfinv = special.erfinv
        self._at_d = self._integrals(self._d)

    def _integrals(self, x):
        """Integrals of t^j f(t) over [0, x], j = 0, 1, 2, by the series."""
        w = -0.5 * (x / self._s) ** 2
        return [self.pdf_max * x ** (j + 1) * np.polyval(c, w) for j, c in enumerate(_WIDE_SERIES)]

    def inv_cdf(self, p):
        return np.clip(self._scale * self._erfinv((2.0 * p - 1.0) * self._mass),
                       -self._d, self._d)

    def partial_moments(self, L):
        return tuple(at_d - at_l for at_d, at_l in zip(self._at_d, self._integrals(L)))


class _Tabulated:
    def __init__(self, xs, ps):
        xs = np.asarray(xs, dtype=float)
        ps = np.asarray(ps, dtype=float)
        if xs.ndim != 1 or xs.size < 3 or xs.shape != ps.shape:
            raise DomainError("tabulated grid needs matching 1-d x/pdf arrays, >= 3 points")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ps))):
            raise DomainError("tabulated grid contains non-finite entries")
        if np.any(np.diff(xs) <= 0):
            raise DomainError("tabulated x grid must be strictly increasing")
        cum = np.concatenate(([0.0], np.cumsum(np.diff(xs) * 0.5 * (ps[1:] + ps[:-1]))))
        if cum[-1] <= 0:
            raise DomainError("tabulated pdf has nonpositive total mass")
        self._x = xs
        self._p = ps / cum[-1]
        self._cum = cum / cum[-1]
        self._h = np.diff(xs)
        self._slope = np.diff(self._p) / self._h
        self._last = xs.size - 2  # index of the last cell
        self.support = (float(xs[0]), float(xs[-1]))
        self.pdf_max = float(np.max(self._p))
        # moments of each whole cell, summed from the right: entry i covers [x_i, x_end]
        cells = self._head_moments(np.arange(xs.size - 1), self._h)
        self._tails = [np.concatenate((np.cumsum(c[::-1])[::-1], [0.0])) for c in cells]

    def _cell(self, grid, x):
        return np.clip(np.searchsorted(grid, x, side="right") - 1, 0, self._last)

    def _head_moments(self, idx, t):
        """Integrals of x^k f(x), k = 0, 1, 2, over [x_idx, x_idx + t] of cell idx."""
        x0, p, s = self._x[idx], self._p[idx], self._slope[idx]
        a0 = t * (p + 0.5 * s * t)  # integrals of t^j (p + s t), j = 0, 1, 2
        a1 = t * t * (0.5 * p + s * t / 3.0)
        a2 = t * t * t * (p / 3.0 + 0.25 * s * t)
        m1 = x0 * a0 + a1
        return a0, m1, x0 * (m1 + a1) + a2

    def pdf(self, x):
        return np.interp(x, self._x, self._p, left=0.0, right=0.0)

    def cdf(self, x):
        idx = self._cell(self._x, x)
        t = x - self._x[idx]
        # exact integral of the linear interpolant within the cell
        return self._cum[idx] + t * (self._p[idx] + 0.5 * self._slope[idx] * t)

    def inv_cdf(self, p):
        # in cell i the CDF is cum_i + p_i t + s_i t^2 / 2; this root of it
        # does not cancel, and is finite when p_i or s_i vanishes
        idx = self._cell(self._cum, p)
        r = p - self._cum[idx]
        pi, s = self._p[idx], self._slope[idx]
        den = pi + np.sqrt(np.maximum(pi * pi + 2.0 * s * r, 0.0))
        t = np.divide(2.0 * r, den, out=np.zeros(np.shape(r)), where=den > 0.0)
        x = self._x[idx] + np.minimum(t, self._h[idx])
        return np.where(p >= 1.0, self.support[1], x)

    def partial_moments(self, L):
        idx = self._cell(self._x, L)
        head = self._head_moments(idx, L - self._x[idx])
        return tuple(tail[idx] - h for tail, h in zip(self._tails, head))


class HonestNoiseModel:
    """Symmetric bounded noise model with pdf/cdf/inverse-cdf/sampling.

    Use the module-level factories (uniform, truncated_normal, triangular,
    tabulated, tabulated_from_csv, from_spec) rather than the constructor.
    The family's closed forms live in `law`; delta is its support's half-width.
    """

    def __init__(self, kind: str, params: dict, law):
        self.kind = kind
        self.params = dict(params)
        self.law = law
        self.support = law.support
        self.delta = max(map(abs, law.support))
        self._inv_cdf_tol = _INV_CDF_XTOL * law.pdf_max + _CDF_ROUNDING

    def __repr__(self):
        return f"HonestNoiseModel(kind={self.kind!r}, delta={self.delta}, params={self.params})"

    # --- densities -------------------------------------------------------

    def pdf(self, x):
        """Probability density, zero outside the support."""
        arr = np.asarray(x, dtype=float)
        lo, hi = self.support
        out = np.where((arr < lo) | (arr > hi), 0.0, self.law.pdf(arr))
        return float(out) if arr.ndim == 0 else out

    def pdf_scalar(self, x: float) -> float:
        """Density at one float: the oracle table's quadrature integrand."""
        lo, hi = self.support
        return float(self.law.pdf(x)) if lo <= x <= hi else 0.0

    def cdf(self, x):
        """Cumulative distribution, clamped to [0, 1] outside the support."""
        arr = np.asarray(x, dtype=float)
        lo, hi = self.support
        out = np.asarray(np.clip(self.law.cdf(arr), 0.0, 1.0))  # a fresh array, 0-d too
        out[arr <= lo] = 0.0
        out[arr >= hi] = 1.0
        return float(out) if arr.ndim == 0 else out

    def inv_cdf(self, p):
        """Closed-form inverse CDF, checked to reproduce p through cdf.

        The check allows 1e-12 of error on x; a miss raises NumericalError.
        """
        arr = np.asarray(p, dtype=float)
        if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails too
            raise DomainError("inverse CDF argument must lie in [0, 1]")
        out = self.law.inv_cdf(arr)
        miss = np.abs(self.cdf(out) - arr)
        if not np.all(miss <= self._inv_cdf_tol):
            raise NumericalError(
                f"{self.kind} inverse CDF misses its target by {np.nanmax(miss):.3e}"
                f" > {self._inv_cdf_tol:.3e}")
        return float(out) if arr.ndim == 0 else out

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw count variates via the inverse-CDF transform of rng.random."""
        if count < 0:
            raise DomainError(f"sample count must be nonnegative, got {count}")
        return np.atleast_1d(self.inv_cdf(rng.random(count)))

    def partial_moments(self, L):
        """(M0, M1, M2): integrals of x^k f(x) over [L, delta], L clamped to the support."""
        lo, hi = self.support
        return self.law.partial_moments(np.clip(L, lo, hi))


# --- factories -------------------------------------------------------------

def uniform(delta: float) -> HonestNoiseModel:
    return HonestNoiseModel("uniform", {}, _Uniform(delta))


def truncated_normal(delta: float, sigma: float) -> HonestNoiseModel:
    sigma = float(sigma)
    law = _WideNormal if sigma >= WIDE_SIGMA * delta else _TruncatedNormal
    return HonestNoiseModel("truncated-normal", {"sigma": sigma}, law(delta, sigma))


def triangular(delta: float) -> HonestNoiseModel:
    return HonestNoiseModel("triangular", {}, _Triangular(delta))


def tabulated(xs, pdf_vals) -> HonestNoiseModel:
    return HonestNoiseModel("tabulated", {}, _Tabulated(xs, pdf_vals))


def tabulated_from_csv(path) -> HonestNoiseModel:
    """Load a two-column (x, pdf) CSV; the first nonblank row may be a header."""
    xs, ps = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row and row[0].strip()]
    for k, (line, row) in enumerate(rows):
        try:  # x and pdf; any later field must be blank
            x, p = map(float, row[:2] + [f for f in row[2:] if f.strip()])
        except ValueError:
            if k == 0:
                continue  # header row
            raise DomainError(f"row {line} of {path} is not two numbers x, pdf: {row!r}")
        xs.append(x)
        ps.append(p)
    if len(xs) < 3:
        raise DomainError(f"tabulated CSV {path} needs at least 3 rows")
    model = tabulated(xs, ps)
    model.params["csv"] = str(path)
    return model


# noise kind -> (its param names, its factory), in the documented order. An
# analytic factory takes (delta, *params); the tabulated one takes (xs, pdf),
# and from_spec reads its csv or xs and pdf itself.
KINDS = OrderedDict([("uniform", ((), uniform)),
                     ("truncated-normal", (("sigma",), truncated_normal)),
                     ("triangular", ((), triangular)),
                     ("tabulated", (("csv", "xs", "pdf"), tabulated))])


def from_spec(spec: dict, base_dir=None) -> HonestNoiseModel:
    """Build a model from a config mapping {kind, delta, params}.

    delta defaults to 1 for an analytic kind. A table's delta is its grid's
    half-width, which a given delta must match.
    """
    kind = spec.get("kind", "uniform")
    params = dict(spec.get("params", {}))
    if kind not in KINDS:
        raise DomainError(f"unknown noise kind {kind!r}; expected one of {tuple(KINDS)}")
    names, factory = KINDS[kind]
    if kind != "tabulated":
        if not all(n in params for n in names):
            raise DomainError(f"/honest_noise/params: {kind} noise requires {' and '.join(names)}")
        return factory(spec.get("delta", 1.0), *(params[n] for n in names))
    if "csv" in params:
        path = Path(params["csv"])
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        try:
            model = tabulated_from_csv(path)
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise DomainError(f"/honest_noise/params/csv: cannot read {path}: {reason}") from exc
        except DomainError as exc:
            raise DomainError(f"/honest_noise/params/csv: {exc}") from exc
    elif "xs" in params and "pdf" in params:
        try:
            model = factory(params["xs"], params["pdf"])
        except DomainError as exc:
            raise DomainError(f"/honest_noise/params: {exc}") from exc
    else:
        raise DomainError("/honest_noise/params: tabulated noise requires csv or xs and pdf")
    if "delta" in spec and not abs(model.delta - float(spec["delta"])) <= 1e-9 * model.delta:
        raise DomainError(f"/honest_noise/delta: tabulated grid implies delta={model.delta}, "
                          f"config says {spec['delta']}")
    return model


# --- validation ------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}


def validate(model: HonestNoiseModel) -> ValidationReport:
    """Check the distributional assumptions and report violations.

    Checks: zero density outside the support, nonnegativity, symmetry of the
    pdf, unit normalization (the exact integral M0 over the support), CDF
    endpoints, and strict CDF increase on a grid (tolerance 1e-12 between
    adjacent points).
    """
    d = model.delta
    lo, hi = model.support
    grid = np.linspace(lo, hi, _VALIDATE_GRID)
    pdf_grid = model.pdf(grid)
    checks = []

    outside = np.array([lo - 2 * d, lo - d * 1e-6 - 1e-12, hi + d * 1e-6 + 1e-12, hi + 2 * d])
    out_mass = float(np.max(np.abs(model.pdf(outside))))
    checks.append(CheckResult("support", out_mass == 0.0,
                              f"max |pdf| outside support = {out_mass}"))

    min_pdf = float(np.min(pdf_grid))
    checks.append(CheckResult("nonnegative", min_pdf >= 0.0, f"min pdf = {min_pdf}"))

    sym_tol = 1e-12 * float(np.max(np.abs(pdf_grid)))  # relative: the verdict ignores the scale
    sym_gap = float(np.max(np.abs(pdf_grid - model.pdf(-grid))))
    checks.append(CheckResult("symmetry", sym_gap <= sym_tol,
                              f"max |pdf(x) - pdf(-x)| = {sym_gap}"))

    total = float(model.partial_moments(lo)[0])
    checks.append(CheckResult("normalization", abs(total - 1.0) <= 1e-8,
                              f"integral of pdf = {total}"))

    c_lo, c_hi = float(model.cdf(lo)), float(model.cdf(hi))
    checks.append(CheckResult("cdf_endpoints",
                              c_lo <= 1e-12 and abs(c_hi - 1.0) <= 1e-12,
                              f"cdf({lo}) = {c_lo}, cdf({hi}) = {c_hi}"))

    steps = np.diff(model.cdf(grid))
    min_step = float(np.min(steps))
    checks.append(CheckResult("cdf_strictly_increasing", min_step > 1e-12,
                              f"min CDF increment on {_VALIDATE_GRID}-point grid = {min_step}"))

    return ValidationReport(tuple(checks))

