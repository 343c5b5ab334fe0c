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

The truncated normal's two special functions are computed here in numpy: erf by
its economised Taylor series below 1 and by mpmath's rational approximation of
erfc(x) exp(x^2) from 1 to 6 (mpmath.math2, BSD licence), the normal quantile by
Wichura's AS241 (Applied Statistics 37, 1988), as in CPython's statistics.NormalDist.
"""

from __future__ import annotations

import csv
import math
from collections import OrderedDict
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


def _horner(coefs, x):
    """The polynomial with coefs, highest power first, at x; in place after the first step."""
    y = coefs[0] * x
    for c in coefs[1:-1]:
        y += c
        y *= x
    return y + coefs[-1]


def _rational(pq, x):
    return _horner(pq[0], x) / _horner(pq[1], x)


# erf(x) / x for |x| < 1 in u = x^2: its Taylor series to k = 20, 2/sqrt(pi) (-1)^k /
# (k! (2k + 1)), Chebyshev-economised on [0, 1] to 12 terms (each dropped one costs < 1.2e-17)
_ERF_SERIES = (-7.798543843729821e-10, 1.3721520403097508e-08, -1.6208829856135852e-07,
               1.644747119051528e-06, -1.4924740785371762e-05, 0.00012055295112666725,
               -0.0008548325982543218, 0.005223977607269946, -0.026866170643256998,
               0.1128379167094513, -0.37612638903183543, 1.1283791670955126)
# erfc(x) exp(x^2) for 1 <= x <= 6: (numerator, denominator), mpmath's _erfc_coeff_P and _Q
_ERFC_PQ = ([4.4560259661560421715e-4, 6.3065951710717791934e-3, 4.5459713768411264339e-2,
             2.0924776504163751585e-1, 6.6275911699770787537e-1, 1.4695509105618423961,
             2.2280433377390253297, 2.1275306946297962644, 1.0000000161203922312],
            [7.8981003831980423513e-4, 1.1178148899483545902e-2, 8.0970149639040548613e-2,
             3.7647108453729465912e-1, 1.2146026030046904138, 2.7845640601891186528,
             4.4971472894498014205, 4.9019435608903239131, 3.2559100272784894318, 1.0])
# AS241: Phi^-1(1/2 + c) = c P(r) / Q(r), r = 0.180625 - c^2, for |c| <= 0.425; below,
# Phi^-1(p) = -P(r - shift) / Q(r - shift), r = sqrt(-log p), shift 1.6 to r = 5 and 5 beyond
_PPF_CENTRAL = ([2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
                 4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
                 1.3314166789178437745e+2, 3.3871328727963666080],
                [5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
                 2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
                 4.2313330701600911252e+1, 1.0])
_PPF_NEAR = ([7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
              1.27045825245236838258, 3.64784832476320460504, 5.76949722146069140550,
              4.63033784615654529590, 1.42343711074968357734],
             [1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
              1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940,
              2.05319162663775882187, 1.0])
_PPF_FAR = ([2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
             2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580,
             5.46378491116411436990, 6.65790464350110377720],
            [2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
             7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
             5.99832206555887937690e-1, 1.0])


def _erf(x):
    """The error function of an array, to 2.5e-16 absolute and, below 1, 4e-16 relative."""
    x = np.asarray(x, dtype=float)
    a = np.minimum(np.abs(x), 6.0)  # from 6 on, erf rounds to 1
    out = np.asarray(np.copysign(a * _horner(_ERF_SERIES, a * a), x))
    big = np.flatnonzero(a >= 1.0)
    b = np.take(a, big)
    np.put(out, big, np.copysign(1.0 - np.exp(-b * b) * _rational(_ERFC_PQ, b), np.take(x, big)))
    return out


def _norm_ppf(p, c):
    """The standard normal quantile of lower-tail probabilities p <= 1/2 (AS241), to 1e-15
    relative. c = p - 1/2 may be given more exactly than p: the central branch (|c| <=
    0.425) reads only c, and the tails only p. p = 0 gives NaN."""
    out = np.asarray(c * _rational(_PPF_CENTRAL, 0.180625 - c * c))
    tail = np.flatnonzero(c < -0.425)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.take(p, tail)))
        x, far = _rational(_PPF_NEAR, r - 1.6), r > 5.0
        x[far] = _rational(_PPF_FAR, r[far] - 5.0)
    np.put(out, tail, -x)
    return out


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
        return (_erf(x / self._scale) + self._mass) / (2.0 * self._mass)

    def inv_cdf(self, p):
        # |x| = -s Phi^-1(P), P = mass q + tail / 2 the untruncated normal's mass below -|x|,
        # given also as P - 1/2 = -mass |p - 1/2|, exact where P is not; q = 0 is +/-delta
        q = np.minimum(p, 1.0 - p)
        t = -self._s * _norm_ppf(self._mass * q + 0.5 * self._tail, -self._mass * np.abs(p - 0.5))
        return np.copysign(np.where(q > 0.0, np.minimum(t, self._d), self._d), p - 0.5)

    def partial_moments(self, L):
        # with a = L/s, b = d/s and phi the standard normal density:
        #   M0 = (Phi(b) - Phi(a)) / mass
        #   M1 = s (phi(a) - phi(b)) / mass
        #   M2 = s^2 M0 + s (L phi(a) - d phi(b)) / mass
        s = self._s
        a = L / s
        phi_a = np.exp(-0.5 * a * a) / (_SQRT2PI * self._mass)
        m0 = 0.5 - _erf(L / self._scale) / (2.0 * self._mass)
        m1 = s * (phi_a - self._phi_d)
        m2 = s * s * m0 + s * (L * phi_a - self._d * self._phi_d)
        return m0, m1, m2


class _WideNormal(_TruncatedNormal):
    """A truncated normal with sigma >= WIDE_SIGMA * delta, where the erf/phi forms cancel
    to (sigma/delta)^2 eps. Its density's series in x^2, integrated term by term, gives
    M_j(L) = f(0) sum_k (-1/(2 s^2))^k / k! (delta^n - L^n) / n, n = 2k + j + 1, whose terms
    fall by delta^2/(2 s^2) <= 1/128: 12 reach the rounding. Its quantiles are all central."""

    def __init__(self, delta: float, sigma: float):
        super().__init__(delta, sigma)
        self._at_d = self._integrals(self._d)

    def _integrals(self, x):
        """Integrals of t^j f(t) over [0, x], j = 0, 1, 2, by the series."""
        w = -0.5 * (x / self._s) ** 2
        return [self.pdf_max * x ** (j + 1) * _horner(c, w) for j, c in enumerate(_WIDE_SERIES)]

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
        """Draw count variates: inv_cdf(rng.random(count)), round-trip checked by inv_cdf."""
        if count < 0:
            raise DomainError(f"sample count must be nonnegative, got {count}")
        return self.inv_cdf(rng.random(count))

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

def validate(model: HonestNoiseModel) -> dict:
    """Check the distributional assumptions and report violations.

    Checks: zero density outside the support, nonnegativity, symmetry of the
    pdf, unit normalization (the exact integral M0 over the support), CDF
    endpoints, and strict CDF increase on a grid (tolerance 1e-12 between
    adjacent points).

    Returns the body of noise_validation.json: {"passed", "checks"}, each
    check a dict of name, passed and detail.
    """
    d = model.delta
    lo, hi = model.support
    grid = np.linspace(lo, hi, _VALIDATE_GRID)
    pdf_grid = model.pdf(grid)
    checks = []

    outside = np.array([lo - 2 * d, lo - d * 1e-6 - 1e-12, hi + d * 1e-6 + 1e-12, hi + 2 * d])
    out_mass = float(np.max(np.abs(model.pdf(outside))))
    checks.append(("support", out_mass == 0.0,
                   f"max |pdf| outside support = {out_mass}"))

    min_pdf = float(np.min(pdf_grid))
    checks.append(("nonnegative", min_pdf >= 0.0, f"min pdf = {min_pdf}"))

    sym_tol = 1e-12 * float(np.max(np.abs(pdf_grid)))  # relative: the verdict ignores the scale
    sym_gap = float(np.max(np.abs(pdf_grid - model.pdf(-grid))))
    checks.append(("symmetry", sym_gap <= sym_tol,
                   f"max |pdf(x) - pdf(-x)| = {sym_gap}"))

    total = float(model.partial_moments(lo)[0])
    checks.append(("normalization", abs(total - 1.0) <= 1e-8,
                   f"integral of pdf = {total}"))

    c_lo, c_hi = float(model.cdf(lo)), float(model.cdf(hi))
    checks.append(("cdf_endpoints",
                   c_lo <= 1e-12 and abs(c_hi - 1.0) <= 1e-12,
                   f"cdf({lo}) = {c_lo}, cdf({hi}) = {c_hi}"))

    steps = np.diff(model.cdf(grid))
    min_step = float(np.min(steps))
    checks.append(("cdf_strictly_increasing", min_step > 1e-12,
                   f"min CDF increment on {_VALIDATE_GRID}-point grid = {min_step}"))

    checks = [{"name": name, "passed": ok, "detail": detail} for name, ok, detail in checks]
    return {"passed": all(c["passed"] for c in checks), "checks": checks}

