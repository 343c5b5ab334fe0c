"""Least concave majorant of the acceptance-level moment curve.

The curve q -> moment_at_level(q) on [0, 1] is sampled on a dense grid, its
upper concave hull is taken with a monotone chain (Andrew 1979), and hull
segments that bridge over strictly lower samples are recorded as chords. One
refinement pass re-samples around each chord endpoint so the detected
tangency points are sharp to roughly the square of the grid resolution.

One chord rule serves every query: q is on a chord when it lies strictly
inside a hull segment flagged as one. The touch tolerance is a constant rule:
TOUCH_REL times the largest sample magnitude, or TOUCH_REL if that is below 1.

The chain's cross products for all consecutive sample triples are computed as
one array, so the runs of samples it keeps without popping are appended in
bulk; the scalar pop loop runs only where the curve bends the other way. Every
keep/pop decision uses the same floating-point expression as the plain
chain, so the hull is the same to the bit.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .kernel import KernelContext

DEFAULT_GRID_SIZE = 4096
MIN_GRID_SIZE = 33  # the fewest samples that give a stable hull
TOUCH_REL = 1e-8
REFINE_POINTS = 64  # extra samples around each chord endpoint


@dataclass(frozen=True)
class Touch:
    """The majorant touches the curve at q: the optimum is a single offset."""
    q: float


@dataclass(frozen=True)
class Chord:
    """The majorant is linear over [q1, q2] and strictly above the curve inside."""
    q1: float
    q2: float


def _cross(qa, va, qb, vb, qi, vi):
    """Positive when b lies strictly below the a->i chord; scalars or arrays."""
    return (qb - qa) * (vi - va) - (qi - qa) * (vb - va)


def _triples_cross(qs, vals):
    """_cross of every consecutive sample triple, along the last axis of vals."""
    return _cross(qs[:-2], vals[..., :-2], qs[1:-1], vals[..., 1:-1], qs[2:], vals[..., 2:])


def _check_finite(qs, vals):
    if not (np.all(np.isfinite(qs)) and np.all(np.isfinite(vals))):
        raise NumericalError("envelope samples contain non-finite values")


def has_reflex_sample(qs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Per row of vals: would the hull chain pop a sample? A row with no
    reflex sample is its own hull, with no chord."""
    _check_finite(qs, vals)
    return np.any(_triples_cross(qs, vals) > 0.0, axis=-1)


def _upper_hull_indices(qs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Indices of the upper concave hull; collinear points are kept.

    The chain pops its top index while the cross product of the top two kept
    indices a, b and the next index i is positive (b strictly below the a->i
    chord). While a, b are i-2, i-1 that product is cross[i-2] below, so the
    run up to the next reflex index (positive cross) is kept without popping.
    """
    n = qs.size
    reflex = np.flatnonzero(_triples_cross(qs, vals) > 0.0) + 2
    if reflex.size == 0:  # concave throughout: every sample is kept
        return np.arange(n)
    reflex = reflex.tolist() + [n]
    q, v = qs.tolist(), vals.tolist()
    kept = [0, 1]
    i = 2
    while i < n:
        if kept[-2] == i - 2:  # the top two are i-2, i-1
            stop = reflex[bisect.bisect_left(reflex, i)]
            kept.extend(range(i, stop))
            i = stop
            if i == n:
                break
        while len(kept) >= 2:
            a, b = kept[-2], kept[-1]
            if _cross(q[a], v[a], q[b], v[b], q[i], v[i]) > 0.0:
                kept.pop()
            else:
                break
        kept.append(i)
        i += 1
    return np.array(kept, dtype=np.intp)


class Envelope:
    """Piecewise-linear least concave majorant with chord classification."""

    def __init__(self, source_qs, source_vals, curve=None):
        qs = np.asarray(source_qs, dtype=float)
        vals = np.asarray(source_vals, dtype=float)
        if qs.ndim != 1 or qs.size < 2 or qs.shape != vals.shape:
            raise DomainError("envelope needs matching 1-d sample arrays, >= 2 points")
        if np.any(np.diff(qs) <= 0):
            raise DomainError("envelope sample grid must be strictly increasing")
        _check_finite(qs, vals)
        self.source_qs = qs
        self.source_vals = vals
        self._curve = curve
        self.touch_tolerance = TOUCH_REL * max(1.0, float(np.max(np.abs(vals))))

        hull = _upper_hull_indices(qs, vals)
        self.breakpoint_qs = qs[hull]
        self.breakpoint_vals = vals[hull]
        # A segment is a chord when it bridges over samples that sit strictly
        # below it; single-cell segments follow the curve by construction.
        flags = np.zeros(len(hull) - 1, dtype=bool)
        for s in np.flatnonzero(np.diff(hull) > 1).tolist():
            a, b = hull[s], hull[s + 1]
            t = (qs[a + 1:b] - qs[a]) / (qs[b] - qs[a])
            line = vals[a] + t * (vals[b] - vals[a])
            flags[s] = np.max(line - vals[a + 1:b]) > self.touch_tolerance
        self._chord_flags = flags
        self._chords = [Chord(float(self.breakpoint_qs[s]), float(self.breakpoint_qs[s + 1]))
                        for s in np.flatnonzero(flags).tolist()]

    # --- queries -----------------------------------------------------------

    def evaluate(self, q):
        """Majorant value at q (piecewise-linear between breakpoints)."""
        arr = np.asarray(q, dtype=float)
        if np.any((arr < -1e-12) | (arr > 1.0 + 1e-12)) or not np.all(np.isfinite(arr)):
            raise DomainError("envelope argument must lie in [0, 1]")
        arr = np.clip(arr, self.breakpoint_qs[0], self.breakpoint_qs[-1])
        out = np.interp(arr, self.breakpoint_qs, self.breakpoint_vals)
        return float(out) if np.ndim(q) == 0 else out

    def curve_value(self, q):
        """Underlying sampled curve at q: exact when a curve callable is known."""
        if self._curve is not None:
            return self._curve(q)
        out = np.interp(q, self.source_qs, self.source_vals)
        return float(out) if np.ndim(q) == 0 else out

    def chords(self) -> list[Chord]:
        return list(self._chords)

    def _segments(self, arr: np.ndarray):
        """Hull segment of each q, and whether q lies strictly inside a chord."""
        bq = self.breakpoint_qs
        seg = np.clip(np.searchsorted(bq, arr, side="right") - 1, 0, bq.size - 2)
        return seg, (arr > bq[seg]) & (arr < bq[seg + 1]) & self._chord_flags[seg]

    def _touches(self, arr: np.ndarray):
        """Segment of each q in [0, 1], and True where the majorant meets the curve.

        Only points strictly inside a chord are checked against the curve: off
        chords the piecewise-linear majorant may sit O(grid step^2) above a
        strictly concave curve, beyond the touch tolerance, with no true chord.
        """
        seg, inside = self._segments(arr)
        out = ~inside
        if np.any(inside):
            gap = self.evaluate(arr[inside]) - self.curve_value(arr[inside])
            out[inside] = gap <= self.touch_tolerance
        return seg, out

    def supporting_chord(self, q: float):
        """Touch(q) where the majorant meets the curve, else the hull Chord."""
        q = float(q)
        if not 0.0 < q <= 1.0 + 1e-12:
            raise DomainError("supporting_chord argument must lie in (0, 1]")
        q = min(q, 1.0)
        (i,), (touch,) = self._touches(np.array([q]))
        if touch:
            return Touch(min(q, float(self.breakpoint_qs[-1])))
        return Chord(float(self.breakpoint_qs[i]), float(self.breakpoint_qs[i + 1]))

    def is_touch(self, q) -> np.ndarray:
        """Vectorized supporting_chord: True where Touch; q <= 0 counts as a touch."""
        arr = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any(np.isnan(arr) | (arr > 1.0 + 1e-12)):
            raise DomainError("supporting_chord argument must lie in (0, 1]")
        return self._touches(np.minimum(arr, 1.0))[1]


def level_grid(grid_size: int) -> np.ndarray:
    """The grid_size evenly spaced acceptance levels an envelope samples on [0, 1]."""
    if grid_size < MIN_GRID_SIZE:
        raise DomainError(f"grid_size too small for a stable hull: {grid_size}")
    return np.linspace(0.0, 1.0, grid_size)


def build_envelope(ctx: KernelContext, grid_size: int = DEFAULT_GRID_SIZE) -> Envelope:
    """Sample moment_at_level on [0, 1] and take its least concave majorant."""
    qs = level_grid(grid_size)
    return envelope_of_samples(ctx, qs, np.asarray(ctx.moment_at_level(qs), dtype=float))


def envelope_of_samples(ctx: KernelContext, qs: np.ndarray, vals: np.ndarray) -> Envelope:
    """The majorant of ctx's curve, sampled as vals at the levels qs.

    After the first hull, REFINE_POINTS extra samples are inserted around each
    chord endpoint (within its neighboring grid cells) and the hull is rebuilt
    once, sharpening detected tangencies.
    """
    env = Envelope(qs, vals, curve=ctx.moment_at_level)

    chords = env.chords()
    if not chords:
        return env
    step = qs[1] - qs[0]
    extra = []
    for ch in chords:
        for endpoint in (ch.q1, ch.q2):
            lo = max(0.0, endpoint - step)
            hi = min(1.0, endpoint + step)
            extra.append(np.linspace(lo, hi, REFINE_POINTS))
    all_qs = np.unique(np.concatenate([qs] + extra))
    new_mask = ~np.isin(all_qs, qs)
    all_vals = np.empty_like(all_qs)
    all_vals[~new_mask] = vals[np.searchsorted(qs, all_qs[~new_mask])]
    if np.any(new_mask):
        all_vals[new_mask] = np.asarray(ctx.moment_at_level(all_qs[new_mask]), dtype=float)
    return Envelope(all_qs, all_vals, curve=ctx.moment_at_level)
