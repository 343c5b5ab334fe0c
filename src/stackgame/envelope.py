"""Least concave majorant of the acceptance-level moment curve.

The curve q -> moment_at_level(q) on [0, 1] is sampled on a dense grid, its
upper concave hull is taken with a monotone chain (Andrew 1979), and hull
segments that bridge over strictly lower samples are recorded as chords
(hull_chords). The ends of each chord are then moved to where the curve's
tangent passes through the other end, with the curve's closed-form slope
(tangent_chords), so the chords are exact tangencies rather than grid points.

An envelope holds its chords as one sorted array of their exact ends,
[q1, q2, q1', q2', ...], and one rule serves every query: q is on a chord when
it lies strictly inside one (chord_segments). The majorant is the curve, with
the chord line in place of it there (chord_line). The touch tolerance is a
constant rule: TOUCH_REL times the largest sample magnitude, or TOUCH_REL if
that is below 1.

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
from .numerics import bisect_monotone_vec

DEFAULT_GRID_SIZE = 4096
MIN_GRID_SIZE = 33  # the fewest samples that give a stable hull
TOUCH_REL = 1e-8
TANGENCY_XTOL = 1e-14  # width of the bracket a chord end is solved to
TANGENCY_PASSES = 2  # alternations of the two ends' solves


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


def hull_chords(qs: np.ndarray, vals: np.ndarray):
    """The chords of the samples' upper hull as (m, 2) sample-index pairs (hull
    segments bridging a sample more than the touch tolerance below them;
    single-cell segments follow the curve), and that tolerance."""
    hull = _upper_hull_indices(qs, vals)
    tol = TOUCH_REL * max(1.0, float(np.max(np.abs(vals))))
    chords = []
    for s in np.flatnonzero(np.diff(hull) > 1).tolist():
        a, b = hull[s], hull[s + 1]
        t = (qs[a + 1:b] - qs[a]) / (qs[b] - qs[a])
        line = vals[a] + t * (vals[b] - vals[a])
        if np.max(line - vals[a + 1:b]) > tol:
            chords.append((a, b))
    return np.array(chords, dtype=np.intp).reshape(-1, 2), tol


class Envelope:
    """Least concave majorant of the level curve of ctx, sampled at source_qs.

    The samples' hull finds the chords (hull_chords), whose ends are then moved
    to the curve's exact tangency points (tangent_chords). The majorant is the
    curve itself, with the chord line in place of it strictly inside each chord.
    """

    def __init__(self, source_qs, source_vals, ctx: KernelContext):
        qs = np.asarray(source_qs, dtype=float)
        vals = np.asarray(source_vals, dtype=float)
        if qs.ndim != 1 or qs.size < 2 or qs.shape != vals.shape:
            raise DomainError("envelope needs matching 1-d sample arrays, >= 2 points")
        if np.any(np.diff(qs) <= 0):
            raise DomainError("envelope sample grid must be strictly increasing")
        _check_finite(qs, vals)
        self.source_qs = qs
        self.source_vals = vals
        self.ctx = ctx
        chords, self.touch_tolerance = hull_chords(qs, vals)
        self.chord_ends = tangent_chords(ctx, qs, chords).ravel()

    # --- queries -----------------------------------------------------------

    def evaluate(self, q):
        """Majorant value at q: the curve, or the chord line strictly inside a chord."""
        arr = np.asarray(q, dtype=float)
        if np.any((arr < -1e-12) | (arr > 1.0 + 1e-12)) or not np.all(np.isfinite(arr)):
            raise DomainError("envelope argument must lie in [0, 1]")
        flat = np.clip(arr, 0.0, 1.0).ravel()
        vals = np.array(self.ctx.moment_at_level(flat), dtype=float)
        chord_line(self.chord_ends, self.ctx.moment_at_level, flat, vals)
        return float(vals[0]) if np.ndim(q) == 0 else vals.reshape(arr.shape)

    def chords(self) -> list[Chord]:
        return [Chord(q1, q2) for q1, q2 in self.chord_ends.reshape(-1, 2).tolist()]

    def is_touch(self, q) -> np.ndarray:
        """Per q <= 1: True where the majorant meets the curve (q <= 0 counts as a touch).

        Off the chords the majorant is the curve; strictly inside one, a touch
        is where the chord line is within the touch tolerance of the curve.
        """
        arr = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any(np.isnan(arr) | (arr > 1.0 + 1e-12)):
            raise DomainError("is_touch argument must be a number <= 1")
        arr = np.minimum(arr, 1.0)
        inside = chord_segments(self.chord_ends, arr)[1]
        out = ~inside
        if np.any(inside):
            gap = self.evaluate(arr[inside]) - self.ctx.moment_at_level(arr[inside])
            out[inside] = gap <= self.touch_tolerance
        return out


def level_grid(grid_size: int) -> np.ndarray:
    """The grid_size evenly spaced acceptance levels an envelope samples on [0, 1]."""
    if grid_size < MIN_GRID_SIZE:
        raise DomainError(f"grid_size too small for a stable hull: {grid_size}")
    return np.linspace(0.0, 1.0, grid_size)


def build_envelope(ctx: KernelContext, grid_size: int = DEFAULT_GRID_SIZE) -> Envelope:
    """Sample moment_at_level on [0, 1] and take its least concave majorant."""
    qs = level_grid(grid_size)
    return Envelope(qs, np.asarray(ctx.moment_at_level(qs), dtype=float), ctx)


def chord_segments(ends: np.ndarray, arr: np.ndarray):
    """The chord rule, for chords given by their sorted ends [q1, q2, q1', q2', ...]:
    the index into ends of the end at or left of each q, and whether q lies
    strictly inside a chord."""
    if ends.size == 0:
        return np.zeros(arr.shape, dtype=np.intp), np.zeros(arr.shape, dtype=bool)
    seg = np.clip(np.searchsorted(ends, arr, side="right") - 1, 0, ends.size - 2)
    return seg, (seg % 2 == 0) & (arr > ends[seg]) & (arr < ends[seg + 1])


def chord_line(ends: np.ndarray, curve, qs: np.ndarray, vals: np.ndarray) -> None:
    """Put the chord line in place of the curve values vals at the levels qs,
    in place, strictly inside each chord; curve gives the curve at the ends."""
    inside = chord_segments(ends, qs)[1]
    if np.any(inside):
        vals[inside] = np.interp(qs[inside], ends, curve(ends))


def tangent_chords(ctx: KernelContext, qs: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Exact ends of the curve's chords, from the sample indices of the hull's.

    ends is an (m, 2) array of sample indices [k1, k2] into the grid qs, one
    row per chord; ctx.eta is one eta or one per chord. A chord end at the
    first or last sample is an end of the domain and stays. Every other end q
    of a chord whose other end is p is where the curve's tangent passes
    through (p, h(p)):

      g(q) = h'(q)(p - q) - (h(p) - h(q)) = 0,

    a root bracketed by the sample's two neighbouring cells; g times the sign
    of p - q decreases through it where the curve is concave. Where the curve
    has a kink (a density near zero inside the support), g changes sign across
    it and the end lands on the kink, the majorant's vertex there. The two
    ends are solved in turn, left first, TANGENCY_PASSES times: an error e in
    p moves the tangency by O(e^2), so each pass squares the error.
    """
    last = qs.size - 1
    q = qs[ends]
    lo, hi = qs[np.maximum(ends - 1, 0)], qs[np.minimum(ends + 1, last)]
    free = (ends > 0) & (ends < last)
    etas = np.broadcast_to(np.asarray(ctx.eta, dtype=float), ends.shape[:1])
    for sweep in range(TANGENCY_PASSES):
        for side, sign in ((0, 1.0), (1, -1.0)):
            # an end whose other end is a domain end is final after one solve
            solve = free[:, side] & (free[:, 1 - side] | (sweep == 0))
            if not np.any(solve):
                continue
            sub = KernelContext(etas[solve], ctx.noise)
            p = q[solve, 1 - side]
            hp = sub.moment_at_level(p)

            def g(x):
                return sign * (sub.slope_at_level(x) * (p - x) - (hp - sub.moment_at_level(x)))

            q[solve, side] = bisect_monotone_vec(g, lo[solve, side], hi[solve, side],
                                                 xtol=TANGENCY_XTOL)
    pinned = free & ((q - lo <= TANGENCY_XTOL) | (hi - q <= TANGENCY_XTOL))
    if np.any(pinned) or np.any(q[:, 0] >= q[:, 1]):
        raise NumericalError("a chord tangency lies outside the grid cells next to its "
                             "sampled end; a finer envelope grid resolves it")
    return q
