"""Least concave majorant of the acceptance-level moment curve.

This module is the one place a majorant is built: for one eta or for a grid
of etas, whose curves are sampled BLOCK_ETAS at a time (build_envelopes). The
curve q -> moment_at_level(q) on [0, 1] is sampled on a dense grid. A curve
with no reflex sample is its own hull (has_reflex_sample); otherwise its upper
concave hull is taken with a monotone chain (Andrew 1979), and hull segments
that bridge over strictly lower samples are recorded as chords (hull_chords).
The ends of every chord of the grid are then moved, in one batch, to where
the curve's tangent passes through the other end, with the curve's
closed-form slope (tangent_chords), so the chords are exact tangencies rather
than grid points.

An envelope holds its kernel context and its chords as one sorted array of
their exact ends, [q1, q2, q1', q2', ...], and one rule serves every query: q
is on a chord when it lies strictly inside one (chord_segments). The majorant
is the curve, with the chord line in place of it there (chord_line), for one
envelope or a block of them (majorant_rows). The touch tolerance is a
constant rule: TOUCH_REL times the largest sample magnitude (_touch_tolerance).

The chain's cross products for all consecutive sample triples are computed as
one array, so the runs of samples it keeps without popping are appended in
bulk; the scalar pop loop runs only where the curve bends the other way. Every
keep/pop decision uses the same floating-point expression as the plain
chain, so the hull is the same to the bit.
"""

from __future__ import annotations

import bisect

import numpy as np

from .errors import DomainError, NumericalError
from .kernel import KernelContext
from .numerics import bisect_monotone_vec

DEFAULT_GRID_SIZE = 4096
MIN_GRID_SIZE = 33  # the fewest samples that give a stable hull
TOUCH_REL = 1e-8
TANGENCY_XTOL = 1e-14  # width of the bracket a chord end is solved to
TANGENCY_PASSES = 2  # alternations of the two ends' solves
BLOCK_ETAS = 8  # etas sampled together: 4 to 16 run equally fast, 32 or more spill the cache


def _cross(qa, va, qb, vb, qi, vi):
    """Positive when b lies strictly below the a->i chord; scalars or arrays."""
    return (qb - qa) * (vi - va) - (qi - qa) * (vb - va)


def _triples_cross(qs, vals):
    """_cross of every consecutive sample triple, along the last axis of vals."""
    return _cross(qs[:-2], vals[..., :-2], qs[1:-1], vals[..., 1:-1], qs[2:], vals[..., 2:])


def _touch_tolerance(vals):
    """Per row of vals: TOUCH_REL times its largest magnitude, at every scale."""
    return TOUCH_REL * np.max(np.abs(vals), axis=-1)


def has_reflex_sample(qs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Per row of vals: would the hull chain pop a sample? A row with no
    reflex sample is its own hull, with no chord."""
    if not (np.all(np.isfinite(qs)) and np.all(np.isfinite(vals))):
        raise NumericalError("envelope samples contain non-finite values")
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


def hull_chords(qs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The chords of the samples' upper hull as (m, 2) sample-index pairs: hull
    segments bridging a sample more than the touch tolerance below them
    (single-cell segments follow the curve)."""
    hull = _upper_hull_indices(qs, vals)
    tol = _touch_tolerance(vals)
    chords = []
    for s in np.flatnonzero(np.diff(hull) > 1).tolist():
        a, b = hull[s], hull[s + 1]
        t = (qs[a + 1:b] - qs[a]) / (qs[b] - qs[a])
        line = vals[a] + t * (vals[b] - vals[a])
        if np.max(line - vals[a + 1:b]) > tol:
            chords.append((a, b))
    return np.array(chords, dtype=np.intp).reshape(-1, 2)


class Envelope:
    """Least concave majorant of the level curve of ctx, sampled at source_qs.

    The majorant is the curve itself, with the chord line in place of it
    strictly inside each chord; chord_ends holds the chords' exact ends, sorted.
    build_envelopes builds it.
    """

    def __init__(self, ctx: KernelContext, source_qs: np.ndarray, chord_ends: np.ndarray,
                 touch_tolerance: float):
        self.ctx = ctx
        self.source_qs = source_qs
        self.chord_ends = chord_ends
        self.touch_tolerance = touch_tolerance

    @property
    def source_vals(self) -> np.ndarray:
        """The curve at source_qs."""
        return self.ctx.moment_at_level(self.source_qs)

    # --- queries -----------------------------------------------------------

    def evaluate(self, q):
        """Majorant value at q: the curve, or the chord line strictly inside a chord."""
        arr = np.asarray(q, dtype=float)
        if np.any((arr < -1e-12) | (arr > 1.0 + 1e-12)) or not np.all(np.isfinite(arr)):
            raise DomainError("envelope argument must lie in [0, 1]")
        (vals,) = next(majorant_rows([self], np.clip(arr, 0.0, 1.0).ravel()))
        return float(vals[0]) if np.ndim(q) == 0 else vals.reshape(arr.shape)

    def chords(self) -> list:
        """Each chord's [q1, q2]: the majorant is linear there, strictly above the curve inside."""
        return self.chord_ends.reshape(-1, 2).tolist()

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


def _curve_blocks(ctxs, levels):
    """(start, rows) per block of BLOCK_ETAS contexts from start on: row i is the
    curve of ctxs[start + i] at levels, sampled through one column-eta context,
    which gives each row to the bit."""
    for start in range(0, len(ctxs), BLOCK_ETAS):
        block = ctxs[start:start + BLOCK_ETAS]
        column = KernelContext(np.array([[ctx.eta] for ctx in block]), block[0].noise)
        yield start, column.moment_at_level(levels)


def build_envelopes(ctxs, grid_size: int = DEFAULT_GRID_SIZE) -> list[Envelope]:
    """The envelope of each context, sampled on grid_size levels; the contexts
    share one noise model. Only a curve with a reflex sample is hulled, and
    the tangencies of every chord are solved in one batch."""
    if not ctxs:
        raise DomainError("need at least one kernel context")
    noise = ctxs[0].noise
    if any(ctx.noise is not noise for ctx in ctxs):
        raise DomainError("kernel contexts must share one noise model")
    qs = level_grid(grid_size)
    tols, sampled = [], []
    for _, rows in _curve_blocks(ctxs, qs):
        tols += _touch_tolerance(rows).tolist()
        sampled += [hull_chords(qs, row) if reflex else np.empty((0, 2), dtype=np.intp)
                    for row, reflex in zip(rows, has_reflex_sample(qs, rows).tolist())]
    counts = [chords.shape[0] for chords in sampled]
    etas = np.repeat([ctx.eta for ctx in ctxs], counts)
    exact = tangent_chords(KernelContext(etas, noise), qs, np.concatenate(sampled)).ravel()
    ends = np.split(exact, 2 * np.cumsum(counts)[:-1])
    return [Envelope(ctx, qs, e, tol) for ctx, e, tol in zip(ctxs, ends, tols)]


def build_envelope(ctx: KernelContext, grid_size: int = DEFAULT_GRID_SIZE) -> Envelope:
    """Sample moment_at_level on [0, 1] and take its least concave majorant."""
    return build_envelopes([ctx], grid_size)[0]


def majorant_rows(envs, levels: np.ndarray):
    """The majorants of envs, which share one noise model, at levels in [0, 1]:
    one array per block of BLOCK_ETAS envelopes, one row per envelope."""
    for start, rows in _curve_blocks([env.ctx for env in envs], levels):
        for env, row in zip(envs[start:], rows):
            chord_line(env.chord_ends, env.ctx.moment_at_level, levels, row)
        yield rows


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
