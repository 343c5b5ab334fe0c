import time

import numpy as np
import pytest

import stackgame as sg
from stackgame.envelope import Chord, Touch, envelope_from_samples
from stackgame.errors import DomainError, NumericalError


def h_uniform(q):
    """Closed-form level curve for uniform noise, delta=1, eta=2."""
    q = np.asarray(q, dtype=float)
    return 16.0 * q - 24.0 * q**2 + (28.0 / 3.0) * q**3


def test_majorizes_and_concave(uniform_env):
    qs = uniform_env.source_qs
    gap = uniform_env.evaluate(qs) - uniform_env.source_vals
    assert np.min(gap) >= -1e-12
    bq, bv = uniform_env.breakpoint_qs, uniform_env.breakpoint_vals
    slopes = np.diff(bv) / np.diff(bq)
    assert np.all(np.diff(slopes) <= 1e-9)


def test_endpoints_touch(uniform_env):
    assert abs(uniform_env.evaluate(0.0) - 0.0) < 1e-12
    assert abs(uniform_env.evaluate(1.0) - 4.0 / 3.0) < 1e-12


def test_single_chord_with_known_tangency(uniform_env):
    chords = uniform_env.chords()
    assert len(chords) == 1
    ch = chords[0]
    # tangency of the chord to q=1: root of 14 q^3 - 39 q^2 + 36 q - 11,
    # which factors as (q - 1)(14 q^2 - 25 q + 11) -> q1 = 11/14
    assert abs(ch.q1 - 11.0 / 14.0) < 1e-4
    assert ch.q2 == 1.0


def test_supporting_chord_classification(uniform_env):
    assert isinstance(uniform_env.supporting_chord(0.5), Touch)
    assert isinstance(uniform_env.supporting_chord(0.9), Chord)
    # at the right endpoint the majorant meets the curve again
    assert isinstance(uniform_env.supporting_chord(1.0), Touch)
    flags = uniform_env.is_touch(np.array([0.2, 0.5, 0.9, 1.0]))
    np.testing.assert_array_equal(flags, [True, True, False, True])


def test_touch_region_matches_curve(uniform_env, rng):
    qs = rng.uniform(0.01, 0.78, 200)
    np.testing.assert_allclose(uniform_env.evaluate(qs), h_uniform(qs),
                               rtol=0, atol=5e-7)


def test_chord_region_is_linear(uniform_env):
    ch = uniform_env.chords()[0]
    qs = np.linspace(ch.q1, ch.q2, 50)
    vals = uniform_env.evaluate(qs)
    t = (qs - ch.q1) / (ch.q2 - ch.q1)
    line = vals[0] + t * (vals[-1] - vals[0])
    np.testing.assert_allclose(vals, line, rtol=0, atol=1e-12)
    # the segment is the line through the curve values at its endpoints
    line_h = h_uniform(ch.q1) + t * (h_uniform(ch.q2) - h_uniform(ch.q1))
    np.testing.assert_allclose(vals, line_h, rtol=0, atol=1e-10)
    assert np.all(uniform_env.evaluate(qs[1:-1]) > h_uniform(qs[1:-1]))


def test_idempotent_rebuild(uniform_env):
    qs = uniform_env.source_qs
    env2 = envelope_from_samples(qs, uniform_env.evaluate(qs))
    probe = np.linspace(0.0, 1.0, 1111)
    np.testing.assert_allclose(env2.evaluate(probe), uniform_env.evaluate(probe),
                               rtol=0, atol=1e-12)


def test_hull_of_explicit_samples():
    qs = np.linspace(0.0, 1.0, 101)
    vals = np.minimum(qs, 0.3)  # concave piecewise-linear: hull is itself
    env = envelope_from_samples(qs, vals)
    np.testing.assert_allclose(env.evaluate(qs), vals, atol=1e-14)

    dip = 1.0 - np.abs(qs - 0.5)  # tent: already concave
    env2 = envelope_from_samples(qs, dip)
    assert not env2.chords()

    wiggle = qs * (1.0 - qs) * np.where(qs < 0.5, 0.1, 1.0)  # jump -> chord
    env3 = envelope_from_samples(qs, wiggle)
    assert env3.chords()


def test_domain_errors(uniform_env):
    with pytest.raises(DomainError):
        uniform_env.evaluate(1.5)
    with pytest.raises(DomainError):
        envelope_from_samples([0.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        sg.build_envelope(sg.KernelContext(2.0, sg.uniform(1.0)), 2)
    with pytest.raises(NumericalError):
        envelope_from_samples([0.0, 0.5, 1.0], [0.0, np.nan, 0.0])


@pytest.mark.parametrize("noise", [sg.truncated_normal(1.0, 0.5), sg.triangular(1.0)])
def test_other_models_build(noise):
    env = sg.build_envelope(sg.KernelContext(2.0, noise), 512)
    # exact majorization holds at the sample grid; between samples the linear
    # hull of a concave curve dips below it by O(step^2), so allow that much
    gap_grid = env.evaluate(env.source_qs) - env.source_vals
    assert np.min(gap_grid) >= -1e-12
    qs = np.linspace(0.0, 1.0, 257)
    gap_off = env.evaluate(qs) - env.curve_value(qs)
    assert np.min(gap_off) >= -5e-5


def test_tabulated_envelope_within_budget():
    # 4096-point wavy table: many chords, every sample through the closed-form kernel
    xs = np.linspace(-1.0, 1.0, 4096)
    noise = sg.tabulated(xs, 1.0 - 0.6 * np.abs(xs) + 0.3 * np.cos(25.0 * np.pi * xs))
    ctx = sg.KernelContext(2.0, noise)
    t0 = time.perf_counter()
    env = sg.build_envelope(ctx, 4096)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"4096-point tabulated envelope took {elapsed:.2f}s"
    assert len(env.chords()) >= 10 and env.source_qs.size > 4096
    assert np.min(env.evaluate(env.source_qs) - env.source_vals) >= -1e-12
