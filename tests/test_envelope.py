import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackgame as sg
from stackgame import cli, envelope
from stackgame.errors import DomainError, NumericalError

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


def reference_hull(qs, vals):
    """The plain monotone chain (Andrew 1979): the oracle for _upper_hull_indices."""
    kept = []
    for i in range(qs.size):
        while len(kept) >= 2:
            a, b = kept[-2], kept[-1]
            cross = ((qs[b] - qs[a]) * (vals[i] - vals[a])
                     - (qs[i] - qs[a]) * (vals[b] - vals[a]))
            if cross > 0.0:  # middle point strictly below the a->i chord
                kept.pop()
            else:
                break
        kept.append(i)
    return kept


def wavy_table():
    xs = np.linspace(-1.0, 1.0, 4096)
    return sg.tabulated(xs, 1.0 - 0.6 * np.abs(xs) + 0.3 * np.cos(25.0 * np.pi * xs))


def h_uniform(q):
    """Closed-form level curve for uniform noise, delta=1, eta=2."""
    q = np.asarray(q, dtype=float)
    return 16.0 * q - 24.0 * q**2 + (28.0 / 3.0) * q**3


def test_majorizes_and_concave(uniform_env):
    qs = uniform_env.source_qs
    gap = uniform_env.evaluate(qs) - uniform_env.source_vals
    assert np.min(gap) >= -1e-12
    # the majorant at its samples and chord ends: nonincreasing slopes
    bq = np.union1d(qs, uniform_env.chord_ends)
    slopes = np.diff(uniform_env.evaluate(bq)) / np.diff(bq)
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
    assert abs(ch.q1 - 11.0 / 14.0) < 1e-12
    assert ch.q2 == 1.0


def test_supporting_chord_classification(uniform_env):
    # the chord is [11/14, 1]; at its right end the majorant meets the curve again
    assert uniform_env.is_touch(0.5).tolist() == [True]
    assert uniform_env.is_touch(0.9).tolist() == [False]
    assert uniform_env.is_touch(1.0).tolist() == [True]
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
    # the majorant's samples are their own hull, with no chord
    qs = uniform_env.source_qs
    vals = uniform_env.evaluate(qs)
    hull = envelope._upper_hull_indices(qs, vals)
    probe = np.linspace(0.0, 1.0, 1111)
    np.testing.assert_allclose(np.interp(probe, qs[hull], vals[hull]),
                               np.interp(probe, qs, vals), rtol=0, atol=1e-12)
    assert envelope.hull_chords(qs, vals).size == 0


def test_hull_of_explicit_samples():
    qs = np.linspace(0.0, 1.0, 101)
    vals = np.minimum(qs, 0.3)  # concave piecewise-linear: hull is itself
    hull = envelope._upper_hull_indices(qs, vals)
    np.testing.assert_allclose(np.interp(qs, qs[hull], vals[hull]), vals, atol=1e-14)

    dip = 1.0 - np.abs(qs - 0.5)  # tent: already concave
    assert envelope.hull_chords(qs, dip).size == 0

    wiggle = qs * (1.0 - qs) * np.where(qs < 0.5, 0.1, 1.0)  # jump -> chord
    assert envelope.hull_chords(qs, wiggle).size


def test_domain_errors(uniform_env):
    with pytest.raises(DomainError):
        uniform_env.evaluate(1.5)
    with pytest.raises(DomainError):
        sg.build_envelope(sg.KernelContext(2.0, sg.uniform(1.0)), 2)
    with pytest.raises(NumericalError):
        envelope.has_reflex_sample(np.array([0.0, 0.5, 1.0]), np.array([0.0, np.nan, 0.0]))


@pytest.mark.parametrize("noise", [sg.truncated_normal(1.0, 0.5), sg.triangular(1.0)])
def test_other_models_build(noise):
    ctx = sg.KernelContext(2.0, noise)
    env = sg.build_envelope(ctx, 512)
    # the majorant is the curve or a chord above it, on the sample grid and between
    gap_grid = env.evaluate(env.source_qs) - env.source_vals
    assert np.min(gap_grid) >= -1e-12
    qs = np.linspace(0.0, 1.0, 257)
    gap_off = env.evaluate(qs) - ctx.moment_at_level(qs)
    assert np.min(gap_off) >= -1e-12


def test_tabulated_envelope_within_budget():
    # 4096-point wavy table: many chords, every sample through the closed-form kernel
    ctx = sg.KernelContext(2.0, wavy_table())
    t0 = time.perf_counter()
    env = sg.build_envelope(ctx, 4096)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"4096-point tabulated envelope took {elapsed:.2f}s"
    assert np.min(env.evaluate(env.source_qs) - env.source_vals) >= -1e-12
    chords = env.chords()
    assert len(chords) >= 10
    # every chord end off the domain's ends is a tangency: the curve's slope
    # there is the chord's slope
    for ch in chords:
        h1, h2 = ctx.moment_at_level(ch.q1), ctx.moment_at_level(ch.q2)
        slope = (h2 - h1) / (ch.q2 - ch.q1)
        for q in (ch.q1, ch.q2):
            if 0.0 < q < 1.0:
                assert abs(ctx.slope_at_level(q) - slope) <= 1e-10 * max(1.0, abs(slope)), q


# --- the bulk-append hull against the plain chain ------------------------------

@st.composite
def hull_inputs(draw):
    """Strictly increasing qs in [0, 1] with arbitrary, repeated or collinear values."""
    n = draw(st.integers(2, 80))
    kind = draw(st.sampled_from(["arbitrary", "repeated", "collinear"]))
    if kind == "collinear":
        # integer steps and slopes: every collinear triple has a zero cross product
        steps = np.array(draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1)))
        slopes = np.array(draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1)))
        run = draw(st.integers(1, 8))
        slopes = np.repeat(slopes[::run], run)[:n - 1]  # runs of equal slope
        qs = np.concatenate([[0.0], np.cumsum(steps)]).astype(float)
        vals = np.concatenate([[0.0], np.cumsum(steps * slopes)]).astype(float)
        return qs / qs[-1], vals
    qs = np.cumsum(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    qs = (qs - qs[0]) / (qs[-1] - qs[0])
    if kind == "repeated":
        vals = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=n, max_size=n))
    else:
        vals = draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n))
    return qs, np.asarray(vals, dtype=float)


@PROPERTY
@given(hull_inputs())
def test_hull_matches_the_plain_chain(data):
    qs, vals = data
    assert envelope._upper_hull_indices(qs, vals).tolist() == reference_hull(qs, vals)


@PROPERTY
@given(hull_inputs())
def test_majorant_majorizes_with_nonincreasing_slopes(data):
    qs, vals = data
    hull = envelope._upper_hull_indices(qs, vals)
    scale = 1.0 + np.max(np.abs(vals))
    assert np.min(np.interp(qs, qs[hull], vals[hull]) - vals) >= -1e-12 * scale
    slopes = np.diff(vals[hull]) / np.diff(qs[hull])
    assert np.all(np.diff(slopes) <= 1e-9 * (1.0 + np.max(np.abs(slopes))))


def test_hull_matches_the_plain_chain_on_rounded_lines():
    # samples of one line in floating point: every keep/pop decision rests on
    # rounding, so any change in how the cross product is evaluated shows here
    rng = np.random.default_rng(3)
    for _ in range(2000):
        qs = np.cumsum(rng.uniform(0.01, 1.0, rng.integers(3, 80)))
        qs = (qs - qs[0]) / (qs[-1] - qs[0])
        vals = rng.uniform(-10.0, 10.0) * qs + rng.uniform(-10.0, 10.0)
        assert envelope._upper_hull_indices(qs, vals).tolist() == reference_hull(qs, vals)


def test_hull_of_two_and_three_points():
    qs2, qs3 = np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0])
    assert envelope._upper_hull_indices(qs2, np.array([1.0, -1.0])).tolist() == [0, 1]
    for vals in itertools.product([-1.0, 0.0, 1.0], repeat=3):
        vals = np.array(vals)
        assert envelope._upper_hull_indices(qs3, vals).tolist() == reference_hull(qs3, vals), vals


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.sampled_from(["uniform", "triangular", "truncated-normal", "tabulated"]),
       st.floats(2.0, 8.0))
def test_hull_matches_the_plain_chain_on_envelope_samples(kind, eta):
    noise = {"uniform": sg.uniform(1.0), "triangular": sg.triangular(1.0),
             "truncated-normal": sg.truncated_normal(1.0, 0.5),
             "tabulated": wavy_table()}[kind]
    ctx = sg.KernelContext(eta, noise)
    env = sg.build_envelope(ctx, 1024)
    qs = np.linspace(0.0, 1.0, 1024)
    for q, v in ((qs, ctx.moment_at_level(qs)), (env.source_qs, env.source_vals)):
        assert envelope._upper_hull_indices(q, v).tolist() == reference_hull(q, v)


def reference_is_touch(env, q):
    """The former scalar chord query: a loop over the chords; strictly inside one,
    a touch where the majorant is within the touch tolerance of the curve."""
    for ch in env.chords():
        if ch.q1 < q < ch.q2:
            return env.evaluate(q) - env.ctx.moment_at_level(q) <= env.touch_tolerance
    return True


# sigma = 3 gives the truncated normal a chord at eta = 2 (sigma = 0.5 has none)
@pytest.mark.parametrize("noise", [sg.uniform(1.0), sg.truncated_normal(1.0, 3.0), wavy_table()],
                         ids=["uniform", "truncated-normal", "tabulated"])
def test_is_touch_matches_supporting_chord(noise):
    env = sg.build_envelope(sg.KernelContext(2.0, noise), 4096)
    qs = env.source_qs
    scalar = [reference_is_touch(env, q) for q in qs]
    np.testing.assert_array_equal(env.is_touch(qs), scalar)
    assert not all(scalar)
    for bad in (1.5, np.nan):
        with pytest.raises(DomainError):
            env.is_touch(np.array([0.5, bad]))


def reference_c_alpha(env, alphas):
    """c_alpha with its former chord rule: a loop of q1 < alpha < q2 over the chords,
    each chord's line interpolated between its own two ends."""
    curve = env.ctx.moment_at_level
    vals = np.asarray(curve(alphas), dtype=float)
    for ch in env.chords():
        on_chord = (alphas > ch.q1) & (alphas < ch.q2)
        ends = np.array([ch.q1, ch.q2])
        vals[on_chord] = np.interp(alphas[on_chord], ends, curve(ends))
    return vals / (4.0 * alphas)


@pytest.mark.parametrize("noise", [sg.uniform(1.0), sg.truncated_normal(1.0, 3.0), wavy_table()],
                         ids=["uniform", "truncated-normal", "tabulated"])
def test_c_alpha_chord_rule_matches_the_chord_loop(noise):
    env = sg.build_envelope(sg.KernelContext(2.0, noise), 4096)
    ends = np.array([q for ch in env.chords() for q in (ch.q1, ch.q2)])
    assert ends.size
    # every chord endpoint and its floating-point neighbors on both sides
    near = np.concatenate([ends, np.nextafter(ends, -1.0), np.nextafter(ends, 2.0)])
    alphas = np.concatenate([np.linspace(1e-3, 1.0, 1000), near])
    alphas = alphas[(alphas > 0.0) & (alphas <= 1.0)]
    assert np.array_equal(sg.c_alpha(env, alphas), reference_c_alpha(env, alphas))
    assert np.array_equal(sg.c_alpha(env, alphas), env.evaluate(alphas) / (4.0 * alphas))


def test_solve_artifacts_do_not_depend_on_the_hull(tmp_path, monkeypatch):
    # 31 etas; eta < 2.8 carries a chord on uniform noise, the rest do not
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "eta_grid": {"start": 2.0, "stop": 8.0, "step": 0.2},
        "utility": {"dc": {"family": "linear_penalty", "params": {"gamma": 0.02}}},
    }))
    noise = sg.uniform(1.0)
    assert sg.build_envelope(sg.KernelContext(2.0, noise)).chords()
    assert not sg.build_envelope(sg.KernelContext(8.0, noise)).chords()

    def solve(name):
        out = tmp_path / name
        assert cli.main(["solve", "--config", str(config), "--output", str(out)]) == 0
        return {n: (out / n).read_bytes() for n in ("equilibrium.json", "eta_utility.csv")}

    fast = solve("out")
    monkeypatch.setattr(envelope, "_upper_hull_indices", reference_hull)
    assert solve("out") == fast
