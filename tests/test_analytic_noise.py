"""Property tests: the closed-form noise layer against adaptive quadrature,
and the kernel and adversary built on it.

Random family, parameters, lower limits L, levels p, thresholds eta and
acceptance levels alpha; hypothesis runs derandomized so the suite stays
deterministic and fast.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackgame as sg
from stackgame import noise_model
from stackgame.errors import NumericalError
from stackgame.envelope import build_envelope
from stackgame.noise_model import KINDS
from stackgame.numerics import adaptive_simpson

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def noise_models(draw, min_sigma=0.05, min_pdf=0.0):
    """A random model of each family; sigma and table densities are relative to delta.

    sigma is log-uniform up to 1e6 delta, across both truncated-normal forms."""
    kind = draw(st.sampled_from(KINDS))
    delta = draw(st.floats(0.25, 3.0))
    if kind == "uniform":
        return sg.uniform(delta)
    if kind == "triangular":
        return sg.triangular(delta)
    if kind == "truncated-normal":
        return sg.truncated_normal(delta, delta * 10.0 ** draw(st.floats(np.log10(min_sigma), 6.0)))
    # symmetric table; zero density inside is allowed, the center keeps mass
    half = draw(st.lists(st.floats(min_pdf, 2.0), min_size=1, max_size=12))
    center = draw(st.floats(0.1, 2.0))
    pdf = half[::-1] + [center] + half
    return sg.tabulated(np.linspace(-delta, delta, len(pdf)), pdf)


def _quad_moment(model, k, lo, hi):
    """integral of x^k f(x) over [lo, hi], split at 0 where f may have a kink."""
    f = lambda x: x ** k * model.pdf_scalar(x)
    tol = 1e-13
    if lo < 0.0 < hi:
        return adaptive_simpson(f, lo, 0.0, tol) + adaptive_simpson(f, 0.0, hi, tol)
    return adaptive_simpson(f, lo, hi, tol)


@PROPERTY
@given(noise_models(), st.floats(-1.2, 1.2))
def test_partial_moments_match_quadrature(model, frac):
    lo, hi = model.support
    L = frac * model.delta
    got = model.partial_moments(L)
    for k in range(3):
        want = _quad_moment(model, k, max(L, lo), hi) if L < hi else 0.0
        assert abs(float(got[k]) - want) <= 1e-9, (model, L, k)


@pytest.mark.parametrize("sigma", [8.0, 64.0, 3e3, 3e6])
def test_wide_truncated_normal_moments_against_mpmath(sigma):
    # from sigma = 8 delta on the series forms hold; the erf/phi forms lost sigma^2 eps
    model = sg.truncated_normal(1.0, sigma)
    ls = np.linspace(-1.0, 1.0, 9)
    got = model.partial_moments(ls)
    with mpmath.workdps(50):
        f = lambda x: mpmath.exp(-x * x / (2 * mpmath.mpf(sigma) ** 2))
        mass = mpmath.quad(f, [-1, 0, 1])
        for k in range(3):
            want = [mpmath.quad(lambda x: x ** k * f(x), [float(L), 1]) / mass for L in ls]
            assert np.max(np.abs(got[k] - np.array(want, dtype=float))) <= 1e-14, (sigma, k)



def _economised(series, terms):
    """series (lowest power first) economised on [0, 1] to terms terms, highest first: each
    dropped power u^n becomes the lower ones of the shifted Chebyshev polynomial it leads,
    T*_n(u) = T_n(2u - 1), at a cost of |c_n| / 2^(2n - 1)."""
    t = [[1], [-1, 2]]  # T*_n, lowest power first: T*_(n+1) = (4u - 2) T*_n - T*_(n-1)
    while len(t) < len(series):
        t.append([4 * a - 2 * b - c for a, b, c in zip([0] + t[-1], t[-1] + [0], t[-2] + [0, 0])])
    c = list(series)
    while len(c) > terms:
        k = c.pop() / t[len(c)][-1]
        c = [ci - k * ti for ci, ti in zip(c, t[len(c)])]
    return c[::-1]


def test_erf_series_is_the_economised_taylor_series():
    taylor = [2.0 / math.sqrt(math.pi) * (-1) ** k / (math.factorial(k) * (2 * k + 1))
              for k in range(21)]
    assert noise_model._ERF_SERIES == tuple(_economised(taylor, 12))


def test_erf_against_mpmath():
    # a grid, random points, and both sides of 1 and of 6, where the branches meet
    edges = [1.0, 6.0, *np.nextafter([1.0, 6.0], 0.0)]
    xs = np.concatenate([np.linspace(-6.5, 6.5, 2601),
                         np.random.default_rng(3).uniform(-6.5, 6.5, 400), edges])
    tiny = np.geomspace(1e-300, 1.0, 601)
    erf = noise_model._erf
    with mpmath.workdps(50):
        err = [abs(mpmath.mpf(g) - mpmath.erf(x)) for g, x in zip(erf(xs), xs)]
        rel = [abs(mpmath.mpf(g) / mpmath.erf(x) - 1) for g, x in zip(erf(tiny), tiny)]
    assert max(err) <= 2.5e-16 and max(rel) <= 4e-16
    assert np.array_equal(erf(-xs), -erf(xs))  # odd to the bit


def test_norm_ppf_against_mpmath():
    # a log grid, random points, both sides of the branches' edges p = 0.075 and exp(-25),
    # and 1/2, whose quantile is 0
    edges = [p for e in (0.075, np.exp(-25.0)) for p in np.nextafter(e, [0.0, 1.0])]
    ps = np.concatenate([np.geomspace(1e-300, 0.5, 300, endpoint=False),
                         np.random.default_rng(5).uniform(0.0, 0.5, 100), edges, [0.5]])
    got = noise_model._norm_ppf(ps, ps - 0.5)
    with mpmath.workdps(40):
        for g, p in zip(got, ps):
            want = mpmath.findroot(lambda t: mpmath.log(mpmath.ncdf(t) / p), g) if p < 0.5 else 0
            assert abs(mpmath.mpf(g) - want) <= 1e-15 * abs(want), p


@pytest.mark.parametrize("sigma", [1e-155, 3e-8, 0.5, 3.0, 8.0, 50.0])
def test_truncated_normal_inverse_against_mpmath(sigma):
    # both laws, from a density of 4e154 to one flat to 2e-4: the ends and the center
    # exact, mirrored levels mirrored to the bit, and the rest to 2e-15 relative, which
    # the wide law reaches only by taking its quantile's central offset exactly
    model = sg.truncated_normal(1.0, sigma)
    assert [model.inv_cdf(p) for p in (0.0, 0.5, 1.0)] == [-1.0, 0.0, 1.0]
    ps = np.arange(1, 512) / 1024.0
    assert np.array_equal(model.inv_cdf(1.0 - ps), -model.inv_cdf(ps))
    ps = np.array([1e-300, 1e-9, 1e-3, 0.1, 0.25, 0.4, 0.499, 0.5001, 0.6, 0.9, 1.0 - 1e-6])
    with mpmath.workdps(60):
        scale = mpmath.mpf(sigma) * mpmath.sqrt(2)
        mass = mpmath.erf(1 / scale)
        for got, p in zip(model.inv_cdf(ps), ps):
            # |x| = -sigma t, where the untruncated normal puts this mass below t
            below = mass * min(mpmath.mpf(p), 1 - mpmath.mpf(p)) + (1 - mass) / 2
            t = mpmath.findroot(lambda t: mpmath.log(mpmath.ncdf(t) / below), -abs(got) / sigma)
            assert abs(abs(mpmath.mpf(got)) / (-sigma * t) - 1) <= 2e-15, p

@PROPERTY
@given(noise_models(), st.floats(2.0, 4.0), st.floats(0.0, 1.0))
def test_error_moment_matches_quadrature(model, eta, frac):
    # any offset: always accepted below z_lo, never beyond z_hi
    ctx = sg.KernelContext(eta, model)
    z = frac * (ctx.z_hi + model.delta)
    want = adaptive_simpson(lambda x: (x + z) ** 2 * model.pdf_scalar(x),
                            max(z - eta * model.delta, -model.delta), model.delta, 1e-12)
    assert abs(ctx.error_moment(z) - want) <= 1e-9 * max(1.0, want), (model, eta, z)


@PROPERTY
@given(noise_models(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_inv_cdf_round_trip(model, ps):
    ps = np.sort(np.asarray(ps))
    xs = model.inv_cdf(ps)  # raises NumericalError on a miss
    lo, hi = model.support
    assert np.all((xs >= lo) & (xs <= hi))
    assert np.all(np.diff(xs) >= 0.0)
    tol = 1e-12 * float(np.max(model.pdf(np.linspace(lo, hi, 2001)))) + 1e-15
    assert np.max(np.abs(model.cdf(xs) - ps)) <= tol
    # the family's symmetry carries over to the inverse (1 - (1 - p) is
    # exact), up to its conditioning: an error e in p moves x by e / pdf(x)
    mirrored = 1.0 - ps
    left, right = model.inv_cdf(mirrored), -model.inv_cdf(1.0 - mirrored)
    slack = tol / np.maximum(model.pdf(left), 1e-300)
    assert np.all(np.abs(left - right) <= 1e-12 + slack)


@pytest.mark.parametrize("kind", KINDS)
def test_scalar_and_array_forms_agree(kind):
    model = {"uniform": sg.uniform(1.5), "triangular": sg.triangular(1.5),
             "truncated-normal": sg.truncated_normal(1.5, 0.4),
             "tabulated": sg.tabulated([-1.5, 0.0, 1.5], [0.0, 1.0, 0.0])}[kind]
    ps = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
    xs = model.inv_cdf(ps)
    assert [model.inv_cdf(float(p)) for p in ps] == list(xs)
    assert (xs[0], xs[-1]) == model.support
    moments = model.partial_moments(xs)
    for i, x in enumerate(xs):
        assert [float(m) for m in model.partial_moments(float(x))] == \
            [float(m[i]) for m in moments]


def test_inv_cdf_round_trip_check_raises(monkeypatch):
    model = sg.truncated_normal(1.0, 0.5)
    exact = model.law.inv_cdf
    monkeypatch.setattr(model.law, "inv_cdf", lambda p: exact(p) + 1e-9)
    with pytest.raises(NumericalError, match="misses its target"):
        model.inv_cdf(np.array([0.3, 0.7]))
    with pytest.raises(NumericalError):
        model.sample(np.random.default_rng(0), 10)


def test_a_miss_in_the_last_sample_block_raises(monkeypatch):
    """The round-trip check covers every draw: one miss in the last of three chunks' worth
    and five still raises."""
    model = sg.truncated_normal(1.0, 0.5)
    count = 24581
    draws = np.random.default_rng(9).random(count)
    target = draws[-1]  # the draw with index 24580, and no other
    assert np.count_nonzero(draws == target) == 1
    exact = model.law.inv_cdf
    monkeypatch.setattr(model.law, "inv_cdf", lambda p: exact(p) + 1e-9 * (p == target))
    with pytest.raises(NumericalError, match="misses its target"):
        model.sample(np.random.default_rng(9), count)


def test_tabulated_matches_the_family_it_tabulates():
    # a triangle tabulated at its kinks is exactly the triangular family
    tab = sg.tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    tri = sg.triangular(1.0)
    ls = np.linspace(-1.0, 1.0, 101)
    for got, want in zip(tab.partial_moments(ls), tri.partial_moments(ls)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    ps = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(tab.inv_cdf(ps), tri.inv_cdf(ps), rtol=0, atol=1e-15)


# Where the density is not negligible, so that a step of 1e-3 of the kernel
# domain moves the CDF by more than its rounding: sigma >= delta / 4 and
# table densities >= 0.05.
@PROPERTY
@given(noise_models(min_sigma=0.25, min_pdf=0.05), st.floats(2.0, 6.0),
       st.floats(0.0, 0.999), st.floats(1e-3, 1.0))
def test_accept_prob_strictly_decreases_on_the_kernel_domain(model, eta, frac, gap):
    ctx = sg.KernelContext(eta, model)
    width = ctx.z_hi - ctx.z_lo
    z1 = ctx.z_lo + frac * width
    z2 = min(z1 + gap * width, ctx.z_hi)
    assert ctx.accept_prob(z1) > ctx.accept_prob(z2), (model, eta, z1, z2)


@PROPERTY
@given(noise_models(), st.floats(2.0, 6.0), st.floats(1e-3, 1.0))
def test_build_adversary_achieves_alpha(model, eta, alpha):
    ctx = sg.KernelContext(eta, model)
    adv = sg.build_adversary(build_envelope(ctx, 512), alpha)
    achieved = sum(w * ctx.accept_prob(z) for z, w in adv.atoms)
    assert abs(achieved - alpha) <= 1e-12, (model, eta, alpha, adv.atoms)


# The envelope's c_alpha is the supremum over all distributions; the oracle
# searches one- and two-atom ones on a finite grid, so it cannot exceed it
# beyond criterion 3's tolerance.
@PROPERTY
@given(noise_models(), st.floats(2.0, 6.0), st.floats(1e-3, 1.0))
def test_c_alpha_bounds_the_oracle(model, eta, alpha):
    ctx = sg.KernelContext(eta, model)
    c = float(sg.c_alpha(build_envelope(ctx, 512), alpha))
    assert c >= sg.oracle_c2(ctx, alpha, grid_size=256) - 5e-3 * max(1.0, abs(c)), \
        (model, eta, alpha)
