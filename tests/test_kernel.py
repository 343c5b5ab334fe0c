import mpmath
import numpy as np
import pytest

import stackgame as sg
from stackgame import envelope
from stackgame.errors import DomainError

from oracles import accept_prob_quad, error_moment_quad


def test_domain_bounds(uniform_ctx):
    assert uniform_ctx.z_lo == 1.0 and uniform_ctx.z_hi == 3.0
    with pytest.raises(DomainError):
        sg.KernelContext(1.5, sg.uniform(1.0))
    # the kernel holds at every offset; the quadrature oracles check theirs
    assert uniform_ctx.accept_prob(3.5) == 0.0
    with pytest.raises(DomainError):
        accept_prob_quad(uniform_ctx, 3.5)


def test_uniform_closed_forms(uniform_ctx):
    # k(z) = (3 - z)/2 and nu via the cubic difference, both hand-derived
    zs = np.linspace(1.0, 3.0, 201)
    np.testing.assert_allclose(uniform_ctx.accept_prob(zs), (3.0 - zs) / 2.0,
                               rtol=0, atol=1e-14)
    nu = ((1.0 + zs) ** 3 - (2.0 * zs - 2.0) ** 3) / 6.0
    np.testing.assert_allclose(uniform_ctx.error_moment(zs), nu, rtol=0, atol=1e-12)


def test_uniform_against_quadrature(uniform_ctx):
    for z in np.linspace(1.0, 3.0, 1001):
        assert abs(uniform_ctx.accept_prob(z) - accept_prob_quad(uniform_ctx, z)) < 1e-9
        assert abs(uniform_ctx.error_moment(z) - error_moment_quad(uniform_ctx, z)) < 1e-9


@pytest.mark.parametrize("noise", [sg.truncated_normal(1.0, 0.5), sg.triangular(1.0)])
@pytest.mark.parametrize("eta", [2.0, 3.0])
def test_general_kernel_matches_quadrature(noise, eta):
    ctx = sg.KernelContext(eta, noise)
    for z in np.linspace(ctx.z_lo, ctx.z_hi, 9):
        assert abs(ctx.accept_prob(z) - accept_prob_quad(ctx, z)) < 1e-8
        assert abs(ctx.error_moment(z) - error_moment_quad(ctx, z)) < 1e-8


def test_accept_prob_endpoints(uniform_ctx):
    assert uniform_ctx.accept_prob(uniform_ctx.z_lo) == 1.0
    assert uniform_ctx.accept_prob(uniform_ctx.z_hi) == 0.0


@pytest.mark.parametrize("noise", [sg.uniform(1.0), sg.truncated_normal(1.0, 0.5),
                                   sg.triangular(1.0)])
def test_inverse_roundtrip(noise, rng):
    ctx = sg.KernelContext(2.5, noise)
    qs = rng.uniform(1e-6, 1.0, 100)
    zs = ctx.accept_prob_inv(qs)
    np.testing.assert_allclose(ctx.accept_prob(zs), qs, atol=1e-9)
    # and the other direction, starting from offsets
    z_grid = np.linspace(ctx.z_lo, ctx.z_hi, 101)
    np.testing.assert_allclose(ctx.accept_prob_inv(ctx.accept_prob(z_grid)),
                               z_grid, atol=1e-8)


@pytest.mark.parametrize("noise", [sg.uniform(1.0), sg.truncated_normal(1.0, 0.5)])
def test_accept_prob_strictly_decreasing(noise, rng):
    ctx = sg.KernelContext(2.0, noise)
    pair = np.sort(rng.uniform(ctx.z_lo, ctx.z_hi, (1000, 2)), axis=1)
    assert np.all(ctx.accept_prob(pair[:, 0]) > ctx.accept_prob(pair[:, 1]))


def test_accept_prob_matches_sampling(uniform_ctx):
    n = 1_000_000
    draws = uniform_ctx.noise.sample(np.random.default_rng(7), n)
    for z in (1.4, 2.0, 2.6):
        k = uniform_ctx.accept_prob(z)
        frac = np.mean(draws >= z - uniform_ctx.eta * uniform_ctx.noise.delta)
        assert abs(frac - k) <= 4.0 * np.sqrt(k * (1.0 - k) / n)


def test_moment_at_level(uniform_ctx):
    # q=0.5 -> z=2 -> nu = 19/6
    assert abs(uniform_ctx.moment_at_level(0.5) - 19.0 / 6.0) < 1e-12
    assert abs(uniform_ctx.moment_at_level(1.0) - 4.0 / 3.0) < 1e-12


def cos2_table():
    """A wavy 4096-point tabulated noise: pdf proportional to (1 - |x|)(1 + 0.5 cos^2(40x))."""
    xs = np.linspace(-1.0, 1.0, 4096)
    return sg.tabulated(xs, (1.0 - np.abs(xs)) * (1.0 + 0.5 * np.cos(40.0 * xs) ** 2))


LEVEL_CURVE_NOISES = {
    "uniform": sg.uniform(1.0),
    "triangular": sg.triangular(1.0),
    "truncated-normal-0.5": sg.truncated_normal(1.0, 0.5),
    "truncated-normal-3": sg.truncated_normal(1.0, 3.0),
    "truncated-normal-10": sg.truncated_normal(1.0, 10.0),  # the wide-normal series
    "tabulated": cos2_table(),
    "uniform-1e-4": sg.uniform(1e-4),
}
LEVEL_CURVE_ETAS = [2.0, 2.37, 3.0, 4.5, 5.25, 6.0, 7.1, 7.5, 8.0, 9.99]  # two blocks


@pytest.mark.parametrize("kind", list(LEVEL_CURVE_NOISES))
def test_moment_at_level_is_the_error_moment_at_the_inverse(kind):
    # the partial moments at L = F^-1(1 - q) itself, not at fl(eta*delta + L) - eta*delta
    noise = LEVEL_CURVE_NOISES[kind]
    if kind == "truncated-normal-10":
        assert type(noise.law).__name__ == "_WideNormal"
    qs = envelope.level_grid(envelope.DEFAULT_GRID_SIZE)
    ctxs = [sg.KernelContext(eta, noise) for eta in LEVEL_CURVE_ETAS]
    checked = 0
    for start, block in envelope._curve_blocks(ctxs, qs):
        for ctx, row in zip(ctxs[start:], block):
            # a block's row is its eta's own curve to the bit
            assert np.array_equal(row, ctx.moment_at_level(qs))
            want = ctx.error_moment(ctx.accept_prob_inv(qs))
            assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want))
            checked += 1
    assert checked == len(ctxs)


@pytest.mark.parametrize("kind", ["uniform", "triangular", "truncated-normal-3", "tabulated"])
def test_the_curve_and_its_slope_take_their_moments_at_one_level(kind, monkeypatch):
    # both at L = F^-1(1 - q) itself: the tangency solve pairs the curve with its slope
    noise = LEVEL_CURVE_NOISES[kind]
    moments, levels = noise.partial_moments, []

    def recorded(level):
        levels.append(np.array(level, dtype=float))
        return moments(level)

    monkeypatch.setattr(noise, "partial_moments", recorded)
    ctx = sg.KernelContext(2.37, noise)
    qs = envelope.level_grid(envelope.DEFAULT_GRID_SIZE)  # q = 1 too, where f(-delta) may vanish
    ctx.moment_at_level(qs)
    ctx.slope_at_level(qs)
    assert len(levels) == 2 and np.array_equal(levels[0], levels[1])


@pytest.mark.parametrize("q", [-1e-300, 1.0 + 1e-15, np.nan, [0.5, np.nan], [0.0, 2.0]])
def test_moment_at_level_refuses_levels_outside_the_unit_interval(uniform_ctx, q):
    with pytest.raises(DomainError):
        uniform_ctx.moment_at_level(q)
    with pytest.raises(DomainError):
        uniform_ctx.accept_prob_inv(q)


def test_scale_invariance():
    # doubling delta scales offsets by 2 and second moments by 4
    small = sg.KernelContext(2.0, sg.uniform(1.0))
    big = sg.KernelContext(2.0, sg.uniform(2.0))
    for z in (1.2, 2.0, 2.8):
        assert abs(big.accept_prob(2 * z) - small.accept_prob(z)) < 1e-12
        assert abs(big.error_moment(2 * z) - 4.0 * small.error_moment(z)) < 1e-10


# --- the level curve's closed-form slope ----------------------------------------

_XS = np.linspace(-1.0, 1.0, 33)
_TABLE = 1.0 - 0.6 * np.abs(_XS) + 0.3 * np.cos(5.0 * np.pi * _XS)
SLOPE_NOISES = {
    "uniform": sg.uniform(1.0),
    "truncated-normal": sg.truncated_normal(1.0, 0.5),
    "triangular": sg.triangular(1.0),
    "tabulated": sg.tabulated(_XS, _TABLE),
}


def central_slope(ctx, qs, d):
    """Fourth-order central difference of moment_at_level."""
    h = ctx.moment_at_level
    return (8.0 * (h(qs + d) - h(qs - d)) - (h(qs + 2.0 * d) - h(qs - 2.0 * d))) / (12.0 * d)


def tabulated_level_curve(xs, ps, eta):
    """moment_at_level of a tabulated law in mpmath, from its piecewise-linear cells.

    Cell i carries the normalized density f_i + s_i u on u in [0, width_i], so
    its CDF is the quadratic f_i u + s_i u^2 / 2 and its moments are exact.
    """
    xs, ps, eta = [mpmath.mpf(x) for x in xs], [mpmath.mpf(p) for p in ps], mpmath.mpf(eta)
    widths = [b - a for a, b in zip(xs, xs[1:])]
    mass = sum(w * (a + b) / 2 for w, a, b in zip(widths, ps, ps[1:]))
    f = [p / mass for p in ps]
    s = [(b - a) / w for a, b, w in zip(f, f[1:], widths)]
    delta = max(abs(xs[0]), abs(xs[-1]))

    def head(i, u):
        """Integrals of x^k times the density over [x_i, x_i + u], k = 0, 1, 2."""
        a0, a1, a2 = (f[i] * u ** (j + 1) / (j + 1) + s[i] * u ** (j + 2) / (j + 2)
                      for j in range(3))
        return a0, xs[i] * a0 + a1, xs[i] ** 2 * a0 + 2 * xs[i] * a1 + a2

    cells = [head(i, w) for i, w in enumerate(widths)]
    cum = [sum(c[0] for c in cells[:i]) for i in range(len(cells))]

    def h(q):
        p = 1 - q
        i = max(j for j, c in enumerate(cum) if c <= p)
        r = p - cum[i]
        level = xs[i] + 2 * r / (f[i] + mpmath.sqrt(f[i] ** 2 + 2 * s[i] * r))
        z = eta * delta + level
        head_i = head(i, level - xs[i])
        m0, m1, m2 = (sum(c[k] for c in cells[i:]) - head_i[k] for k in range(3))
        return z * z * m0 + 2 * z * m1 + m2

    return h


@pytest.mark.parametrize("kind", list(SLOPE_NOISES))
@pytest.mark.parametrize("eta", [2.0, 3.7])
def test_slope_at_level_matches_central_differences(kind, eta):
    noise = SLOPE_NOISES[kind]
    ctx = sg.KernelContext(eta, noise)
    if kind == "tabulated":
        # the middle of each node-to-node cell: h' is continuous at a node but
        # h'' jumps there, which a difference across the node would see. A float
        # difference's round-off is the size of the bound, so differentiate
        # the table's own cells in mpmath instead
        levels = np.sort(1.0 - noise.cdf(_XS))
        qs = 0.5 * (levels[1:] + levels[:-1])
        with mpmath.workdps(40):
            h = tabulated_level_curve(_XS, _TABLE, eta)
            want = np.array([float(mpmath.diff(h, mpmath.mpf(q))) for q in qs])
    else:
        qs = np.linspace(0.05, 0.95, 36)  # off the triangular kink at q = 1/2
        want = central_slope(ctx, qs, 1e-4)
    err = np.abs(ctx.slope_at_level(qs) - want) / np.maximum(1.0, np.abs(want))
    assert np.max(err) <= 1e-10
    # a column of etas gives each eta's own slope to the bit
    rows = sg.KernelContext(np.array([[2.0], [eta]]), noise).slope_at_level(qs)
    assert np.array_equal(rows[1], ctx.slope_at_level(qs))


@pytest.mark.parametrize("eta", [2.0, 3.7])
def test_uniform_slope_against_mpmath(eta):
    # uniform noise, delta = 1: L = 1 - 2q, z = eta + L, and h is a cubic in q
    def h(q):
        level = 1 - 2 * q
        z = eta + level
        m0, m1, m2 = (1 - level) / 2, (1 - level**2) / 4, (1 - level**3) / 6
        return z * z * m0 + 2 * z * m1 + m2

    ctx = sg.KernelContext(eta, sg.uniform(1.0))
    qs = np.linspace(0.0, 1.0, 101)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.diff(h, mpmath.mpf(q))) for q in qs])
    got = ctx.slope_at_level(qs)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-13
    # at q = 0 the quotient's limit is taken: h'(0+) = (eta + 2)^2 delta^2
    assert ctx.slope_at_level(0.0) == (eta + 2.0) ** 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("noise, q", [
    (sg.triangular(1.0), 1.0),  # f(-delta) = 0
    (sg.tabulated([-1.0, -0.5, 0.0, 0.5, 1.0], [0.2, 1.0, 0.0, 1.0, 0.2]), 0.5),  # f(0) = 0
])
def test_slope_at_a_level_of_zero_density_is_its_limit(noise, q):
    # the quotient 2(z M0 + M1) / f(L) grows without bound: the limit -inf, with no warning
    ctx = sg.KernelContext(2.0, noise)
    assert noise.pdf(ctx.accept_prob_inv(q) - 2.0 * noise.delta) == 0.0
    assert ctx.slope_at_level(q) == -np.inf
    assert ctx.slope_at_level(np.array([0.0, q]))[1] == -np.inf
    # uniform noise keeps f(-delta) > 0: its slope at q = 1 is finite
    assert np.isfinite(sg.KernelContext(2.0, sg.uniform(1.0)).slope_at_level(1.0))
