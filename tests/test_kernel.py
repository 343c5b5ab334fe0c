import numpy as np
import pytest

import stackgame as sg
from stackgame.errors import DomainError
from stackgame.kernel import accept_prob_quad, error_moment_quad


def test_domain_bounds(uniform_ctx):
    assert uniform_ctx.z_lo == 1.0 and uniform_ctx.z_hi == 3.0
    with pytest.raises(DomainError):
        sg.KernelContext(1.5, sg.uniform(1.0))
    with pytest.raises(DomainError):
        uniform_ctx.accept_prob(3.5)


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


def test_scale_invariance():
    # doubling delta scales offsets by 2 and second moments by 4
    small = sg.KernelContext(2.0, sg.uniform(1.0))
    big = sg.KernelContext(2.0, sg.uniform(2.0))
    for z in (1.2, 2.0, 2.8):
        assert abs(big.accept_prob(2 * z) - small.accept_prob(z)) < 1e-12
        assert abs(big.error_moment(2 * z) - 4.0 * small.error_moment(z)) < 1e-10
