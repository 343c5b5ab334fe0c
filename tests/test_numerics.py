import math

import numpy as np
import pytest

from stackgame.errors import NumericalError
from stackgame.numerics import adaptive_simpson, bisect_monotone_vec

from oracles import bisect_scalar


def test_simpson_polynomial_exact():
    # Simpson is exact on cubics, so the adaptive driver should not even split
    val = adaptive_simpson(lambda x: x**3 - 2 * x, 0.0, 2.0)
    assert abs(val - (4.0 - 4.0)) < 1e-14


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 3.0), (2.0, -1.0)])
def test_simpson_exp(a, b):
    val = adaptive_simpson(math.exp, a, b, tol=1e-12)
    assert abs(val - (math.exp(b) - math.exp(a))) < 1e-10


def test_simpson_sharp_peak():
    # narrow gaussian bump: forces recursion depth without losing mass
    f = lambda x: math.exp(-((x - 0.3) ** 2) / (2 * 0.01**2))
    val = adaptive_simpson(f, -1.0, 1.0, tol=1e-12)
    exact = 0.01 * math.sqrt(2 * math.pi)
    assert abs(val - exact) < 1e-10


def test_simpson_zero_width():
    assert adaptive_simpson(math.sin, 0.7, 0.7) == 0.0


def test_bisect_scalar_root():
    root = bisect_scalar(lambda x: x**2 - 2.0, 0.0, 2.0)
    assert abs(root - math.sqrt(2)) < 1e-11


def test_bisect_scalar_requires_bracket():
    with pytest.raises(NumericalError):
        bisect_scalar(lambda x: x + 10.0, 0.0, 1.0)


def test_bisect_vec_cube_root():
    targets = np.linspace(0.01, 0.99, 17)
    roots = bisect_monotone_vec(lambda x: targets - x**3, np.zeros(17), np.ones(17),
                                xtol=1e-12)
    np.testing.assert_allclose(roots, targets ** (1 / 3), atol=1e-10)


def test_bisect_vec_decreasing():
    targets = np.array([0.25, 0.5, 0.75])
    roots = bisect_monotone_vec(lambda x: 1.0 - x - targets, np.zeros(3), np.ones(3),
                                xtol=1e-12)
    np.testing.assert_allclose(roots, 1.0 - targets, atol=1e-10)


def test_bisect_vec_result_does_not_depend_on_the_batch():
    # a narrow bracket stops at its own xtol while a wide one keeps halving,
    # so each root is the one it gets when solved alone
    lo, hi = np.array([0.0, 0.2]), np.array([1.0, 0.2 + 3e-7])
    targets = np.array([0.3, 0.2000001**3])

    def roots(part):
        return bisect_monotone_vec(lambda x: targets[part] - x**3, lo[part], hi[part],
                                   xtol=1e-12)

    assert roots(slice(None)).tolist() == [roots(slice(i, i + 1))[0] for i in range(2)]
