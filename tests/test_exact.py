"""The references of tests/exact.py: the exact ones against mpmath, the walk against quadrature and its pin."""

import math

import mpmath
import numpy as np
import pytest

import exact
from exact import (
    EW_EDGE_REGRET_90,
    EW_EDGE_REGRET_90_SE,
    ew_edge_regret_walk,
    upper_gamma_q,
    ure_edge_regret,
)

# Points on both sides of the series / continued-fraction switch at x = a + 1,
# the edge sum's own (j/2 + 1, j), and a far tail.
POINTS = [(0.5, 0.1), (1.5, 1.0), (3.0, 2.0), (2.0, 3.0), (5.5, 6.4), (10.0, 30.0),
          (46.0, 90.0), (100.0, 90.0), (250.0, 200.0), (0.5, 40.0)]


def test_upper_gamma_matches_mpmath():
    a, x = np.array(POINTS).T
    with mpmath.workdps(30):
        expected = [float(mpmath.gammainc(p, q, mpmath.inf, regularized=True)) for p, q in POINTS]
    np.testing.assert_allclose(upper_gamma_q(a, x), expected, rtol=1e-13, atol=0.0)


def test_upper_gamma_broadcasts_over_both_arguments():
    q = upper_gamma_q([1.0, 2.0], [[1.0], [2.0]])
    assert q.shape == (2, 2)
    assert q[1, 0] == pytest.approx(np.exp(-2.0), rel=1e-14)  # Q(1, x) = exp(-x)


def test_edge_regret_matches_mpmath():
    with mpmath.workdps(30):
        expected = mpmath.fsum(
            mpmath.gammainc(mpmath.mpf(j) / 2 + 1, j, mpmath.inf, regularized=True)
            for j in range(1, 91)
        )
    assert ure_edge_regret(90) == pytest.approx(float(expected), rel=1e-13)


def test_ew_walk_matches_its_pin():
    mean, se = ew_edge_regret_walk(90, 20_000, 5)
    assert abs(mean - EW_EDGE_REGRET_90) <= 4.0 * math.hypot(se, EW_EDGE_REGRET_90_SE)


def edge_regret_by_quadrature(n, points=80):
    """E sum_i xi_i^2 C_i^2 over n steps by points-point Gauss-Hermite in each xi_i."""
    x, w = np.polynomial.hermite_e.hermegauss(points)
    xi = np.meshgrid(*[x] * n, indexing="ij", sparse=True)
    density = math.prod(np.meshgrid(*[w / math.sqrt(2.0 * math.pi)] * n, indexing="ij", sparse=True))
    s = [0.0]  # S_j = sum_{k<=j} (2 - xi_k^2), with S_0 = 0
    for k in range(n):
        s.append(s[-1] + 2.0 - xi[k] ** 2)
    weights = [np.exp(-s_j / 4.0) for s_j in s]
    total = sum(weights)
    regret = sum(xi[i - 1] ** 2 * (sum(weights[i:]) / total) ** 2 for i in range(1, n + 1))
    return float(np.sum(density * regret))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ew_walk_matches_quadrature_for_short_walks(n):
    # The walk's formula, not only its pin: for n <= 3 the expectation is an
    # n-dimensional Gaussian integral, smooth enough for Gauss-Hermite at 1e-9.
    exact_value = edge_regret_by_quadrature(n)
    assert exact_value == pytest.approx(edge_regret_by_quadrature(n, points=60), rel=1e-9)
    mean, se = ew_edge_regret_walk(n, 200_000, 7)
    assert abs(mean - exact_value) <= 4.0 * se


def test_ew_walk_does_not_depend_on_its_chunk_size(monkeypatch):
    # Rows of standard normals fill in order, so the walks, and the pin, are
    # the same for any chunk, a short last one included.
    expected = ew_edge_regret_walk(90, 1000, 3)
    monkeypatch.setattr(exact, "_WALKS_PER_CHUNK", 7)
    assert ew_edge_regret_walk(90, 1000, 3) == expected
