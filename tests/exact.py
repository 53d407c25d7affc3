"""Exact references for the acceptance criteria, in numpy and the math module only.

The regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a) is
summed from the series of the lower function where x < a + 1 and from its
continued fraction, evaluated by the modified Lentz method, elsewhere
(Numerical Recipes, section 6.2).  Both are vectorised over a.

ure_edge_regret(n) is the exact URE regret, in units of sigma^2, at the
high-signal edge: mu_i = a >> sigma for i <= k and 0 beyond, M = 1..k + n.
URE picks k plus the first argmin of the walk S_j = sum_{i<=j} (2 - xi_i^2),
so the regret is 2 E[argmin] - E[min S].  Sparre Andersen's equivalence
principle gives E[argmin] = sum_j P(S_j < 0) and Spitzer's identity gives
E[min S] = -sum_j E[S_j^-] / j; with S_j = 2j - chi2_j both terms are
incomplete gammas and they collapse to sum_{j=1}^n Q(j/2 + 1, j).

ew_edge_regret_walk(n, walks, seed) is the EW regret there, in the same
units, by direct simulation: E sum_{i=1}^n xi_i^2 C_i^2 with C_i =
sum_{j>=i} w_j and w_j proportional to exp(-S_j / 4) over j = 0..n (S_0 = 0).
No closed form is known, so EW_EDGE_REGRET_90 pins its n = 90 value from a
large run.  The walks come from numpy's default_rng, not from ewagg's
substreams, so the reference shares no code with the engine it checks.
"""

import math

import numpy as np

_EPS = 1e-15
_TINY = 1e-300
_MAX_TERMS = 100_000
_WALKS_PER_CHUNK = 1 << 14


def _lower_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n x^n / (a (a+1) ... (a+n)), which is P(a, x) over the prefactor; fast where x < a + 1."""
    term = 1.0 / a
    total = term.copy()
    for n in range(1, _MAX_TERMS):
        term = term * x / (a + n)
        total += term
        if np.all(np.abs(term) < np.abs(total) * _EPS):
            return total
    raise ArithmeticError("the incomplete gamma series did not converge")


def _upper_fraction(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q(a, x) over the prefactor, by modified Lentz; fast where x >= a + 1 (so b > 0)."""
    b = x + 1.0 - a
    c = np.full_like(b, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = 1.0 / np.where(np.abs(d) < _TINY, _TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        step = d * c
        h = h * step
        if np.all(np.abs(step - 1.0) < _EPS):
            return h
    raise ArithmeticError("the incomplete gamma continued fraction did not converge")


def upper_gamma_q(a, x) -> np.ndarray:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x > 0, broadcast over both."""
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    shape, a, x = a.shape, a.ravel(), x.ravel()
    prefactor = np.exp(a * np.log(x) - x - np.array([math.lgamma(v) for v in a]))
    series = x < a + 1.0  # 1 - P loses no digits here, where P stays well below 1
    q = np.empty_like(a)
    q[series] = 1.0 - prefactor[series] * _lower_series(a[series], x[series])
    q[~series] = prefactor[~series] * _upper_fraction(a[~series], x[~series])
    return q.reshape(shape)


def ure_edge_regret(n: int) -> float:
    """sum_{j=1}^n Q(j/2 + 1, j): the URE regret over sigma^2 at the high-signal edge."""
    j = np.arange(1, n + 1, dtype=float)
    return float(upper_gamma_q(j / 2.0 + 1.0, j).sum())


def ew_edge_regret_walk(n: int, walks: int, seed: int) -> tuple[float, float]:
    """Mean and standard error of sum_i xi_i^2 C_i^2 over walks of n steps from default_rng(seed).

    The pin below is ew_edge_regret_walk(90, 4_000_000, 2012): mean
    2.891039012044348, standard error 0.0018667357110541292 (19.5 s on a
    2-vCPU x86_64 host).
    """
    rng = np.random.default_rng(seed)
    regret = np.empty(walks)
    for start in range(0, walks, _WALKS_PER_CHUNK):
        rows = min(_WALKS_PER_CHUNK, walks - start)
        xi2 = rng.standard_normal((rows, n)) ** 2
        log_w = np.zeros((rows, n + 1))
        np.cumsum(0.25 * xi2 - 0.5, axis=1, out=log_w[:, 1:])  # -S_j / 4
        w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        tail = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]  # sum_{j>=i} w_j for i = 0..n
        c = tail[:, 1:] / tail[:, :1]
        regret[start : start + rows] = np.sum(xi2 * c * c, axis=1)
    return float(regret.mean()), float(regret.std(ddof=1) / math.sqrt(walks))


EW_EDGE_REGRET_90 = 2.891039012044348
EW_EDGE_REGRET_90_SE = 0.0018667357110541292
