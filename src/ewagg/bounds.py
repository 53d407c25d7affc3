"""Special functions and regret-budget evaluators for the oracle inequalities.

Covers the drift functions U and U* of the maximal inequalities and their
inverses, Shannon entropy with its geometric-tail bound, the remainder
function Psi defined through a one-dimensional minimization, the
right-hand-side budgets of the three oracle inequalities, and the analytic
budget for the expected envelope index m_epsilon.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .sequence_model import check_sigma

__all__ = [
    "PsiEvaluation",
    "RegretBudgets",
    "u_alpha",
    "u_star_alpha",
    "u_inverse",
    "u_star_inverse",
    "entropy",
    "r_rho",
    "lemma4_bound",
    "psi",
    "theorem_bounds",
    "m_epsilon_budget",
    "PSI_EPSILON_LO",
    "PSI_EPSILON_HI",
]

# Search domain for the Psi minimizer.  At the lower edge the objective falls
# for every positive float r (there log(r exp(c/eps)) >= -745 + 7.4e5), so no
# minimizer is lost below it; the upper edge is the domain boundary 1/7.
PSI_EPSILON_LO = 1e-6
PSI_EPSILON_HI = 1.0 / 7.0
_PSI_C = 2.0 / math.e


# Below this alpha, U and U* are summed from their power series.  The closed
# forms' numerators cancel to O(alpha^2) but carry the rounding error of
# terms of size alpha, a relative error of about eps/alpha: 16 ulp here,
# against a truncation error under 2e-17 for the series at |2 alpha| <= 1/8.
_SERIES_ALPHA = 1.0 / 16.0
# U(alpha) = alpha P(2 alpha) and U*(alpha) = alpha P(-2 alpha), where
# P(x) = sum_{j >= 0} 2 x^j / (j + 2); the coefficients up to j = 17.
_SERIES_COEFFS = tuple(2.0 / (j + 2) for j in range(18))


def _drift_series(alpha: float, x: float) -> float:
    """alpha * P(x) by Horner's rule (see _SERIES_COEFFS)."""
    total = 0.0
    for coeff in reversed(_SERIES_COEFFS):
        total = total * x + coeff
    return alpha * total


def u_alpha(alpha: float) -> float:
    """Upward drift rate U(alpha) = -(alpha + log(1 - 2 alpha)/2) / alpha.

    Defined for 0 < alpha < 1/2; strictly increasing, U(0+) = 0, U(1/2-) = inf.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"u_alpha needs 0 < alpha < 1/2, got {alpha}")
    if alpha < _SERIES_ALPHA:
        return _drift_series(alpha, 2.0 * alpha)
    return -(alpha + math.log1p(-2.0 * alpha) / 2.0) / alpha


# U at the largest float below 1/2: no float alpha in U's domain reaches above it.
_U_MAX = u_alpha(math.nextafter(0.5, 0.0))


def u_star_alpha(alpha: float) -> float:
    """Downward drift rate U*(alpha) = (alpha - log(1 + 2 alpha)/2) / alpha.

    Defined for finite alpha > 0; strictly increasing with range (0, 1).
    """
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"u_star_alpha needs 0 < alpha < inf, got {alpha}")
    if alpha < _SERIES_ALPHA:
        return _drift_series(alpha, -2.0 * alpha)
    if alpha > sys.float_info.max / 2.0:
        # 2 alpha overflows; log1p(2 alpha) is log 2 + log alpha to float precision.
        return (alpha - (math.log(2.0) + math.log(alpha)) / 2.0) / alpha
    return (alpha - math.log1p(2.0 * alpha) / 2.0) / alpha


def _bisect_increasing(
    func, lo: float, hi: float, target: float, below: float = -math.inf, above: float = math.inf
) -> float:
    # Strict monotonicity makes the root unique; iterate until the bracket
    # collapses to adjacent floats (well past the 1e-12 contract).  A caller
    # that has certified func < target on every float <= below and
    # func >= target on every float >= above spares those calls: the
    # midpoints, and so the result, are those of the plain bisection.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid <= below or (mid < above and func(mid) < target):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def u_inverse(y: float) -> float:
    """Inverse of U on (0, 1/2), solved by bisection to float resolution.

    Defined for 0 < y <= 35.7368..., U's value at the largest float below 1/2.
    """
    y = float(y)
    if not 0.0 < y <= _U_MAX:
        raise ValueError(f"u_inverse needs 0 < y <= {_U_MAX!r}, got {y}")
    # a <= U(a) <= a / (1 - 2a) puts the root in [y / (1 + 2y), y], a bracket
    # whose width scales with y, so bisection resolves a tiny root as finely as
    # a large one.  From y = 1/2 on, the upper end walks to the pole instead.
    lo = y / (1.0 + 2.0 * y)
    hi = y if y < 0.5 else lo
    while u_alpha(hi) < y:
        hi = 0.5 * (hi + 0.5)  # approach the pole at 1/2 geometrically
    return _bisect_increasing(u_alpha, lo, hi, y)


def u_star_inverse(y: float) -> float:
    """Inverse of U* on (0, inf); the bracket grows geometrically before bisection."""
    y = float(y)
    if not 0.0 < y < 1.0:
        raise ValueError(f"u_star_inverse needs 0 < y < 1, got {y}")
    # a / (1 + 2a) <= U*(a) <= a puts the root in [y, y / (1 - 2y)] (the lower
    # bound is log(1 + x) <= x (2 + x) / (2 + 2x)).  From y = 1/2 on, the upper
    # end doubles from 1 instead.
    lo = y
    hi = y / (1.0 - 2.0 * y) if y < 0.5 else 1.0
    while u_star_alpha(hi) < y:
        hi *= 2.0
    return _bisect_increasing(u_star_alpha, lo, hi, y)


def entropy(w: np.ndarray) -> float | np.ndarray:
    """Shannon entropy (natural log) over the last axis; zero weights contribute 0.

    w is a weight array as ure_weights or exponential_weights return it.  The
    result is a float for one weight row, an array with one entry per row for
    a block.
    """
    p = np.asarray(w, dtype=float)
    p_log_p = p * np.log(p, out=np.zeros_like(p), where=p > 0.0)
    h = 0.0 - p_log_p.sum(axis=-1)  # 0 - 0 is +0, so a point mass gets +0.0, not -0.0
    return float(h) if h.ndim == 0 else h


def r_rho(rho: float) -> float:
    """Tail-entropy control function with a seam at e * rho = 1.

    Equals 2/(e rho) for e rho < 1 and
    (1 + 1/(rho e)) * exp((1 - rho e)/(1 + rho e)) beyond; both branches
    meet at the value 2.  For e rho <= 1 it bounds the entropy of a tail
    w_K, w_{K+1}, ... with w_{K+j} <= w_K exp(-1 - rho (j - 1)), normalized
    to a distribution.  The e rho >= 1 branch is kept for continuity at the
    seam and is not an entropy bound: a tail on its envelope exceeds it once
    e rho passes about 1.30.
    """
    rho = float(rho)
    if not 0.0 < rho < math.inf:
        raise ValueError(f"r_rho needs 0 < rho < inf, got {rho}")
    x = math.e * rho
    if x < 1.0:
        return 2.0 / x
    return (1.0 + 1.0 / x) * math.exp((1.0 - x) / (1.0 + x))


def lemma4_bound(K: float | np.ndarray, rho: float) -> float | np.ndarray:
    """Entropy budget log(K - 1 + exp(R(rho))) for a head plus geometric tail.

    Hypothesis on w: a head of K - 1 arbitrary entries w_1..w_{K-1}, then a
    tail w_K, w_{K+1}, ... with w_{K+j} <= w_K exp(-1 - rho (j - 1)).  The
    budget bounds H(w) for e rho <= 1; beyond that r_rho is not an entropy
    bound (K=2, rho=1 with the tail on its envelope gives H = 1.3431 > 1.2141).
    K is real (>= 1) or an array.  Concave in K, it bounds E log(m - 1 + e^R) at K = E m.
    """
    K = np.asarray(K, dtype=float)
    if not np.all(K >= 1.0):  # nan fails too
        raise ValueError(f"lemma4_bound needs K >= 1, got {K}")
    with np.errstate(divide="ignore"):
        bound = np.logaddexp(np.log(K - 1.0), r_rho(rho))
    return float(bound) if bound.ndim == 0 else bound


class PsiEvaluation(NamedTuple):
    """Result of the Psi minimization at one argument r in [0, 1]."""

    r: float
    psi: float
    epsilon_star: float


_LOG_105 = math.log(105.0)
_LOG_C = math.log(_PSI_C)
_LOG_49 = math.log(49.0)


def _psi_log_descent(eps: float, log_r: float) -> float:
    # log of r (105 + c exp(c/eps)) / eps^2, the falling part of the objective's
    # derivative 49 - r (105 + c exp(c/eps)) / eps^2; decreasing in eps.
    a, b = _LOG_105, _LOG_C + _PSI_C / eps
    log_sum = max(a, b) + math.log1p(math.exp(-abs(a - b)))
    return log_r + log_sum - 2.0 * math.log(eps)


# Rounding bound of _psi_log_descent.  Write F(eps) for its exact value: the
# same formula in real arithmetic on the same float constants and log_r,
# strictly decreasing in eps.  On the domain q = c/eps >= 7c > 5.15, so b > a,
# and y = exp(-|a - b|) <= exp(-0.19), y q <= 4.27.  With u = 2^-53 and exp,
# log and log1p within 1 ulp (2u relative), the absolute errors are:
#   b = log(c) + c/eps                     u q + u (q + 1)
#   log1p(exp(-|a - b|)), slope y in b:    y u (3q + 3) + 2u log 2 <= 17u
#   max(a, b) + log1p(...)                 u (q + 1)
#   log_r + log_sum                        u (|log_r| + q + 1)
#   2 log eps, |log eps| <= 13.9           56u
#   the final subtraction                  u (|log_r| + q + 29)
# in all u (5q + 2 |log_r| + 105), below E(eps) = 2^-50 (q + |log_r| + 18) by
# a factor 1.4 or more, which covers second-order terms and the certificate's
# own rounding.  A float eps with fl(F(eps)) - log 49 > 2 E(eps) is then
# certified for every float eps' <= eps in the domain: F falls with slope at
# least 0.54 c/eps^2 (c e^q/(105 + c e^q) >= 0.54 for q >= 5.15) and E rises
# with slope 2^-50 c/eps^2, so fl(F(eps')) >= F(eps') - E(eps') >= F(eps) -
# E(eps) > log 49.  One with log 49 - fl(F(eps)) > 2 E(eps) is certified for every
# eps' >= eps in the domain, where F and E are both smaller.
def _psi_certified(eps: float, log_r: float, side: float) -> bool:
    """Whether side * (fl(F(eps)) - log 49) clears 2 E(eps); side is +1 or -1."""
    margin = side * (_psi_log_descent(eps, log_r) - _LOG_49)
    return margin > 2.0**-49 * (_PSI_C / eps + abs(log_r) + 18.0)


def _psi_window(log_r: float) -> tuple[float, float]:
    """(below, above) around the Psi minimizer for _bisect_increasing; see psi."""
    # Newton on q = c/eps for q + 2 log q + log1p(105/(c e^q)) = k, the
    # minimizer's condition, from k - 2 log k, near the root of its
    # first-order part q + 2 log q = k.  An interior minimizer has k > 9.
    k = _LOG_49 - log_r + _LOG_C
    q = k - 2.0 * math.log(k)
    for _ in range(8):
        w = math.exp(_LOG_105 - _LOG_C - q)
        slope = 1.0 / (1.0 + w) + 2.0 / q
        step = (q + 2.0 * math.log(q) + math.log1p(w) - k) / slope
        q -= step
        if abs(step) < 1e-8 * q:  # Newton squares the error: this leaves q to ~1e-16
            break
    eps = _PSI_C / q
    # F(eps') - log 49 is about slope q (eps - eps') / eps, so this half width
    # gives either edge a margin near 4 E(eps): room for E of rounding in the
    # certificate and as much again of error in the Newton root.
    half = 4.0 * 2.0**-50 * (q + abs(log_r) + 18.0) * eps / (slope * q)
    a, b = eps - half, eps + half
    below = a if a <= PSI_EPSILON_LO or _psi_certified(a, log_r, 1.0) else -math.inf
    above = b if b >= PSI_EPSILON_HI or _psi_certified(b, log_r, -1.0) else math.inf
    return below, above


def psi(r: float) -> PsiEvaluation:
    """Minimize 49 eps + r (105/eps + exp(c/eps)), c = 2/e, over eps in (0, 1/7].

    Both 105/eps and exp(c/eps) are strictly convex, so the objective is, and
    its minimizer is the root of the increasing derivative; when the
    derivative is still negative at 1/7 the minimizer is that boundary.  An
    interior minimizer is the float that bisection on the derivative's sign
    from [PSI_EPSILON_LO, 1/7] to adjacent floats returns, bit for bit.  The
    bisection asks for the sign only near the root: a few Newton steps place
    a bracket [a, b] around it, whose edges are certified against a written
    bound on the rounding error of the sign test, so every midpoint below a
    or above b takes the branch its evaluation would take.  The fallback is
    per side: when an edge's certificate fails, the bisection asks at every
    midpoint on that edge's side.  psi(0) is the infimum 0, reported at
    PSI_EPSILON_LO.

    As r -> 0, Psi(r) ~ 98 / (e log(49/r)): the product
    P = Psi(r) (e/98) L, L = log(49/r), falls to 1 from above, slowly (1.548
    at r = 1e-6).  With u the root of u + 2 log u = L + log(2/e), the
    first-order condition without the 105/eps term, P - (L/u)(1 + 1/u) lies
    between D(epsilon_star) and D((2/e)/u), where D(eps) = (e L/98) 105 r/eps
    is the dropped term.
    """
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"psi needs r in [0, 1], got {r}")
    if r == 0.0:
        return PsiEvaluation(r=0.0, psi=0.0, epsilon_star=PSI_EPSILON_LO)

    log_r = math.log(r)
    if _psi_log_descent(PSI_EPSILON_HI, log_r) > _LOG_49:
        eps_star = PSI_EPSILON_HI
    else:
        eps_star = _bisect_increasing(
            lambda eps: -_psi_log_descent(eps, log_r),
            PSI_EPSILON_LO,
            PSI_EPSILON_HI,
            -_LOG_49,
            *_psi_window(log_r),
        )
    # r exp(c/eps) is formed in the log domain, where it cannot overflow.
    value = 49.0 * eps_star + 105.0 * r / eps_star + math.exp(log_r + _PSI_C / eps_star)
    return PsiEvaluation(r=r, psi=value, epsilon_star=eps_star)


class RegretBudgets(NamedTuple):
    """Right-hand-side budgets of the three oracle inequalities."""

    t1: float
    t2: float
    t3: float


def _checked_risk(oracle_risk: float, sigma: float) -> tuple[np.float64, np.float64]:
    """(r, sigma^2) as float64; ValueError unless check_sigma takes sigma and sigma^2 <= r < inf."""
    sigma = check_sigma(sigma)
    variance = np.float64(sigma * sigma)
    r = np.float64(oracle_risk)
    if not variance <= r < np.inf:
        raise ValueError(f"oracle risk must be finite and >= sigma^2 = {variance}, got {r}")
    return r, variance


def theorem_bounds(oracle_risk: float, sigma: float, model_count: int) -> RegretBudgets:
    """The three regret budgets at oracle risk r over #M = model_count models.

    t2 is 4 sigma^2 log(#M); t3 is 4 sigma^2 log{(r/sigma^2)[1 + Psi(sigma^2/r)]};
    t1 is the unit-constant shape sigma^2 sqrt(r/sigma^2), whose universal
    multiplier is left to the Monte Carlo harness to back-solve empirically.
    The arithmetic runs on numpy scalars, so an overflow obeys np.errstate.

    Domain: sigma as check_sigma takes it, a finite oracle_risk >= sigma^2
    (formed as sigma * sigma, which a projection risk tail + (sigma * sigma) m
    meets) and a whole model_count >= 1.
    """
    r, variance = _checked_risk(oracle_risk, sigma)
    if not (model_count >= 1 and model_count % 1 == 0):
        raise ValueError(f"model count must be a whole number >= 1, got {model_count}")
    return RegretBudgets(
        t1=float(variance * math.sqrt(r / variance)),
        t2=float(4.0 * variance * math.log(model_count)),
        t3=float(4.0 * variance * math.log((r / variance) * (1.0 + psi(variance / r).psi))),
    )


def m_epsilon_budget(oracle_value: float, sigma: float, epsilon: float) -> float:
    """Analytic budget r/sigma^2 + 7 eps r / ((1-6 eps) sigma^2) + 15 / ((1-6 eps) eps)."""
    (r, variance), epsilon = _checked_risk(oracle_value, sigma), float(epsilon)
    if not 0.0 < epsilon <= PSI_EPSILON_HI:
        raise ValueError("epsilon must lie in (0, 1/7]")
    ratio = float(r) / float(variance)
    shrink = 1.0 - 6.0 * epsilon
    return ratio + 7.0 * epsilon * ratio / shrink + 15.0 / (shrink * epsilon)
