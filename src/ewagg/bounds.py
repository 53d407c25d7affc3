"""Special functions and regret-budget evaluators for the oracle inequalities.

Covers the drift functions U and U* of the maximal inequalities and their
inverses, Shannon entropy with its geometric-tail bound, the remainder
function Psi defined through a one-dimensional minimization, and the
right-hand-side budgets of the three oracle inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimators import WeightVector
from .sequence_model import NoiseLevel

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
    "PSI_EPSILON_LO",
    "PSI_EPSILON_HI",
]

# Search domain for the Psi minimizer.  At the lower edge the objective falls
# for every positive float r (there log(r exp(c/eps)) >= -745 + 7.4e5), so no
# minimizer is lost below it; the upper edge is the domain boundary 1/7.
PSI_EPSILON_LO = 1e-6
PSI_EPSILON_HI = 1.0 / 7.0
_PSI_C = 2.0 / math.e


def u_alpha(alpha: float) -> float:
    """Upward drift rate U(alpha) = -(alpha + log(1 - 2 alpha)/2) / alpha.

    Defined for 0 < alpha < 1/2; strictly increasing, U(0+) = 0, U(1/2-) = inf.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"u_alpha needs 0 < alpha < 1/2, got {alpha}")
    return -(alpha + math.log1p(-2.0 * alpha) / 2.0) / alpha


def u_star_alpha(alpha: float) -> float:
    """Downward drift rate U*(alpha) = (alpha - log(1 + 2 alpha)/2) / alpha.

    Defined for alpha > 0; strictly increasing with range (0, 1).
    """
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValueError(f"u_star_alpha needs alpha > 0, got {alpha}")
    return (alpha - math.log1p(2.0 * alpha) / 2.0) / alpha


def _bisect_increasing(func, lo: float, hi: float, target: float) -> float:
    # Strict monotonicity makes the root unique; iterate until the bracket
    # collapses to adjacent floats (well past the 1e-12 contract).
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if func(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def u_inverse(y: float) -> float:
    """Inverse of U on (0, 1/2), solved by bisection to float resolution."""
    y = float(y)
    if not (math.isfinite(y) and y > 0.0):
        raise ValueError(f"u_inverse needs y > 0, got {y}")
    lo = 1e-300
    hi = 0.25
    while u_alpha(hi) < y:
        hi = 0.5 * (hi + 0.5)  # approach the pole at 1/2 geometrically
    return _bisect_increasing(u_alpha, lo, hi, y)


def u_star_inverse(y: float) -> float:
    """Inverse of U* on (0, inf); the bracket grows geometrically before bisection."""
    y = float(y)
    if not 0.0 < y < 1.0:
        raise ValueError(f"u_star_inverse needs 0 < y < 1, got {y}")
    lo = 1e-300
    hi = 1.0
    while u_star_alpha(hi) < y:
        hi *= 2.0
    return _bisect_increasing(u_star_alpha, lo, hi, y)


def entropy(w: WeightVector) -> float:
    """Shannon entropy (natural log) of a weight vector; zero weights contribute 0."""
    values = w.weights
    positive = values[values > 0.0]
    return float(-np.dot(positive, np.log(positive)))


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
    if not rho > 0.0:
        raise ValueError(f"r_rho needs rho > 0, got {rho}")
    x = math.e * rho
    if x < 1.0:
        return 2.0 / x
    return (1.0 + 1.0 / x) * math.exp((1.0 - x) / (1.0 + x))


def lemma4_bound(K: int, rho: float) -> float:
    """Entropy budget log(K - 1 + exp(R(rho))) for a head plus geometric tail.

    Hypothesis on w: a head of K - 1 arbitrary entries w_1..w_{K-1}, then a
    tail w_K, w_{K+1}, ... with w_{K+j} <= w_K exp(-1 - rho (j - 1)).  The
    budget bounds H(w) for e rho <= 1; beyond that r_rho is not an entropy
    bound (K=2, rho=1 with the tail on its envelope gives H = 1.3431 > 1.2141).
    """
    K = int(K)
    if K < 1:
        raise ValueError(f"lemma4_bound needs K >= 1, got {K}")
    r_val = r_rho(rho)
    if K == 1:
        return r_val
    return float(np.logaddexp(math.log(K - 1.0), r_val))


@dataclass(frozen=True)
class PsiEvaluation:
    """Result of the Psi minimization at one argument r in [0, 1]."""

    r: float
    psi: float
    epsilon_star: float


def _psi_log_descent(eps: float, log_r: float) -> float:
    # log of r (105 + c exp(c/eps)) / eps^2, the falling part of the objective's
    # derivative 49 - r (105 + c exp(c/eps)) / eps^2; decreasing in eps.
    a, b = math.log(105.0), math.log(_PSI_C) + _PSI_C / eps
    log_sum = max(a, b) + math.log1p(math.exp(-abs(a - b)))
    return log_r + log_sum - 2.0 * math.log(eps)


def psi(r: float) -> PsiEvaluation:
    """Minimize 49 eps + r (105/eps + exp(c/eps)), c = 2/e, over eps in (0, 1/7].

    Both 105/eps and exp(c/eps) are strictly convex, so the objective is, and
    its minimizer is the root of the increasing derivative, found by bisection
    on the derivative's sign to adjacent floats; when the derivative is still
    negative at 1/7 the minimizer is that boundary.  psi(0) is the infimum 0,
    reported at PSI_EPSILON_LO.

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
    target = math.log(49.0)
    if _psi_log_descent(PSI_EPSILON_HI, log_r) > target:
        eps_star = PSI_EPSILON_HI
    else:
        eps_star = _bisect_increasing(
            lambda eps: -_psi_log_descent(eps, log_r), PSI_EPSILON_LO, PSI_EPSILON_HI, -target
        )
    # r exp(c/eps) is formed in the log domain, where it cannot overflow.
    value = 49.0 * eps_star + 105.0 * r / eps_star + math.exp(log_r + _PSI_C / eps_star)
    return PsiEvaluation(r=r, psi=value, epsilon_star=eps_star)


class RegretBudgets(NamedTuple):
    """Right-hand-side budgets of the three oracle inequalities."""

    t1: float
    t2: float
    t3: float


def theorem_bounds(oracle_risk: float, sigma: NoiseLevel, model_count: int) -> RegretBudgets:
    """The three regret budgets at oracle risk r over #M = model_count models.

    t2 is 4 sigma^2 log(#M); t3 is 4 sigma^2 log{(r/sigma^2)[1 + Psi(sigma^2/r)]};
    t1 is the unit-constant shape sigma^2 sqrt(r/sigma^2), whose universal
    multiplier is left to the Monte Carlo harness to back-solve empirically.
    The arithmetic runs on numpy scalars, so an overflow obeys np.errstate.
    """
    variance = np.float64(sigma.variance)
    r = np.float64(oracle_risk)
    ratio = variance / r
    if ratio > 1.0:
        if ratio > 1.0 + 1e-12:
            raise ValueError(
                f"oracle risk {r} is below sigma^2 = {variance}; "
                "the ratio sigma^2/r must not exceed 1"
            )
        ratio = 1.0  # guard against rounding at the r = sigma^2 boundary
    return RegretBudgets(
        t1=float(variance * math.sqrt(r / variance)),
        t2=float(4.0 * variance * math.log(model_count)),
        t3=float(4.0 * variance * math.log((r / variance) * (1.0 + psi(ratio).psi))),
    )
