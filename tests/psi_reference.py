"""A plain bisection for Psi: every midpoint of the full bracket is evaluated.

This is the search that ewagg.bounds.psi must reproduce bit for bit, kept
apart from the library so that a shortcut there cannot change it here.
"""

import math

EPSILON_LO = 1e-6
EPSILON_HI = 1.0 / 7.0
C = 2.0 / math.e


def log_descent(eps, log_r):
    """log of r (105 + c exp(c/eps)) / eps^2, in the library's operation order."""
    a, b = math.log(105.0), math.log(C) + C / eps
    log_sum = max(a, b) + math.log1p(math.exp(-abs(a - b)))
    return log_r + log_sum - 2.0 * math.log(eps)


def bisection_psi(r):
    """(psi, epsilon_star) at r in [0, 1] by bisection on the derivative's sign."""
    if r == 0.0:
        return 0.0, EPSILON_LO
    log_r = math.log(r)
    target = math.log(49.0)
    if log_descent(EPSILON_HI, log_r) > target:
        eps = EPSILON_HI
    else:
        lo, hi = EPSILON_LO, EPSILON_HI
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if log_descent(mid, log_r) > target:
                lo = mid
            else:
                hi = mid
        eps = 0.5 * (lo + hi)
    return 49.0 * eps + 105.0 * r / eps + math.exp(log_r + C / eps), eps


def seam_r():
    """The r at which epsilon_star leaves 1/7: log_descent(1/7, log r) = log 49."""
    return math.exp(math.log(49.0) - log_descent(EPSILON_HI, 0.0))
