"""Projection estimators, unbiased risk estimates, model selection, and aggregation.

The unbiased risk estimate of the projection keeping m coordinates is
    rbar(Y, m) = -sum_{i<=m} Y_i^2 + 2 sigma^2 m,
an unbiased estimate of the true risk up to one additive constant shared by
all m, so every consumer here (argmin selection, softmax weighting,
profile differences) is shift invariant.

An observation Y is a float64 array: (N,) for one draw, (B, N) for a block
with one draw per row.  sigma is a float and a model index set M a strictly
increasing int64 array, both checked where they enter (see sequence_model).
The pipeline passes plain float64 arrays between its steps: risk_profile gives
the profile (..., #M) of risk estimates over M, ure_weights and
exponential_weights turn a profile into weights of the same shape, and
aggregate combines the projections of Y under them.  Entry j of a profile or
weight row belongs to model M[j].  Each formula has one implementation over
the last axis, so a block and a single row get the same bits per row, and one
call per block runs the whole pipeline over it.

Everything runs in float64.  numpy sums a contiguous row pairwise but a
strided one sequentially, so the softmax normalisation sums C-contiguous
rows: a row then sums to the same bits whether it arrives alone, inside a
block, or in a transposed view.

projection_estimate, risk_profile, exponential_weights and aggregate also
take out=, an array of the result's shape that they write in full and
return, with the bits of a fresh result; the Monte Carlo engine passes the
same buffers to every block of a scenario.
"""

from __future__ import annotations

import numpy as np

from .sequence_model import check_models

__all__ = [
    "projection_estimate",
    "risk_profile",
    "ure_weights",
    "exponential_weights",
    "aggregate",
    "m_epsilon",
]


def projection_estimate(
    Y: np.ndarray, m: int | np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Keep the first m observed coordinates, zero the rest (output length N).

    m is one model index, checked by check_models, or an int64 array with one
    index per row of a block, which is trusted like every kernel input.  The
    estimate is written into out when it is given, else into a new array.
    """
    Y = np.asarray(Y, dtype=float)
    if np.ndim(m) == 0:
        m = check_models([m])[0]
    keep = np.arange(1, Y.shape[-1] + 1) <= np.asarray(m)[..., None]
    if out is None:
        out = np.empty(np.broadcast_shapes(Y.shape, keep.shape))
    out.fill(0.0)
    np.copyto(out, Y, where=keep)
    return out


def risk_profile(
    Y: np.ndarray,
    sigma: float,
    M: np.ndarray,
    out: np.ndarray | None = None,
    *,
    penalty: np.ndarray | None = None,
) -> np.ndarray:
    """Unbiased risk estimates rbar(Y, m) for every m in M, shape (..., #M).

    The profile is written into out when it is given, else into a new array.
    penalty is the row 2 sigma^2 M, the profile of a zero observation; a caller
    that profiles many blocks takes that profile once and passes it.
    """
    Y = np.asarray(Y, dtype=float)
    top = M[-1]
    if top > Y.shape[-1]:
        raise ValueError(f"max model index {top} exceeds the observation length {Y.shape[-1]}")
    if out is None:
        out = np.empty(Y.shape[:-1] + M.shape)
    # Running sums of the squares up to the largest model.  When M is 1..#M
    # they are the profile's own entries, so they are summed in out itself;
    # a gapped M gathers them from a scratch row.
    sums = out if top == M.size else np.empty(Y.shape[:-1] + (top,))
    np.multiply(Y[..., :top], Y[..., :top], out=sums)
    np.cumsum(sums, axis=-1, out=sums)
    if sums is not out:
        np.take(sums, M - 1, axis=-1, out=out, mode="clip")
    if penalty is None:
        penalty = 2.0 * (sigma * sigma) * M
    return np.subtract(penalty, out, out=out)


def ure_weights(profile: np.ndarray) -> np.ndarray:
    """Atomic weights: all mass on each row's argmin, the smallest model on ties."""
    profile = np.asarray(profile, dtype=float)
    chosen = np.arange(profile.shape[-1]) == np.argmin(profile, axis=-1)[..., None]
    return chosen.astype(float)


# float64 exp rounds to exactly 0 below log(2**-1075) = -745.13.  numpy's exp
# is an order of magnitude slower on such inputs than on others, so the
# softmax writes their zeros without calling it.
_EXP_UNDERFLOW_CUT = -746.0


def exponential_weights(
    profile: np.ndarray, sigma: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Softmax weights proportional to exp(-rbar / (4 sigma^2)) over each profile row.

    The weights are written into out when it is given, a C-contiguous float64
    array of the profile's shape, else into a new array.
    """
    profile = np.asarray(profile, dtype=float)
    if out is None:
        out = np.empty(profile.shape)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    # Max-shift before exponentiating: the largest exponent is exactly 0, so the
    # row sum is >= 1 and can neither overflow nor vanish.  Extreme spreads
    # underflow to exact zeros, which is the intended saturation; an exponent
    # that overflows to -inf saturates the same way, so that overflow is not an
    # error.  The weights are C-contiguous so that every row sum takes numpy's
    # pairwise path and a row gets the same bits in any block layout.
    # min - rbar is -(rbar - min) up to the sign of a zero or a NaN: exp(-0.0) =
    # exp(0.0), and a NaN exponent is cut, so the weights keep their bits.
    with np.errstate(over="ignore"):
        exponents = np.subtract(profile.min(axis=-1, keepdims=True), profile)
        np.divide(exponents, 4.0 * (sigma * sigma), out=exponents)
    out.fill(0.0)  # where= leaves the cut entries of out as they were
    np.exp(exponents, out=out, where=exponents > _EXP_UNDERFLOW_CUT)
    return np.divide(out, out.sum(axis=-1, keepdims=True), out=out)


def aggregate(
    Y: np.ndarray, M: np.ndarray, w: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Convex combination sum_m w_m P_m Y of the projections of Y over the models in M.

    The aggregate is written into out when it is given, else into a new array.
    """
    Y = np.asarray(Y, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.shape[-1:] != M.shape:
        raise ValueError("weights must align with the model index set")
    # Coordinate i of the aggregate is Y_i times s_i, the total weight of the
    # models with m >= i.  With each weight scattered to its coordinate m in a
    # row d that is +0.0 elsewhere, one reversed sequential cumsum gives
    # s_i = s_{i+1} + d_i in O(N).  Only the window from the first to the last
    # model whose weight is not +0.0 in some row (-0.0 and NaN count) is
    # summed, plus one +0.0 coordinate above it when there is one.  Above the
    # window d is all +0.0, so s_i is +0.0 and the window's cumsum starts from
    # the same +0.0 as the full one; below it, s_i is the window's first sum
    # plus 0.0.  So every s_i has the bits of the full cumsum, for any weights
    # and any M.  An all-+0.0 block has no window and gives Y * 0.0.
    length = Y.shape[-1]
    if out is None:
        out = np.empty(np.broadcast(Y, w[..., :1]).shape)
    # Columns holding anything but +0.0, the one float64 whose bits are all zero.
    live = w.reshape(-1, M.size).view(np.int64).any(axis=0).nonzero()[0]
    lo = hi = 0  # coordinates lo+1..hi of the observation lie in the window
    if live.size:
        models = slice(live[0], live[-1] + 1)
        lo, top = M[live[0]] - 1, min(M[live[-1]] + 1, max(length, M[-1]))
        window = np.zeros(w.shape[:-1] + (top - lo,))
        window[..., M[models] - 1 - lo] = w[..., models]
        np.cumsum(window[..., ::-1], axis=-1, out=window[..., ::-1])  # suffix sums
        hi = max(lo, min(top, length))
        np.multiply(Y[..., :lo], window[..., :1] + 0.0, out=out[..., :lo])
        np.multiply(Y[..., lo:hi], window[..., : hi - lo], out=out[..., lo:hi])
    np.multiply(Y[..., hi:], 0.0, out=out[..., hi:])
    return out


def m_epsilon(profile: np.ndarray, M: np.ndarray, sigma: float, epsilon: float) -> int | np.ndarray:
    """Largest model whose risk estimate stays under the linear-in-m envelope.

    Returns max{m in M : rbar(m) - min rbar <= 4 epsilon sigma^2 (m - mhat) + 4 sigma^2}
    per profile row, where mhat is the row's argmin model (the smallest on
    ties).  mhat itself satisfies the inequality, so the set is never empty.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    profile = np.asarray(profile, dtype=float)
    if profile.shape[-1:] != M.shape:
        raise ValueError("the profile must align with the model index set")
    variance = sigma * sigma
    mhat = M[np.argmin(profile, axis=-1)]
    envelope = 4.0 * epsilon * variance * (M - mhat[..., None]) + 4.0 * variance
    admissible = (profile - profile.min(axis=-1, keepdims=True)) <= envelope
    index = M[M.size - 1 - np.argmax(admissible[..., ::-1], axis=-1)]
    return int(index) if index.ndim == 0 else index
