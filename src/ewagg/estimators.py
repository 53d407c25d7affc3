"""Projection estimators, unbiased risk estimates, model selection, and aggregation.

The unbiased risk estimate of the projection keeping m coordinates is
    rbar(Y, m) = -sum_{i<=m} Y_i^2 + 2 sigma^2 m,
an unbiased estimate of the true risk up to one additive constant shared by
all m, so every consumer here (argmin selection, softmax weighting,
profile differences) is shift invariant.

Each formula has one implementation over the last axis, so a block of
observations (B, N) and a single one (N,) get the same bits per row.  The
validated objects hold either one row or a block of rows, so one call per
block runs the whole pipeline over it.

Everything runs in float64.  numpy sums a contiguous row pairwise but a
strided one sequentially, so the kernels that reduce along a row (the softmax
normalisation) first make their input C-contiguous: a row then sums to the
same bits whether it arrives alone, inside a block, or in a transposed view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sequence_model import ModelIndexSet, NoiseLevel, Observation, _frozen_array

__all__ = [
    "profile_values",
    "softmax_weights",
    "suffix_weights",
    "RiskProfile",
    "WeightVector",
    "projection_estimate",
    "unbiased_risk",
    "risk_profile",
    "ure_weights",
    "exponential_weights",
    "aggregate",
    "m_epsilon",
]


def profile_values(values: np.ndarray, variance: float, indices: np.ndarray) -> np.ndarray:
    """Risk estimates 2 sigma^2 m - sum_{i<=m} Y_i^2 for each m in indices, per row."""
    cum2 = np.cumsum(values * values, axis=-1)
    # np.take keeps the result C-ordered; fancy indexing on the last axis of a
    # block returns an F-ordered array.
    return 2.0 * variance * indices - np.take(cum2, indices - 1, axis=-1)


def softmax_weights(profile: np.ndarray, variance: float) -> np.ndarray:
    """Weights proportional to exp(-rbar / (4 sigma^2)) over each profile row."""
    # Max-shift before exponentiating: the largest exponent is exactly 0, so the
    # row sum is >= 1 and can neither overflow nor vanish.  Extreme spreads
    # underflow to exact zeros, which is the intended saturation.  The exponents
    # are made C-contiguous so that every row sum takes numpy's pairwise path
    # and a row gets the same bits in any block layout.
    exponents = -(profile - profile.min(axis=-1, keepdims=True)) / (4.0 * variance)
    expd = np.exp(np.ascontiguousarray(exponents))
    return expd / expd.sum(axis=-1, keepdims=True)


def suffix_weights(indices: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """Per-coordinate scale of the aggregate: total weight of the models with m >= i."""
    # Scatter each model's weight to coordinate m, then one reversed cumulative
    # sum gives every suffix in O(N) per row.  The cumsum is sequential and the
    # added entries are exact zeros, so each suffix has the bits of the sum
    # over the models alone.
    dense = np.zeros(weights.shape[:-1] + (max(length, int(indices[-1])),))
    dense[..., indices - 1] = weights
    return np.cumsum(dense[..., ::-1], axis=-1)[..., ::-1][..., :length]


@dataclass(frozen=True)
class RiskProfile:
    """Unbiased risk estimates aligned with a model index set (one row, or rows of a block).

    min_value and argmin_index are derived from the values: argmin_index is
    the smallest model index attaining the minimum.  For a block they are
    arrays with one entry per row.
    """

    models: ModelIndexSet
    values: np.ndarray
    min_value: float | np.ndarray = field(init=False)
    argmin_index: int | np.ndarray = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape[-1:] != self.models.indices.shape:
            raise ValueError("profile values must align with the model index set")
        min_value = values.min(axis=-1)
        argmin_index = self.models.indices[np.argmin(values, axis=-1)]  # first occurrence
        if values.ndim == 1:
            min_value, argmin_index = float(min_value), int(argmin_index)
        object.__setattr__(self, "values", _frozen_array(values, float))
        object.__setattr__(self, "min_value", min_value)
        object.__setattr__(self, "argmin_index", argmin_index)


@dataclass(frozen=True)
class WeightVector:
    """Point on the probability simplex over a model index set (one per row of a block)."""

    models: ModelIndexSet
    weights: np.ndarray

    _SUM_TOL = 1e-12

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape[-1:] != self.models.indices.shape:
            raise ValueError("weights must align with the model index set")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        if np.any(np.abs(w.sum(axis=-1) - 1.0) > self._SUM_TOL):
            raise ValueError(f"weights must sum to 1 within {self._SUM_TOL}")
        object.__setattr__(self, "weights", _frozen_array(w, float))


def projection_estimate(Y: Observation, m: int) -> np.ndarray:
    """Keep the first m observed coordinates, zero the rest (output length N)."""
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    keep = min(m, Y.length)
    out = np.zeros_like(Y.values)
    out[..., :keep] = Y.values[..., :keep]
    return out


def unbiased_risk(Y: Observation, m: int) -> float | np.ndarray:
    """Unbiased risk estimate -sum_{i<=m} Y_i^2 + 2 sigma^2 m of the m-projection."""
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > Y.length:
        raise ValueError(
            f"m={m} exceeds the observation length {Y.length}; "
            "coordinates beyond the support would be silently dropped"
        )
    values = profile_values(Y.values, Y.noise.variance, np.array([m]))[..., 0]
    return float(values) if values.ndim == 0 else values


def risk_profile(Y: Observation, M: ModelIndexSet) -> RiskProfile:
    """Unbiased risk estimates over all m in M, with the argmin selection."""
    if M.max_index > Y.length:
        raise ValueError(
            f"max model index {M.max_index} exceeds the observation length {Y.length}"
        )
    return RiskProfile(M, profile_values(Y.values, Y.noise.variance, M.indices))


def ure_weights(profile: RiskProfile) -> WeightVector:
    """Atomic weights: all mass on the profile's argmin model."""
    chosen = profile.models.indices == np.asarray(profile.argmin_index)[..., None]
    return WeightVector(models=profile.models, weights=chosen.astype(float))


def exponential_weights(profile: RiskProfile, sigma: NoiseLevel) -> WeightVector:
    """Softmax weights proportional to exp(-rbar / (4 sigma^2))."""
    w = softmax_weights(profile.values, sigma.variance)
    return WeightVector(models=profile.models, weights=w)


def aggregate(Y: Observation, M: ModelIndexSet, w: WeightVector) -> np.ndarray:
    """Convex combination of projection estimates, computed through suffix sums."""
    if not np.array_equal(w.models.indices, M.indices):
        raise ValueError("weight vector is not aligned with the model index set")
    return Y.values * suffix_weights(M.indices, w.weights, Y.length)


def m_epsilon(
    profile: RiskProfile,
    sigma: NoiseLevel,
    epsilon: float,
    center: float | None = None,
) -> int | np.ndarray:
    """Largest model whose risk estimate stays under the linear-in-m envelope.

    Returns max{m in M : rbar(m) - center <= 4 epsilon sigma^2 (m - mhat) + 4 sigma^2}.
    With the default centering at the profile minimum the set always contains
    mhat, so the scan is well defined.  A custom center (for diagnostics that
    compare against an externally computed risk level) may empty the set, in
    which case the argmin model is returned.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    values, indices, variance = profile.values, profile.models.indices, sigma.variance
    if center is None:
        center = values.min(axis=-1, keepdims=True)
    mhat = np.asarray(profile.argmin_index)
    envelope = 4.0 * epsilon * variance * (indices - mhat[..., None]) + 4.0 * variance
    admissible = (values - center) <= envelope
    last = indices.size - 1 - np.argmax(admissible[..., ::-1], axis=-1)
    index = np.where(admissible.any(axis=-1), indices[last], mhat)
    return int(index) if index.ndim == 0 else index
