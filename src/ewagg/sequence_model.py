"""Gaussian sequence model: mean vectors, noise, observations, and exact projection risks.

The model observes Y_i = mu_i + sigma * xi_i with i.i.d. standard normal xi_i.
Mean vectors are stored with finite support: coordinates beyond the declared
length are exactly zero, so every risk quantity is computable in closed form
with no truncation error.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "MeanVector",
    "NoiseLevel",
    "Observation",
    "ModelIndexSet",
    "SeedLike",
    "standard_normals",
    "draw_observations",
    "generate_observation",
    "true_projection_risk",
    "squared_loss",
    "mean_vector_from_spec",
]

SeedLike = Union[int, Sequence[int]]


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class MeanVector:
    """Mean vector with finite support; coordinates beyond the stored ones are exactly 0."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence of reals")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must all be finite")
        object.__setattr__(self, "coefficients", _frozen_array(coeffs, float))

    @property
    def declared_length(self) -> int:
        return int(self.coefficients.size)

    @property
    def squared_norm(self) -> float:
        return self.tail_squared_norm(0)

    def tail_squared_norms(self) -> np.ndarray:
        """Sums of squared coordinates strictly beyond position m, for m = 0..N (entry N is 0)."""
        squares = self.coefficients * self.coefficients
        return np.append(np.cumsum(squares[::-1])[::-1], 0.0)

    def tail_squared_norm(self, m: int) -> float:
        """Sum of squared coordinates strictly beyond position m (exact: zero tail)."""
        if m < 0:
            raise ValueError("m must be nonnegative")
        return float(self.tail_squared_norms()[min(m, self.declared_length)])


@dataclass(frozen=True)
class NoiseLevel:
    """Known standard deviation of the per-coordinate Gaussian noise."""

    sigma: float

    def __post_init__(self):
        sigma = float(self.sigma)
        # sigma^2 turns subnormal below about 1.5e-154 and overflows above 1.3e154.
        variance = sigma * sigma
        if not (sigma > 0.0 and sys.float_info.min <= variance < np.inf):
            raise ValueError(f"sigma^2 must be a normal positive float, got sigma={self.sigma!r}")
        object.__setattr__(self, "sigma", sigma)

    @property
    def variance(self) -> float:
        return self.sigma * self.sigma


@dataclass(frozen=True)
class Observation:
    """One realization of the observation vector, with its noise level.

    A block holds realizations as rows; every function taking an Observation
    works row by row over the last axis.
    """

    values: np.ndarray
    noise: NoiseLevel

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, float))

    @property
    def length(self) -> int:
        return int(self.values.shape[-1])


@dataclass(frozen=True)
class ModelIndexSet:
    """Bounded set of candidate projection dimensions, kept strictly increasing."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("indices must be a non-empty 1-D sequence of integers")
        if idx[0] < 1:
            raise ValueError("all model indices must be >= 1")
        if idx.size > 1 and not np.all(np.diff(idx) > 0):
            raise ValueError("model indices must be strictly increasing")
        object.__setattr__(self, "indices", _frozen_array(idx, np.int64))

    def __len__(self) -> int:
        return int(self.indices.size)

    def __iter__(self):
        return iter(int(m) for m in self.indices)

    @property
    def max_index(self) -> int:
        return int(self.indices[-1])

    @property
    def min_index(self) -> int:
        return int(self.indices[0])

    @classmethod
    def from_range(cls, lo: int, hi: int) -> "ModelIndexSet":
        """All integers lo..hi inclusive."""
        return cls(np.arange(lo, hi + 1, dtype=np.int64))


def _seed_entropy(seed: SeedLike) -> list[int]:
    # SeedSequence wants nonnegative entropy words; fold negatives deterministically.
    parts = [seed] if isinstance(seed, (int, np.integer)) else list(seed)
    if not parts or not all(isinstance(p, (int, np.integer)) for p in parts):
        raise ValueError("seed must be an integer or a non-empty sequence of integers")
    return [int(p) % (1 << 128) for p in parts]


def standard_normals(seed: SeedLike, n: int) -> np.ndarray:
    """n standard normals from the substream that seed addresses.

    The generator is PCG64 keyed through numpy's SeedSequence, and the normal
    draws use numpy's ziggurat sampler, so a given (seed, n) reproduces the
    same values bit for bit regardless of platform or call order.  A sequence
    seed addresses one substream per (base seed, scenario, replicate).
    """
    rng = np.random.default_rng(np.random.SeedSequence(_seed_entropy(seed)))
    return rng.standard_normal(n)


def generate_observation(mu: MeanVector, sigma: NoiseLevel, seed: SeedLike) -> Observation:
    """Draw Y = mu + sigma * Z with Z i.i.d. standard normal (see standard_normals)."""
    values = mu.coefficients + sigma.sigma * standard_normals(seed, mu.declared_length)
    return Observation(values=values, noise=sigma)


def draw_observations(mu: MeanVector, sigma: NoiseLevel, seeds) -> Observation:
    """A block of observations, one row per seed, each drawn as generate_observation draws it."""
    rows = [generate_observation(mu, sigma, seed).values for seed in seeds]
    return Observation(values=np.stack(rows), noise=sigma)


def true_projection_risk(mu: MeanVector, sigma: NoiseLevel, m: int) -> float:
    """Exact risk of the projection estimator keeping the first m coordinates.

    Equals the squared-bias tail beyond m plus the variance term sigma^2 * m.
    """
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    return mu.tail_squared_norm(m) + sigma.variance * m


def squared_loss(estimate: Sequence[float] | np.ndarray, mu: MeanVector) -> float | np.ndarray:
    """Squared l2 distance to the mean vector, zero-padded tails; one per row of a block."""
    est = np.asarray(estimate, dtype=float)
    if est.ndim == 0:
        raise ValueError("estimate must be a sequence of reals")
    n = max(est.shape[-1], mu.declared_length)
    diff = np.zeros(est.shape[:-1] + (n,))
    diff[..., : est.shape[-1]] = est
    diff[..., : mu.declared_length] -= mu.coefficients
    loss = np.sum(diff * diff, axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def _parse_params(body: str, spec: str) -> dict[str, str]:
    params: dict[str, str] = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"malformed parameter {item!r} in mean spec {spec!r}")
        key, _, value = item.partition("=")
        params[key.strip().lower()] = value.strip()
    return params


def _resolve_length(params: dict[str, str], default_length: int | None, spec: str) -> int:
    if "n" in params:
        n = int(params.pop("n"))
    elif default_length is not None:
        n = int(default_length)
    else:
        raise ValueError(f"mean spec {spec!r} needs N=<len> or a default length")
    if n < 1:
        raise ValueError(f"mean vector length must be >= 1, got {n}")
    return n


def mean_vector_from_spec(spec: str, default_length: int | None = None) -> MeanVector:
    """Build a mean vector from its textual family description.

    Supported families:
      "zero"                          all-zero vector
      "poly:beta=<b>,scale=<c>"       mu_i = c * i**(-b)
      "sparse:k=<k>,amp=<a>"          first k coordinates equal a, rest 0
      "explicit:<v1>,<v2>,..."        literal coordinates

    Every family except "explicit" accepts an optional N=<len>; when omitted,
    default_length fixes the stored support.
    """
    text = spec.strip()
    family, _, body = text.partition(":")
    family = family.strip().lower()

    if family == "zero":
        params = _parse_params(body, spec)
        n = _resolve_length(params, default_length, spec)
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)} in mean spec {spec!r}")
        return MeanVector(np.zeros(n))

    if family == "poly":
        params = _parse_params(body, spec)
        n = _resolve_length(params, default_length, spec)
        beta = float(params.pop("beta", "1"))
        scale = float(params.pop("scale", "1"))
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)} in mean spec {spec!r}")
        i = np.arange(1, n + 1, dtype=float)
        return MeanVector(scale * i ** (-beta))

    if family == "sparse":
        params = _parse_params(body, spec)
        if "k" not in params:
            raise ValueError(f"sparse mean spec {spec!r} needs k=<count>")
        k = int(params.pop("k"))
        amp = float(params.pop("amp", "1"))
        if k < 0:
            raise ValueError("sparse k must be >= 0")
        n = _resolve_length(params, default_length if default_length else k, spec)
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)} in mean spec {spec!r}")
        if n < k:
            raise ValueError(f"sparse mean spec {spec!r}: N={n} is smaller than k={k}")
        coeffs = np.zeros(n)
        coeffs[:k] = amp
        return MeanVector(coeffs)

    if family == "explicit":
        values = [float(v) for v in body.split(",") if v.strip()]
        if not values:
            raise ValueError(f"explicit mean spec {spec!r} lists no coordinates")
        return MeanVector(np.asarray(values))

    raise ValueError(f"unknown mean vector family {family!r} in spec {spec!r}")
