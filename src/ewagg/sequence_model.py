"""Gaussian sequence model: mean vectors, noise, observation draws, and exact projection risks.

The model observes Y_i = mu_i + sigma * xi_i with i.i.d. standard normal xi_i.
The noise level sigma is a float, a model index set M is a strictly increasing
1-D int64 array, and a mean vector mu is a 1-D float64 array.  An observation
is a plain float64 array: shape (N,) for one draw, (B, N) for a block of B
draws, one per row.  Each draw comes from a PCG64 substream keyed through
numpy's SeedSequence.  Mean vectors have finite support: coordinates beyond
mu's length are exactly zero, so every risk quantity is computable in closed
form with no truncation error.

The kernels trust their sigma, M and mu.  Those are checked once, where they
enter: check_sigma, check_models and check_mean hold the checks, and
ScenarioConfig, mean_vector_from_spec, the CLI's model-set parser and the
Monte Carlo entry points call them.
"""

from __future__ import annotations

import sys
from typing import Sequence, Union

import numpy as np

__all__ = [
    "SeedLike",
    "check_sigma",
    "check_models",
    "check_mean",
    "tail_squared_norms",
    "standard_normals",
    "draw_observations",
    "generate_observation",
    "true_projection_risk",
    "squared_loss",
    "mean_vector_from_spec",
]

SeedLike = Union[int, Sequence[int]]


def check_sigma(sigma) -> float:
    """sigma as a float; ValueError unless sigma > 0 and sigma^2 is a normal float."""
    value = float(sigma)
    # sigma^2 turns subnormal below about 1.5e-154 and overflows above 1.3e154.
    variance = value * value
    if not (value > 0.0 and sys.float_info.min <= variance < np.inf):
        raise ValueError(f"sigma^2 must be a normal positive float, got sigma={sigma!r}")
    return value


def check_models(models) -> np.ndarray:
    """models as an int64 array; ValueError unless non-empty whole numbers, >= 1, increasing."""
    values = np.asarray(models)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("indices must be a non-empty 1-D sequence of integers")
    whole = values.dtype.kind != "f" or (values == np.floor(values)) & (np.abs(values) < 2.0**63)
    if not np.all(whole):  # a cast would truncate 1.5 and turn nan and inf into garbage
        raise ValueError(f"model indices must be integers, got {float(values[~whole][0])}")
    idx = values.astype(np.int64)
    if idx[0] < 1:
        raise ValueError("all model indices must be >= 1")
    if idx.size > 1 and not np.all(np.diff(idx) > 0):
        raise ValueError("model indices must be strictly increasing")
    return idx


def check_mean(mu) -> np.ndarray:
    """mu as a float64 array; ValueError unless it is non-empty, 1-D and finite."""
    coeffs = np.asarray(mu, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("coefficients must be a non-empty 1-D sequence of reals")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must all be finite")
    return coeffs


def tail_squared_norms(mu: np.ndarray) -> np.ndarray:
    """Sums of squared coordinates strictly beyond position m, for m = 0..N (entry N is 0)."""
    squares = mu * mu
    return np.append(np.cumsum(squares[::-1])[::-1], 0.0)


def _seed_entropy(seed: SeedLike) -> list[int]:
    # SeedSequence wants nonnegative entropy words; fold negatives deterministically.
    parts = [seed] if isinstance(seed, (int, np.integer)) else list(seed)
    if not parts or not all(isinstance(p, (int, np.integer)) for p in parts):
        raise ValueError("seed must be an integer or a non-empty sequence of integers")
    return [int(p) % (1 << 128) for p in parts]


def standard_normals(
    seed: SeedLike | np.random.bit_generator.ISeedSequence, n: int
) -> np.ndarray:
    """n standard normals from the substream that seed addresses.

    The generator is PCG64 keyed through numpy's SeedSequence, and the normal
    draws use numpy's ziggurat sampler, so a given (seed, n) reproduces the
    same values bit for bit regardless of platform or call order.  A sequence
    seed addresses one substream per (base seed, scenario, replicate).  An
    ISeedSequence, such as a substreams.SubstreamSeed that carries the words
    SeedSequence would give its address, keys the PCG64 as it is.
    """
    if not isinstance(seed, np.random.bit_generator.ISeedSequence):
        seed = np.random.SeedSequence(_seed_entropy(seed))
    return np.random.Generator(np.random.PCG64(seed)).standard_normal(n)


def generate_observation(
    mu: np.ndarray, sigma: float, seed: SeedLike | np.random.bit_generator.ISeedSequence
) -> np.ndarray:
    """Draw Y = mu + sigma * Z with Z i.i.d. standard normal (see standard_normals)."""
    return mu + sigma * standard_normals(seed, mu.size)


def draw_observations(mu: np.ndarray, sigma: float, seeds) -> np.ndarray:
    """A (B, N) block of observations, one row per seed, each drawn by generate_observation."""
    return np.stack([generate_observation(mu, sigma, seed) for seed in seeds])


def true_projection_risk(mu: np.ndarray, sigma: float, m) -> float | np.ndarray:
    """Exact risk of the projection estimator keeping the first m coordinates.

    Equals the squared-bias tail beyond m (zero beyond the support) plus the
    variance term sigma^2 * m.  m is one model index or an array of them.
    """
    m = np.asarray(m, dtype=np.int64)
    if np.any(m < 1):
        raise ValueError("m must be >= 1")
    risk = tail_squared_norms(mu)[np.minimum(m, mu.size)] + sigma * sigma * m
    return float(risk) if risk.ndim == 0 else risk


def squared_loss(estimate: Sequence[float] | np.ndarray, mu: np.ndarray) -> float | np.ndarray:
    """Squared l2 distance to the mean vector, zero-padded tails; one per row of a block."""
    est = np.asarray(estimate, dtype=float)
    if est.ndim == 0:
        raise ValueError("estimate must be a sequence of reals")
    n = max(est.shape[-1], mu.size)
    diff = np.zeros(est.shape[:-1] + (n,))
    diff[..., : est.shape[-1]] = est
    diff[..., : mu.size] -= mu
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
        key = key.strip().lower()
        if key in params:
            raise ValueError(f"repeated parameter {key!r} in mean spec {spec!r}")
        params[key] = value.strip()
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


def mean_vector_from_spec(spec: str, default_length: int | None = None) -> np.ndarray:
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
        coeffs = np.zeros(n)
    elif family == "poly":
        params = _parse_params(body, spec)
        n = _resolve_length(params, default_length, spec)
        beta = float(params.pop("beta", "1"))
        scale = float(params.pop("scale", "1"))
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)} in mean spec {spec!r}")
        i = np.arange(1, n + 1, dtype=float)
        coeffs = scale * i ** (-beta)
    elif family == "sparse":
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
    elif family == "explicit":
        values = [float(v) for v in body.split(",") if v.strip()]
        if not values:
            raise ValueError(f"explicit mean spec {spec!r} lists no coordinates")
        coeffs = np.asarray(values)
    else:
        raise ValueError(f"unknown mean vector family {family!r} in spec {spec!r}")
    return check_mean(coeffs)
