"""Gaussian sequence model: mean vectors, noise, observation draws, and exact projection risks.

The model observes Y_i = mu_i + sigma * xi_i with i.i.d. standard normal xi_i.
The noise level sigma is a float, a model index set M is a strictly increasing
1-D int64 array, and a mean vector mu is a 1-D float64 array.  An observation
is a plain float64 array: shape (N,) for one draw, (B, N) for a block of B
draws, one per row.  Each draw comes from a PCG64 substream keyed through
numpy's SeedSequence.  Mean vectors have finite support: coordinates beyond
mu's length are exactly zero, so every risk quantity is computable in closed
form with no truncation error.

The kernels trust their sigma, M and mu, and the Monte Carlo engine its
replicate count: check_sigma, check_models, check_mean and check_replicates
check them once, where they enter.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from typing import Sequence, Union

import numpy as np

__all__ = [
    "check_sigma",
    "check_models",
    "check_mean",
    "check_replicates",
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
    objects = values if values.dtype.kind == "i" else values.astype(object)
    try:  # Python ints raise past int64 (and at inf), where a cast from uint64 would wrap
        idx = objects.astype(np.int64)
    except OverflowError:
        raise ValueError("model indices must be >= 1 and below 2**63") from None
    except ValueError as exc:  # int(nan)
        raise ValueError(f"model indices must be integers: {exc}") from None
    if not np.all(idx == objects):  # int() truncated a fraction
        raise ValueError(f"model indices must be integers, got {objects[idx != objects][0]!r}")
    if idx[0] < 1:
        raise ValueError("all model indices must be >= 1")
    if not np.all(np.diff(idx) > 0):
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


# The most replicates whose (R, 4) uint64 seed words one array can index.
_MAX_REPLICATES = np.iinfo(np.intp).max // 32


def check_replicates(replicates) -> int:
    """replicates as an int; ValueError unless whole, >= 2 (for an SE) and <= _MAX_REPLICATES."""
    if not (replicates >= 2 and replicates % 1 == 0):  # nan and +-inf fail too
        raise ValueError(f"replicates must be a whole number >= 2, got {replicates}")
    count = int(replicates)
    if count > _MAX_REPLICATES:
        raise ValueError(f"replicates must be <= {_MAX_REPLICATES}, the most one seed array holds")
    return count


def tail_squared_norms(mu: np.ndarray) -> np.ndarray:
    """Sums of squared coordinates strictly beyond position m, for m = 0..N (entry N is 0)."""
    squares = mu * mu
    return np.append(np.cumsum(squares[::-1])[::-1], 0.0)


def _seed_entropy(seed: SeedLike) -> list[int]:
    # SeedSequence wants nonnegative entropy words; fold negatives deterministically.
    if isinstance(seed, (int, np.integer)):
        parts = [seed]
    else:  # a float or other non-iterable seed gives no parts, and so the error below
        parts = list(seed) if isinstance(seed, Iterable) else []
    if not parts or not all(isinstance(p, (int, np.integer)) for p in parts):
        raise ValueError("seed must be an integer or a non-empty sequence of integers")
    return [int(p) % (1 << 128) for p in parts]


def standard_normals(
    seed: SeedLike | np.random.bit_generator.ISeedSequence, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """n standard normals from the substream that seed addresses, written into out if given.

    The generator is PCG64 keyed through numpy's SeedSequence, and the normal
    draws use numpy's ziggurat sampler, so a given (seed, n) reproduces the
    same values bit for bit regardless of platform or call order.  A sequence
    seed addresses one substream per (base seed, scenario, replicate).  An
    ISeedSequence, such as a substreams.SubstreamSeed that carries the words
    SeedSequence would give its address, keys the PCG64 as it is.  out, a
    C-contiguous float64 array of n values such as one row of a block, gets
    the same bits as a fresh array would.
    """
    if not isinstance(seed, np.random.bit_generator.ISeedSequence):
        seed = np.random.SeedSequence(_seed_entropy(seed))
    return np.random.Generator(np.random.PCG64(seed)).standard_normal(n, out=out)


def generate_observation(
    mu: np.ndarray,
    sigma: float,
    seed: SeedLike | np.random.bit_generator.ISeedSequence,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Draw Y = mu + sigma * Z with Z i.i.d. standard normal (see standard_normals).

    Z is drawn into a fresh array, and sigma * Z is written to out when it is
    given (into Z otherwise) before mu is added in place.  IEEE products and
    sums commute, so the bits are those of mu + sigma * Z.  A fresh Z skips
    standard_normal's checks of an out array, which cost more than the
    allocation at N = 100.
    """
    z = standard_normals(seed, mu.size)
    out = np.multiply(z, sigma, out=z if out is None else out)
    out += mu
    return out


def draw_observations(
    mu: np.ndarray, sigma: float, seeds, out: np.ndarray | None = None
) -> np.ndarray:
    """A (B, N) block of observations, one row per seed (any iterable of seeds).

    generate_observation draws each row in place into out, a C-contiguous
    (B, N) float64 array, or into one block allocated here when out is None.
    """
    seeds = list(seeds)
    if out is None:
        out = np.empty((len(seeds), mu.size))
    elif out.shape != (len(seeds), mu.size):
        raise ValueError(f"out has shape {out.shape}, not {(len(seeds), mu.size)}")
    for row, seed in zip(out, seeds):
        generate_observation(mu, sigma, seed, out=row)
    return out


def true_projection_risk(mu: np.ndarray, sigma: float, m) -> float | np.ndarray:
    """Exact risk of the projection estimator keeping the first m coordinates.

    Equals the squared-bias tail beyond m (zero beyond the support) plus the
    variance term sigma^2 * m.  m is one model index or a model set, checked
    by check_models.
    """
    models = check_models(np.atleast_1d(m))
    risk = tail_squared_norms(mu)[np.minimum(models, mu.size)] + sigma * sigma * models
    return float(risk[0]) if np.ndim(m) == 0 else risk


def squared_loss(
    estimate: Sequence[float] | np.ndarray, mu: np.ndarray, out: np.ndarray | None = None
) -> float | np.ndarray:
    """Squared l2 distance to the mean vector, zero-padded tails; one per row of a block.

    The squared differences go to out when it is given: a C-contiguous
    float64 array of shape (..., max(len(estimate), len(mu))), which may be
    the estimate itself.  The loss is returned either way.
    """
    est = np.asarray(estimate, dtype=float)
    if est.ndim == 0:
        raise ValueError("estimate must be a sequence of reals")
    length = est.shape[-1]
    if out is None:
        out = np.empty(est.shape[:-1] + (max(length, mu.size),))
    elif not out.flags.c_contiguous:  # a strided row would be summed in another order
        raise ValueError("out must be C-contiguous")
    if length == mu.size:
        np.subtract(est, mu, out=out)
    else:  # the shorter side is padded with +0.0
        out[..., :length] = est
        out[..., length:] = 0.0
        out[..., : mu.size] -= mu
    np.multiply(out, out, out=out)
    loss = np.sum(out, axis=-1)
    return float(loss) if loss.ndim == 0 else loss


# Each family's parameters but N, with their defaults as a spec writes them;
# sparse's k has none.  explicit lists coordinates instead.
_FAMILY_DEFAULTS = {
    "zero": {},
    "poly": {"beta": "1", "scale": "1"},
    "sparse": {"k": None, "amp": "1"},
}


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
    family, _, body = spec.strip().partition(":")
    family = family.strip().lower()
    if family == "explicit":
        values = [float(v) for v in body.split(",") if v.strip()]
        if not values:
            raise ValueError(f"explicit mean spec {spec!r} lists no coordinates")
        return check_mean(np.asarray(values))
    if family not in _FAMILY_DEFAULTS:
        raise ValueError(f"unknown mean vector family {family!r} in spec {spec!r}")

    params = {**_FAMILY_DEFAULTS[family], **_parse_params(body, spec)}
    unexpected = sorted(params.keys() - _FAMILY_DEFAULTS[family].keys() - {"n"})
    if unexpected:
        raise ValueError(f"unexpected parameters {unexpected} in mean spec {spec!r}")
    if params.get("k", "") is None:
        raise ValueError(f"sparse mean spec {spec!r} needs k=<count>")
    values = {key: (int if key in ("n", "k") else float)(text) for key, text in params.items()}
    k = values.get("k", 0)
    if k < 0:
        raise ValueError("sparse k must be >= 0")
    # Without N or a default length, a sparse mean stops after its k nonzero coordinates.
    n = values.get("n", default_length if default_length or "k" not in values else k)
    if n is None:
        raise ValueError(f"mean spec {spec!r} needs N=<len> or a default length")
    if n < 1:
        raise ValueError(f"mean vector length must be >= 1, got {n}")
    if n < k:
        raise ValueError(f"sparse mean spec {spec!r}: N={n} is smaller than k={k}")

    if family == "poly":
        coeffs = values["scale"] * np.arange(1, n + 1, dtype=float) ** (-values["beta"])
    else:  # zero, or sparse with its first k coordinates equal to amp
        coeffs = np.zeros(n)
        coeffs[:k] = values.get("amp", 0.0)
    return check_mean(coeffs)
