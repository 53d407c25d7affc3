"""Seed words of many PCG64 substreams at once, with the bits of numpy's SeedSequence.

A substream is addressed by a tuple of ints, (*prefix, rep), whose
SeedSequence keys one PCG64 (see sequence_model.standard_normals).
SeedSequence hashes its entropy words with uint32 multiply, xor and shift
steps; substream_words runs those steps over all reps of a prefix at once,
and SubstreamSeed hands one row of the result to PCG64, which seeds itself
from it as it would from SeedSequence.  numpy's SeedSequence stays the
reference that the tests compare against.

Importing this module imports numpy.random, which numpy itself defers to
first use; the engine imports it when it first draws.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .sequence_model import _seed_entropy

__all__ = ["SubstreamSeed", "substream_words"]

# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Reps derived in one vectorised pass.  A pass holds about 170 B of
# temporaries per rep beyond the 32 B it returns, so passes of this size cap
# them near 11 MB whatever the replicate count.
_ROWS_PER_PASS = 1 << 16


def _int_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int; 0 gives one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int):
    """SeedSequence's running hash constant, one (xor, multiplier) pair per hash call."""
    const = init
    while True:
        following = (const * mult) & _MASK32
        yield const, following
        const = following


def _xorshift(words: np.ndarray) -> np.ndarray:
    return words ^ (words >> 16)


def _mixed_pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's entropy pool, one uint32 column per pool word; entropy is by columns.

    Every step is on uint32 arrays, where products wrap silently; the hash
    constants are Python ints below 2**32.
    """
    constants = _hash_constants(_INIT_A, _MULT_A)

    def hashmix(words):
        xor, mult = next(constants)
        return _xorshift((words ^ xor) * mult)

    def mix(x, y):
        return _xorshift(x * _MIX_MULT_L - y * _MIX_MULT_R)

    # Entropy shorter than the pool is padded with zero words.
    padding = [np.zeros_like(entropy[0])] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(words) for words in (entropy + padding)[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for words in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words))
    return pool


def _pcg64_words(pool: list[np.ndarray]) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) of each pool row, as a (rows, 4) array."""
    constants = _hash_constants(_INIT_B, _MULT_B)
    halves = [
        _xorshift((pool[i % _POOL_SIZE] ^ xor) * mult).astype(np.uint64)
        for i, (xor, mult) in zip(range(8), constants)
    ]
    # generate_state pairs its uint32 words little-endian into each uint64.
    return np.stack([halves[2 * j] | (halves[2 * j + 1] << 32) for j in range(4)], axis=1)


def _derive(head: list[int], reps: np.ndarray, out: np.ndarray) -> None:
    """Write the seed words of (*prefix, rep) to out's rows; head is the prefix's entropy."""
    low = (reps & _MASK32).astype(np.uint32)
    high = (reps >> 32).astype(np.uint32)
    # A rep is one entropy word below 2**32 and two from there on.  Words past
    # the pool's fourth are hashed in after the pool's cross-mix, so each
    # entropy length is its own pass.
    for rows, tail in ((high == 0, [low]), (high != 0, [low, high])):
        count = int(np.count_nonzero(rows))
        if count:
            entropy = [np.full(count, w, dtype=np.uint32) for w in head]
            out[rows] = _pcg64_words(_mixed_pool(entropy + [words[rows] for words in tail]))


def substream_words(prefix: Sequence[int], reps: np.ndarray) -> np.ndarray:
    """PCG64 seed words of the substreams (*prefix, rep), one row of 4 uint64 per rep.

    Row r equals SeedSequence(_seed_entropy((*prefix, reps[r]))).generate_state(4,
    np.uint64), derived for many rows at once: SeedSequence's hashing is uint32
    arithmetic that runs over rows as well as one seed at a time.  Each prefix
    entry is folded mod 2**128 as _seed_entropy does; reps lie in [0, 2**64).
    Wrap a row in SubstreamSeed to draw from it.
    """
    head = [w for part in _seed_entropy(list(prefix)) for w in _int_words(part)]
    reps = np.asarray(reps, dtype=np.uint64)
    out = np.empty((reps.size, 4), dtype=np.uint64)
    for first in range(0, reps.size, _ROWS_PER_PASS):
        rows = slice(first, first + _ROWS_PER_PASS)
        _derive(head, reps[rows], out[rows])
    return out


class SubstreamSeed(ISeedSequence):
    """One row of substream_words, as the seed a PCG64 is built from."""

    def __init__(self, words: np.ndarray):
        # PCG64 reads the words straight from the array's buffer.
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.shape != (4,):
            raise ValueError(f"a substream seed is 4 uint64 words, got shape {words.shape}")
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes np.uint64 itself; the identity test skips np.dtype's lookup.
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("a substream seed holds only the 4 uint64 words that PCG64 asks for")
        return self.words
