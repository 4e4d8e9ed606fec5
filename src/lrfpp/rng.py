"""Counter-based randomness: reproducible streams and a stateless pair hash.

Two kinds of randomness are needed and both must be reproducible and
order-independent under parallel execution:

* per-run streams (inter-birth exponentials, newborn selection, Monte Carlo
  batches, the rungs of the edge-weight realization) — numpy's Philox bit
  generator keyed through ``SeedSequence``;
* a stateless map from an unordered site pair to a uniform variate — a
  hand-rolled, vectorized Philox4x32-10, validated against the published
  known-answer vectors in the test suite.  The edge realization no longer
  reads it; it stays as the per-pair reference the tests compare that
  realization's law against, and for the benchmark, which times it.

Streams derived from one seed are separated by small integer tags so the
exploration draws, the edge-weight realization, and auxiliary choices never
share random numbers.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

SeedLike = Union[int, Tuple[int, ...]]

# Stream tags (appended to the seed entropy).
STREAM_EXPLORE = 0
STREAM_EDGES = 1
STREAM_CHOICE = 2
STREAM_MC = 3

_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_PHILOX_W0 = 0x9E3779B9
_PHILOX_W1 = 0xBB67AE85
_PHILOX_ROUNDS = 10
_U32 = 0xFFFFFFFF
_INV_2_53 = 2.0**-53


def _entropy(seed: SeedLike, *tags: int) -> Tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        parts: Tuple[int, ...] = (int(seed),)
    else:
        parts = tuple(int(s) for s in seed)
    for s in parts:
        if s < 0:
            raise ValueError("seed components must be nonnegative integers")
    return parts + tuple(tags)


def seed_sequence(seed: SeedLike, *tags: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(_entropy(seed, *tags))


def generator(seed: SeedLike, *tags: int) -> np.random.Generator:
    """Philox-backed generator for the given seed and stream tags."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *tags)))


def hash_key(seed: SeedLike, *tags: int) -> Tuple[int, int]:
    """Two 32-bit key words for the stateless pair hash."""
    state = seed_sequence(seed, *tags).generate_state(2, np.uint32)
    return int(state[0]), int(state[1])


def philox4x32(
    c0: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    c3: np.ndarray,
    key: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Philox4x32-10 block cipher over vectors of 128-bit counters.

    Counters are given as four uint32 words (arrays broadcast together); the
    return value is the four output words.
    """
    c0 = np.asarray(c0, dtype=np.uint32)
    c1 = np.asarray(c1, dtype=np.uint32)
    c2 = np.asarray(c2, dtype=np.uint32)
    c3 = np.asarray(c3, dtype=np.uint32)
    k0, k1 = int(key[0]) & _U32, int(key[1]) & _U32
    for _ in range(_PHILOX_ROUNDS):
        p0 = _PHILOX_M0 * c0.astype(np.uint64)
        p1 = _PHILOX_M1 * c2.astype(np.uint64)
        hi0 = (p0 >> np.uint64(32)).astype(np.uint32)
        lo0 = p0.astype(np.uint32)
        hi1 = (p1 >> np.uint64(32)).astype(np.uint32)
        lo1 = p1.astype(np.uint32)
        c0 = hi1 ^ c1 ^ np.uint32(k0)
        c1 = lo1
        c2 = hi0 ^ c3 ^ np.uint32(k1)
        c3 = lo0
        k0 = (k0 + _PHILOX_W0) & _U32
        k1 = (k1 + _PHILOX_W1) & _U32
    return c0, c1, c2, c3


def counter_uniform(
    c0: np.ndarray, c1: np.ndarray, key: Tuple[int, int], tag: int = 0
) -> np.ndarray:
    """Uniform variates in the open interval (0, 1) from 64-bit counters.

    The counter words plus the tag form the 128-bit philox counter; the first
    two output words give 53 mantissa bits, offset by half an ulp so 0 and 1
    are unreachable.
    """
    w0, w1, _, _ = philox4x32(c0, c1, np.uint32(tag & _U32), np.uint32(0), key)
    bits = w0.astype(np.uint64) | (w1.astype(np.uint64) << np.uint64(32))
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53


def pair_uniform(
    i: np.ndarray, j: np.ndarray, key: Tuple[int, int]
) -> np.ndarray:
    """Uniform in (0,1) for unordered index pairs {i, j}, i != j.

    Symmetric by construction: the pair is encoded with the smaller index
    first.  Indices must fit in 32 bits.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    lo = np.minimum(i, j).astype(np.uint32)
    hi = np.maximum(i, j).astype(np.uint32)
    return counter_uniform(lo, hi, key, tag=0xED6E)


def uniform_open_closed(gen: np.random.Generator, size: int) -> np.ndarray:
    """Uniform on (0, 1]: never 0, safe as -log(U) input."""
    u = gen.random(size)
    return np.subtract(1.0, u, out=u)


def log_gamma_small_shape(
    shape: float, size: int, gen: np.random.Generator
) -> np.ndarray:
    """Logarithms of Gamma(shape, 1) variates for 0 < shape <= 1.

    Stuart's identity Gamma(s) = Gamma(s + 1) * U**(1/s) in law gives
    log X = log Gamma(s + 1) + log(U) / s.  The draw never leaves log space,
    so it stays finite where X itself would underflow (shape below about 0.01).
    It computes in place, so it holds two arrays of ``size`` at its peak.
    """
    if not (0.0 < shape <= 1.0):
        raise ValueError(f"shape must be in (0, 1], got {shape}")
    log_g = gen.standard_gamma(shape + 1.0, size)
    np.log(log_g, out=log_g)
    log_u = uniform_open_closed(gen, size)
    np.log(log_u, out=log_u)
    log_u /= shape
    log_g += log_u
    return log_g


def gamma_small_shape(
    shape: float, size: int, gen: np.random.Generator
) -> np.ndarray:
    """Gamma(shape, 1) variates for 0 < shape <= 1: exp of the log-space draw."""
    return np.exp(log_gamma_small_shape(shape, size, gen))
