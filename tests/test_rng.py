"""Counter-based randomness: hash correctness, stream quality, gamma sampler."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from lrfpp import rng


#: (counter, key, expected) triples from the Philox4x32-10 reference distribution.
PHILOX_KNOWN_ANSWERS = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


def test_philox_known_answer_vectors():
    for counter, key, expected in PHILOX_KNOWN_ANSWERS:
        got = rng.philox4x32(*(np.uint32(c) for c in counter), key)
        assert tuple(int(w) for w in got) == expected


def test_pair_uniform_symmetric_and_deterministic():
    key = rng.hash_key(42, rng.STREAM_EDGES)
    i = np.arange(100)
    j = np.arange(100, 200)
    a = rng.pair_uniform(i, j, key)
    b = rng.pair_uniform(j, i, key)
    assert np.array_equal(a, b)
    assert np.array_equal(a, rng.pair_uniform(i, j, key))
    # open interval
    assert (a > 0.0).all() and (a < 1.0).all()


def test_pair_uniform_distinct_keys_decorrelate():
    i = np.arange(1000)
    j = np.arange(1000, 2000)
    a = rng.pair_uniform(i, j, rng.hash_key(1, 0))
    b = rng.pair_uniform(i, j, rng.hash_key(2, 0))
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_counter_uniform_is_uniform():
    key = rng.hash_key(7, 3)
    u = rng.counter_uniform(np.arange(20000), np.zeros(20000, dtype=np.uint32), key)
    d, p = scipy.stats.kstest(u, "uniform")
    assert p > 1e-4, (d, p)


def test_generator_reproducible_streams():
    a = rng.generator((5, 2), rng.STREAM_EXPLORE).random(8)
    b = rng.generator((5, 2), rng.STREAM_EXPLORE).random(8)
    c = rng.generator((5, 2), rng.STREAM_EDGES).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        rng.generator(-1, 0)


def test_uniform_open_closed_never_zero():
    gen = rng.generator(0, 9)
    u = rng.uniform_open_closed(gen, 100000)
    assert (u > 0.0).all() and (u <= 1.0).all()


@pytest.mark.parametrize("shape", [1.0, 0.5, 0.25, 0.1])
def test_gamma_small_shape_distribution(shape):
    gen = rng.generator(11, rng.STREAM_MC)
    x = rng.gamma_small_shape(shape, 20000, gen)
    assert (x >= 0.0).all()
    d, p = scipy.stats.kstest(x, "gamma", args=(shape,))
    assert p > 1e-4, (shape, d, p)
    # First two moments: mean = shape, var = shape.
    assert np.mean(x) == pytest.approx(shape, abs=5 * math.sqrt(shape / 20000))


def test_gamma_small_shape_deterministic():
    a = rng.gamma_small_shape(0.5, 1000, rng.generator(3, rng.STREAM_MC))
    b = rng.gamma_small_shape(0.5, 1000, rng.generator(3, rng.STREAM_MC))
    assert np.array_equal(a, b)


def test_log_gamma_small_shape_finite_where_linear_underflows():
    # At shape 0.002 about a fifth of the variates are below 1e-323, so the
    # linear draw gives 0; the log draw stays finite.
    y = rng.log_gamma_small_shape(0.002, 100_000, rng.generator(11, rng.STREAM_MC))
    assert np.isfinite(y).all()
    assert (np.exp(y) == 0.0).any()


def test_log_gamma_small_shape_distribution():
    # P(log X <= y) = P(X <= e**y), the regularized incomplete gamma at e**y.
    shape = 0.1
    y = rng.log_gamma_small_shape(shape, 20000, rng.generator(11, rng.STREAM_MC))
    d, p = scipy.stats.kstest(y, lambda v: scipy.special.gammainc(shape, np.exp(v)))
    assert p > 1e-4, (d, p)


def test_gamma_shape_out_of_range():
    gen = rng.generator(0, 0)
    with pytest.raises(ValueError):
        rng.gamma_small_shape(1.5, 10, gen)
    with pytest.raises(ValueError):
        rng.gamma_small_shape(0.0, 10, gen)
    with pytest.raises(ValueError):
        rng.log_gamma_small_shape(1.5, 10, gen)


def test_lgamma_accuracy_contract():
    # The gamma evaluations backing the Monte Carlo prefactor must be good to
    # 1e-13 relative; spot-check math.lgamma against exact values and scipy.
    assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert math.gamma(1.0) == 1.0
    assert math.gamma(5.0) == 24.0
    for x in np.linspace(0.05, 20.0, 199):
        assert math.lgamma(x) == pytest.approx(
            float(scipy.special.gammaln(x)), rel=1e-13, abs=1e-13
        )
