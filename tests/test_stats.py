"""Estimators, Gumbel fluctuation test, and KS machinery."""

import math

import numpy as np
import pytest
import scipy.stats

from lrfpp import (
    ConfigError,
    ExperimentSpec,
    TorusConfig,
    estimate_scaled,
    gumbel_cdf,
    gumbel_test,
    ks_one_sample,
    ks_two_sample,
    total_rate,
)
from lrfpp import rng, stats, torus


# ---------------------------------------------------------------------------
# KS machinery
# ---------------------------------------------------------------------------


def test_ks_two_sample_identical_vectors():
    x = np.linspace(0.0, 1.0, 100)
    d, p = ks_two_sample(x, x.copy())
    assert d <= 1.0 / len(x)
    assert p == pytest.approx(1.0, abs=1e-6)


def test_ks_two_sample_separation():
    gen = np.random.default_rng(0)
    a = gen.random(1000)
    b = gen.random(1000) + 0.5
    d, p = ks_two_sample(a, b)
    assert d > 0.4
    assert p < 1e-6


def test_ks_two_sample_agrees_with_scipy():
    gen = np.random.default_rng(1)
    a = gen.exponential(size=500)
    b = gen.exponential(size=700) * 1.1
    d, _ = ks_two_sample(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp")
    assert d == pytest.approx(ref.statistic, abs=1e-12)


def test_ks_one_sample_exact_grid():
    n = 200
    x = (np.arange(1, n + 1) - 0.5) / n  # exact uniform CDF grid midpoints
    d, p = ks_one_sample(x, lambda t: np.asarray(t))
    assert d <= 1.0 / n
    assert p > 0.999999


def test_ks_one_sample_detects_shift():
    gen = np.random.default_rng(2)
    x = gen.normal(loc=0.3, size=2000)
    d, p = ks_one_sample(x, scipy.stats.norm.cdf)
    assert p < 1e-6


def test_ks_minimum_sample_size():
    with pytest.raises(ConfigError):
        ks_one_sample(np.arange(10), lambda t: np.asarray(t))
    with pytest.raises(ConfigError):
        ks_two_sample(np.arange(10), np.arange(100))


def test_gumbel_cdf_shape():
    assert gumbel_cdf(np.array([0.0]))[0] == pytest.approx(math.exp(-1.0))
    x = np.linspace(-3, 8, 50)
    f = gumbel_cdf(x)
    assert ((f >= 0) & (f <= 1)).all()
    assert (np.diff(f) > 0).all()


# ---------------------------------------------------------------------------
# Experiment specs and estimators
# ---------------------------------------------------------------------------


def test_spec_validation():
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    with pytest.raises(ConfigError):
        ExperimentSpec(cfg=cfg, quantity="bogus", replicates=5, root_seed=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(cfg=cfg, quantity="typical", replicates=0, root_seed=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(cfg=cfg, quantity="tau", replicates=5, root_seed=0)  # no k/beta
    with pytest.raises(ConfigError):
        ExperimentSpec(cfg=cfg, quantity="tau", replicates=5, root_seed=0, k=2, beta=0.5)
    with pytest.raises(ConfigError):
        ExperimentSpec(cfg=cfg, quantity="tau", replicates=5, root_seed=0, k=1)
    with pytest.raises(ConfigError):
        ExperimentSpec(cfg=cfg, quantity="tau", replicates=5, root_seed=0, beta=1.2)
    with pytest.raises(ConfigError):
        ExperimentSpec(cfg=cfg, quantity="typical", replicates=5, root_seed=0, k=3)
    spec = ExperimentSpec(cfg=cfg, quantity="tau", replicates=5, root_seed=0, beta=0.5)
    assert spec.tau_k() == 4  # floor(16**0.5)


def test_spec_rejects_non_integer_counts_and_seeds():
    # A float would pass the range checks: 2.5 replicates run 3, and root
    # seed 1.5 draws what seed 1 draws.
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    for field, val in (("replicates", 2.5), ("replicates", 3.0), ("root_seed", 1.5),
                       ("root_seed", 1.0), ("k", 3.0)):
        kwargs = {"replicates": 3, "root_seed": 1, "k": 3, field: val}
        with pytest.raises(ConfigError, match=f"{field} must be"):
            ExperimentSpec(cfg=cfg, quantity="tau", **kwargs)


def test_seed_determinism_bit_identical():
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    spec = ExperimentSpec(cfg=cfg, quantity="typical", replicates=40, root_seed=123, source="uniform")
    a = estimate_scaled(spec)
    b = estimate_scaled(spec)
    assert np.array_equal(a.samples, b.samples)
    assert a.scaled_mean == b.scaled_mean


def test_jobs_do_not_change_samples():
    cfg = TorusConfig(2, 3, 2.0, 0.5)
    # The typical runs are one block, which runs in this process whatever the
    # jobs; each diameter is a block of its own, so two jobs start a pool.
    for spec in (ExperimentSpec(cfg=cfg, quantity="typical", replicates=24, root_seed=5,
                                source="uniform"),
                 ExperimentSpec(cfg=cfg, quantity="diameter", replicates=6, root_seed=5)):
        seq = estimate_scaled(spec, jobs=1)
        par = estimate_scaled(spec, jobs=2)
        assert np.array_equal(seq.samples, par.samples)


def test_pool_starts_no_more_workers_than_blocks_or_cores(monkeypatch):
    # A pool started with the fork method launches every worker at once, so
    # jobs above the blocks or the cores must not reach it.  The fake pool
    # records its size and maps in this process.
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(stats, "ProcessPoolExecutor", FakePool)
    cfg = TorusConfig(2, 3, 2.0, 0.5)
    diameters = ExperimentSpec(cfg=cfg, quantity="diameter", replicates=4, root_seed=8)
    typical = ExperimentSpec(cfg=cfg, quantity="typical", replicates=24, root_seed=5,
                             source="uniform")
    serial = {spec: stats._collect(spec, 1)[0] for spec in (diameters, typical)}
    for cores, spec, jobs, size in [(8, diameters, 64, 4), (2, diameters, 64, 2),
                                    (None, diameters, 64, None), (8, typical, 64, None)]:
        monkeypatch.setattr(stats.os, "cpu_count", lambda: cores)
        sizes.clear()
        assert np.array_equal(stats._collect(spec, jobs)[0], serial[spec])
        assert sizes == ([] if size is None else [size])


# Samples as float.hex, reproduced bit for bit.  Every entry was recorded
# again, at the same seeds, when a birth's wait became the sum of its
# proposals' clock exponentials over j * R_n.
_GOLDEN = [
    (ExperimentSpec(cfg=TorusConfig(2, 16, 2.0, 0.5), quantity="tau", replicates=3,
                    root_seed=11, k=16),
     ["0x1.ae4139ceb0d61p-6", "0x1.8eeaf4a01242cp-6", "0x1.977a48319cce6p-6"]),
    (ExperimentSpec(cfg=TorusConfig(2, 8, 2.0, 1.0), quantity="flooding", replicates=3,
                    root_seed=12),
     ["0x1.d42b412b0ba2cp-2", "0x1.3d27f730dcfdfp-2", "0x1.99d6a26769429p-2"]),
    (ExperimentSpec(cfg=TorusConfig(2, 8, 2.0, 0.0), quantity="typical", replicates=3,
                    root_seed=13, source="uniform"),
     ["0x1.f021cd867fbedp-4", "0x1.88e78dd6f0f06p-4", "0x1.16076311cfe96p-4"]),
    (ExperimentSpec(cfg=TorusConfig(1, 9, 1.0, 0.5), quantity="flooding", replicates=2,
                    root_seed=14, source="uniform"),
     ["0x1.8bcae61a2a1a9p-1", "0x1.954ffaa87663bp-1"]),
]


@pytest.mark.parametrize("spec, golden", _GOLDEN, ids=lambda x: getattr(x, "quantity", ""))
def test_samples_match_golden_values(spec, golden):
    expected = [float.fromhex(h) for h in golden]
    assert [stats.replicate_sample(spec, r) for r in range(spec.replicates)] == expected
    samples, counts = stats._collect(spec)
    assert samples.tolist() == expected
    assert counts["births"] >= spec.replicates and counts["proposals"] >= counts["births"]


def _reference_ends(cfg, seed, uniform, target):
    """A run's ends straight from the seed's choice stream: the source's index
    first if uniform, then indices until one differs from it if target."""
    gen = rng.generator(seed, rng.STREAM_CHOICE)
    draws = iter(lambda: int(gen.integers(cfg.n)), None)
    iu = next(draws) if uniform else torus.site_to_index(torus.origin(cfg), cfg)
    iv = next(i for i in draws if i != iu) if target else None
    return torus.index_to_site(iu, cfg), None if iv is None else torus.index_to_site(iv, cfg)


@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize("target", [False, True])
def test_ends_are_the_first_draws_of_the_choice_stream(uniform, target):
    # _GOLDEN pins uniform typical, origin and uniform flooding and origin
    # tau samples; this pins every pair of ends, origin-source typical too.
    # On two sites a uniform source's target follows a rejection half the time.
    for cfg in (TorusConfig(1, 2, 2.0, 0.0), TorusConfig(2, 4, 2.0, 0.5)):
        for seed in [(5, r) for r in range(20)]:
            expected = _reference_ends(cfg, seed, uniform, target)
            assert stats._ends(cfg, seed, uniform, target) == expected, (cfg, seed)


def test_origin_runs_without_a_target_open_no_choice_stream(monkeypatch):
    # An origin tau or flooding run draws nothing from the choice stream, so
    # it does not create one; every other run creates one.
    generator, opened = rng.generator, []

    def counting(seed, *tags):
        opened.append(tags == (rng.STREAM_CHOICE,))
        return generator(seed, *tags)

    monkeypatch.setattr(rng, "generator", counting)
    cfg = TorusConfig(2, 8, 2.0, 0.5)
    for spec, streams in [(ExperimentSpec(cfg, "tau", 30, 5, k=4), 0),
                          (ExperimentSpec(cfg, "flooding", 3, 6), 0),
                          (ExperimentSpec(cfg, "flooding", 3, 6, source="uniform"), 3),
                          (ExperimentSpec(cfg, "typical", 3, 7), 3),
                          (ExperimentSpec(cfg, "typical", 3, 7, source="uniform"), 3)]:
        opened.clear()
        stats._collect(spec)
        assert sum(opened) == streams < len(opened), spec  # explorations open theirs


def test_summary_fields():
    cfg = TorusConfig(2, 4, 2.0, 0.0)
    spec = ExperimentSpec(cfg=cfg, quantity="typical", replicates=60, root_seed=9, source="uniform")
    s = estimate_scaled(spec)
    assert s.quantity == "typical"
    assert len(s.samples) == 60
    assert s.se == pytest.approx(float(np.std(s.samples, ddof=1)) / math.sqrt(60))
    assert list(s.quantiles) == sorted(s.quantiles)
    assert s.scale == pytest.approx(total_rate(cfg) / math.log(cfg.n))
    assert s.scaled_mean == pytest.approx(s.mean * s.scale)


@pytest.mark.parametrize("shift", [0.0, 1.75])
def test_summary_computes_its_statistics_from_its_samples(shift):
    x = np.random.default_rng(4).exponential(size=101)
    s = stats.StatSummary("typical", x, 0.3, shift)
    assert s.mean == np.mean(x)
    assert s.se == np.std(x, ddof=1) / math.sqrt(len(x))
    assert s.quantiles == tuple(np.quantile(x, stats.QUANTILE_LEVELS))
    assert s.scaled_mean == (np.mean(x) + shift) * 0.3
    assert s.scaled_se == s.se * 0.3
    assert stats.StatSummary("typical", x[:1], 0.3).se == 0.0
    with pytest.raises(TypeError):  # a statistic is derived, never given
        stats.StatSummary("typical", x, 0.3, mean=0.0)


def test_tau_summary_scales_the_uncentred_mean():
    # The centred samples R_n tau_k - log k, shifted back by log k, in theorem scaling.
    cfg = TorusConfig(2, 8, 2.0, 0.5)
    s = gumbel_test(ExperimentSpec(cfg=cfg, quantity="tau", replicates=40, root_seed=5, k=8))
    assert s.shift == math.log(8) and s.scale == 1.0 / math.log(cfg.n)
    for got, want in ((s.scaled_mean, (s.mean + math.log(8)) / math.log(cfg.n)),
                      (s.scaled_se, s.se / math.log(cfg.n))):
        assert abs(got - want) <= math.ulp(want)


def test_two_site_typical_is_single_edge_exponential():
    cfg = TorusConfig(1, 2, 2.0, 0.5)
    spec = ExperimentSpec(cfg=cfg, quantity="typical", replicates=2000, root_seed=3, source="uniform")
    s = estimate_scaled(spec)
    _, p = ks_one_sample(s.samples, lambda t: 1.0 - np.exp(-np.asarray(t)))
    assert p > 1e-4
    assert s.scale == pytest.approx(1.0 / math.log(2.0))


def test_typical_runs_meet_after_few_births():
    # Two explorations meet after about 3 sqrt(n) births; a search from U
    # alone for V takes about n/2.
    cfg = TorusConfig(2, 64, 2.0, 1.0)
    spec = ExperimentSpec(cfg=cfg, quantity="typical", replicates=24, root_seed=20,
                          source="uniform")
    assert stats._collect(spec)[1]["births"] < 24 * cfg.n / 8


def test_typical_source_choice_unbiased():
    # Fixed-source and uniform-source estimators agree (translation
    # invariance), 3 combined standard errors.
    cfg = TorusConfig(2, 4, 2.0, 1.0)
    fixed = estimate_scaled(
        ExperimentSpec(cfg=cfg, quantity="typical", replicates=1500, root_seed=31, source="origin")
    )
    unif = estimate_scaled(
        ExperimentSpec(cfg=cfg, quantity="typical", replicates=1500, root_seed=32, source="uniform")
    )
    se = math.sqrt(fixed.se**2 + unif.se**2)
    assert abs(fixed.mean - unif.mean) <= 3 * se


def test_estimate_scaled_rejects_tau():
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    spec = ExperimentSpec(cfg=cfg, quantity="tau", replicates=50, root_seed=0, k=4)
    with pytest.raises(ConfigError):
        estimate_scaled(spec)
    with pytest.raises(ConfigError):
        gumbel_test(ExperimentSpec(cfg=cfg, quantity="typical", replicates=50, root_seed=0))


def test_gumbel_test_checks_the_ks_floor_before_any_run(monkeypatch):
    # Ten replicates are below the KS floor, so the spec is rejected before a
    # single birth of its 10 x 64 is run.
    def no_run(*args, **kwargs):
        raise AssertionError("gumbel_test ran replicates it cannot test")

    monkeypatch.setattr(stats, "_collect", no_run)
    cfg = TorusConfig(2, 64, 2.0, 1.0)
    spec = ExperimentSpec(cfg=cfg, quantity="tau", replicates=10, root_seed=0, k=64)
    with pytest.raises(ConfigError, match=f"at least {stats._KS_MIN_SAMPLES} samples"):
        gumbel_test(spec)


def test_gumbel_test_small_scale():
    # Complete-graph case at modest size: centered discovery-time fluctuations
    # already sit close to the standard Gumbel law.
    cfg = TorusConfig(2, 16, 2.0, 0.0)
    spec = ExperimentSpec(cfg=cfg, quantity="tau", replicates=600, root_seed=17, k=16)
    s = gumbel_test(spec)
    assert s.ks_pvalue is not None and s.ks_pvalue > 0.001
    assert abs(s.mean - np.euler_gamma) <= 4 * s.se
    assert s.details["k"] == 16
    assert s.scaled_mean == pytest.approx(
        (s.mean + math.log(16)) / math.log(cfg.n)
    )


def test_ordering_sample_is_nested():
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    for r in range(25):
        typ, fl, dm = stats.oracle_ordering_sample(cfg, (40, r))
        assert typ <= fl <= dm


def test_diameter_estimator_runs():
    cfg = TorusConfig(2, 3, 2.0, 0.5)
    spec = ExperimentSpec(cfg=cfg, quantity="diameter", replicates=30, root_seed=8)
    s = estimate_scaled(spec)
    assert (s.samples > 0).all()
