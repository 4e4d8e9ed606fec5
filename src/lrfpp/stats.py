"""Monte Carlo estimators and distributional tests over exploration runs.

Replicates are independently seeded from (root_seed, replicate index), so
results are invariant to execution order, worker count and block size;
aggregation always happens in replicate order.  Exploration replicates
(typical, flooding, tau) run in lockstep blocks of ``explore.run_explorations``
and diameters one at a time; each block is one task of the worker pool.
Scaled summaries report mean * total_rate / log n, the normalization under
which typical, flooding, and diameter times approach 1, 2, and 3.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.special

from . import explore, rng, torus, weights
from .errors import ConfigError
from .torus import Site, TorusConfig

#: The passage times of the 1-2-3 law; an experiment measures one of them or tau.
PASSAGE_QUANTITIES = ("typical", "flooding", "diameter")
QUANTILE_LEVELS = (0.05, 0.25, 0.50, 0.75, 0.95)


@dataclass(frozen=True)
class ExperimentSpec:
    """One replicated experiment: what to measure, how often, from which seed."""

    cfg: TorusConfig
    quantity: str
    replicates: int
    root_seed: int
    k: Optional[int] = None
    beta: Optional[float] = None
    source: str = "origin"  # "origin" | "uniform"

    def __post_init__(self):
        if self.quantity not in PASSAGE_QUANTITIES and self.quantity != "tau":
            raise ConfigError(f"quantity must be 'tau' or one of {PASSAGE_QUANTITIES}")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.root_seed < 0:
            raise ConfigError("root_seed must be a nonnegative integer")
        if self.source not in ("origin", "uniform"):
            raise ConfigError("source must be 'origin' or 'uniform'")
        if self.quantity == "tau":
            if (self.k is None) == (self.beta is None):
                raise ConfigError("tau needs exactly one of k or beta")
            if self.beta is not None and not (0.0 < self.beta < 1.0):
                raise ConfigError("beta must lie in (0, 1)")
            if self.tau_k() < 2:
                raise ConfigError(
                    "cluster index k must be >= 2 (k = 1 is a plain exponential)"
                )
            if self.tau_k() > self.cfg.n - 1:
                raise ConfigError("cluster index k exceeds n - 1")
        elif self.k is not None or self.beta is not None:
            raise ConfigError("k/beta are only meaningful for quantity='tau'")
        # Size limits, so a manifest too large to run fails before any run starts.
        if self.quantity == "diameter":
            if self.source != "origin":
                raise ConfigError("a diameter has no source; source must be 'origin'")
            if self.cfg.n > explore.ALL_PAIRS_CAP:
                raise ConfigError(f"diameter requires n <= {explore.ALL_PAIRS_CAP}")
        else:
            weights.check_thinning_size(self.cfg)

    def tau_k(self) -> int:
        if self.k is not None:
            return self.k
        return int(math.floor(self.cfg.n**self.beta))


@dataclass(frozen=True)
class StatSummary:
    """Sample statistics of one experiment, raw and in theorem scaling."""

    quantity: str
    samples: np.ndarray
    mean: float
    se: float
    quantiles: Tuple[float, ...]
    scale: float
    scaled_mean: float
    scaled_se: float
    ks_stat: Optional[float] = None
    ks_pvalue: Optional[float] = None
    details: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if any(b < a for a, b in zip(self.quantiles, self.quantiles[1:])):
            raise AssertionError("quantiles must be monotone")


def _summary_from_samples(
    quantity: str,
    samples: np.ndarray,
    scale: float,
    ks: Optional[Tuple[float, float]] = None,
    details: Optional[Dict[str, float]] = None,
) -> StatSummary:
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
    qs = tuple(float(q) for q in np.quantile(samples, QUANTILE_LEVELS))
    return StatSummary(
        quantity=quantity,
        samples=samples,
        mean=mean,
        se=se,
        quantiles=qs,
        scale=scale,
        scaled_mean=mean * scale,
        scaled_se=se * scale,
        ks_stat=None if ks is None else ks[0],
        ks_pvalue=None if ks is None else ks[1],
        details=details or {},
    )


# ---------------------------------------------------------------------------
# Per-replicate samplers (top-level and picklable for worker pools)
# ---------------------------------------------------------------------------


def _pick_site(gen: np.random.Generator, cfg: TorusConfig) -> Site:
    return torus.index_to_site(int(gen.integers(cfg.n)), cfg)


def _pick_distinct(gen: np.random.Generator, cfg: TorusConfig, u: Site) -> Site:
    # Rejection from the full cube: exact and unbiased.
    while True:
        v = _pick_site(gen, cfg)
        if v != u:
            return v


def _pair(cfg: TorusConfig, seed: rng.SeedLike) -> Tuple[Site, Site]:
    """A uniform pair of distinct sites, the first draws of the seed's choice stream."""
    gen = rng.generator(seed, rng.STREAM_CHOICE)
    u = _pick_site(gen, cfg)
    return u, _pick_distinct(gen, cfg, u)


def _source(
    spec: ExperimentSpec, seed: Tuple[int, int]
) -> Tuple[Site, Optional[np.random.Generator]]:
    """The run's source, and its choice stream if anything is drawn from it.

    A uniform source is the stream's first draw, and a typical run draws its
    target next; a flooding or tau run from the origin creates no stream.
    """
    if spec.source == "origin" and spec.quantity != "typical":
        return torus.origin(spec.cfg), None
    gen = rng.generator(seed, rng.STREAM_CHOICE)
    u = _pick_site(gen, spec.cfg) if spec.source == "uniform" else torus.origin(spec.cfg)
    return u, gen


def _block_samples(spec: ExperimentSpec, reps: Sequence[int]) -> Tuple[List[float], int, int]:
    """Raw samples of replicates ``reps``, each deterministic in (seed, rep), and
    the births and proposals of their explorations, which run as one batch."""
    if spec.quantity == "diameter":
        return [replicate_sample(spec, rep) for rep in reps], 0, 0
    seeds = [(spec.root_seed, rep) for rep in reps]
    picks = [_source(spec, seed) for seed in seeds]
    stops = [explore.StopRule.target(_pick_distinct(gen, spec.cfg, u))
             if spec.quantity == "typical" else explore.StopRule.full()
             if spec.quantity == "flooding" else explore.StopRule.count(spec.tau_k())
             for u, gen in picks]
    records = explore.run_explorations(spec.cfg, seeds, [u for u, _ in picks], stops)
    # Each sample is the time of the run's last birth.
    vals = [float(rec.times[-1]) for rec in records]
    return vals, sum(rec.n_born - 1 for rec in records), sum(rec.proposals for rec in records)


def replicate_sample(spec: ExperimentSpec, rep: int) -> float:
    """One raw sample of the spec's quantity, deterministic in (seed, rep)."""
    if spec.quantity == "diameter":
        return explore.diameter_exact(spec.cfg, (spec.root_seed, rep))
    return _block_samples(spec, [rep])[0][0]


def _collect(spec: ExperimentSpec, jobs: int = 1) -> Tuple[np.ndarray, Dict[str, float]]:
    """The spec's samples in replicate order, with the births and proposals of
    its explorations; each block (one diameter) is one task of the pool, which
    starts no more workers than there are blocks or cores."""
    blocks = spec.replicates
    if spec.quantity != "diameter":
        cap = spec.tau_k() + 1 if spec.quantity == "tau" else spec.cfg.n
        blocks = explore.block_count(spec.cfg, cap, blocks)
    parts = [part.tolist() for part in np.array_split(np.arange(spec.replicates), blocks)]
    workers = min(jobs, len(parts), os.cpu_count() or 1)
    if workers <= 1:
        out = [_block_samples(spec, part) for part in parts]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(parts) // (workers * 8))
            out = list(pool.map(_block_samples, [spec] * len(parts), parts, chunksize=chunk))
    vals, births, proposals = zip(*out)
    counts = {} if spec.quantity == "diameter" else {"births": sum(births),
                                                     "proposals": sum(proposals)}
    return np.asarray([v for part in vals for v in part], dtype=np.float64), counts


def theorem_scale(cfg: TorusConfig) -> float:
    """Multiplier total_rate / log n that sends the three limits to 1, 2, 3."""
    return weights.total_rate(cfg) / math.log(cfg.n)


def estimate_scaled(spec: ExperimentSpec, jobs: int = 1) -> StatSummary:
    """Replicated estimate of typical / flooding / diameter passage times."""
    if spec.quantity not in PASSAGE_QUANTITIES:
        raise ConfigError(f"estimate_scaled handles {PASSAGE_QUANTITIES}")
    samples, counts = _collect(spec, jobs)
    return _summary_from_samples(spec.quantity, samples, theorem_scale(spec.cfg), details=counts)


def gumbel_cdf(x: np.ndarray) -> np.ndarray:
    """Standard Gumbel distribution function exp(-exp(-x))."""
    return np.exp(-np.exp(-np.asarray(x, dtype=np.float64)))


def gumbel_test(spec: ExperimentSpec, jobs: int = 1) -> StatSummary:
    """Fluctuation study of the k-th discovery time.

    Collects total_rate * tau_k - log k per replicate and tests it against the
    standard Gumbel law (one-sample KS).  The scaled columns report the
    growth-window estimate mean(tau_k * total_rate / log n) and its standard
    error, not the centered mean; the window is not enforced here.
    """
    if spec.quantity != "tau":
        raise ConfigError("gumbel_test requires quantity='tau'")
    if spec.replicates < _KS_MIN_SAMPLES:
        raise ConfigError(f"need at least {_KS_MIN_SAMPLES} samples, got {spec.replicates}")
    cfg = spec.cfg
    k = spec.tau_k()
    taus, counts = _collect(spec, jobs)
    rate = weights.total_rate(cfg)
    centered = rate * taus - math.log(k)
    stat, pval = ks_one_sample(centered, gumbel_cdf)
    logn = math.log(cfg.n)
    summary = _summary_from_samples("tau", centered, 1.0 / logn, (stat, pval),
                                    {"k": float(k), **counts})
    return dataclasses.replace(summary, scaled_mean=(summary.mean + math.log(k)) / logn,
                               scaled_se=summary.se / logn)


def oracle_ordering_sample(
    cfg: TorusConfig, seed: rng.SeedLike
) -> Tuple[float, float, float]:
    """(typical, flooding, diameter) on one shared realization; always nested.

    The pair (U, V) comes from the seed's choice stream.  The diameter's bound
    loop starts at U, so typical = d(U, V) and flooding = ecc(U) come from its
    first row.  The diameter is the largest directed Dijkstra distance (no
    ``min`` of two directions), and the loop's margin makes it exact, equal
    to ``explore.diameter_exact`` at the same seed from any start.
    """
    iu, iv = (torus.site_to_index(site, cfg) for site in _pair(cfg, seed))
    diameter, row, _ = explore._bounded_diameter(explore._all_pairs_graph(cfg, seed), iu)
    return float(row[iv]), float(row.max()), diameter


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery
# ---------------------------------------------------------------------------

_KS_MIN_SAMPLES = 30


def ks_one_sample(
    samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]
) -> Tuple[float, float]:
    """KS statistic of samples against a continuous CDF, asymptotic p-value."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    if n < _KS_MIN_SAMPLES:
        raise ConfigError(f"need at least {_KS_MIN_SAMPLES} samples, got {n}")
    f = np.asarray(cdf(x), dtype=np.float64)
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / n)))
    stat = max(d_plus, d_minus)
    return stat, float(scipy.special.kolmogorov(math.sqrt(n) * stat))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> Tuple[float, float]:
    """Two-sample KS statistic with the asymptotic Kolmogorov p-value."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    na, nb = len(a), len(b)
    if na < _KS_MIN_SAMPLES or nb < _KS_MIN_SAMPLES:
        raise ConfigError(f"need at least {_KS_MIN_SAMPLES} samples per side")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / na
    fb = np.searchsorted(b, grid, side="right") / nb
    stat = float(np.max(np.abs(fa - fb)))
    n_eff = na * nb / (na + nb)
    return stat, float(scipy.special.kolmogorov(math.sqrt(n_eff) * stat))
