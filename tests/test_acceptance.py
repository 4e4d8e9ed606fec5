"""Acceptance gate: every top-level criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion as it completes.  The full module takes roughly 20 minutes on
two cores; the heavy sweeps (criterion 8) fan replicates over a small worker
pool, which never changes values, only wall time.

Two checks need a note:

* criterion 1's Monte Carlo 3-SE agreement holds because the gamma-max
  estimator importance-samples with a defensive mixture whose weights are
  bounded, so its sample standard error is valid on every grid cell (see
  ``limit_constant_gamma_mc``);
* criterion 7's growth window ``[0.45, 0.55]`` is applied to the growth
  coefficient: the slope of mean(R_n * tau_k) against log n for k = sqrt(n).
  The single-size ratio mean(R_n * tau_k) / log n is bounded below by
  H_k / log n ~ 0.570 at n = 4096 (the Gumbel location enters at order
  1/log n), and that bound drops below 0.55 only once n exceeds about 10^5.
"""

import dataclasses
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from lrfpp import (
    ConstantQuery,
    ExperimentSpec,
    StopRule,
    TorusConfig,
    estimate_scaled,
    gumbel_test,
    ks_two_sample,
    origin,
    run_exploration,
    run_explorations,
    total_rate,
)
from lrfpp import cli, explore, rng, stats, torus
from lrfpp.constants import (
    limit_constant_gamma_mc,
    limit_constant_max_norm,
    limit_constant_planar,
    limit_constant_quadrature,
)

ROOT_SEED = 20260
JOBS = 2

FOUR_LN_2 = 4.0 * math.log(2.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def _quad(d, p, alpha):
    return limit_constant_quadrature(ConstantQuery(d, p, alpha, "quadrature", 1e-9))


# ---------------------------------------------------------------------------
# 1. Constants cross-validation
# ---------------------------------------------------------------------------


def test_c1_quadrature_agreements():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (1.0, 2.0):
        for alpha in (0.25, 0.5, 1.0):
            gap = abs(_quad(2, p, alpha).value - limit_constant_planar(p, alpha))
            worst = max(worst, gap)
    oracle_gap = abs(_quad(2, 1.0, 1.0).value - FOUR_LN_2)
    exact = limit_constant_max_norm(2, 1.0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and oracle_gap <= 1e-6 and exact == 4.0 and elapsed < 60
    _report(
        "1 (quadrature/hypergeometric/closed-form)",
        ok,
        f"max |quad - 2F1| = {worst:.2e}, |quad - 4ln2| = {oracle_gap:.2e}, "
        f"max-norm constant = {exact}, {elapsed:.1f}s",
    )
    assert worst <= 1e-6
    assert oracle_gap <= 1e-6
    assert exact == 4.0
    assert elapsed < 60


def test_c1_gamma_max_mc_within_three_se():
    # Every valid grid cell, 1e6 samples, canonical seed 0.
    t0 = time.perf_counter()
    rows = []
    ok = True
    for d in (1, 2):
        for p in (1.0, 2.0):
            for alpha in (0.25, 0.5, 1.0):
                if alpha >= d:
                    continue
                quad = _quad(d, p, alpha).value
                mc = limit_constant_gamma_mc(d, p, alpha, 1_000_000, seed=0)
                z = abs(mc.value - quad) / mc.error
                rows.append(f"(d={d},p={p:g},a={alpha}) z={z:.2f} ess={mc.effective_samples:.0f}")
                ok &= z <= 3.0
    elapsed = time.perf_counter() - t0
    _report("1 (gamma-max MC, 3 SE)", ok, "; ".join(rows) + f"; {elapsed:.1f}s")
    assert ok, "Monte Carlo misses quadrature by more than 3 SE: " + "; ".join(rows)
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 2. Large-p consistency of the planar series with the max-norm closed form
# ---------------------------------------------------------------------------


def test_c2_large_p_consistency():
    gaps = {
        alpha: abs(limit_constant_planar(1e4, alpha) - limit_constant_max_norm(2, alpha))
        for alpha in (0.5, 1.0, 1.5)
    }
    ok = all(g <= 1e-3 for g in gaps.values())
    _report("2 (p -> inf)", ok, ", ".join(f"a={a}: {g:.2e}" for a, g in gaps.items()))
    assert ok


# ---------------------------------------------------------------------------
# 3. Finite-n convergence of the scaled rate sum
# ---------------------------------------------------------------------------


def test_c3_finite_n_convergence():
    t0 = time.perf_counter()
    lines = []
    ok = True
    for p in (2.0, math.inf):
        for alpha in (0.5, 1.0):
            if p == math.inf:
                limit = limit_constant_max_norm(2, alpha)
            else:
                limit = _quad(2, p, alpha).value
            gaps = []
            for m in (16, 32, 64, 128):
                cfg = TorusConfig(2, m, p, alpha)
                ratio = total_rate(cfg) / cfg.n ** (1.0 - alpha / 2.0)
                gaps.append(abs(ratio - limit) / limit)
            monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
            ok &= monotone and gaps[-1] < 0.05
            lines.append(f"p={p:g},a={alpha}: final={gaps[-1]:.4f} monotone={monotone}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    _report("3 (finite-n convergence)", ok, "; ".join(lines) + f"; {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 4 & 5. Rate sandwich and the complete-graph reduction
# ---------------------------------------------------------------------------


def test_c4_rate_sandwich_zero_violations():
    t0 = time.perf_counter()
    births = 0
    for i, alpha in enumerate((0.0, 0.5, 1.0)):
        cfg = TorusConfig(2, 32, 2.0, alpha)
        seeds = [(ROOT_SEED, 4, i, r) for r in range(100)]
        for rec in run_explorations(cfg, seeds, [origin(cfg)] * 100, [StopRule.full()] * 100):
            births += rec.n_born - 1
    elapsed = time.perf_counter() - t0
    ok = births == 3 * 100 * (32 * 32 - 1)
    _report("4 (rate sandwich)", ok, f"{births} asserted steps, 0 violations, {elapsed:.0f}s")
    assert ok


def test_c5_complete_graph_rates_exact():
    cfg = TorusConfig(2, 32, 2.0, 0.0)
    n = cfg.n
    rec = run_exploration(origin(cfg), StopRule.full(), cfg, (ROOT_SEED, 5))
    exact = all(float(rec.rates[j]) == float(j * (n - j)) for j in range(1, n))
    _report("5 (complete-graph reduction)", exact, f"rate j*(n-j) exact at all {n - 1} steps")
    assert exact


# ---------------------------------------------------------------------------
# 6. Exploration law vs shortest-path oracle law
# ---------------------------------------------------------------------------


def test_c6_exploration_equals_oracle():
    t0 = time.perf_counter()
    cells = (0.0, 1.0)
    level = 0.01 / len(cells)
    pvals = {}
    for tag, alpha in enumerate(cells):
        cfg = TorusConfig(2, 4, 2.0, alpha)
        pairs = []
        for r in range(5000):
            gen = rng.generator((ROOT_SEED, 6, tag, r), rng.STREAM_CHOICE)
            iu = int(gen.integers(cfg.n))
            iv = iu
            while iv == iu:
                iv = int(gen.integers(cfg.n))
            pairs.append((torus.index_to_site(iu, cfg), torus.index_to_site(iv, cfg)))
        records = run_explorations(
            cfg, [(ROOT_SEED, 6, tag, r, 0) for r in range(5000)], [u for u, _ in pairs],
            [StopRule.target(v) for _, v in pairs],
        )
        ex = np.array([rec.times[-1] for rec in records])
        orc = np.empty(5000)
        for r, (u, v) in enumerate(pairs):
            orc[r] = explore.oracle_transmission_time(u, v, cfg, (ROOT_SEED, 6, tag, r, 1))
        _, pvals[alpha] = ks_two_sample(ex, orc)
    elapsed = time.perf_counter() - t0
    ok = all(p >= level for p in pvals.values()) and elapsed < 300
    _report(
        "6 (exploration = oracle)",
        ok,
        ", ".join(f"a={a}: p={p:.4f}" for a, p in pvals.items())
        + f" (level {level}); {elapsed:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. Gumbel fluctuations of the k-th discovery time
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gumbel_summary():
    cfg = TorusConfig(2, 64, 2.0, 0.5)
    k = math.isqrt(cfg.n)
    spec = ExperimentSpec(
        cfg=cfg, quantity="tau", replicates=2000, root_seed=ROOT_SEED + 7, k=k
    )
    t0 = time.perf_counter()
    s = gumbel_test(spec, jobs=JOBS)
    return s, time.perf_counter() - t0


def test_c7_gumbel_law_and_mean(gumbel_summary):
    s, elapsed = gumbel_summary
    gamma = float(np.euler_gamma)
    ok_ks = s.ks_pvalue > 0.001
    ok_mean = abs(s.mean - gamma) <= 3 * s.se
    ok = ok_ks and ok_mean and elapsed < 600
    _report(
        "7 (Gumbel KS + mean)",
        ok,
        f"KS p={s.ks_pvalue:.4f}, mean={s.mean:.4f} vs gamma={gamma:.4f} "
        f"(3SE={3 * s.se:.4f}); {elapsed:.0f}s",
    )
    assert ok


_GROWTH_SIDES = (16, 64)
# 8,000 replicates per size give the slope an SE of about 0.007, which puts a
# slope near 0.48 more than 3 SEs inside the window; 2,000 would give 0.014.
_GROWTH_REPLICATES = 8000


def test_c7_growth_window_as_stated():
    # The window bounds the growth coefficient of R_n * tau_k in log n for
    # k = sqrt(n), which Janson's law R_n * tau_k - log k -> Gumbel puts at 1/2.
    # It is read as the slope of mean(R_n * tau_k) against log n between the
    # two sizes, where the order-one Gumbel location cancels.  A single-size
    # reading mean(R_n * tau_k) / log n cannot reach the window at these sizes:
    # the rate sandwich rate_j <= j * R_n bounds it below by H_k / log n.
    t0 = time.perf_counter()
    points = []
    for m in _GROWTH_SIDES:
        cfg = TorusConfig(2, m, 2.0, 0.5)
        spec = ExperimentSpec(
            cfg=cfg,
            quantity="tau",
            replicates=_GROWTH_REPLICATES,
            root_seed=ROOT_SEED + 700 + m,
            k=math.isqrt(cfg.n),
        )
        s = gumbel_test(spec, jobs=JOBS)
        points.append((spec, s.mean + math.log(spec.tau_k()), s.se))
    (spec_lo, mean_lo, se_lo), (spec_hi, mean_hi, se_hi) = points
    dlogn = math.log(spec_hi.cfg.n) - math.log(spec_lo.cfg.n)
    slope = (mean_hi - mean_lo) / dlogn
    slope_se = math.hypot(se_lo, se_hi) / dlogn
    k, n = spec_hi.tau_k(), spec_hi.cfg.n
    single = mean_hi / math.log(n)
    bound = sum(1.0 / j for j in range(1, k + 1)) / math.log(n)
    elapsed = time.perf_counter() - t0
    ok = 0.45 <= slope <= 0.55
    _report(
        "7 (growth window)",
        ok,
        f"slope of mean(R_n tau_k) in log n = {slope:.4f} (SE {slope_se:.4f}); "
        f"single size n={n}: {single:.4f} >= H_k/log n = {bound:.4f}; {elapsed:.0f}s",
    )
    assert ok, (
        f"growth coefficient {slope:.4f} (SE {slope_se:.4f}) outside [0.45, 0.55] "
        f"between n={spec_lo.cfg.n} and n={n}"
    )


# ---------------------------------------------------------------------------
# 8. The 1-2-3 scaling law at desk scale
# ---------------------------------------------------------------------------

_ALPHAS = (0.0, 0.5, 1.0)
_SIDES = (16, 32, 64)
_TARGET = {"typical": 1.0, "flooding": 2.0, "diameter": 3.0}
_WINDOW = {"typical": (0.6, 1.4), "flooding": (1.4, 2.6), "diameter": (2.2, 3.8)}
_REPLICATES = 200


def _triple_worker(args):
    cfg, seed = args
    return stats.oracle_ordering_sample(cfg, seed)


@pytest.fixture(scope="module")
def sweep():
    """Scaled summaries for every (quantity, alpha, m) cell plus triples."""
    t0 = time.perf_counter()
    summaries = {}
    for alpha in _ALPHAS:
        for m in _SIDES:
            cfg = TorusConfig(2, m, 2.0, alpha)
            for quantity in ("typical", "flooding"):
                spec = ExperimentSpec(
                    cfg=cfg,
                    quantity=quantity,
                    replicates=_REPLICATES,
                    root_seed=ROOT_SEED + 800,
                    source="uniform" if quantity == "typical" else "origin",
                )
                summaries[(quantity, alpha, m)] = estimate_scaled(spec, jobs=JOBS)
    # Diameter and the ordering check share one all-pairs realization per
    # replicate (the diameter of that realization is exactly diameter_exact
    # at the same seed).
    triples = {}
    for alpha in _ALPHAS:
        for m in (16, 32):
            cfg = TorusConfig(2, m, 2.0, alpha)
            args = [(cfg, (ROOT_SEED + 801, int(alpha * 2), m, r)) for r in range(_REPLICATES)]
            with ProcessPoolExecutor(max_workers=JOBS) as pool:
                triples[(alpha, m)] = list(pool.map(_triple_worker, args, chunksize=8))
    return summaries, triples, time.perf_counter() - t0


def _scaled_diameter(triples, cfg):
    scale = stats.theorem_scale(cfg)
    vals = np.array([t[2] for t in triples]) * scale
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


def test_c8a_scaled_windows(sweep):
    summaries, triples, elapsed = sweep
    lines = []
    ok = True
    for alpha in _ALPHAS:
        for quantity in ("typical", "flooding"):
            for m in _SIDES:
                s = summaries[(quantity, alpha, m)]
                lo, hi = _WINDOW[quantity]
                good = lo <= s.scaled_mean <= hi
                ok &= good
                if not good or m == _SIDES[-1]:
                    lines.append(f"{quantity[:4]}(a={alpha},m={m})={s.scaled_mean:.3f}")
        for m in (16, 32):
            cfg = TorusConfig(2, m, 2.0, alpha)
            mean, _ = _scaled_diameter(triples[(alpha, m)], cfg)
            lo, hi = _WINDOW["diameter"]
            good = lo <= mean <= hi
            ok &= good
            lines.append(f"diam(a={alpha},m={m})={mean:.3f}")
    ok &= elapsed < 1800
    _report("8a (scaled windows)", ok, "; ".join(lines) + f"; sweep {elapsed:.0f}s")
    assert ok


def test_c8b_ordering_on_oracle_path(sweep):
    _, triples, _ = sweep
    violations = sum(
        1
        for cell in triples.values()
        for (typ, fl, dm) in cell
        if not (typ <= fl <= dm)
    )
    total = sum(len(cell) for cell in triples.values())
    ok = violations == 0
    _report("8b (ordering)", ok, f"{total} replicates, {violations} violations")
    assert ok
    # The shared-realization diameter is the exact all-pairs maximum at the
    # same seed; spot-check the identity on a few cheap replicates.
    cfg = TorusConfig(2, 16, 2.0, 0.0)
    for r in range(3):
        seed = (ROOT_SEED + 801, 0, 16, r)
        assert triples[(0.0, 16)][r][2] == explore.diameter_exact(cfg, seed)


def test_c8c_gap_shrinks_with_size(sweep):
    summaries, triples, _ = sweep
    lines = []
    ok = True
    for alpha in _ALPHAS:
        for quantity in ("typical", "flooding"):
            s16 = summaries[(quantity, alpha, 16)]
            s64 = summaries[(quantity, alpha, 64)]
            gap16 = abs(s16.scaled_mean - _TARGET[quantity])
            gap64 = abs(s64.scaled_mean - _TARGET[quantity])
            slack = 2.0 * math.hypot(s16.scaled_se, s64.scaled_se)
            good = gap64 <= gap16 + slack
            ok &= good
            lines.append(f"{quantity[:4]}(a={alpha}): {gap16:.3f}->{gap64:.3f}")
        cfg16 = TorusConfig(2, 16, 2.0, alpha)
        cfg32 = TorusConfig(2, 32, 2.0, alpha)
        m16, se16 = _scaled_diameter(triples[(alpha, 16)], cfg16)
        m32, se32 = _scaled_diameter(triples[(alpha, 32)], cfg32)
        gap16 = abs(m16 - 3.0)
        gap32 = abs(m32 - 3.0)
        good = gap32 <= gap16 + 2.0 * math.hypot(se16, se32)
        ok &= good
        lines.append(f"diam(a={alpha}): {gap16:.3f}->{gap32:.3f}")
    _report("8c (gap shrinks)", ok, "; ".join(lines))
    assert ok


# ---------------------------------------------------------------------------
# 9. Reproducibility of manifest runs
# ---------------------------------------------------------------------------


def test_c9_reproducibility(tmp_path):
    doc = {
        "seed": ROOT_SEED,
        "format": "csv",
        "experiments": [
            {"kind": "quantity", "quantity": "typical", "d": 2, "m": 8, "p": 2,
             "alpha": 0.5, "replicates": 50},
            {"kind": "quantity", "quantity": "flooding", "d": 2, "m": 8, "p": 2,
             "alpha": 0.0, "replicates": 25},
            {"kind": "tau", "d": 2, "m": 16, "p": 2, "alpha": 0.5, "beta": 0.5,
             "replicates": 60},
            {"kind": "constants", "d": [2], "p": [1, 2], "alpha": [0.5, 1.0],
             "methods": ["quadrature", "hypergeometric-d2", "gamma-max-mc"],
             "samples": 50000},
        ],
    }
    # The MC method floor is 10^4 samples; 5 * 10^4 keeps this quick.
    manifest = cli.parse_manifest(json.dumps(doc))

    def rows(out_dir):
        collected = {}
        for path in sorted(out_dir.iterdir()):
            collected[path.name] = [
                ln for ln in path.read_text().splitlines() if not ln.startswith("#")
            ]
        return collected

    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.run(dataclasses.replace(manifest, jobs=1), out=str(out_a)) == 0
    assert cli.run(dataclasses.replace(manifest, jobs=1), out=str(out_b)) == 0
    assert cli.run(dataclasses.replace(manifest, jobs=2), out=str(out_c)) == 0
    same_rerun = rows(out_a) == rows(out_b)
    same_jobs = rows(out_a) == rows(out_c)
    ok = same_rerun and same_jobs
    _report("9 (reproducibility)", ok, f"rerun identical={same_rerun}, jobs-invariant={same_jobs}")
    assert ok
