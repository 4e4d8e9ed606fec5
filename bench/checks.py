"""Correctness checks on a workload's outputs, run outside the timed region.

Every reference here is computed by the benchmark itself, from the model's
definition or from scipy: torus norms from per-axis minimal residues, R_n and
the nearest-j sums R_j from those norms, Janson's exact finite-n laws at
alpha = 0, closed forms of the limit constant, and Dijkstra on the edge
realization. None compares against a stored copy of an earlier output.

Each check function returns a list of (name, ok, detail) triples, so the
self-test can feed it a deliberately wrong output and see which check fails.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import scipy.integrate
import scipy.sparse
import scipy.special
import scipy.stats
from scipy.sparse import csgraph

from lrfpp import cli, explore

#: A mean may sit at most this many standard errors from its reference. The
#: benchmark runs each workload on dozens of seeds; at 5 SE a correct program
#: fails a given check with probability of about 6e-7.
Z = 5.0
#: Smallest KS p-value accepted on a correct program.
KS_LEVEL = 1e-6
#: Windows on the scaled means, as in tests/test_acceptance.py (criterion 8a).
WINDOWS = {"typical": (0.6, 1.4), "flooding": (1.4, 2.6), "diameter": (2.2, 3.8)}
#: Relative slack for values that must agree up to floating-point rounding.
ROUNDING = 1e-12
#: Replicates per diameter experiment whose diameter is recomputed by Dijkstra.
DIJKSTRA_REPLICATES = 2

Check = Tuple[str, bool, str]


# ---------------------------------------------------------------------------
# References from the definition of the model
# ---------------------------------------------------------------------------


def _pnorm(x: np.ndarray, p: float) -> np.ndarray:
    if p == math.inf:
        return x.max(axis=-1)
    return (x**p).sum(axis=-1) ** (1.0 / p)


def torus_norms(d: int, m: int, p: float) -> np.ndarray:
    """Torus p-norm of every site offset, flat in C order over d axes of 0..m-1."""
    g = np.arange(m)
    residue = np.minimum(g, m - g).astype(np.float64)
    grid = np.stack(np.meshgrid(*([residue] * d), indexing="ij"), axis=-1)
    return _pnorm(grid.reshape(-1, d), p)


def rate_sums(d: int, m: int, p: float, alpha: float) -> Tuple[float, np.ndarray]:
    """R_n and the prefix sums R_j of the j largest site weights norm**-alpha."""
    norms = torus_norms(d, m, p)
    w = np.sort(norms[norms > 0] ** -alpha)[::-1]
    return math.fsum(w), np.concatenate([[0.0], np.cumsum(w)])


def pair_norms(cfg, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
    """Torus norm of site(i) - site(j) for flat C-order indices."""
    gi = np.stack(np.unravel_index(iu, (cfg.m,) * cfg.d), axis=-1)
    gj = np.stack(np.unravel_index(ju, (cfg.m,) * cfg.d), axis=-1)
    delta = (gi - gj) % cfg.m
    return _pnorm(np.minimum(delta, cfg.m - delta).astype(np.float64), cfg.p)


def _janson_terms(n: int, k: int) -> np.ndarray:
    """1/rate_j at alpha = 0, where j discovered sites emit at rate j(n - j)."""
    j = np.arange(1, k + 1, dtype=np.float64)
    return 1.0 / (j * (n - j))


def alpha0_law(n: int, quantity: str) -> Tuple[float, float]:
    """Exact mean and variance of the flooding or typical time at alpha = 0."""
    a = _janson_terms(n, n - 1)
    if quantity == "flooding":
        return math.fsum(a), math.fsum(a * a)
    # The target is born at a uniform rank J in 1..n-1, independent of the
    # waiting times, so the mean is H_{n-1}/(n-1).
    mean = math.fsum(1.0 / np.arange(1, n)) / (n - 1)
    mu, v = np.cumsum(a), np.cumsum(a * a)
    return mean, float(v.mean() + mu.var())


def constant_reference(d: int, p: float, alpha: float):
    """Limit constant from a closed form or an independent integral, else None."""
    if d == 1:
        return 2.0**alpha / (1.0 - alpha)
    if p == math.inf:
        return d * 2.0**alpha / (d - alpha)
    if (d, p, alpha) == (2, 1.0, 1.0):
        return 4.0 * math.log(2.0)
    if d == 2:
        return (2.0 ** (1.0 + alpha * (1.0 - 1.0 / p)) / (2.0 - alpha)
                * scipy.special.hyp2f1(1.0, alpha / p, 1.0 + 1.0 / p, 0.5))
    if p == 1.0:
        return 2.0**alpha * _irwin_hall_moment(d, alpha)
    return None


def _irwin_hall_moment(d: int, alpha: float) -> float:
    """E[S**-alpha] for S a sum of d uniforms: the l1-norm integral over the cube."""
    def density(s):
        return sum((-1) ** k * math.comb(d, k) * (s - k) ** (d - 1)
                   for k in range(int(math.floor(s)) + 1)) / math.factorial(d - 1)
    # On [0, 1] the density is s**(d-1)/(d-1)!, integrated in closed form.
    total = 1.0 / ((d - alpha) * math.factorial(d - 1))
    for lo in range(1, d):
        val, _ = scipy.integrate.quad(lambda s: s**-alpha * density(s), lo, lo + 1,
                                      epsabs=1e-15, epsrel=1e-13)
        total += val
    return total


# ---------------------------------------------------------------------------
# Checks on one experiment's outputs
# ---------------------------------------------------------------------------


def _z(mean: float, ref: float, se: float) -> float:
    return (mean - ref) / se if se > 0 else (0.0 if mean == ref else math.inf)


def tau_checks(cfg, k: int, taus: np.ndarray) -> List[Check]:
    """Rate sandwich at every alpha; Janson's mean and the Gumbel law at alpha = 0."""
    rn, prefix = rate_sums(cfg.d, cfg.m, cfg.p, cfg.alpha)
    x = rn * taus
    se = float(x.std(ddof=1) / math.sqrt(len(x)))
    j = np.arange(1, k + 1, dtype=np.float64)
    lower = math.fsum(1.0 / j)
    upper = math.fsum(rn / (j * (rn - prefix[1 : k + 1])))
    mean = float(x.mean())
    out = [("rate sandwich", lower - Z * se <= mean <= upper + Z * se,
            f"mean R_n*tau_k {mean:.5f} (SE {se:.5f}) in [{lower:.5f}, {upper:.5f}]")]
    if cfg.alpha == 0.0:
        a = _janson_terms(cfg.n, k)
        z = _z(float(taus.mean()), math.fsum(a), math.sqrt(math.fsum(a * a) / len(taus)))
        out.append(("Janson mean", abs(z) <= Z, f"z = {z:+.2f}"))
        pval = float(scipy.stats.kstest(x - math.log(k), "gumbel_r").pvalue)
        out.append(("Gumbel KS", pval > KS_LEVEL, f"p = {pval:.3g}"))
    return out


def passage_checks(cfg, quantity: str, samples: np.ndarray) -> List[Check]:
    """Scaled mean in its 1-2-3 window; Janson's exact mean at alpha = 0."""
    rn, _ = rate_sums(cfg.d, cfg.m, cfg.p, cfg.alpha)
    scaled = float(samples.mean()) * rn / math.log(cfg.n)
    lo, hi = WINDOWS[quantity]
    out = [(f"{quantity} window", lo <= scaled <= hi, f"scaled mean {scaled:.4f} in [{lo}, {hi}]")]
    if cfg.alpha == 0.0 and quantity != "diameter":
        mean, var = alpha0_law(cfg.n, quantity)
        z = _z(float(samples.mean()), mean, math.sqrt(var / len(samples)))
        out.append((f"{quantity} exact mean", abs(z) <= Z, f"z = {z:+.2f}"))
    return out


def all_pairs_by_dijkstra(w: np.ndarray) -> np.ndarray:
    """All-pairs passage times by Dijkstra from every source.

    Edges heavier than 2 * ecc(0) are dropped first: that bound is at least the
    diameter, and with positive weights no such edge lies on a shortest path,
    so the distances are exact while each search sees a few dozen edges per
    vertex instead of n - 1.
    """
    bound = 2.0 * float(csgraph.dijkstra(w, directed=False, indices=0).max())
    kept = scipy.sparse.csr_matrix(np.where(w <= bound, w, 0.0))
    return csgraph.dijkstra(kept, directed=False)


def diameter_checks(cfg, diameters: np.ndarray, realizations: List[np.ndarray],
                    facts: Dict[str, list]) -> List[Check]:
    """Dijkstra recomputation, Exp(1) law of the weights, and the diameter window.

    ``realizations[r]`` is the dense edge matrix of replicate r.
    """
    out = passage_checks(cfg, "diameter", diameters)
    iu, ju = np.triu_indices(cfg.n, k=1)
    for r, w in enumerate(realizations):
        dist = all_pairs_by_dijkstra(w)
        ref = float(dist.max())
        out.append((f"Dijkstra diameter (replicate {r})",
                    abs(float(diameters[r]) - ref) <= ROUNDING * ref,
                    f"program {float(diameters[r])!r}, Dijkstra {ref!r}"))
        useful = int(np.count_nonzero(w[iu, ju] <= dist[iu, ju] * (1.0 + ROUNDING)))
        facts.setdefault("useful_edges_per_vertex", []).append((cfg.n, 2.0 * useful / cfg.n))
    unit = realizations[0][iu, ju] / pair_norms(cfg, iu, ju) ** cfg.alpha
    pval = float(scipy.stats.kstest(unit, "expon").pvalue)
    out.append(("edge weights Exp(1) KS", pval > KS_LEVEL, f"p = {pval:.3g} over {unit.size} edges"))
    return out


def expected_constant_cells(exp) -> set:
    """The (d, p, alpha, method) cells a constants grid evaluates, from its stated rules."""
    cells = set()
    for d in exp.dims:
        for p in exp.ps:
            for alpha in exp.alphas:
                if alpha >= d:
                    continue
                for method in exp.methods:
                    if method == "closed-p-infinity" and p != math.inf:
                        continue
                    if method == "hypergeometric-d2" and (d != 2 or p == math.inf):
                        continue
                    if method == "gamma-max-mc" and (p == math.inf or alpha == 0.0):
                        continue
                    if method == "quadrature" and d > 4:
                        continue
                    cells.add((d, p, alpha, method))
    return cells


def constants_checks(exp, rows: List[dict]) -> List[Check]:
    """Every cell present once; quadrature and closed forms against the references;
    every error estimate within tolerance; Monte Carlo within Z standard errors."""
    cells = {}
    for row in rows:
        p = math.inf if row["p"] == "inf" else float(row["p"])
        key = (int(row["d"]), p, float(row["alpha"]), row["method"])
        cells[key] = (float(row["value"]), float(row["error_estimate"]))
    expected = expected_constant_cells(exp)
    out = [("constants cells", len(rows) == len(cells) and set(cells) == expected,
            f"{len(rows)} rows, {len(expected)} cells expected")]
    bad_ref, bad_err, worst_mc = [], [], 0.0
    for (d, p, alpha, method), (value, err) in sorted(cells.items()):
        ref = constant_reference(d, p, alpha)
        if method == "quadrature":
            if not (0.0 <= err <= exp.tolerance):
                bad_err.append(f"{(d, p, alpha)} error {err:.3g}")
            if ref is not None and not abs(value - ref) <= exp.tolerance:
                bad_ref.append(f"{(d, p, alpha, method)} off by {value - ref:.3g}")
        elif method == "gamma-max-mc":
            if ref is None:
                ref = cells.get((d, p, alpha, "quadrature"), (math.nan,))[0]
            z = _z(value, ref, err)
            worst_mc = max(worst_mc, abs(z)) if not math.isnan(z) else math.inf
        elif not abs(value - ref) <= ROUNDING * abs(ref):
            bad_ref.append(f"{(d, p, alpha, method)} off by {value - ref:.3g}")
    out.append(("constants against references", not bad_ref, "; ".join(bad_ref) or "all within"))
    out.append(("quadrature error within tolerance", not bad_err, "; ".join(bad_err) or "all within"))
    out.append(("Monte Carlo within Z SE", worst_mc <= Z, f"largest |z| {worst_mc:.2f}"))
    return out


# ---------------------------------------------------------------------------
# One manifest run: read the results files and check every experiment
# ---------------------------------------------------------------------------


def read_results(path: Path) -> Tuple[Dict[str, str], List[dict]]:
    """Provenance header and data rows of one CSV results file."""
    provenance, lines = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            provenance[key] = val
        else:
            lines.append(line)
    header = lines[0].split(",")
    return provenance, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _agrees(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def check_experiment(exp, provenance, rows, captured, facts) -> List[Check]:
    """All checks of one experiment, given its results file and captured samples."""
    if isinstance(exp, cli.ConstantsExperiment):
        return constants_checks(exp, rows)
    spec, summary = captured[int(provenance["experiment_seed"])]
    row, cfg = rows[0], exp.cfg
    rn, _ = rate_sums(cfg.d, cfg.m, cfg.p, cfg.alpha)
    if isinstance(exp, cli.TauExperiment):
        k = spec.tau_k()
        taus = (summary.samples + math.log(k)) / rn
        consistent = (len(rows) == 1 and int(row["k"]) == k
                      and _agrees(float(row["mean_centered"]), float(summary.samples.mean())))
        return [("results file matches samples", consistent, f"k {row['k']}")] + tau_checks(cfg, k, taus)
    consistent = (len(rows) == 1 and int(row["n"]) == cfg.n
                  and _agrees(float(row["scaled_mean"]),
                              float(summary.samples.mean()) * rn / math.log(cfg.n)))
    out = [("results file matches samples", consistent, f"scaled_mean {row['scaled_mean']}")]
    if exp.quantity != "diameter":
        return out + passage_checks(cfg, exp.quantity, summary.samples)
    realizations = [
        explore.EdgeWeightSample.from_seed(cfg, (spec.root_seed, r)).dense_matrix()
        for r in range(min(DIJKSTRA_REPLICATES, exp.replicates))
    ]
    return out + diameter_checks(cfg, summary.samples, realizations, facts)


def check_run(manifest, results_dir: Path, captured) -> Tuple[List[dict], Dict[str, list]]:
    """One entry per experiment: its label, whether it passed, and each check.

    ``captured`` maps an experiment seed to the (spec, StatSummary) that
    stats.estimate_scaled or stats.gumbel_test returned for it.  An experiment
    with no results file is one that cli.run reported failed.
    """
    ops, facts = [], {}
    for exp in manifest.experiments:
        path = results_dir / f"{exp.label}.{manifest.fmt}"
        if not path.exists():
            ops.append({"label": exp.label, "ok": False, "reported_failed": True,
                        "checks": [("results file written", False, "cli.run reported a failure")]})
            continue
        provenance, rows = read_results(path)
        checks = [(name, bool(ok), detail)
                  for name, ok, detail in check_experiment(exp, provenance, rows, captured, facts)]
        ops.append({"label": exp.label, "ok": all(ok for _, ok, _ in checks),
                    "reported_failed": False, "checks": checks})
    return ops, facts
