"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs every workload's manifest once, in this process, at seed SEED. First
every check must pass on the program's own outputs; then each check is fed a
deliberately wrong output and must reject it.  The wrong outputs are sized to
the check's resolution at the workload's replicate counts: exact checks get
a 1 % or 1e-5 change, statistical ones a shift of several standard errors.
Exits 1 if any check passes a wrong output or rejects a right one.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import numpy as np
from scipy.sparse import csgraph

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from lrfpp import cli, explore  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, manifest_text  # noqa: E402

SEED = 1


class Report:
    def __init__(self) -> None:
        self.bad = 0

    def line(self, good: bool, text: str) -> None:
        self.bad += not good
        print(f"{'ok  ' if good else 'FAIL'} {text}")

    def rejects(self, label: str, name: str, how: str, results) -> None:
        hit = [(ok, detail) for n, ok, detail in results if n == name]
        self.line(bool(hit) and not hit[0][0],
                  f"{label}: '{name}' rejects {how}: {hit[0][1] if hit else 'check not run'}")


def _taus(spec, summary) -> np.ndarray:
    cfg, k = spec.cfg, spec.tau_k()
    rn, _ = checks.rate_sums(cfg.d, cfg.m, cfg.p, cfg.alpha)
    return (summary.samples + math.log(k)) / rn


def wrong_outputs(report: Report, manifest, results: Path, captured) -> None:
    for exp in manifest.experiments:
        provenance, rows = checks.read_results(results / f"{exp.label}.csv")
        if isinstance(exp, cli.ConstantsExperiment):
            wrong_constants(report, exp, rows)
            continue
        spec, summary = captured[int(provenance["experiment_seed"])]
        cfg, label = exp.cfg, exp.label
        bad_rows = copy.deepcopy(rows)
        column = "mean_centered" if isinstance(exp, cli.TauExperiment) else "scaled_mean"
        bad_rows[0][column] = repr(float(rows[0][column]) * (1 + 1e-6))
        report.rejects(label, "results file matches samples", f"{column} x (1 + 1e-6)",
                       checks.check_experiment(exp, provenance, bad_rows, captured, {}))
        if isinstance(exp, cli.TauExperiment):
            taus = _taus(spec, summary)
            k = spec.tau_k()
            if cfg.alpha == 0.0:
                for name in ("Janson mean", "Gumbel KS", "rate sandwich"):
                    report.rejects(label, name, "tau x 1.10", checks.tau_checks(cfg, k, taus * 1.10))
                report.rejects(label, "rate sandwich", "tau x 0.90", checks.tau_checks(cfg, k, taus * 0.90))
            else:
                for factor in (1.25, 0.80):
                    report.rejects(label, "rate sandwich", f"tau x {factor:.2f}",
                                   checks.tau_checks(cfg, k, taus * factor))
        elif exp.quantity != "diameter":
            samples = summary.samples
            if cfg.alpha == 0.0:
                factor = {"flooding": 1.25, "typical": 1.30}[exp.quantity]
                report.rejects(label, f"{exp.quantity} exact mean", f"times x {factor:.2f}",
                               checks.passage_checks(cfg, exp.quantity, samples * factor))
            else:
                factor = {"flooding": 1.30, "typical": 1.40}[exp.quantity]
                report.rejects(label, f"{exp.quantity} window", f"times x {factor:.2f}",
                               checks.passage_checks(cfg, exp.quantity, samples * factor))
        else:
            mats = [explore.EdgeWeightSample.from_seed(cfg, (spec.root_seed, r)).dense_matrix()
                    for r in range(checks.DIJKSTRA_REPLICATES)]
            diam = summary.samples
            report.rejects(label, "Dijkstra diameter (replicate 0)", "diameters x 1.01",
                           checks.diameter_checks(cfg, diam * 1.01, mats, {}))
            report.rejects(label, "diameter window", "diameters x 1.35",
                           checks.diameter_checks(cfg, diam * 1.35, mats, {}))
            report.rejects(label, "edge weights Exp(1) KS", "weights x 1.10",
                           checks.diameter_checks(cfg, diam, [m * 1.10 for m in mats], {}))
            if cfg.n <= 256:
                dense = csgraph.dijkstra(mats[0], directed=False)
                pruned = checks.all_pairs_by_dijkstra(mats[0])
                report.line(bool(np.array_equal(dense, pruned)),
                            f"{label}: pruned Dijkstra equals dense Dijkstra on replicate 0")


def wrong_constants(report: Report, exp, rows) -> None:
    def edited(match, column, change):
        out = copy.deepcopy(rows)
        row = next(r for r in out if all(r[c] == v for c, v in match.items()))
        row[column] = repr(change(float(row[column])))
        return checks.constants_checks(exp, out)

    label, tol = exp.label, exp.tolerance
    quad = {"method": "quadrature"}
    cases = [
        ({"d": "2", "p": "1.0", "alpha": "1.0", **quad}, "value", lambda v: v + 1e-5,
         "constants against references", "quadrature (2, 1, 1) + 1e-5"),
        ({"d": "4", "p": "1.0", "alpha": "0.5", **quad}, "value", lambda v: v + 1e-8,
         "constants against references", "quadrature (4, 1, 0.5) + 1e-8"),
        ({"d": "3", "p": "inf", "alpha": "1.5", **quad}, "value", lambda v: v + 1e-8,
         "constants against references", "quadrature (3, inf, 1.5) + 1e-8"),
        ({"d": "2", "p": "2.0", "alpha": "0.5", "method": "hypergeometric-d2"}, "value",
         lambda v: v * (1 + 1e-9), "constants against references", "hypergeometric x (1 + 1e-9)"),
        ({"d": "4", "p": "inf", "alpha": "2.5", "method": "closed-p-infinity"}, "value",
         lambda v: v * (1 + 1e-9), "constants against references", "closed form x (1 + 1e-9)"),
        ({"d": "3", "p": "2.0", "alpha": "1.0", **quad}, "error_estimate", lambda v: 2 * tol,
         "quadrature error within tolerance", "error_estimate = 2 x tolerance"),
    ]
    for match, column, change, name, how in cases:
        report.rejects(label, name, how, edited(match, column, change))
    mc = {"d": "3", "p": "2.0", "alpha": "1.0", "method": "gamma-max-mc"}
    se = float(next(r for r in rows if all(r[c] == v for c, v in mc.items()))["error_estimate"])
    report.rejects(label, "Monte Carlo within Z SE", "MC (3, 2, 1) + 8 SE",
                   edited(mc, "value", lambda v: v + 8 * se))
    report.rejects(label, "constants cells", "one row dropped", checks.constants_checks(exp, rows[1:]))


def main() -> int:
    report = Report()
    captured = spans.capture_summaries()
    for workload in WORKLOADS:
        out = BENCH / "out" / "selftest" / workload
        out.mkdir(parents=True, exist_ok=True)
        manifest = cli.parse_manifest(manifest_text(workload, SEED))
        results = out / "results"
        if cli.run(manifest, out=str(results)) != 0:
            report.line(False, f"{workload}: cli.run failed")
            continue
        ops, _ = checks.check_run(manifest, results, captured)
        for op in ops:
            for name, ok, detail in op["checks"]:
                report.line(ok, f"{op['label']}: '{name}' passes the program's output: {detail}")
        wrong_outputs(report, manifest, results, captured)
    print(f"{report.bad} problems")
    return 1 if report.bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
