"""Command-line front end: manifests, orchestration, CSV/JSON emission.

Manifests are JSON documents::

    {
      "seed": 1234,                       # required, nonnegative integer
      "out": "results",                   # output directory (default "results")
      "format": "csv",                    # "csv" | "json"
      "jobs": 1,                          # worker processes for replicates
      "experiments": [
        {"kind": "quantity", "quantity": "typical", "d": 2, "m": 16,
         "p": 2, "alpha": 0.5, "replicates": 100, "source": "uniform"},
        {"kind": "tau", "d": 2, "m": 64, "p": 2, "alpha": 0.5,
         "beta": 0.5, "replicates": 2000},
        {"kind": "constants", "d": [1, 2], "p": [1, 2, "inf"],
         "alpha": [0.25, 0.5, 1.0], "methods": ["quadrature"],
         "samples": 200000, "tolerance": 1e-9}
      ]
    }

Every experiment is validated before anything runs.  One results file is
written per experiment with a provenance comment header; data rows are byte
reproducible for a fixed seed and do not depend on the worker count.  Exit
codes: 0 success, 2 validation failure, 3 invariant assertion failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__, constants, explore, rng, stats, torus, weights
from .errors import ConfigError, InvariantViolation, ManifestError
from .stats import ExperimentSpec
from .torus import TorusConfig

_FORMATS = ("csv", "json")
_QUANTITY_KINDS = ("typical", "flooding", "diameter")

DEFAULT_CONSTANTS_D = (1, 2)
DEFAULT_CONSTANTS_P = (1.0, 2.0, math.inf)
DEFAULT_CONSTANTS_ALPHA = (0.25, 0.5, 1.0, 1.5)


@dataclass(frozen=True)
class QuantityExperiment:
    label: str
    cfg: TorusConfig
    quantity: str
    replicates: int
    source: str


@dataclass(frozen=True)
class TauExperiment:
    label: str
    cfg: TorusConfig
    replicates: int
    k: Optional[int]
    beta: Optional[float]
    source: str


@dataclass(frozen=True)
class ConstantsExperiment:
    label: str
    dims: Tuple[int, ...]
    ps: Tuple[float, ...]
    alphas: Tuple[float, ...]
    methods: Tuple[str, ...]
    samples: int
    tolerance: float


Experiment = Union[QuantityExperiment, TauExperiment, ConstantsExperiment]


@dataclass(frozen=True)
class RunManifest:
    seed: int
    out: str
    fmt: str
    jobs: int
    experiments: Tuple[Experiment, ...]


# ---------------------------------------------------------------------------
# Manifest parsing with field-level diagnostics
# ---------------------------------------------------------------------------


def _want(obj: dict, key: str, loc: str, required: bool = True, default=None):
    if key not in obj:
        if required:
            raise ManifestError(f"{loc}.{key}", "missing required field")
        return default
    return obj[key]


def _as_int(val, loc: str, minimum: Optional[int] = None) -> int:
    if not isinstance(val, int) or isinstance(val, bool):
        raise ManifestError(loc, f"expected an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ManifestError(loc, f"must be >= {minimum}, got {val}")
    return val


def _as_number(val, loc: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ManifestError(loc, f"expected a number, got {val!r}")
    return float(val)


def _as_p(val, loc: str) -> float:
    if val in ("inf", "Infinity"):
        return math.inf
    p = _as_number(val, loc)
    if p < 1.0:
        raise ManifestError(loc, f"p must satisfy p >= 1, got {p}")
    return p


def _parse_cfg(obj: dict, loc: str) -> TorusConfig:
    d = _as_int(_want(obj, "d", loc), f"{loc}.d", minimum=1)
    m = _as_int(_want(obj, "m", loc), f"{loc}.m", minimum=2)
    p = _as_p(_want(obj, "p", loc, required=False, default=2.0), f"{loc}.p")
    alpha = _as_number(_want(obj, "alpha", loc), f"{loc}.alpha")
    if alpha >= d:
        raise ManifestError(f"{loc}.alpha", f"alpha must be < d (got alpha={alpha}, d={d})")
    if alpha < 0:
        raise ManifestError(f"{loc}.alpha", "alpha must be >= 0")
    try:
        return TorusConfig(d=d, m=m, p=p, alpha=alpha)
    except ConfigError as exc:
        raise ManifestError(loc, str(exc)) from exc


def _parse_experiment(obj, idx: int) -> Experiment:
    loc = f"experiments[{idx}]"
    if not isinstance(obj, dict):
        raise ManifestError(loc, "expected an object")
    kind = _want(obj, "kind", loc, required=False, default="quantity")
    label = obj.get("label", f"{idx:02d}_{kind}")

    if kind == "quantity":
        cfg = _parse_cfg(obj, loc)
        quantity = _want(obj, "quantity", loc)
        if quantity not in _QUANTITY_KINDS:
            raise ManifestError(f"{loc}.quantity", f"must be one of {_QUANTITY_KINDS}")
        replicates = _as_int(_want(obj, "replicates", loc), f"{loc}.replicates", minimum=1)
        source = obj.get("source", "uniform" if quantity == "typical" else "origin")
        if source not in ("origin", "uniform"):
            raise ManifestError(f"{loc}.source", "must be 'origin' or 'uniform'")
        if quantity == "diameter" and cfg.n > explore.ALL_PAIRS_CAP:
            raise ManifestError(loc, f"diameter requires n <= {explore.ALL_PAIRS_CAP}")
        try:
            ExperimentSpec(
                cfg=cfg, quantity=quantity, replicates=replicates, root_seed=0, source=source
            )
        except ConfigError as exc:
            raise ManifestError(loc, str(exc)) from exc
        return QuantityExperiment(label, cfg, quantity, replicates, source)

    if kind == "tau":
        cfg = _parse_cfg(obj, loc)
        replicates = _as_int(_want(obj, "replicates", loc), f"{loc}.replicates", minimum=1)
        k = obj.get("k")
        beta = obj.get("beta")
        if (k is None) == (beta is None):
            raise ManifestError(loc, "tau needs exactly one of 'k' or 'beta'")
        if k is not None:
            k = _as_int(k, f"{loc}.k", minimum=2)
        if beta is not None:
            beta = _as_number(beta, f"{loc}.beta")
            if not (0.0 < beta < 1.0):
                raise ManifestError(f"{loc}.beta", "beta must lie in (0, 1)")
        source = obj.get("source", "origin")
        if source not in ("origin", "uniform"):
            raise ManifestError(f"{loc}.source", "must be 'origin' or 'uniform'")
        try:
            ExperimentSpec(
                cfg=cfg, quantity="tau", replicates=replicates, root_seed=0,
                k=k, beta=beta, source=source,
            )
        except ConfigError as exc:
            raise ManifestError(loc, str(exc)) from exc
        return TauExperiment(label, cfg, replicates, k, beta, source)

    if kind == "constants":
        def _as_list(key: str) -> list:
            val = _want(obj, key, loc)
            if not isinstance(val, list) or not val:
                raise ManifestError(f"{loc}.{key}", "expected a non-empty list")
            return val

        dims = tuple(
            _as_int(v, f"{loc}.d[{i}]", minimum=1) for i, v in enumerate(_as_list("d"))
        )
        ps = tuple(_as_p(v, f"{loc}.p[{i}]") for i, v in enumerate(_as_list("p")))
        alphas = tuple(
            _as_number(v, f"{loc}.alpha[{i}]") for i, v in enumerate(_as_list("alpha"))
        )
        if any(a < 0 for a in alphas):
            raise ManifestError(f"{loc}.alpha", "alpha values must be >= 0")
        methods = tuple(obj.get("methods", constants._METHODS))
        for mth in methods:
            if mth not in constants._METHODS:
                raise ManifestError(f"{loc}.methods", f"unknown method {mth!r}")
        samples = _as_int(obj.get("samples", 200_000), f"{loc}.samples", minimum=10_000)
        tolerance = _as_number(obj.get("tolerance", 1e-9), f"{loc}.tolerance")
        if tolerance <= 0:
            raise ManifestError(f"{loc}.tolerance", "tolerance must be positive")
        return ConstantsExperiment(label, dims, ps, alphas, methods, samples, tolerance)

    raise ManifestError(f"{loc}.kind", f"unknown experiment kind {kind!r}")


def parse_manifest(text: str) -> RunManifest:
    """Parse and fully validate a manifest document before anything runs."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"line {exc.lineno}", f"invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ManifestError("$", "manifest must be a JSON object")
    seed = _as_int(_want(doc, "seed", "$"), "$.seed", minimum=0)
    if seed >= 2**64:
        raise ManifestError("$.seed", "seed must fit in 64 bits")
    out = doc.get("out", "results")
    fmt = doc.get("format", "csv")
    if fmt not in _FORMATS:
        raise ManifestError("$.format", f"must be one of {_FORMATS}")
    jobs = _as_int(doc.get("jobs", 1), "$.jobs", minimum=1)
    raw = _want(doc, "experiments", "$")
    if not isinstance(raw, list) or not raw:
        raise ManifestError("$.experiments", "must be a non-empty list")
    experiments = tuple(_parse_experiment(obj, i) for i, obj in enumerate(raw))
    return RunManifest(seed=seed, out=out, fmt=fmt, jobs=jobs, experiments=experiments)


# ---------------------------------------------------------------------------
# Execution and emission
# ---------------------------------------------------------------------------


def _experiment_seed(root_seed: int, index: int) -> int:
    """Stable 64-bit seed for experiment #index under the manifest root seed."""
    return int(np.random.SeedSequence((root_seed, index)).generate_state(1, np.uint64)[0])


def _quantity_rows(exp: QuantityExperiment, seed: int, jobs: int) -> List[dict]:
    spec = ExperimentSpec(
        cfg=exp.cfg,
        quantity=exp.quantity,
        replicates=exp.replicates,
        root_seed=seed,
        source=exp.source,
    )
    s = stats.estimate_scaled(spec, jobs=jobs)
    q = [x * s.scale for x in s.quantiles]
    return [
        {
            "n": exp.cfg.n,
            "alpha": exp.cfg.alpha,
            "quantity": exp.quantity,
            "scaled_mean": s.scaled_mean,
            "se": s.scaled_se,
            "q05": q[0],
            "q25": q[1],
            "q50": q[2],
            "q75": q[3],
            "q95": q[4],
        }
    ]


def _tau_rows(exp: TauExperiment, seed: int, jobs: int) -> List[dict]:
    spec = ExperimentSpec(
        cfg=exp.cfg,
        quantity="tau",
        replicates=exp.replicates,
        root_seed=seed,
        k=exp.k,
        beta=exp.beta,
        source=exp.source,
    )
    s = stats.gumbel_test(spec, jobs=jobs)
    return [
        {
            "n": exp.cfg.n,
            "alpha": exp.cfg.alpha,
            "k": int(s.details["k"]),
            "ks_stat": s.ks_stat,
            "ks_pvalue": s.ks_pvalue,
            "mean_centered": s.mean,
            "se_centered": s.se,
            "scaled_tau_mean": s.details["scaled_tau_mean"],
        }
    ]


def _constants_cells(exp: ConstantsExperiment):
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
                    yield d, p, alpha, method


def _constants_rows(exp: ConstantsExperiment, seed: int, jobs: int) -> List[dict]:
    """One row per grid cell.

    Each Monte Carlo cell draws from its own stream, seeded by the cell's
    index in the grid.  ``converged`` is False for a quadrature cell that ran
    out of its evaluation budget (a warning goes to stderr) and empty for Monte
    Carlo cells; ``effective_samples`` is filled for Monte Carlo cells only.
    """
    rows = []
    for cell, (d, p, alpha, method) in enumerate(_constants_cells(exp)):
        converged: Optional[bool] = True
        ess: Optional[float] = None
        if method == "quadrature":
            res = constants.limit_constant_quadrature(
                constants.ConstantQuery(d, p, alpha, "quadrature", exp.tolerance)
            )
            value, err, converged = res.value, res.error, res.converged
            if not converged:
                print(
                    f"warning: {exp.label}: quadrature at d={d}, p={p}, alpha={alpha} "
                    f"did not converge after {res.evaluations} evaluations "
                    f"(error estimate {err!r}, tolerance {exp.tolerance!r})",
                    file=sys.stderr,
                )
        elif method == "closed-p-infinity":
            value, err = constants.limit_constant_max_norm(d, alpha), 0.0
        elif method == "hypergeometric-d2":
            value, err = constants.limit_constant_planar(p, alpha), 0.0
        else:
            mc = constants.limit_constant_gamma_mc(
                d, p, alpha, exp.samples, _experiment_seed(seed, cell)
            )
            value, err, converged, ess = mc.value, mc.std_error, None, mc.effective_samples
        rows.append(
            {
                "d": d,
                "p": p if p != math.inf else "inf",
                "alpha": alpha,
                "method": method,
                "value": value,
                "error_estimate": err,
                "converged": converged,
                "effective_samples": ess,
            }
        )
    return rows


_COLUMNS = {
    "quantity": ["n", "alpha", "quantity", "scaled_mean", "se", "q05", "q25", "q50", "q75", "q95"],
    "tau": ["n", "alpha", "k", "ks_stat", "ks_pvalue", "mean_centered", "se_centered", "scaled_tau_mean"],
    "constants": [
        "d", "p", "alpha", "method", "value", "error_estimate", "converged", "effective_samples"
    ],
}


def _format_cell(val) -> str:
    if val is None:
        return ""
    if isinstance(val, float):
        return repr(val)
    return str(val)


def _write_output(
    path: Path, fmt: str, columns: List[str], rows: List[dict], provenance: Dict[str, str]
) -> None:
    if fmt == "csv":
        lines = [f"# {k}={v}" for k, v in provenance.items()]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_format_cell(row[c]) for c in columns))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        doc = {"provenance": provenance, "rows": rows}
        path.write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )


def run(
    manifest: RunManifest,
    out: Optional[str] = None,
    fmt: Optional[str] = None,
    jobs: Optional[int] = None,
    seed: Optional[int] = None,
    only_kinds: Optional[Tuple[str, ...]] = None,
) -> int:
    """Execute all experiments, writing one results file per experiment."""
    out_dir = Path(out if out is not None else manifest.out)
    use_fmt = fmt if fmt is not None else manifest.fmt
    use_jobs = jobs if jobs is not None else manifest.jobs
    root_seed = seed if seed is not None else manifest.seed

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 4

    failures: List[str] = []
    io_failed = False
    for idx, exp in enumerate(manifest.experiments):
        kind = (
            "quantity"
            if isinstance(exp, QuantityExperiment)
            else "tau" if isinstance(exp, TauExperiment) else "constants"
        )
        if only_kinds is not None and kind not in only_kinds:
            continue
        exp_seed = _experiment_seed(root_seed, idx)
        started = time.perf_counter()
        try:
            if isinstance(exp, QuantityExperiment):
                rows = _quantity_rows(exp, exp_seed, use_jobs)
            elif isinstance(exp, TauExperiment):
                rows = _tau_rows(exp, exp_seed, use_jobs)
            else:
                rows = _constants_rows(exp, exp_seed, use_jobs)
        except InvariantViolation as exc:
            failures.append(f"{exp.label}: invariant violation: {exc}")
            continue
        provenance = {
            "tool": f"lrfpp {__version__}",
            "root_seed": str(root_seed),
            "experiment_index": str(idx),
            "experiment_seed": str(exp_seed),
            "label": exp.label,
            "wall_time_s": f"{time.perf_counter() - started:.3f}",
        }
        path = out_dir / f"{exp.label}.{use_fmt}"
        try:
            _write_output(path, use_fmt, _COLUMNS[kind], rows, provenance)
        except OSError as exc:
            failures.append(f"{exp.label}: I/O failure: {exc}")
            io_failed = True
            continue
        print(f"wrote {path}")

    for msg in failures:
        print(f"error: {msg}", file=sys.stderr)
    if failures:
        return 4 if io_failed else 3
    return 0


# ---------------------------------------------------------------------------
# Built-in invariant suite (validate subcommand)
# ---------------------------------------------------------------------------


def _validate_checks(seed: int) -> List[Tuple[str, bool, str]]:
    checks: List[Tuple[str, bool, str]] = []

    # Rate sandwich: full explorations assert the bounds at every step.
    ok, detail = True, ""
    try:
        for i, alpha in enumerate((0.0, 0.5, 1.0)):
            cfg = TorusConfig(d=2, m=16, p=2.0, alpha=alpha)
            for r in range(5):
                explore.run_exploration(
                    torus.origin(cfg), explore.StopRule.full(), cfg, (seed, i, r)
                )
        detail = "15 full explorations, every step inside the bounds"
    except InvariantViolation as exc:
        ok, detail = False, str(exc)
    checks.append(("rate-sandwich", ok, detail))

    # Exploration law equals the shortest-path oracle law (two-sample KS).
    cells = [(0.0, 10), (1.0, 11)]
    level = 0.01 / len(cells)
    worst = 1.0
    for alpha, tag in cells:
        cfg = TorusConfig(d=2, m=3, p=2.0, alpha=alpha)
        expl = np.empty(800)
        orac = np.empty(800)
        for r in range(800):
            gen = rng.generator((seed, tag, r), rng.STREAM_CHOICE)
            iu = int(gen.integers(cfg.n))
            iv = iu
            while iv == iu:
                iv = int(gen.integers(cfg.n))
            u, v = torus.index_to_site(iu, cfg), torus.index_to_site(iv, cfg)
            expl[r] = explore.transmission_time(u, v, cfg, (seed, tag, r, 0))
            orac[r] = explore.oracle_transmission_time(u, v, cfg, (seed, tag, r, 1))
        _, pval = stats.ks_two_sample(expl, orac)
        worst = min(worst, pval)
    ok = worst >= level
    checks.append(
        ("exploration-vs-oracle", ok, f"min KS p-value {worst:.4f} at level {level:.4f}")
    )

    # Gumbel fluctuations of the k-th discovery time.
    cfg = TorusConfig(d=2, m=32, p=2.0, alpha=0.0)
    spec = ExperimentSpec(
        cfg=cfg, quantity="tau", replicates=400, root_seed=seed + 17, k=32
    )
    s = stats.gumbel_test(spec)
    ok = s.ks_pvalue is not None and s.ks_pvalue > 0.001
    checks.append(
        ("gumbel-fluctuation", ok, f"KS p-value {s.ks_pvalue:.4f}, mean {s.mean:.4f}")
    )
    return checks


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", type=str, default=None, help="path to a JSON manifest")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--format", type=str, default=None, choices=_FORMATS)
    p.add_argument("--jobs", type=int, default=None, help="worker processes")
    p.add_argument("--seed", type=int, default=None, help="override the manifest seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrfpp",
        description="Long-range first-passage percolation on the discrete torus",
    )
    parser.add_argument("--version", action="version", version=f"lrfpp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, desc in (
        ("simulate", "run every experiment in a manifest"),
        ("constants", "evaluate the limit-constant grid"),
        ("tau", "fluctuation study of the k-th discovery time"),
    ):
        sp = sub.add_parser(name, help=desc)
        _add_common(sp)
        if name == "tau":
            sp.add_argument("--d", type=int, default=2)
            sp.add_argument("--m", type=int, default=64)
            sp.add_argument("--p", type=str, default="2")
            sp.add_argument("--alpha", type=float, default=0.0)
            sp.add_argument("--beta", type=float, default=None)
            sp.add_argument("--k", type=int, default=None)
            sp.add_argument("--replicates", type=int, default=2000)

    vp = sub.add_parser("validate", help="run the built-in invariant suite")
    vp.add_argument("--seed", type=int, default=0)
    return parser


def _load_manifest(path: Optional[str]) -> Optional[RunManifest]:
    if path is None:
        return None
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        raise SystemExit(4)
    return parse_manifest(text)


def _default_constants_manifest(seed: int) -> RunManifest:
    exp = ConstantsExperiment(
        label="00_constants",
        dims=DEFAULT_CONSTANTS_D,
        ps=DEFAULT_CONSTANTS_P,
        alphas=DEFAULT_CONSTANTS_ALPHA,
        methods=constants._METHODS,
        samples=200_000,
        tolerance=1e-9,
    )
    return RunManifest(seed=seed, out="results", fmt="csv", jobs=1, experiments=(exp,))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "validate":
        checks = _validate_checks(args.seed)
        failed = False
        for name, ok, detail in checks:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
            failed |= not ok
        return 3 if failed else 0

    try:
        manifest = _load_manifest(args.manifest)

        if args.command == "simulate":
            if manifest is None:
                print("error: simulate requires --manifest", file=sys.stderr)
                return 2
            return run(manifest, args.out, args.format, args.jobs, args.seed)

        if args.command == "constants":
            if manifest is None:
                manifest = _default_constants_manifest(args.seed if args.seed is not None else 0)
            return run(
                manifest, args.out, args.format, args.jobs, args.seed,
                only_kinds=("constants",),
            )

        # tau
        if manifest is not None:
            return run(
                manifest, args.out, args.format, args.jobs, args.seed,
                only_kinds=("tau",),
            )
        beta = args.beta
        k = args.k
        if (k is None) and (beta is None):
            beta = 0.5
        payload = {
            "seed": args.seed if args.seed is not None else 0,
            "out": args.out if args.out is not None else "results",
            "format": args.format if args.format is not None else "csv",
            "jobs": args.jobs if args.jobs is not None else 1,
            "experiments": [
                {
                    "kind": "tau",
                    "d": args.d,
                    "m": args.m,
                    "p": args.p if args.p == "inf" else float(args.p),
                    "alpha": args.alpha,
                    "replicates": args.replicates,
                    **({"k": k} if k is not None else {"beta": beta}),
                }
            ],
        }
        return run(parse_manifest(json.dumps(payload)))
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"error: invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
