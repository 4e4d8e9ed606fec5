"""Command-line front end: a JSON manifest in, one results file per experiment out.

A manifest looks like this::

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

Parsing checks only the document's shape, field names and JSON types, and
builds the library's own validated types, which hold every model rule.  A
quantity or tau experiment becomes an ``ExperimentSpec`` on a ``TorusConfig``;
its size limits are part of that spec.  A constants experiment becomes one
``ConstantQuery`` per cell of its d x p x alpha x method grid that the method
applies to, in that order, and ``constants.evaluate`` computes each.  A
``ConfigError`` is reported as a ``ManifestError`` at the experiment's path.
So a manifest that cannot run fails before any file is written.

The command line's --seed, --jobs, --format and --out override the manifest's
settings before anything runs.  Data rows are byte reproducible for a fixed
seed and do not depend on the worker count; each file starts with a provenance
header.  Exit codes: 0 success, 2 validation failure, 3 a ``validate`` check
failed, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__, constants, explore, rng, stats
from .errors import ConfigError, ManifestError, NotApplicable
from .stats import ExperimentSpec
from .torus import TorusConfig

_FORMATS = ("csv", "json")
#: The ``tau`` flags, which build the experiment run without --manifest: type, default.
_TAU_FLAGS = {"d": (int, 2), "m": (int, 64), "p": (float, TorusConfig.p),
              "alpha": (float, TorusConfig.alpha),
              "beta": (float, None), "k": (int, None), "replicates": (int, 2000)}


@dataclass(frozen=True)
class QuantityExperiment(ExperimentSpec):
    """Typical, flooding or diameter passage times; ``run`` sets ``root_seed``."""

    label: str = field(kw_only=True)
    kind: ClassVar[str] = "quantity"


@dataclass(frozen=True)
class TauExperiment(ExperimentSpec):
    """Gumbel fluctuations of the k-th discovery time; ``run`` sets ``root_seed``."""

    label: str = field(kw_only=True)
    kind: ClassVar[str] = "tau"

    def __post_init__(self):
        super().__post_init__()
        if self.replicates < stats._KS_MIN_SAMPLES:  # the floor of its KS test
            raise ConfigError(f"a tau experiment needs replicates >= {stats._KS_MIN_SAMPLES}")


@dataclass(frozen=True)
class ConstantsExperiment:
    """A grid of limit-constant evaluations.

    ``cells`` holds one validated query per (d, p, alpha, method) of the grid
    that the method applies to, in d -> p -> alpha -> method order, and
    ``skipped`` counts the cells that raise NotApplicable.  The ordinal of a
    cell's (d, p) in the d x p grid seeds its Monte Carlo stream, so the
    Monte Carlo cells of one (d, p) share one draw: their errors are
    correlated across alpha, while each standard error stays valid per cell.
    """

    label: str
    dims: Tuple[int, ...]
    ps: Tuple[float, ...]
    alphas: Tuple[float, ...]
    methods: Tuple[str, ...]
    samples: int
    tolerance: float
    cells: Tuple[constants.ConstantQuery, ...] = field(init=False, repr=False)
    skipped: int = field(init=False)
    kind: ClassVar[str] = "constants"

    def __post_init__(self):
        cells = []
        grid = list(itertools.product(self.dims, self.ps, self.alphas, self.methods))
        for d, p, alpha, method in grid:
            with contextlib.suppress(NotApplicable):
                cells.append(constants.ConstantQuery(d, p, alpha, method, self.tolerance))
        axes = {"d": self.dims, "p": self.ps, "alpha": self.alphas, "methods": self.methods}
        for key, values in axes.items():
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} lists a value twice: {values}, which would repeat rows")
        if not cells:
            raise ConfigError("no (d, p, alpha, method) cell of the grid applies")
        # The samples bound every grid; d * samples only its Monte Carlo cells.
        constants.check_mc_samples(self.samples, max(
            q.d if q.method == "gamma-max-mc" else 1 for q in cells))
        object.__setattr__(self, "cells", tuple(cells))
        object.__setattr__(self, "skipped", len(grid) - len(cells))


Experiment = Union[QuantityExperiment, TauExperiment, ConstantsExperiment]


@dataclass(frozen=True)
class RunManifest:
    """A validated manifest; ``out``, ``fmt`` and ``jobs`` hold every command's defaults."""

    seed: int
    experiments: Tuple[Experiment, ...]
    out: str = "results"
    fmt: str = "csv"
    jobs: int = 1


# ---------------------------------------------------------------------------
# Manifest parsing: JSON shape and types here, model rules in the library
# ---------------------------------------------------------------------------


def _want(obj: dict, key: str, loc: str, required: bool = True, default=None):
    if key not in obj:
        if required:
            raise ManifestError(f"{loc}.{key}", "missing required field")
        return default
    return obj[key]


def _only(obj: dict, loc: str, known: Tuple[str, ...]) -> None:
    """Reject a field of ``obj`` outside ``known``: nothing would read it."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ManifestError(f"{loc}.{unknown[0]}", f"unknown field; expected one of {known}")


def _as_int(val, loc: str, minimum: Optional[int] = None) -> int:
    # bool is an int subclass, and the library types would take True as 1.
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
    return math.inf if val in ("inf", "Infinity") else _as_number(val, loc)


def _as_seed(val, loc: str) -> int:
    seed = _as_int(val, loc, minimum=0)
    if seed >= 2**64:
        raise ManifestError(loc, "seed must fit in 64 bits")
    return seed


def _as_out(val, loc: str) -> str:
    # Like a label, it must be printable: no NUL byte or lone surrogate reaches mkdir.
    if not isinstance(val, str) or not val or not val.isprintable():
        raise ManifestError(loc, f"expected a printable directory name, got {val!r}")
    return val


def _as_tuple(obj: dict, key: str, loc: str, item, default=None) -> tuple:
    """A non-empty list field, each entry converted by ``item(value, location)``."""
    val = _want(obj, key, loc, required=default is None, default=default)
    if not isinstance(val, list) or not val:
        raise ManifestError(f"{loc}.{key}", "expected a non-empty list")
    return tuple(item(v, f"{loc}.{key}[{i}]") for i, v in enumerate(val))


def _spec(cls, obj: dict, loc: str, **kwargs) -> ExperimentSpec:
    """``cls(**kwargs)`` on the torus and replicate count that ``obj`` gives, root seed 0."""
    cfg = TorusConfig(
        d=_as_int(_want(obj, "d", loc), f"{loc}.d"),
        m=_as_int(_want(obj, "m", loc), f"{loc}.m"),
        p=_as_p(_want(obj, "p", loc, required=False, default=TorusConfig.p), f"{loc}.p"),
        alpha=_as_number(_want(obj, "alpha", loc), f"{loc}.alpha"),
    )
    replicates = _as_int(_want(obj, "replicates", loc), f"{loc}.replicates")
    return cls(cfg=cfg, replicates=replicates, root_seed=0, **kwargs)


def _parse_experiment(obj, idx: int, taken: set) -> Experiment:
    """The experiment at ``idx``; its label, which names its results file,
    must be one printable path component and not among the ``taken`` labels."""
    loc = f"experiments[{idx}]"
    if not isinstance(obj, dict):
        raise ManifestError(loc, "expected an object")
    kind = _want(obj, "kind", loc, required=False, default="quantity")
    spec = ("d", "m", "p", "alpha", "replicates", "source")  # read by _spec and below
    fields = {"quantity": spec + ("quantity",), "tau": spec + ("k", "beta"),
              "constants": ("d", "p", "alpha", "methods", "samples", "tolerance")}
    if not isinstance(kind, str) or kind not in fields:
        raise ManifestError(f"{loc}.kind", f"unknown experiment kind {kind!r}")
    _only(obj, loc, ("kind", "label") + fields[kind])
    label = obj.get("label", f"{idx:02d}_{kind}")
    # A label names its results file and, while it is written, <label>.json.tmp:
    # a file name holds at most 255 bytes, and a line break would split the header.
    if (not isinstance(label, str) or label in ("", ".", "..") or set(label) & set("/\\")
            or not label.isprintable() or len(f"{label}.json.tmp".encode()) > 255):
        raise ManifestError(f"{loc}.label", f"expected a printable file name of at most "
                                            f"246 bytes, got {label!r}")
    if label in taken:
        raise ManifestError(f"{loc}.label", f"label {label!r} is used by an earlier experiment")
    taken.add(label)
    try:
        if kind == "quantity":
            quantity = _want(obj, "quantity", loc)
            if quantity not in stats.PASSAGE_QUANTITIES:
                raise ManifestError(f"{loc}.quantity", f"must be one of {stats.PASSAGE_QUANTITIES}")
            source = obj.get("source", "uniform" if quantity == "typical" else "origin")
            return _spec(
                QuantityExperiment, obj, loc, label=label, quantity=quantity, source=source
            )
        if kind == "tau":
            k, beta = obj.get("k"), obj.get("beta")
            return _spec(
                TauExperiment, obj, loc, label=label, quantity="tau",
                k=None if k is None else _as_int(k, f"{loc}.k"),
                beta=None if beta is None else _as_number(beta, f"{loc}.beta"),
                source=obj.get("source", "origin"),
            )
        return ConstantsExperiment(
            label,
            dims=_as_tuple(obj, "d", loc, _as_int),
            ps=_as_tuple(obj, "p", loc, _as_p),
            alphas=_as_tuple(obj, "alpha", loc, _as_number),
            methods=_as_tuple(obj, "methods", loc, lambda v, _: v, list(constants._METHODS)),
            samples=_as_int(obj.get("samples", 200_000), f"{loc}.samples"),
            tolerance=_as_number(obj.get("tolerance", constants.ConstantQuery.tolerance),
                                 f"{loc}.tolerance"),
        )
    except ConfigError as exc:
        raise ManifestError(loc, str(exc)) from exc


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice, whose first value json.loads
    would drop, is a ManifestError."""
    obj: dict = {}
    for key, val in pairs:
        if key in obj:
            raise ManifestError(f"{key!r}", "key given twice in one object")
        obj[key] = val
    return obj


def parse_manifest(text: str) -> RunManifest:
    """Parse and fully validate a manifest document before anything runs."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"line {exc.lineno}", f"invalid JSON: {exc.msg}") from exc
    except ManifestError:  # a key given twice; it is a ValueError too
        raise
    except (RecursionError, ValueError) as exc:  # nesting too deep, an integer too long
        raise ManifestError("$", f"cannot decode JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError("$", "manifest must be a JSON object")
    _only(doc, "$", ("seed", "out", "format", "jobs", "experiments"))
    seed = _as_seed(_want(doc, "seed", "$"), "$.seed")
    out = _as_out(doc.get("out", RunManifest.out), "$.out")
    fmt = doc.get("format", RunManifest.fmt)
    if fmt not in _FORMATS:
        raise ManifestError("$.format", f"must be one of {_FORMATS}")
    jobs = _as_int(doc.get("jobs", RunManifest.jobs), "$.jobs", minimum=1)
    raw = _want(doc, "experiments", "$")
    if not isinstance(raw, list) or not raw:
        raise ManifestError("$.experiments", "must be a non-empty list")
    taken: set = set()
    experiments = tuple(_parse_experiment(obj, i, taken) for i, obj in enumerate(raw))
    return RunManifest(seed=seed, out=out, fmt=fmt, jobs=jobs, experiments=experiments)


# ---------------------------------------------------------------------------
# Execution and emission
# ---------------------------------------------------------------------------


def _experiment_seed(root_seed: int, index: int) -> int:
    """Stable 64-bit seed for experiment #index under the manifest root seed."""
    return int(rng.seed_sequence(root_seed, index).generate_state(1, np.uint64)[0])


def _quantity_rows(exp: QuantityExperiment, seed: int, jobs: int) -> Tuple[List[dict], dict]:
    s = stats.estimate_scaled(dataclasses.replace(exp, root_seed=seed), jobs=jobs)
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
    ], s.details


def _tau_rows(exp: TauExperiment, seed: int, jobs: int) -> Tuple[List[dict], dict]:
    s = stats.gumbel_test(dataclasses.replace(exp, root_seed=seed), jobs=jobs)
    return [
        {
            "n": exp.cfg.n,
            "alpha": exp.cfg.alpha,
            "k": int(s.details["k"]),
            "ks_stat": s.ks_stat,
            "ks_pvalue": s.ks_pvalue,
            "mean_centered": s.mean,
            "se_centered": s.se,
            "scaled_tau_mean": s.scaled_mean,
        }
    ], s.details


def _constants_rows(exp: ConstantsExperiment, seed: int, jobs: int) -> Tuple[List[dict], dict]:
    """One row per grid cell, from the cell's ``constants.ConstantResult``, and the
    count of skipped cells as details.

    A Monte Carlo cell's stream is seeded by the ordinal of its (d, p) in the
    d x p grid.  The cells of one (d, p) are adjacent, so they share one draw
    (``constants._mixture_draw``): their errors are correlated across alpha,
    while each standard error stays valid per cell.  ``converged`` is False
    for a quadrature cell that ran out of its evaluation budget above its
    tolerance (a warning goes to stderr), True for a closed form and empty
    for Monte Carlo; ``effective_samples`` is filled for Monte Carlo cells only.
    """
    pairs = {pair: i for i, pair in enumerate(itertools.product(exp.dims, exp.ps))}
    rows = []
    for q in exp.cells:
        res = constants.evaluate(q, exp.samples, _experiment_seed(seed, pairs[q.d, q.p]))
        if res.converged is False:
            print(
                f"warning: {exp.label}: quadrature at d={q.d}, p={q.p}, alpha={q.alpha} "
                f"did not converge after {res.evaluations} evaluations "
                f"(error estimate {res.error!r}, tolerance {exp.tolerance!r})",
                file=sys.stderr,
            )
        rows.append(
            {
                "d": q.d,
                "p": q.p if q.p != math.inf else "inf",
                "alpha": q.alpha,
                "method": q.method,
                "value": res.value,
                "error_estimate": res.error,
                "converged": res.converged,
                "effective_samples": res.effective_samples,
            }
        )
    return rows, {"skipped_cells": exp.skipped}


def _format_cell(val) -> str:
    if val is None:
        return ""
    if isinstance(val, float):
        return repr(val)
    return str(val)


def _write_output(path: Path, fmt: str, rows: List[dict], provenance: Dict[str, str]) -> None:
    """Write the rows, whose columns are the first row's keys in order, to a
    temporary sibling renamed into place; a failed write leaves neither name."""
    if fmt == "csv":
        columns = list(rows[0])
        lines = [f"# {k}={v}" for k, v in provenance.items()]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_format_cell(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        doc = {"provenance": provenance, "rows": rows}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def run(manifest: RunManifest, out: Optional[str] = None,
        only_kinds: Optional[Tuple[str, ...]] = None) -> int:
    """Run the experiments of ``only_kinds`` (all by default), one results file each,
    at the manifest's seed, format and worker count.  ``out``, if given, replaces
    ``manifest.out``; it stays because the benchmark calls ``run(manifest, out=...)``."""
    out_dir = Path(out if out is not None else manifest.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 4

    # Each gives an experiment's rows and details, whose counts join its provenance.
    rows_of = {"quantity": _quantity_rows, "tau": _tau_rows, "constants": _constants_rows}
    failures: List[str] = []
    for idx, exp in enumerate(manifest.experiments):
        if only_kinds is not None and exp.kind not in only_kinds:
            continue
        exp_seed = _experiment_seed(manifest.seed, idx)
        started = time.perf_counter()
        rows, details = rows_of[exp.kind](exp, exp_seed, manifest.jobs)
        provenance = {
            "tool": f"lrfpp {__version__}",
            "root_seed": str(manifest.seed),
            "experiment_index": str(idx),
            "experiment_seed": str(exp_seed),
            "label": exp.label,
            "wall_time_s": f"{time.perf_counter() - started:.3f}",
            **{key: str(details[key]) for key in ("births", "proposals", "skipped_cells")
               if key in details},
        }
        path = out_dir / f"{exp.label}.{manifest.fmt}"
        try:
            _write_output(path, manifest.fmt, rows, provenance)
        except OSError as exc:
            failures.append(f"{exp.label}: I/O failure: {exc}")
            continue
        print(f"wrote {path}")

    for msg in failures:
        print(f"error: {msg}", file=sys.stderr)
    return 4 if failures else 0


# ---------------------------------------------------------------------------
# Built-in law checks (validate subcommand)
# ---------------------------------------------------------------------------


def _validate_checks(seed: int) -> List[Tuple[str, bool, str]]:
    checks: List[Tuple[str, bool, str]] = []

    def counts(runs: List[stats.StatSummary]) -> str:
        births, proposals = (sum(s.details[key] for s in runs) for key in ("births", "proposals"))
        return f"{births} births, {proposals} proposals"

    # Exploration law equals the shortest-path oracle law (two-sample KS); the
    # oracle's pairs and edges come from streams the explorations do not use.
    runs, pvals = [], []
    for alpha, tag in ((0.0, 10), (1.0, 11)):
        cfg = TorusConfig(d=2, m=3, p=2.0, alpha=alpha)
        runs.append(stats.estimate_scaled(ExperimentSpec(cfg, "typical", 800, root_seed=seed + tag,
                                                         source="uniform")))
        pairs = [stats._ends(cfg, (seed, tag, r)) for r in range(800)]
        orac = [explore.oracle_transmission_time(u, v, cfg, (seed, tag, r, 1))
                for r, (u, v) in enumerate(pairs)]
        pvals.append(stats.ks_two_sample(runs[-1].samples, orac)[1])
    level = 0.01 / len(pvals)
    checks.append(("exploration-vs-oracle", min(pvals) >= level,
                   f"min KS p-value {min(pvals):.4f} at level {level:.4f}; {counts(runs)}"))

    # Flooding at alpha = 0: Janson's sum of independent Exp(j (n - j)), of
    # exact mean and variance, over every birth the sampler makes.
    cfg = TorusConfig(d=2, m=32, p=2.0, alpha=0.0)
    s = stats.estimate_scaled(ExperimentSpec(cfg, "flooding", 200, root_seed=seed + 19))
    rates = [j * (cfg.n - j) for j in range(1, cfg.n)]
    z = (s.mean - sum(1.0 / r for r in rates)) / math.sqrt(sum(r ** -2.0 for r in rates) / 200)
    checks.append(("flooding-mean", abs(z) <= 4.0, f"z = {z:+.2f}; {counts([s])}"))

    # Gumbel fluctuations of the k-th discovery time.
    cfg = TorusConfig(d=2, m=32, p=2.0, alpha=0.0)
    s = stats.gumbel_test(ExperimentSpec(cfg, "tau", 400, root_seed=seed + 17, k=32))
    checks.append(("gumbel-fluctuation", s.ks_pvalue > 0.001,
                   f"KS p-value {s.ks_pvalue:.4f}, mean {s.mean:.4f}; {counts([s])}"))
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
            for flag, (kind, default) in _TAU_FLAGS.items():
                sp.add_argument(f"--{flag}", type=kind,
                                help=None if default is None else f"default {default}")

    vp = sub.add_parser("validate", help="run the built-in checks of the law")
    vp.add_argument("--seed", type=int, default=0)
    return parser


def _default_constants_manifest() -> RunManifest:
    """The grid ``lrfpp constants`` evaluates without --manifest, parsed as one."""
    grid = {"kind": "constants", "d": [1, 2], "p": [1, 2, "inf"], "alpha": [0.25, 0.5, 1.0, 1.5]}
    return RunManifest(seed=0, experiments=(_parse_experiment(grid, 0, set()),))


def _tau_manifest(args: argparse.Namespace) -> RunManifest:
    """The experiment the ``tau`` flags describe; beta is 0.5 unless k or beta is set."""
    val = {flag: default if getattr(args, flag) is None else getattr(args, flag)
           for flag, (_, default) in _TAU_FLAGS.items()}
    beta = 0.5 if val["k"] is None and val["beta"] is None else val["beta"]
    exp = _spec(TauExperiment, val, "tau", label="00_tau", quantity="tau", k=val["k"], beta=beta)
    return RunManifest(seed=0, experiments=(exp,))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        # Command-line overrides obey the manifest's rules for $.seed, $.jobs and $.out.
        seed = None if args.seed is None else _as_seed(args.seed, "--seed")
        if args.command == "validate":
            failed = False
            for name, ok, detail in _validate_checks(seed):
                print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
                failed |= not ok
            return 3 if failed else 0
        jobs = None if args.jobs is None else _as_int(args.jobs, "--jobs", minimum=1)
        out = None if args.out is None else _as_out(args.out, "--out")
        given = [f"--{flag}" for flag in _TAU_FLAGS if getattr(args, flag, None) is not None]
        if given and args.manifest is not None:
            raise ManifestError(given[0], "builds the experiment run without --manifest only")
        if args.manifest is not None:
            try:
                text = Path(args.manifest).read_text(encoding="utf-8")
            except OSError as exc:
                print(f"error: cannot read manifest: {exc}", file=sys.stderr)
                raise SystemExit(4)
            except UnicodeDecodeError as exc:
                raise ManifestError("$", f"not UTF-8 text: {exc}") from exc
            manifest = parse_manifest(text)
        elif args.command == "simulate":
            print("error: simulate requires --manifest", file=sys.stderr)
            return 2
        elif args.command == "constants":
            manifest = _default_constants_manifest()
        else:
            manifest = _tau_manifest(args)
        only_kinds = None if args.command == "simulate" else (args.command,)
        if only_kinds and not any(exp.kind in only_kinds for exp in manifest.experiments):
            raise ManifestError("$.experiments", f"no {args.command} experiment to run")
        overrides = {"seed": seed, "jobs": jobs, "fmt": args.format, "out": out}
        manifest = dataclasses.replace(
            manifest, **{key: val for key, val in overrides.items() if val is not None})
        return run(manifest, only_kinds=only_kinds)
    except (ManifestError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
