"""Per-layer spans, recorded from outside the program.

`instrument` replaces the layers' public functions and methods by wrappers
that record one span per call: name, parent span, start, end and a count of
the work done (pairs hashed, Gamma draws, births, quadrature evaluations).
This works because the program looks these names up as module or class
attributes at call time.  Spans are kept in memory, in flat arrays, and
written out when the round ends.  A span's self time is its duration minus
the durations of its direct children; calls are nested and single-threaded,
so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (module, attribute, work count taken from (args, result)); the span is
#: named "module.attribute".
LAYERS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("cli", "parse_manifest", None),
    ("cli", "run", None),
    ("torus", "norm_table", None),
    ("torus", "sorted_order", None),
    ("torus", "pair_difference_index", lambda args, out: out.size),
    ("weights", "total_rate", None),
    ("weights", "rate_bounds", None),
    ("weights", "WeightField.initial", None),
    ("weights", "WeightField.discover_index", None),
    ("explore", "run_exploration", lambda args, out: out.n_born - 1),
    ("explore", "distance_matrix", lambda args, out: out.shape[0]),
    ("explore", "EdgeWeightSample.dense_matrix", lambda args, out: out.shape[0]),
    ("rng", "generator", None),
    ("rng", "pair_uniform", lambda args, out: out.size),
    ("rng", "gamma_small_shape", lambda args, out: out.size),
    ("stats", "replicate_sample", None),
    ("stats", "estimate_scaled", None),
    ("stats", "gumbel_test", None),
    ("stats", "ks_one_sample", None),
    ("constants", "limit_constant_quadrature", lambda args, out: out.evaluations),
    ("constants", "limit_constant_gamma_mc", lambda args, out: out.effective_samples / out.samples),
    ("constants", "limit_constant_max_norm", None),
    ("constants", "limit_constant_planar", None),
)


def patch(module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace lrfpp.<module>.<attr> by make(original); a classmethod stays one."""
    owner = importlib.import_module(f"lrfpp.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    if isinstance(raw, classmethod):
        setattr(owner, name, classmethod(make(raw.__func__)))
    else:
        setattr(owner, name, make(raw))


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack: List[int] = []
        #: Index of the first span recorded by cli.run; earlier spans are set-up.
        self.run_start = 0

    def wrapper(self, name: str, work: Optional[Callable]) -> Callable[[Callable], Callable]:
        nid = len(self.names)
        self.names.append(name)
        stack, perf = self._stack, time.perf_counter

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(self.name)
                self.name.append(nid)
                self.parent.append(stack[-1] if stack else -1)
                self.work.append(0.0)
                self.end.append(0.0)
                stack.append(idx)
                self.start.append(perf())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.end[idx] = perf()
                    stack.pop()
                if work is not None:
                    self.work[idx] = work(args, out)
                return out

            return traced

        return make

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name),
                            parent=np.asarray(self.parent), start=np.asarray(self.start),
                            end=np.asarray(self.end), work=np.asarray(self.work),
                            run_start=self.run_start)


def instrument(tracer: Tracer) -> None:
    for module, attr, work in LAYERS:
        patch(module, attr, tracer.wrapper(f"{module}.{attr}", work))


def capture_summaries() -> Dict[int, tuple]:
    """Keep what stats.estimate_scaled and stats.gumbel_test return, for the checks.

    The result maps each experiment seed to (spec, StatSummary); the cost is
    one extra call per experiment, not per replicate.
    """
    captured: Dict[int, tuple] = {}

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def kept(spec, *args, **kwargs):
            summary = fn(spec, *args, **kwargs)
            captured[spec.root_seed] = (spec, summary)
            return summary

        return kept

    patch("stats", "estimate_scaled", make)
    patch("stats", "gumbel_test", make)
    return captured


def tail_percentile(values: np.ndarray) -> float:
    """The highest percentile with at least ten samples beyond it; the median below 40."""
    n = len(values)
    if n == 0:
        return 0.0
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10:
            return float(np.percentile(values, q))
    return float(np.median(values))


def layer_metrics(tracer: Tracer, facts: Dict[str, list]) -> Dict[str, float]:
    """Per-layer metrics of one traced round; 0 where the layer was not called."""
    name = np.asarray(tracer.name)
    parent = np.asarray(tracer.parent)
    work = np.asarray(tracer.work)
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    child = parent >= 0
    self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    in_run = np.arange(len(dur)) >= tracer.run_start
    ids = {n: i for i, n in enumerate(tracer.names)}

    def sel(span: str, run: bool = True, top: bool = False) -> np.ndarray:
        mask = (name == ids[span]) & (in_run if run else ~in_run)
        return mask & (parent < 0) if top else mask

    def total(span, values=dur, **kw) -> float:
        return float(values[sel(span, **kw)].sum())

    def mean(span, values=dur, **kw) -> float:
        picked = values[sel(span, **kw)]
        return float(picked.mean()) if picked.size else 0.0

    def mean_at_largest(span, values=dur) -> float:
        # Per call on the largest torus of the round, so sizes do not mix.
        mask = sel(span)
        if not mask.any():
            return 0.0
        mask &= work == work[mask].max()
        return float(values[mask].mean())

    def per_item(span, values=dur) -> float:
        items = total(span, work)
        return total(span, values) / items if items else 0.0

    births = total("explore.run_exploration", work)
    replicate = dur[sel("stats.replicate_sample")]
    matrix_n = work[sel("explore.EdgeWeightSample.dense_matrix")]
    useful = facts.get("useful_edges_per_vertex", [])
    largest = max((n for n, _ in useful), default=0)
    useful_largest = [u for n, u in useful if n == largest]
    tables = ("torus.norm_table", "torus.sorted_order")
    return {
        "torus.tables_ms": 1e3 * sum(total(t, run=False, top=True) for t in tables),
        "torus.pair_difference_ns": 1e9 * per_item("torus.pair_difference_index"),
        "weights.total_rate_ms": 1e3 * total("weights.total_rate", run=False, top=True),
        "weights.field_init_us": 1e6 * mean("weights.WeightField.initial"),
        "weights.discover_us": 1e6 * mean("weights.WeightField.discover_index"),
        "weights.rate_bounds_us": 1e6 * mean("weights.rate_bounds"),
        "explore.births": births,
        "explore.birth_us": 1e6 * per_item("explore.run_exploration"),
        "explore.select_us": 1e6 * per_item("explore.run_exploration", self_time),
        "explore.dense_matrix_ms": 1e3 * mean_at_largest("explore.EdgeWeightSample.dense_matrix"),
        "explore.all_pairs_ms": 1e3 * mean_at_largest("explore.distance_matrix", self_time),
        "explore.dense_matrix_mb": float(matrix_n.max()) ** 2 * 8 / 2**20 if matrix_n.size else 0.0,
        "explore.useful_edges_per_vertex": float(np.mean(useful_largest)) if useful_largest else 0.0,
        "rng.generator_us": 1e6 * mean("rng.generator"),
        "rng.generator_calls": float(sel("rng.generator").sum()),
        "rng.pair_uniform_ns": 1e9 * per_item("rng.pair_uniform"),
        "rng.pairs": total("rng.pair_uniform", work),
        "rng.gamma_ns": 1e9 * per_item("rng.gamma_small_shape"),
        "stats.replicates": float(replicate.size),
        "stats.replicate_ms_p50": 1e3 * float(np.median(replicate)) if replicate.size else 0.0,
        "stats.replicate_ms_tail": 1e3 * tail_percentile(replicate),
        "stats.ks_ms": 1e3 * mean("stats.ks_one_sample"),
        "constants.quadrature_ms": 1e3 * mean("constants.limit_constant_quadrature"),
        "constants.quadrature_evals": total("constants.limit_constant_quadrature", work),
        "constants.mc_ms": 1e3 * mean("constants.limit_constant_gamma_mc"),
        "constants.mc_ess_share": mean("constants.limit_constant_gamma_mc", work),
        "cli.parse_ms": 1e3 * total("cli.parse_manifest", run=False),
        "cli.self_ms": 1e3 * total("cli.run", self_time),
    }
