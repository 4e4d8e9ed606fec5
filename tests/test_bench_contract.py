"""The names the benchmark under bench/ reads from lrfpp must keep existing.

bench/spans.py wraps each LAYERS entry by module attribute, and the checks
read experiments parsed from bench/workloads.py.  A change that renames or
deletes one of these names fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import pytest

from lrfpp import cli, constants, explore, torus

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in _load("spans").LAYERS])
def test_traced_layer_exists(module, attr):
    owner = importlib.import_module(f"lrfpp.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


_CFG = torus.TorusConfig(2, 4, 2.0, 0.5)
#: A tiny call of each traced layer whose work count reads its result's fields.
_WORK_CALLS = {
    ("explore", "run_exploration"): lambda: explore.run_exploration(
        torus.origin(_CFG), explore.StopRule.count(3), _CFG, 0),
    ("constants", "limit_constant_quadrature"): lambda: constants.limit_constant_quadrature(
        constants.ConstantQuery(2, 2.0, 0.5, "quadrature", 1e-6)),
    ("constants", "limit_constant_gamma_mc"): lambda: constants.limit_constant_gamma_mc(
        2, 2.0, 0.5, constants.MC_MIN_SAMPLES, seed=0),
}


@pytest.mark.parametrize("module,attr", list(_WORK_CALLS))
def test_work_counts_read_fields_that_exist(module, attr):
    # The span's work lambda, applied to a real result: a renamed field
    # raises here, not only in a traced benchmark run.
    work = {(m, a): w for m, a, w in _load("spans").LAYERS}[(module, attr)]
    out = _WORK_CALLS[(module, attr)]()
    count = work((), out)
    assert math.isfinite(count) and count > 0
    if attr == "run_exploration":
        assert out.n_born - 1 == count == 3
    elif attr == "limit_constant_quadrature":
        assert out.evaluations == count
    else:
        assert out.samples == constants.MC_MIN_SAMPLES
        assert 0 < out.effective_samples <= out.samples


def test_other_names_the_bench_calls_exist():
    from lrfpp import explore, stats, torus, weights

    # spans.capture_summaries wraps the first two; worker.py and checks.py call the rest.
    for fn in (stats.estimate_scaled, stats.gumbel_test, torus.norm_table, torus.sorted_order,
               weights.total_rate, weights.nearest_prefix_sums,
               explore.EdgeWeightSample.from_seed, explore.EdgeWeightSample.dense_matrix):
        assert callable(fn)


def test_workload_experiments_expose_what_the_checks_read():
    workloads = _load("workloads")
    kinds = set()
    for workload in workloads.WORKLOADS:
        manifest = cli.parse_manifest(workloads.manifest_text(workload, 1))
        assert manifest.fmt == "csv"
        for exp in manifest.experiments:
            assert isinstance(exp.label, str)
            if isinstance(exp, cli.ConstantsExperiment):
                kinds.add("constants")
                # bench/worker.py builds tables for experiments with a cfg.
                assert not hasattr(exp, "cfg")
                for name in ("dims", "ps", "alphas", "methods", "samples", "tolerance"):
                    getattr(exp, name)
            elif isinstance(exp, cli.TauExperiment):
                kinds.add("tau")
                assert exp.cfg.n > 0 and exp.tau_k() >= 2
            else:
                assert isinstance(exp, cli.QuantityExperiment)
                kinds.add(exp.quantity)
                assert exp.cfg.n > 0 and exp.replicates >= 1
    assert kinds == {"constants", "tau", "typical", "flooding", "diameter"}
    assert callable(cli.run)
    # bench/worker.py and bench/selftest.py call it as run(manifest, out=...).
    inspect.signature(cli.run).bind(manifest, out="x")
