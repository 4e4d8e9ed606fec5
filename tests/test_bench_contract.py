"""The names the benchmark under bench/ reads from lrfpp must keep existing.

bench/spans.py wraps each LAYERS entry by module attribute, and the checks
read experiments parsed from bench/workloads.py.  A change that renames or
deletes one of these names fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from lrfpp import cli

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
