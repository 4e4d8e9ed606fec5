"""Manifest parsing, output emission, determinism, and exit codes."""

import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lrfpp import cli, constants, stats
from lrfpp.errors import ConfigError, ManifestError
from lrfpp.stats import ExperimentSpec
from lrfpp.torus import TorusConfig

#: The documented results columns, in file order, for each experiment kind.
COLUMNS = {
    "quantity": ["n", "alpha", "quantity", "scaled_mean", "se", "q05", "q25", "q50", "q75", "q95"],
    "tau": ["n", "alpha", "k", "ks_stat", "ks_pvalue", "mean_centered", "se_centered", "scaled_tau_mean"],
    "constants": [
        "d", "p", "alpha", "method", "value", "error_estimate", "converged", "effective_samples"
    ],
}


def _minimal_manifest(**overrides):
    doc = {
        "seed": 0,
        "format": "csv",
        "jobs": 1,
        "experiments": [
            {
                "kind": "quantity",
                "quantity": "typical",
                "d": 1,
                "m": 4,
                "p": 2,
                "alpha": 0.0,
                "replicates": 10,
            }
        ],
    }
    doc.update(overrides)
    return doc


def test_parse_minimal_manifest():
    man = cli.parse_manifest(json.dumps(_minimal_manifest()))
    assert man.seed == 0
    assert len(man.experiments) == 1
    exp = man.experiments[0]
    assert isinstance(exp, cli.QuantityExperiment)
    assert exp.cfg.n == 4


def test_manifest_defaults_are_the_same_for_every_command():
    doc = {key: _minimal_manifest()[key] for key in ("seed", "experiments")}
    manifests = [cli.parse_manifest(json.dumps(doc)), cli._default_constants_manifest(),
                 cli._tau_manifest(cli._build_parser().parse_args(["tau"]))]
    assert {(man.seed, man.out, man.fmt, man.jobs) for man in manifests} == {(0, "results", "csv", 1)}


def test_command_line_settings_land_in_the_manifest(tmp_path):
    # --seed, --jobs, --format and --out fold into the manifest before
    # anything runs, so main and run on the replaced manifest agree.
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(_minimal_manifest()))
    out1, out2 = tmp_path / "main", tmp_path / "run"
    assert cli.main(["simulate", "--manifest", str(manifest), "--out", str(out1),
                     "--seed", "5", "--jobs", "2", "--format", "json"]) == 0
    man = cli.parse_manifest(manifest.read_text())
    assert cli.run(dataclasses.replace(man, seed=5, jobs=2, fmt="json"), out=str(out2)) == 0
    rows = [json.loads((out / "00_quantity.json").read_text()) for out in (out1, out2)]
    assert rows[0]["rows"] == rows[1]["rows"]
    assert rows[0]["provenance"]["root_seed"] == "5"


def test_default_constants_grid_is_the_documented_one():
    # The grid `lrfpp constants` evaluates without --manifest, equal field by field.
    assert cli._default_constants_manifest().experiments[0] == cli.ConstantsExperiment(
        label="00_constants", dims=(1, 2), ps=(1.0, 2.0, math.inf), alphas=(0.25, 0.5, 1.0, 1.5),
        methods=constants._METHODS, samples=200_000, tolerance=1e-9)


def test_alpha_at_least_d_rejected_with_message():
    doc = _minimal_manifest()
    doc["experiments"][0].update({"d": 2, "m": 4, "alpha": 2})
    with pytest.raises(ManifestError) as err:
        cli.parse_manifest(json.dumps(doc))
    assert "alpha must be < d" in str(err.value)
    assert "experiments[0]" in str(err.value)


def test_zero_replicates_rejected():
    doc = _minimal_manifest()
    doc["experiments"][0]["replicates"] = 0
    with pytest.raises(ManifestError):
        cli.parse_manifest(json.dumps(doc))


def test_schema_diagnostics():
    with pytest.raises(ManifestError):
        cli.parse_manifest("not json")
    with pytest.raises(ManifestError):
        cli.parse_manifest(json.dumps({"experiments": []}))  # missing seed
    with pytest.raises(ManifestError):
        cli.parse_manifest(json.dumps(_minimal_manifest(experiments=[])))
    with pytest.raises(ManifestError):
        cli.parse_manifest(json.dumps(_minimal_manifest(format="xml")))
    doc = _minimal_manifest()
    doc["experiments"][0]["kind"] = "mystery"
    with pytest.raises(ManifestError):
        cli.parse_manifest(json.dumps(doc))
    doc = _minimal_manifest()
    doc["experiments"][0]["p"] = 0.3
    with pytest.raises(ManifestError):
        cli.parse_manifest(json.dumps(doc))


def test_tau_manifest_validation():
    doc = _minimal_manifest()
    doc["experiments"] = [
        {"kind": "tau", "d": 2, "m": 8, "p": 2, "alpha": 0.5, "replicates": 40, "beta": 0.5}
    ]
    man = cli.parse_manifest(json.dumps(doc))
    assert isinstance(man.experiments[0], cli.TauExperiment)
    doc["experiments"][0]["k"] = 5  # both k and beta
    with pytest.raises(ManifestError):
        cli.parse_manifest(json.dumps(doc))
    # k beyond n - 1 is rejected eagerly, before anything runs.
    doc["experiments"][0].pop("beta")
    doc["experiments"][0]["k"] = 64
    with pytest.raises(ManifestError):
        cli.parse_manifest(json.dumps(doc))


def test_validate_subcommand_passes():
    assert cli.main(["validate"]) == 0


def test_constants_manifest_inf_p():
    doc = _minimal_manifest()
    doc["experiments"] = [
        {
            "kind": "constants",
            "d": [1, 2],
            "p": [1, "inf"],
            "alpha": [0.0, 0.5, 1.0],
            "methods": ["quadrature", "closed-p-infinity"],
        }
    ]
    man = cli.parse_manifest(json.dumps(doc))
    exp = man.experiments[0]
    assert math.inf in exp.ps
    cells = [(q.d, q.p, q.alpha, q.method) for q in exp.cells]
    # alpha >= d cells are skipped; closed form only with the max norm.
    assert all(alpha < d for d, _, alpha, _ in cells)
    assert all(p == math.inf for _, p, _, mth in cells if mth == "closed-p-infinity")


def _read_rows(path: Path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines


def test_run_writes_csv_and_is_deterministic(tmp_path):
    doc = _minimal_manifest()
    doc["experiments"].append(
        {
            "kind": "constants",
            "d": [2],
            "p": [1],
            "alpha": [0.5],
            "methods": ["quadrature", "hypergeometric-d2"],
        }
    )
    man = cli.parse_manifest(json.dumps(doc))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli.run(man, out=str(out1)) == 0
    assert cli.run(man, out=str(out2)) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    assert files1 == ["00_quantity.csv", "01_constants.csv"]
    for name in files1:
        rows1 = _read_rows(out1 / name)
        rows2 = _read_rows(out2 / name)
        assert rows1 == rows2  # byte-identical data rows


def test_jobs_leave_values_unchanged(tmp_path):
    doc = _minimal_manifest()
    man = cli.parse_manifest(json.dumps(doc))
    out1 = tmp_path / "seq"
    out2 = tmp_path / "par"
    assert cli.run(dataclasses.replace(man, jobs=1), out=str(out1)) == 0
    assert cli.run(dataclasses.replace(man, jobs=3), out=str(out2)) == 0
    assert _read_rows(out1 / "00_quantity.csv") == _read_rows(out2 / "00_quantity.csv")


def test_exploration_counts_head_the_results(tmp_path):
    # Births and proposals, summed over replicates, go into the provenance of
    # each exploration experiment, whatever the worker count; a constants
    # file has neither.
    doc = _minimal_manifest()
    doc["experiments"] += [
        {"kind": "tau", "d": 2, "m": 4, "alpha": 0.5, "k": 3, "replicates": 30},
        {"kind": "quantity", "quantity": "flooding", "d": 1, "m": 4, "alpha": 0.0,
         "replicates": 4},
        {"kind": "constants", "d": [2], "p": [2], "alpha": [0.5], "methods": ["quadrature"]},
    ]
    man = cli.parse_manifest(json.dumps(doc))
    counts = []
    for jobs in (1, 2):
        assert cli.run(dataclasses.replace(man, jobs=jobs), out=str(tmp_path / str(jobs))) == 0
        heads = [
            dict(line[2:].split("=", 1) for line in path.read_text().splitlines()
                 if line.startswith("# ") and line[2:].startswith(("births", "proposals")))
            for path in sorted((tmp_path / str(jobs)).iterdir())
        ]
        counts.append(heads)
    typical, tau, flooding, consts = counts[0]
    assert counts[0] == counts[1]
    assert (int(tau["births"]), int(flooding["births"])) == (30 * 3, 4 * 3)
    assert 10 <= int(typical["births"]) <= int(typical["proposals"])
    assert int(flooding["proposals"]) >= 12 and consts == {}


def test_seed_override_changes_rows(tmp_path):
    man = cli.parse_manifest(json.dumps(_minimal_manifest()))
    out1 = tmp_path / "s0"
    out2 = tmp_path / "s1"
    assert cli.run(man, out=str(out1)) == 0
    assert cli.run(dataclasses.replace(man, seed=99), out=str(out2)) == 0
    assert _read_rows(out1 / "00_quantity.csv") != _read_rows(out2 / "00_quantity.csv")


def test_csv_rows_round_trip(tmp_path):
    doc = _minimal_manifest()
    man = cli.parse_manifest(json.dumps(doc))
    out = tmp_path / "rt"
    assert cli.run(man, out=str(out)) == 0
    lines = _read_rows(out / "00_quantity.csv")
    header = lines[0].split(",")
    assert header == COLUMNS["quantity"]
    row = lines[1].split(",")
    parsed = dict(zip(header, row))
    # Numeric fields parse back exactly (repr round-trip).
    assert int(parsed["n"]) == 4
    assert float(parsed["alpha"]) == 0.0
    assert parsed["quantity"] == "typical"
    float(parsed["scaled_mean"]), float(parsed["se"])  # must not raise


def test_json_format(tmp_path):
    doc = _minimal_manifest(format="json")
    man = cli.parse_manifest(json.dumps(doc))
    out = tmp_path / "j"
    assert cli.run(man, out=str(out)) == 0
    payload = json.loads((out / "00_quantity.json").read_text())
    assert "provenance" in payload and "rows" in payload
    assert payload["rows"][0]["n"] == 4


def test_main_simulate_requires_manifest(capsys):
    assert cli.main(["simulate"]) == 2


def test_main_invalid_manifest_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_minimal_manifest(seed=-1)))
    assert cli.main(["simulate", "--manifest", str(bad)]) == 2


def test_command_line_overrides_obey_the_manifest_rules(tmp_path, capsys):
    # --seed and --jobs are checked like $.seed and $.jobs: exit 2, no output.
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(_minimal_manifest()))
    out = tmp_path / "out"
    for flags in (["--seed", "-1"], ["--seed", str(2**64)], ["--jobs", "0"]):
        assert cli.main(["simulate", "--manifest", str(manifest), "--out", str(out), *flags]) == 2
        assert f"error: {flags[0]}: " in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["validate", "--seed", "-1"]) == 2
    assert "error: --seed: " in capsys.readouterr().err


def test_import_leaves_scipy_stats_out():
    # Importing scipy.stats costs more than the whole set-up of a run.
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = "import sys, lrfpp, lrfpp.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_main_simulate_and_constants(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(_minimal_manifest()))
    out = tmp_path / "runout"
    assert cli.main(["simulate", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert (out / "00_quantity.csv").exists()

    cdoc = {
        "seed": 1,
        "experiments": [
            {
                "kind": "constants",
                "d": [2],
                "p": [1, "inf"],
                "alpha": [0.5],
                "methods": ["quadrature", "closed-p-infinity", "hypergeometric-d2"],
            }
        ],
    }
    cmanifest = tmp_path / "c.json"
    cmanifest.write_text(json.dumps(cdoc))
    cout = tmp_path / "cout"
    assert cli.main(["constants", "--manifest", str(cmanifest), "--out", str(cout)]) == 0
    lines = _read_rows(cout / "00_constants.csv")
    assert lines[0].split(",") == COLUMNS["constants"]
    assert len(lines) > 1


def test_main_tau_flags(tmp_path):
    out = tmp_path / "tau"
    code = cli.main(
        ["tau", "--d", "2", "--m", "8", "--alpha", "0.5", "--k", "8",
         "--replicates", "60", "--out", str(out), "--seed", "4"]
    )
    assert code == 0
    lines = _read_rows(out / "00_tau.csv")
    assert lines[0].split(",") == COLUMNS["tau"]


def test_tau_flags_are_refused_with_a_manifest(tmp_path, capsys):
    # The tau flags build the experiment run without a manifest; with one,
    # they would be ignored.
    args = cli._build_parser().parse_args(["tau"])
    exp = cli._tau_manifest(args).experiments[0]
    assert (exp.cfg, exp.replicates, exp.k, exp.beta) == (TorusConfig(2, 64, 2.0, 0.0), 2000,
                                                          None, 0.5)
    exp = cli._tau_manifest(cli._build_parser().parse_args(["tau", "--k", "8"])).experiments[0]
    assert (exp.k, exp.beta) == (8, None)
    doc = {"seed": 1, "experiments": [{"kind": "tau", "d": 2, "m": 4, "alpha": 0.5, "k": 3,
                                       "replicates": 30}]}
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for flag, value in [("--d", "1"), ("--m", "8"), ("--p", "inf"), ("--alpha", "0"),
                        ("--beta", "0.5"), ("--k", "5"), ("--replicates", "40")]:
        assert cli.main(["tau", "--manifest", str(manifest), "--out", str(out), flag, value]) == 2
        assert flag in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["tau", "--manifest", str(manifest), "--out", str(out)]) == 0


def test_unreadable_manifest_exit_4(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--manifest", str(tmp_path / "missing.json")])
    assert exc.value.code == 4


def test_io_failure_exit_4(tmp_path):
    man = cli.parse_manifest(json.dumps(_minimal_manifest()))
    blocker = tmp_path / "blocked"
    blocker.write_text("occupied")
    # Output "directory" is a file: directory creation fails with an OSError.
    assert cli.run(man, out=str(blocker)) == 4


def test_failed_write_leaves_no_results_file(tmp_path, monkeypatch):
    man = cli.parse_manifest(json.dumps(_minimal_manifest()))
    real_write = Path.write_text

    def write_half_then_fail(self, text, *args, **kwargs):
        real_write(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    assert cli.run(man, out=str(tmp_path)) == 4
    assert list(tmp_path.iterdir()) == []


def _constants_experiment(**fields):
    doc = {"kind": "constants", "d": [1, 2], "p": [1, 2], "alpha": [0.5],
           "methods": ["quadrature", "gamma-max-mc"], "samples": 10_000}
    doc.update(fields)
    return cli.parse_manifest(json.dumps({"seed": 3, "experiments": [doc]})).experiments[0]


def test_constants_rows_seed_each_mc_cell_and_report_diagnostics():
    # A Monte Carlo cell is seeded by the ordinal of its (d, p) in the d x p
    # grid, so both alphas at d = 2 share one draw.  alpha = 1.5 >= d = 1
    # skips four cells.
    exp = _constants_experiment(alpha=[0.5, 1.5])
    rows, details = cli._constants_rows(exp, 77, jobs=1)
    assert len(rows) == 12 and details == {"skipped_cells": 4}
    pairs = [(1, 1.0), (1, 2.0), (2, 1.0), (2, 2.0)]
    alphas = {}
    for row in rows:
        assert set(row) == set(COLUMNS["constants"])
        if row["method"] == "quadrature":
            assert row["converged"] is True and row["effective_samples"] is None
            continue
        pair = pairs.index((row["d"], float(row["p"])))
        alphas.setdefault(pair, []).append(row["alpha"])
        mc = constants.limit_constant_gamma_mc(
            row["d"], float(row["p"]), row["alpha"], exp.samples, cli._experiment_seed(77, pair),
        )
        assert row["converged"] is None
        assert (row["value"], row["error_estimate"], row["effective_samples"]) == (
            mc.value, mc.error, mc.effective_samples)
    assert alphas == {0: [0.5], 1: [0.5], 2: [0.5, 1.5], 3: [0.5, 1.5]}


def test_constants_files_report_the_cells_a_grid_skips(tmp_path):
    # alpha >= d and closed forms off their (d, p) are skipped, counted and
    # written next to the exploration counts.
    doc = {"seed": 1, "experiments": [
        {"kind": "constants", "label": "c", "d": [1, 2], "p": [2, "inf"], "alpha": [0.5, 1.5],
         "methods": ["quadrature", "closed-p-infinity"]},
    ]}
    man = cli.parse_manifest(json.dumps(doc))
    assert (len(man.experiments[0].cells), man.experiments[0].skipped) == (9, 7)
    assert cli.run(man, out=str(tmp_path)) == 0
    assert "# skipped_cells=7" in (tmp_path / "c.csv").read_text().splitlines()


def test_the_benchmark_constants_grid_skips_136_of_240_cells():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    (exp,) = cli.parse_manifest(workloads.manifest_text("constants", 1)).experiments
    assert (len(exp.cells), exp.skipped) == (104, 136)


def test_monte_carlo_samples_above_the_cap_fail_before_any_file(tmp_path, capsys):
    # The cap is checked when the experiment is built; nothing is drawn.
    doc = {"seed": 1, "experiments": [
        {"kind": "quantity", "quantity": "flooding", "d": 1, "m": 4, "alpha": 0.0,
         "replicates": 5},
        {"kind": "constants", "d": [2], "p": [2], "alpha": [0.5], "methods": ["gamma-max-mc"],
         "samples": constants.MC_MAX_SAMPLES + 1},
    ]}
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert "experiments[1]" in capsys.readouterr().err
    assert not out.exists()
    doc["experiments"][1]["samples"] = constants.MC_MIN_SAMPLES - 1
    with pytest.raises(ManifestError, match="samples must lie in"):
        cli.parse_manifest(json.dumps(doc))


def test_monte_carlo_draws_above_the_cap_fail_before_any_file(tmp_path, capsys):
    # An estimate draws d * samples / 2 log-Gamma variates, so d * samples is
    # capped too: d = 100,000 at 10**7 samples would need over 10 TB.  A
    # grid's other cells are not held to it.
    cap = 4 * constants.MC_MAX_SAMPLES
    doc = {"seed": 1, "experiments": [
        {"kind": "quantity", "quantity": "flooding", "d": 1, "m": 4, "alpha": 0.0,
         "replicates": 5},
        {"kind": "constants", "d": [2, 100_000], "p": [2], "alpha": [0.5],
         "methods": ["gamma-max-mc"], "samples": constants.MC_MAX_SAMPLES},
    ]}
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "experiments[1]" in err and f"d * samples must be <= {cap}" in err
    assert not out.exists()
    doc["experiments"][1].update({"d": [4], "samples": cap // 4})
    cli.parse_manifest(json.dumps(doc))
    doc["experiments"][1].update({"d": [5, 6], "p": ["inf"], "methods": ["closed-p-infinity"],
                                  "samples": constants.MC_MAX_SAMPLES})
    cli.parse_manifest(json.dumps(doc))
    with pytest.raises(ConfigError, match="d \\* samples must be <="):
        constants.limit_constant_gamma_mc(5, 2.0, 0.5, cap // 4)


def test_replicates_above_the_cap_fail_before_any_run():
    # Replicate indices are built before the first run, about 80 bytes each,
    # so a count past 10**7 is a manifest error; nothing that large is run.
    doc = _minimal_manifest()
    for replicates, ok in ((10**12, False), (10**7 + 1, False), (10**7, True)):
        doc["experiments"][0]["replicates"] = replicates
        if ok:
            assert cli.parse_manifest(json.dumps(doc)).experiments[0].replicates == replicates
        else:
            with pytest.raises(ManifestError, match="replicates must lie in"):
                cli.parse_manifest(json.dumps(doc))


def test_constants_warns_on_unconverged_quadrature(tmp_path, capsys):
    # At tolerance 1e-13 this cell, with alpha close to d, spends the
    # quadrature's evaluation budget with an error estimate near 3.9e-13.
    cdoc = {"seed": 1, "experiments": [{"kind": "constants", "d": [4], "p": [1.5],
                                        "alpha": [3.5], "methods": ["quadrature"],
                                        "tolerance": 1e-13}]}
    cmanifest = tmp_path / "c.json"
    cmanifest.write_text(json.dumps(cdoc))
    cout = tmp_path / "cout"
    assert cli.main(["constants", "--manifest", str(cmanifest), "--out", str(cout)]) == 0
    err = capsys.readouterr().err
    assert "warning:" in err and "d=4, p=1.5, alpha=3.5" in err
    header, row = _read_rows(cout / "00_constants.csv")
    assert dict(zip(header.split(","), row.split(",")))["converged"] == "False"


def test_size_limits_fail_at_parse_time_before_any_file(tmp_path):
    # The first experiment is small; the second exceeds the thinning
    # sampler's (2m)**d cap, so nothing may run and no file may appear.
    doc = _minimal_manifest(seed=1)
    doc["experiments"][0].update({"d": 1, "m": 8})
    doc["experiments"].append(
        {"kind": "quantity", "quantity": "flooding", "d": 2, "m": 20000, "alpha": 0.5,
         "replicates": 1}
    )
    with pytest.raises(ManifestError) as err:
        cli.parse_manifest(json.dumps(doc))
    assert "experiments[1]" in str(err.value)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert not out.exists()
    # The all-pairs cap of a diameter experiment is checked the same way.
    doc["experiments"][1].update({"quantity": "diameter", "m": 64})
    with pytest.raises(ManifestError, match="diameter requires n <= "):
        cli.parse_manifest(json.dumps(doc))


@pytest.mark.parametrize("kind, field", [
    ("$", "sede"),
    ("flooding", "replicate"),
    ("flooding", "sourse"),
    ("flooding", "k"),
    ("tau", "quantity"),
    ("constants", "m"),
    ("constants", "source"),
])
def test_fields_nothing_reads_are_rejected_before_any_file(tmp_path, kind, field):
    # A misspelt field, or one its experiment's kind does not read, is an
    # error at its own path, not a silent default.
    exps = {
        "flooding": {"kind": "quantity", "quantity": "flooding", "d": 1, "m": 4, "alpha": 0.0,
                     "replicates": 5},
        "tau": {"kind": "tau", "d": 2, "m": 4, "alpha": 0.5, "k": 3, "replicates": 30},
        "constants": {"kind": "constants", "d": [2], "p": [2], "alpha": [0.5]},
    }
    doc = {"seed": 1, "experiments": [exps.get(kind, exps["flooding"])]}
    (doc if kind == "$" else doc["experiments"][0])[field] = 500
    with pytest.raises(ManifestError) as err:
        cli.parse_manifest(json.dumps(doc))
    assert err.value.location == ("$" if kind == "$" else "experiments[0]") + f".{field}"
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("out", [5, None, "", ["results"], "a\u0000b", "a\ud800b"],
                         ids=["int", "null", "empty", "list", "nul-byte", "lone-surrogate"])
def test_out_must_be_a_directory_name(tmp_path, monkeypatch, out):
    # $.out names the results directory; anything else fails at parse time,
    # not as a traceback once the run starts.
    doc = _minimal_manifest(out=out)
    with pytest.raises(ManifestError) as err:
        cli.parse_manifest(json.dumps(doc))
    assert err.value.location == "$.out"
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text(json.dumps(doc))
    assert cli.main(["simulate", "--manifest", "m.json"]) == 2
    assert os.listdir(tmp_path) == ["m.json"]


def test_out_flag_obeys_the_manifest_rule(tmp_path, monkeypatch, capsys):
    # --out "" would put the results in the working directory; like "out": ""
    # in a manifest, it exits 2 and writes nothing.
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text(json.dumps(_minimal_manifest()))
    assert cli.main(["simulate", "--manifest", "m.json", "--out", ""]) == 2
    assert "--out: expected a printable directory name" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["m.json"]


def test_diameter_rejects_a_source():
    # A diameter is a maximum over all pairs, so it has no source to draw.
    doc = _minimal_manifest()
    doc["experiments"][0].update({"quantity": "diameter", "source": "uniform"})
    with pytest.raises(ManifestError, match="source must be 'origin'") as err:
        cli.parse_manifest(json.dumps(doc))
    assert err.value.location == "experiments[0]"
    doc["experiments"][0]["source"] = "origin"
    assert cli.parse_manifest(json.dumps(doc)).experiments[0].quantity == "diameter"
    with pytest.raises(ConfigError):
        ExperimentSpec(cfg=TorusConfig(1, 4, 2.0, 0.0), quantity="diameter", replicates=1,
                       root_seed=0, source="uniform")


def test_constants_grid_without_a_valid_cell_is_rejected(tmp_path):
    bad = {"kind": "constants", "d": [1], "p": ["inf"], "alpha": [0.5],
           "methods": ["hypergeometric-d2", "gamma-max-mc"]}
    with pytest.raises(ManifestError, match="no .* cell of the grid applies"):
        cli.parse_manifest(json.dumps({"seed": 1, "experiments": [bad]}))
    manifest = tmp_path / "c.json"
    manifest.write_text(json.dumps({"seed": 1, "experiments": [bad]}))
    out = tmp_path / "cout"
    assert cli.main(["constants", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert not out.exists()
    # An out-of-range value is an error, not a cell to skip.
    for field, value in (("alpha", [-0.5, 0.5]), ("p", [0.5, 2]), ("methods", ["simpson"])):
        doc = {**bad, "p": [2], "methods": ["quadrature"], field: value}
        with pytest.raises(ManifestError):
            cli.parse_manifest(json.dumps({"seed": 1, "experiments": [doc]}))


def test_tau_below_the_ks_floor_is_rejected_before_any_file(tmp_path, capsys):
    # Its KS test needs stats._KS_MIN_SAMPLES samples; the check must come
    # before the flooding experiment ahead of it writes its file.
    floor = stats._KS_MIN_SAMPLES
    doc = {"seed": 1, "experiments": [
        {"kind": "quantity", "quantity": "flooding", "d": 1, "m": 4, "alpha": 0.0,
         "replicates": 5, "label": "first"},
        {"kind": "tau", "d": 2, "m": 4, "alpha": 0.5, "k": 3, "replicates": floor - 1},
    ]}
    with pytest.raises(ManifestError, match=f"replicates >= {floor}") as err:
        cli.parse_manifest(json.dumps(doc))
    assert err.value.location == "experiments[1]"
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert not out.exists()
    args = ["tau", "--m", "4", "--k", "3", "--replicates", str(floor - 1), "--out", str(out)]
    assert cli.main(args) == 2
    assert f"replicates >= {floor}" in capsys.readouterr().err
    assert not out.exists()


def test_constants_grid_with_a_repeated_value_is_rejected():
    # Repeats are found after conversion: 2 and 2.0, "inf" and "Infinity".
    grid = {"kind": "constants", "d": [2], "p": [2], "alpha": [0.5], "methods": ["quadrature"]}
    for field, value in (("d", [2, 2]), ("p", ["inf", "Infinity"]), ("alpha", [1, 1.0]),
                         ("methods", ["quadrature", "closed-p-infinity", "quadrature"])):
        doc = {"seed": 1, "experiments": [{**grid, field: value}]}
        with pytest.raises(ManifestError, match=f"{field} lists a value twice") as err:
            cli.parse_manifest(json.dumps(doc))
        assert err.value.location == "experiments[0]"


def test_labels_are_unique_file_names(tmp_path):
    # A label names its results file: one non-empty printable path component,
    # used by one experiment only, checked before anything runs.  A line break
    # would split the CSV header, and <label>.json.tmp must fit in 255 bytes.
    exp = _minimal_manifest()["experiments"][0]
    bad = [
        ([{**exp, "label": "x"}, {**exp, "label": "x"}], 1),
        ([{**exp, "label": "01_quantity"}, exp], 1),
        ([{**exp, "label": "sub/dir/x"}], 0),
        ([{**exp, "label": "..\\x"}], 0),
        ([{**exp, "label": ".."}], 0),
        ([{**exp, "label": ""}], 0),
        ([{**exp, "label": 7}], 0),
        ([{**exp, "label": "a\nb"}], 0),
        ([{**exp, "label": "a\u0000b"}], 0),
        ([{**exp, "label": "x" * 300}], 0),
        ([{**exp, "label": "\u00e9" * 130}], 0),
        ([{**exp, "label": "x" * 247}], 0),
    ]
    for experiments, idx in bad:
        with pytest.raises(ManifestError) as err:
            cli.parse_manifest(json.dumps(_minimal_manifest(experiments=experiments)))
        assert err.value.location == f"experiments[{idx}].label", experiments
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(_minimal_manifest(experiments=bad[0][0])))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert not out.exists()
    ok = [{**exp, "label": "a"}, {**exp, "label": "a.b"}, exp, {**exp, "label": "x" * 246}]
    parsed = cli.parse_manifest(json.dumps(_minimal_manifest(experiments=ok)))
    labels = [e.label for e in parsed.experiments]
    assert labels == ["a", "a.b", "02_quantity", "x" * 246]


def test_a_key_given_twice_exits_2(tmp_path, capsys):
    # json.loads keeps a repeated key's last value, which would run the
    # second experiment list, or alpha 0.9 after 0.5, without a word.
    exp = json.dumps(_minimal_manifest()["experiments"][0])
    twice = [
        ('{"seed": 0, "experiments": [%s], "experiments": [%s]}'
         % (exp, exp.replace('"alpha": 0.0', '"alpha": 0.5')), "'experiments'"),
        ('{"seed": 0, "experiments": [%s]}'
         % exp.replace('"alpha": 0.0', '"alpha": 0.5, "alpha": 0.9'), "'alpha'"),
    ]
    out = tmp_path / "out"
    for text, key in twice:
        manifest = tmp_path / "m.json"
        manifest.write_text(text)
        assert cli.main(["simulate", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert f"error: {key}: key given twice" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("data", [b'\xff\xfe{"seed":1}', b"[" * 200_000,
                                  b'{"seed": ' + b"1" * 5000 + b"}"],
                         ids=["not-utf8", "nested-too-deep", "integer-too-long"])
def test_manifest_that_cannot_be_decoded_exits_2(tmp_path, monkeypatch, capsys, data):
    # read_text and json.loads raise UnicodeDecodeError, RecursionError and
    # ValueError here; each is a manifest error, before any directory is made.
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_bytes(data)
    assert cli.main(["simulate", "--manifest", "m.json"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert os.listdir(tmp_path) == ["m.json"]


def test_invalid_json_is_located_by_line():
    with pytest.raises(ManifestError) as err:
        cli.parse_manifest('{\n  "seed": 1,\n  "out": ,\n}')
    assert err.value.location == "line 3"


def test_subcommand_that_selects_nothing_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(_minimal_manifest()))
    out = tmp_path / "out"
    for command in ("constants", "tau"):
        assert cli.main([command, "--manifest", str(manifest), "--out", str(out)]) == 2
        assert f"no {command} experiment" in capsys.readouterr().err
    assert not out.exists()
