"""Manifest parsing, output emission, determinism, and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lrfpp import cli, constants
from lrfpp.errors import ManifestError

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
    assert cli.run(man, out=str(out1), jobs=1) == 0
    assert cli.run(man, out=str(out2), jobs=3) == 0
    assert _read_rows(out1 / "00_quantity.csv") == _read_rows(out2 / "00_quantity.csv")


def test_seed_override_changes_rows(tmp_path):
    man = cli.parse_manifest(json.dumps(_minimal_manifest()))
    out1 = tmp_path / "s0"
    out2 = tmp_path / "s1"
    assert cli.run(man, out=str(out1)) == 0
    assert cli.run(man, out=str(out2), seed=99) == 0
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
    exp = _constants_experiment()
    rows = cli._constants_rows(exp, 77, jobs=1)
    assert len(rows) == 8
    for cell, row in enumerate(rows):
        assert set(row) == set(COLUMNS["constants"])
        if row["method"] == "quadrature":
            assert row["converged"] is True and row["effective_samples"] is None
        else:
            mc = constants.limit_constant_gamma_mc(
                row["d"], float(row["p"]), row["alpha"], exp.samples,
                cli._experiment_seed(77, cell),
            )
            assert row["converged"] is None
            assert (row["value"], row["error_estimate"]) == (mc.value, mc.std_error)
            assert row["effective_samples"] == mc.effective_samples


def test_constants_warns_on_unconverged_quadrature(tmp_path, capsys):
    # At tolerance 1e-12 this cell, with alpha close to d, needs more than the
    # quadrature's evaluation budget.
    cdoc = {"seed": 1, "experiments": [{"kind": "constants", "d": [4], "p": [1.5],
                                        "alpha": [3.5], "methods": ["quadrature"],
                                        "tolerance": 1e-12}]}
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
