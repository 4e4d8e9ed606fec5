"""Benchmark of `lrfpp simulate`: end-to-end time, set-up and memory per workload.

    python3 bench/run.py --workload {tau-early,flood-full,diameter,constants,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; lrfpp is imported from its `src/`.  A run
repeats whole rounds of the workload's manifest for about S seconds.  Each
round is a fresh process (bench/worker.py) with one BLAS/OpenMP thread and
`jobs` 1: it imports lrfpp, parses the manifest and builds the cached tables
(set-up), times `cli.run` (wall), reads its peak resident memory, and then
checks every experiment's outputs.  One operation is one experiment of the
manifest; it fails if cli.run reports it failed or its output fails a check.

With --trace 0 the run reports setup_s, wall_s and peak_rss_mb, each the
median over its rounds.  With --trace 1 it alternates plain and traced
rounds and reports the per-layer metrics of the traced rounds (medians) and
trace.overhead_s, the traced minus the plain median wall time.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import EXPERIMENTS, WORKLOADS, manifest_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: setup_s is the median of at least this many fresh set-ups per run.
SETUP_SAMPLES = 7
#: A single round that runs longer than this is stopped and the run fails.
ROUND_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "torus.tables_ms": "ms", "torus.pair_difference_ns": "ns",
    "weights.total_rate_ms": "ms", "weights.field_init_us": "us",
    "weights.discover_us": "us", "weights.rate_bounds_us": "us",
    "explore.births": "count", "explore.birth_us": "us", "explore.select_us": "us",
    "explore.dense_matrix_ms": "ms", "explore.all_pairs_ms": "ms",
    "explore.dense_matrix_mb": "MB", "explore.useful_edges_per_vertex": "count",
    "rng.generator_us": "us", "rng.generator_calls": "count",
    "rng.pair_uniform_ns": "ns", "rng.pairs": "count", "rng.gamma_ns": "ns",
    "stats.replicates": "count", "stats.replicate_ms_p50": "ms",
    "stats.replicate_ms_tail": "ms", "stats.ks_ms": "ms",
    "constants.quadrature_ms": "ms", "constants.quadrature_evals": "count",
    "constants.mc_ms": "ms", "constants.mc_ess_share": "share",
    "cli.parse_ms": "ms", "cli.self_ms": "ms", "trace.overhead_s": "s",
}


class RoundFailed(RuntimeError):
    pass


def round_in_fresh_process(mode: str, manifest: Path, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(out_dir / "results", ignore_errors=True)
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, str(manifest), str(out_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{mode} round exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundFailed(f"{mode} round exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    out = OUT / workload
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.json"
    manifest.write_text(manifest_text(workload, seed), encoding="utf-8")
    n_ops = len(EXPERIMENTS[workload])
    modes = ("run", "trace") if trace else ("run",)
    rounds = {mode: [] for mode in modes}
    setups, log = [], []
    attempted = failed = 0
    correct = True
    started = time.perf_counter()
    while True:
        mode = modes[len(log) % len(modes)]
        t0 = time.perf_counter()
        try:
            res = round_in_fresh_process(mode, manifest, out / mode)
        except RoundFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            res = {"ops": [{"label": "round", "ok": False, "reported_failed": True,
                            "checks": [[str(exc), False, ""]]}] * n_ops}
        else:
            rounds[mode].append(res)
            if mode == "run":
                setups.append(res["setup_s"])
        last = time.perf_counter() - t0
        log.append(res)
        attempted += len(res["ops"])
        for op in res["ops"]:
            failed += not op["ok"]
            correct &= op["ok"] or op["reported_failed"]
            for name, ok, detail in op["checks"]:
                if not ok:
                    print(f"check failed: {op['label']}: {name}: {detail}", file=sys.stderr)
        if len(log) >= len(modes) and time.perf_counter() - started + last > seconds:
            break
    if not all(rounds.values()):
        raise SystemExit(f"error: no {workload} round completed")
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(round_in_fresh_process("setup", manifest, out / "setup")["setup_s"])
    (out / "last_run.json").write_text(json.dumps(log, indent=1), encoding="utf-8")

    def median(mode, key, group=None):
        return statistics.median(r[group][key] if group else r[key] for r in rounds[mode])

    if trace:
        values = {name: median("trace", name, "layers") for name in PER_LAYER
                  if name != "trace.overhead_s"}
        values["trace.overhead_s"] = median("trace", "wall_s") - median("run", "wall_s")
        units = PER_LAYER
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": median("run", "wall_s"),
                  "peak_rss_mb": median("run", "peak_rss_mb")}
        units = END_TO_END
    for name, value in values.items():
        print(f"{workload}: {name} = {value:.6g} {units[name]}")
    print(f"{workload}: {attempted} operations attempted, {failed} failed "
          f"({len(log)} rounds, {len(setups)} set-ups)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "lrfpp" / "cli.py").is_file():
        print(f"error: no lrfpp source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: measure(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if args.workload == "all":
        for w, res in results.items():
            print(json.dumps({"workload": w, **res}))
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{name}": m for w, r in results.items()
                              for name, m in r["metrics"].items()}}
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
