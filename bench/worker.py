"""One round of a workload in a fresh process, so every lru_cache starts cold.

    python3 bench/worker.py {setup|run|trace} MANIFEST OUT_DIR

`setup` imports lrfpp, parses the manifest and builds the cached tables of
every configuration in it; `run` then times `cli.run`, reads the peak
resident memory and checks every experiment's outputs; `trace` does the same
with spans around each layer.  The last line of standard output is a JSON
object with the measurements.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(mode: str, manifest_path: str, out_dir: str) -> int:
    t0 = time.perf_counter()
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path.insert(0, str(src))
    import lrfpp
    from lrfpp import cli, torus, weights

    if not Path(lrfpp.__file__).resolve().is_relative_to(src):
        print(f"error: lrfpp imported from {lrfpp.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    manifest = cli.parse_manifest(Path(manifest_path).read_text(encoding="utf-8"))
    configs = dict.fromkeys(exp.cfg for exp in manifest.experiments if hasattr(exp, "cfg"))
    for cfg in configs:
        torus.norm_table(cfg)
        torus.sorted_order(cfg)
        weights.total_rate(cfg)
        weights.nearest_prefix_sums(cfg)
    setup_s = time.perf_counter() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import spans

    captured = spans.capture_summaries()
    results = Path(out_dir) / "results"
    if tracer is not None:
        tracer.run_start = len(tracer.name)
    t1 = time.perf_counter()
    rc = cli.run(manifest, out=str(results))
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    ops, facts = checks.check_run(manifest, results, captured)
    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "rc": rc, "ops": ops}
    if tracer is not None:
        tracer.write(Path(out_dir) / "spans.npz")
        out["layers"] = spans.layer_metrics(tracer, facts)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("setup", "run", "trace"):
        print(__doc__, file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main(*sys.argv[1:]))
