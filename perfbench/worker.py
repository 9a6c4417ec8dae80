"""One pipeline round in a fresh process; run.py launches it.

Set-up is timed from the launch (taken by the parent just before it
starts this process) to the first stage call: interpreter start, the
`asad` imports, config parsing and validation, and montage resolution.
Then the seven stages run in the order `asad run` runs them, and the
workspace is checked. The last stdout line is one JSON object.

    python3 perfbench/worker.py --config CFG --out DIR --launched T
        --workload W --seed N [--trace SPANS.json] [--setup-only]
"""

import argparse
import json
import os
import re
import resource
import sys
import time
from pathlib import Path


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", help="write the round's spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from asad import pipeline

    cfg = pipeline.load_config(args.config)
    pipeline.resolve_montage(cfg)
    setup_s = time.time() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = Path(args.out)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracing.install(tracer)

    stage_error = None
    t0 = time.perf_counter()
    try:
        pipeline.run_experiment(cfg, out)
        done = len(pipeline.STAGES)
    except Exception as exc:  # a failed stage fails it and every stage after it
        stage_error = f"{type(exc).__name__}: {exc}"
        # run_experiment names the stage in "stage 'X' failed: ..."; a
        # ConfigError is raised unwrapped and counts as failing all stages
        m = re.match(r"stage '(\w+)' failed", str(exc))
        done = pipeline.STAGES.index(m.group(1)) if m else 0
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "workspace_mb": _dir_bytes(out) / 2**20,
        "stages_failed": len(pipeline.STAGES) - done,
        "stage_error": stage_error,
    }
    if tracer is not None:
        tracer.restore()
        tracer.write(Path(args.trace))
        features = out / "features"
        layers, facts = tracing.layer_metrics(
            tracer.spans, _dir_bytes(features) if features.is_dir() else 0)
        result.update(layers=layers, facts=facts)

    import checks
    from workloads import WORKLOADS

    names = WORKLOADS[args.workload]["checks"]
    if stage_error:
        result["checks"] = {name: "not run: a stage failed" for name in names}
    else:
        result["checks"] = checks.run_checks(cfg, out, args.seed, names)

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    result["machine"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
