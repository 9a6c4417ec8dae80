"""Peak RSS after each stage of one `asad run` round, in one process.

    PYTHONPATH=src python3 scripts/stage_rss.py --workload ssf-null --seed 71 --out /tmp/ws

The workload config is the benchmark's (`perfbench/workloads.py`) for the
given seed. The stages run in the order `asad run` runs them, on one BLAS
thread unless OPENBLAS_NUM_THREADS says otherwise, and `ru_maxrss` is read
after the imports and after every stage: the first stage whose figure is
the round's peak is the one that binds it. The workspace stays in `--out`
(emptied first), so two checkouts' workspaces can be compared with
`diff -r`. Prints one JSON object with MiB per step and the stage times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    from asad import pipeline

    rss = {"imports": rss_mib()}
    seconds = {}
    cfg = pipeline.config_from_dict(WORKLOADS[args.workload]["config"](args.seed))
    shutil.rmtree(args.out, ignore_errors=True)
    args.out.mkdir(parents=True)
    for name in pipeline.STAGES:
        t0 = time.perf_counter()
        getattr(pipeline, f"stage_{name}")(cfg, args.out)
        seconds[name] = time.perf_counter() - t0
        rss[name] = rss_mib()
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "ru_maxrss_mib": rss, "stage_s": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
