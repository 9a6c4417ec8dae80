"""Peak RSS, time and workspace bytes after each stage of one `asad run` round.

    PYTHONPATH=src python3 scripts/stage_rss.py --workload ssf-null --seed 71 --out /tmp/ws
    PYTHONPATH=src python3 scripts/stage_rss.py --config configs/paper-scale.json \\
        --out /tmp/ws --per-process

The config is the benchmark's workload (`perfbench/workloads.py`) for the
given seed, or an `asad run` config file (`--config`). The stages run in
the order `asad run` runs them, on one BLAS thread unless
OPENBLAS_NUM_THREADS says otherwise.

By default they run in this process, and `ru_maxrss` is read after the
imports and after every stage: the first stage whose figure is the
round's peak is the one that binds it. With `--per-process` each stage
runs in a fresh process instead, which reports its own `ru_maxrss` (its
imports included) and its stage time, so every stage's figure is its own
peak. Either way the bytes under `--out` are summed after every stage.
The workspace stays in `--out` (emptied first), so two checkouts'
workspaces can be compared with `diff -r`. Prints one JSON object with
MiB per step, the stage times and the workspace bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

# a fresh process that runs one stage: python -c CHILD HERE STAGE ARGV...
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import stage_rss; "
         "stage_rss.one_stage(sys.argv[2], sys.argv[3:])")


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload")
    source.add_argument("--config", type=Path, help="an asad run config file")
    ap.add_argument("--seed", type=int, help="the workload's seed")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--per-process", action="store_true", help="each stage in a fresh process")
    args = ap.parse_args(argv)
    if (args.workload is None) != (args.seed is None):
        ap.error("--workload and --seed go together")
    return args


def load_cfg(args: argparse.Namespace):
    from asad import pipeline

    if args.config:
        return pipeline.load_config(args.config)
    from workloads import WORKLOADS

    return pipeline.config_from_dict(WORKLOADS[args.workload]["config"](args.seed))


def one_stage(name: str, argv: list[str]) -> None:
    """Run one stage on the workspace; print its ru_maxrss and seconds."""
    args = parse(argv)
    from asad import pipeline

    cfg = load_cfg(args)
    t0 = time.perf_counter()
    getattr(pipeline, f"stage_{name}")(cfg, args.out)
    print(json.dumps({"ru_maxrss_mib": rss_mib(), "seconds": time.perf_counter() - t0}))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse(argv)
    from asad import pipeline

    rss = {"imports": rss_mib()}
    seconds, workspace = {}, {}
    cfg = load_cfg(args)
    shutil.rmtree(args.out, ignore_errors=True)
    args.out.mkdir(parents=True)
    for name in pipeline.STAGES:
        if args.per_process:
            proc = subprocess.run([sys.executable, "-c", CHILD, str(HERE), name, *argv],
                                  stdout=subprocess.PIPE, text=True, check=True)
            fig = json.loads(proc.stdout.strip().splitlines()[-1])
            rss[name], seconds[name] = fig["ru_maxrss_mib"], fig["seconds"]
        else:
            t0 = time.perf_counter()
            getattr(pipeline, f"stage_{name}")(cfg, args.out)
            seconds[name] = time.perf_counter() - t0
            rss[name] = rss_mib()
        workspace[name] = dir_bytes(args.out)
    source = {"config": str(args.config)} if args.config else {
        "workload": args.workload, "seed": args.seed}
    print(json.dumps({**source, "per_process": args.per_process, "ru_maxrss_mib": rss,
                      "stage_s": seconds, "workspace_bytes": workspace}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
