"""Benchmark for `asad run`: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload cnn-1s --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each round is one `asad run` pipeline in
a fresh process (worker.py); rounds repeat until `--seconds` have passed.

--trace 0  End-to-end metrics, medians over the rounds: setup_s (also
           sampled by set-up-only launches), run_s, peak_rss_mb and
           workspace_mb.
--trace 1  Rounds alternate untraced and traced. The per-layer metrics are
           medians over the traced rounds; the tracing overhead (traced
           minus untraced median run_s) and the run facts go to
           perfbench/results/trace-<workload>-seed<n>.json, and the spans
           of the last traced round to spans-<workload>-seed<n>.json.

Every round counts its seven stages and its correctness checks as
operations; a round whose process crashes or passes ROUND_TIMEOUT_S fails
all of them, and the metrics come from the rounds that ran to their end.
The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit code 0 when every operation passed, 1 when one failed, 2 on a usage
error or when the checkout holds no asad sources.
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

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None

SETUP_PROBES = 5  # set-up-only launches per untraced run, besides one per round
ROUND_TIMEOUT_S = 150
N_STAGES = 7  # synth, preprocess, extract, train, eval, baseline, report
# One BLAS thread: on 2 vCPUs a second thread left cnn-1s wall time as it
# was and raised its CPU time 1.7-fold, and it makes the run time depend on
# what else the machine runs.
BLAS_THREADS = "1"


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _launch(args: list[str], env: dict) -> dict:
    """Run worker.py; its result, or {"error": ...} when it crashed, ran
    past ROUND_TIMEOUT_S or printed no result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--launched", repr(time.time()), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"worker ran past {ROUND_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"worker exited with code {proc.returncode}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "worker printed no result"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "asad" / "pipeline.py").is_file() or BENCHMARK is None:
        print(f"error: {ROOT} holds no asad sources (src/asad) or no BENCHMARK.json", file=sys.stderr)
        return 2

    work = HERE / "work" / f"{args.workload}-seed{args.seed}"
    results = HERE / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(WORKLOADS[args.workload]["config"](args.seed), indent=2))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    common = ["--config", str(config), "--out", str(work / "ws"),
              "--workload", args.workload, "--seed", str(args.seed)]
    spans_file = results / f"spans-{args.workload}-seed{args.seed}.json"

    names = WORKLOADS[args.workload]["checks"]
    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        r = _launch([*common, "--setup-only"], env)
        if "error" in r:
            print(f"set-up probe FAILED: {r['error']}")
        else:
            setups.append(r["setup_s"])

    rounds: list[dict] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds or (
            args.trace and len(rounds) < 2):
        traced = bool(args.trace) and len(rounds) % 2 == 1
        shutil.rmtree(work / "ws", ignore_errors=True)
        r = _launch([*common, *(["--trace", str(spans_file)] if traced else [])], env)
        if "error" in r:  # a crashed round fails all its stages and checks
            r.update(stages_failed=N_STAGES, stage_error=r["error"],
                     checks={name: "not run: the round crashed" for name in names})
        r["traced"] = traced
        rounds.append(r)
        bad = [f"{k}: {v}" for k, v in r["checks"].items() if v] + ([r["stage_error"]] if r["stage_error"] else [])
        head = ("crashed" if "error" in r else
                f"setup {r['setup_s']:.3f} s, run {r['run_s']:.3f} s, rss {r['peak_rss_mb']:.1f} MiB, "
                f"workspace {r['workspace_mb']:.2f} MiB")
        print(f"round {len(rounds)}{' traced' if traced else ''}: {head}"
              + "".join(f"\n  FAILED {b}" for b in bad))
    shutil.rmtree(work, ignore_errors=True)

    attempted = sum(N_STAGES + len(r["checks"]) for r in rounds)
    failed = sum(r["stages_failed"] + sum(1 for v in r["checks"].values() if v) for r in rounds)
    whole = [r for r in rounds if "error" not in r]
    plain = [r for r in whole if not r["traced"]]
    traced_rounds = [r for r in whole if r["traced"]]
    if whole:
        print("machine: " + ", ".join(f"{k}={v}" for k, v in whole[0]["machine"].items()))

    metrics = {}
    if args.trace and plain and traced_rounds:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced_rounds),
                          "unit": unit} for name, unit in _units("per_layer").items()}
        run_plain = statistics.median(r["run_s"] for r in plain)
        run_traced = statistics.median(r["run_s"] for r in traced_rounds)
        report = {
            "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
            "untraced_run_s": run_plain, "traced_run_s": run_traced,
            "tracing_overhead_s": run_traced - run_plain,
            "tracing_overhead_share": (run_traced - run_plain) / run_plain,
            "facts": traced_rounds[-1]["facts"], "machine": whole[0]["machine"],
            "metrics": {k: v["value"] for k, v in metrics.items()},
        }
        (results / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(report, indent=2))
        print(f"tracing overhead: {run_traced - run_plain:+.3f} s on untraced run_s {run_plain:.3f} s "
              f"({report['tracing_overhead_share']:+.1%}); facts: {json.dumps(report['facts'])}")
    elif not args.trace and plain:
        setups += [r["setup_s"] for r in plain]
        metrics = {name: {"value": statistics.median(setups if name == "setup_s" else [r[name] for r in plain]),
                          "unit": unit} for name, unit in _units("end_to_end").items()}

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
