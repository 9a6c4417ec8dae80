"""Compare two checkouts on the benchmark workloads, in alternating pairs.

    python3 scripts/bench_pairs.py --parent ../base --change . --workload ssf-null \
        --seeds 401-410 --seconds 15 [--stages] [--out BENCH.json --label perfbench]

For every seed, `perfbench/run.py --workload W --seed N --seconds S
--trace 0` runs once in each checkout, the parent first on even seeds and
the change first on odd ones, so drift of the machine falls on both sides.
Each end-to-end metric is summarised per side by its median and quartiles
(inclusive method) over the pairs, with the pairs in which the change read
lower and the median change in per cent; failed and attempted operations
are summed per side.

With `--stages`, each seed also runs `scripts/stage_rss.py` against both
checkouts' sources: `ru_maxrss` after every stage of one round, and
whether the two workspaces hold the same files with the same bytes.

With `--kernels ROW[,ROW]` the pairs are kernel rows instead:

    python3 scripts/bench_pairs.py --parent ../base --change . \
        --kernels loss_and_grad_5ch,conv_dw_5ch

Each of `KERNEL_ROUNDS` rounds runs, for every row, one fresh
`bench_kernels.py --only ROW` process (this checkout's script) with
PYTHONPATH at each side's source, the parent first on even rounds and the
change first on odd ones, so neither a row's figure nor the order of the
sides depends on what ran before it in the same process. Each row's
per-process medians are summarised per side as above, with the rounds in
which the change read lower, and its tracemalloc peaks.

Prints one JSON object; with `--out FILE --label NAME` it is also stored
under NAME/W (NAME/kernels with `--kernels`) in FILE, next to what FILE
already holds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")
KERNEL_ROUNDS = 10  # pairs per kernel row


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    return last_json(proc.stdout)


def stage_rss(checkout: Path, workload: str, seed: int, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "stage_rss.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return last_json(proc.stdout)


def digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def paired(pairs: list[tuple[float, float]]) -> dict:
    """Each side's summary over (parent, change) pairs, and how often the change read lower."""
    parent, change = (summary([p[i] for p in pairs]) for i in (0, 1))
    return {
        "parent": parent,
        "change": change,
        "change_lower_pairs": sum(c < p for p, c in pairs),
        "ties": sum(c == p for p, c in pairs),
        "pairs": len(pairs),
        "median_change_pct": 100.0 * (change["median"] / parent["median"] - 1.0),
    }


def compare(runs: list[dict]) -> dict:
    names = sorted(runs[0]["parent"]["metrics"])
    metrics = {
        name: paired([(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"])
                      for r in runs])
        for name in names
    }
    operations = {side: {key: sum(r[side][key] for r in runs) for key in ("failed", "attempted")}
                  for side in SIDES}
    return {"metrics": metrics, "operations": operations}


def kernel_row(checkout: Path, row: str) -> dict:
    """One row of a fresh `bench_kernels.py --only ROW` process on the checkout's source."""
    cmd = [sys.executable, str(HERE / "bench_kernels.py"), "--only", row]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)["kernels"][row]


def kernel_pairs(checkouts: dict[str, Path], rows: list[str]) -> dict:
    runs: dict[str, list[dict]] = {row: [] for row in rows}
    for r in range(KERNEL_ROUNDS):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for row in rows:
            runs[row].append({side: kernel_row(checkouts[side], row) for side in order})
            print(f"round {r} {row}: " + ", ".join(
                f"{side} {1e3 * runs[row][-1][side]['seconds']:.3f} ms" for side in SIDES),
                file=sys.stderr)
    result = {}
    for row, pairs in runs.items():
        ms = {side: [1e3 * p[side]["seconds"] for p in pairs] for side in SIDES}
        result[row] = {
            **paired(list(zip(ms["parent"], ms["change"]))),
            "ms_runs": ms,
            "peak_mib": {side: statistics.median(p[side]["peak_mib"] for p in pairs)
                         for side in SIDES},
        }
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--kernels", type=lambda text: text.split(","), metavar="ROW[,ROW]",
                      help="bench_kernels.py rows, one fresh process per row and side")
    ap.add_argument("--seeds", type=seed_list, help="like 401-410 or 5,6,7 (with --workload)")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--stages", action="store_true", help="stage-by-stage ru_maxrss and bytes")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--label")
    args = ap.parse_args(argv)
    if (args.out is None) != (args.label is None):
        ap.error("--out and --label go together")
    if args.workload and args.seeds is None:
        ap.error("--workload needs --seeds")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.kernels:
        result = {
            "command": "PYTHONPATH=<side>/src python3 scripts/bench_kernels.py --only ROW",
            "rounds": KERNEL_ROUNDS,
            "rows": kernel_pairs(checkouts, args.kernels),
        }
        return emit(result, args.out, args.label, "kernels")

    runs, stages = [], []
    for seed in args.seeds:
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        runs.append({side: perfbench(checkouts[side], args.workload, seed, args.seconds)
                     for side in order})
        print(f"seed {seed}: " + ", ".join(
            f"{side} {runs[-1][side]['metrics']['peak_rss_mb']['value']:.1f} MiB" for side in SIDES),
            file=sys.stderr)
        if args.stages:
            with tempfile.TemporaryDirectory() as tmp:
                probes, ws = {}, {}
                for side in order:
                    ws[side] = Path(tmp) / side
                    probes[side] = stage_rss(checkouts[side], args.workload, seed, ws[side])
                same = digests(ws["parent"]) == digests(ws["change"])
            stages.append({"seed": seed, "same_bytes": same,
                           **{key: {side: probes[side][key] for side in SIDES}
                              for key in ("ru_maxrss_mib", "stage_s")}})

    result = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed N "
                   f"--seconds {args.seconds:g} --trace 0",
        "seeds": args.seeds,
        "pairs": len(runs),
        **compare(runs),
    }
    if args.stages:
        result["stages"] = stages
    return emit(result, args.out, args.label, args.workload)


def emit(result: dict, out: Path | None, label: str | None, key: str) -> int:
    """Print the result; with `out`, also store it under label/key in that file."""
    print(json.dumps(result, indent=2))
    if out:
        stored = json.loads(out.read_text()) if out.exists() else {}
        stored.setdefault(label, {})[key] = result
        out.write_text(json.dumps(stored, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
