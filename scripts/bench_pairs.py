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

Prints one JSON object; with `--out FILE --label NAME` it is also stored
under NAME/W in FILE, next to what FILE already holds.
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


def compare(runs: list[dict]) -> dict:
    names = sorted(runs[0]["parent"]["metrics"])
    metrics = {}
    for name in names:
        pairs = [(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"])
                 for r in runs]
        parent, change = (summary([p[i] for p in pairs]) for i in (0, 1))
        metrics[name] = {
            "parent": parent,
            "change": change,
            "change_lower_pairs": sum(c < p for p, c in pairs),
            "ties": sum(c == p for p, c in pairs),
            "pairs": len(pairs),
            "median_change_pct": 100.0 * (change["median"] / parent["median"] - 1.0),
        }
    operations = {side: {key: sum(r[side][key] for r in runs) for key in ("failed", "attempted")}
                  for side in SIDES}
    return {"metrics": metrics, "operations": operations}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help="like 401-410 or 5,6,7")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--stages", action="store_true", help="stage-by-stage ru_maxrss and bytes")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--label")
    args = ap.parse_args(argv)
    if (args.out is None) != (args.label is None):
        ap.error("--out and --label go together")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

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
    print(json.dumps(result, indent=2))
    if args.out:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored.setdefault(args.label, {})[args.workload] = result
        args.out.write_text(json.dumps(stored, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
