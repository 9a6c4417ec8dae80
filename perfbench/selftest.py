"""Self-test of the correctness checks: each must catch a planted fault.

    python3 perfbench/selftest.py [--workload W ...] [--seed 1]

For each workload (by default cnn-1s and linear-sweep, which between them
run every check that a fault below targets), runs its pipeline once into
perfbench/work/selftest, checks that every check passes on it, then
corrupts throwaway copies of the workspace, one fault each, and requires
the matching check to fail:

    one cached map cell        -> cached_maps
    one decoder weight         -> ridge_normal_equations
    one test label             -> cnn_accuracy_consistent

A fault whose check the workload does not run is skipped. Exit code 0
when every clean workspace passes and every fault is caught.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from asad.pipeline import config_from_dict, run_experiment  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def corrupt_map(ws: Path, cfg, seed: int) -> None:
    """Scale the centre cell of the first map the check samples by 1.01."""
    prefix = ws / "features" / f"w{cfg.window_sizes_s[0]:g}" / "train"
    hdr = json.loads(Path(str(prefix) + ".json").read_text())
    i = checks.map_sample(np.random.default_rng(seed), len(hdr["labels"]))[0]
    maps = np.fromfile(str(prefix) + ".f32", dtype="<f4").reshape(len(hdr["labels"]), hdr["S"], hdr["grid_n"], hdr["grid_n"])
    maps[i, 0, hdr["grid_n"] // 2, hdr["grid_n"] // 2] *= 1.01
    maps.tofile(str(prefix) + ".f32")


def corrupt_decoder(ws: Path, cfg, seed: int) -> None:
    """Scale the largest weight of the first subject's first decoder by 1.01."""
    prefix = ws / "baseline_eval" / "decoders" / f"S00.w{cfg.window_sizes_s[0]:g}"
    w = np.fromfile(str(prefix) + ".f32", dtype="<f4")
    w[np.argmax(np.abs(w))] *= 1.01
    w.tofile(str(prefix) + ".f32")


def corrupt_label(ws: Path, cfg, seed: int) -> None:
    """Flip the label of the first test window in the test cache header."""
    path = ws / "features" / f"w{cfg.window_sizes_s[0]:g}" / "test.json"
    hdr = json.loads(path.read_text())
    hdr["labels"][0] = "Right" if hdr["labels"][0] == "Left" else "Left"
    path.write_text(json.dumps(hdr))


FAULTS = {
    "cached_maps": corrupt_map,
    "ridge_normal_equations": corrupt_decoder,
    "cnn_accuracy_consistent": corrupt_label,
}


def selftest(name: str, seed: int) -> bool:
    workload = WORKLOADS[name]
    cfg = config_from_dict(workload["config"](seed))
    root = HERE / "work" / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    run_experiment(cfg, root / "ws")

    ok = True
    clean = checks.run_checks(cfg, root / "ws", seed, workload["checks"])
    for check, msg in clean.items():
        print(f"{name} clean  {check}: {'pass' if msg is None else 'FAIL ' + msg}")
        ok &= msg is None
    for check, corrupt in FAULTS.items():
        if check not in clean:
            continue
        copy = root / f"ws-{check}"
        shutil.copytree(root / "ws", copy)
        corrupt(copy, cfg, seed)
        msg = checks.run_checks(cfg, copy, seed, workload["checks"])[check]
        print(f"{name} fault  {check}: {'caught: ' + msg if msg else 'NOT CAUGHT'}")
        ok &= msg is not None
    shutil.rmtree(root, ignore_errors=True)
    return ok


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    names = args.workload or ["cnn-1s", "linear-sweep"]
    ok = all([selftest(name, args.seed) for name in names])
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
