"""Time the linear baseline's ridge kernels on their own.

    PYTHONPATH=src python3 scripts/bench_ridge.py --repeats 7

Times `accumulate_covariances`, the seven `_solve` calls of the default
lambda grid and one whole-recording `reconstruct` on fixed seeded inputs
of `linear-sweep` shape: 32 channels x 16,800 samples (240 s at 70 Hz),
19 lags, and training weights from 1, 2, 5 and 10 s windows at 50 %
overlap inside 8 trials of 30 s, every fifth window of a trial held out.
Each figure is the median of `--repeats` runs (`time.perf_counter`). The
asad package comes from PYTHONPATH, so pointing it at another checkout
times that code on the same inputs.

Prints one JSON object with the machine facts (nproc, numpy, scipy, BLAS
name and version, OPENBLAS_NUM_THREADS) and a row per window size. With
`--out FILE --label NAME` the object is also stored under NAME in FILE,
next to what FILE already holds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

# one BLAS thread, as in the benchmark, unless the caller sets it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from asad import baseline  # noqa: E402

FS, N_CHANNELS, N_SAMPLES, N_LAGS = 70, 32, 16_800, 19
TRIAL = 30 * FS
WINDOW_SIZES_S = (1, 2, 5, 10)


def inputs(window_s: int, seed: int = 9):
    """EEG, weights m, target y and the window count for one window size."""
    rng = np.random.default_rng(seed)
    eeg = rng.normal(size=(N_CHANNELS, N_SAMPLES))
    env_l, env_r = np.abs(rng.normal(size=(2, N_SAMPLES)))
    length = window_s * FS
    starts, labels = [], []
    for k, t0 in enumerate(range(0, N_SAMPLES, TRIAL)):
        for i, s in enumerate(range(t0, t0 + TRIAL - length + 1, length // 2)):
            if i % 5 != 4:  # every fifth window is held out
                starts.append(s)
                labels.append(baseline.LEFT if k % 2 == 0 else baseline.RIGHT)
    wins = baseline.WindowSet(np.array(starts), length, np.array(labels))
    m, y = baseline.train_weights(wins, env_l, env_r, N_LAGS)
    return eeg, m, y, len(starts)


def median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--label")
    args = ap.parse_args(argv)
    if (args.out is None) != (args.label is None):
        ap.error("--out and --label go together")
    rows = []
    for ws in WINDOW_SIZES_S:
        eeg, m, y, n_windows = inputs(ws)
        r_auto, r_cross = baseline.accumulate_covariances(eeg, m, y, N_LAGS)
        w = baseline._solve(r_auto, r_cross, 1.0)
        dec = baseline.LinearDecoder(w.reshape(N_CHANNELS, N_LAGS), np.arange(N_LAGS), 1.0)
        rows.append({
            "window_s": ws,
            "train_windows": n_windows,
            "distinct_rows": int(np.count_nonzero(m)),
            "weight_steps": int(np.count_nonzero(np.diff(m, prepend=0.0, append=0.0))),
            "covariance_s": median_s(
                lambda: baseline.accumulate_covariances(eeg, m, y, N_LAGS), args.repeats
            ),
            "solve_grid_s": median_s(
                lambda: [baseline._solve(r_auto, r_cross, lam) for lam in baseline.LAMBDA_GRID],
                args.repeats,
            ),
            "reconstruct_s": median_s(lambda: baseline.reconstruct(dec, eeg), args.repeats),
        })
    result = {
        "script": "scripts/bench_ridge.py",
        "repeats": args.repeats,
        "shape": {"channels": N_CHANNELS, "samples": N_SAMPLES, "lags": N_LAGS, "fs": FS},
        "machine": machine(),
        "rows": rows,
        "totals": {
            key: sum(r[key] for r in rows)
            for key in ("covariance_s", "solve_grid_s", "reconstruct_s")
        },
    }
    print(json.dumps(result, indent=2))
    if args.out:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[args.label] = result
        args.out.write_text(json.dumps(stored, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
