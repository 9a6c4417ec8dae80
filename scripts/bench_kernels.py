"""Time the pipeline's hot kernels on their own, with their memory peaks.

    PYTHONPATH=src python3 scripts/bench_kernels.py --repeats 7
    PYTHONPATH=src python3 scripts/bench_kernels.py --paper-scale

Every kernel runs on fixed seeded inputs through a call whose signature is
the same in every version of the package, so pointing PYTHONPATH at
another checkout times that code on the same inputs. Each figure is the
median of `--repeats` calls (`time.perf_counter`), after one warm-up call;
`peak_mib` is the tracemalloc peak of one more call, its output included.

- Ridge kernels, at `linear-sweep` shape (`rows`, `totals`): 32 channels x
  16,800 float32 samples (240 s at 70 Hz, as the baseline stage loads
  them), 19 lags, and training weights from 1, 2, 5 and 10 s windows at
  50 % overlap inside 8 trials of 30 s, every fifth window of a trial held
  out. They time `accumulate_covariances`, the seven `_solve` calls of the
  default lambda grid and one whole-recording `reconstruct`.
- The lambda search (`kernels`): `select_lambda_1s` and `select_lambda_10s`
  run `select_lambda` on one subject of a `linear-sweep` workspace (32
  channels, 240 s, the attended envelope mixed in at gain 1 by the synth
  stage, then the baseline's preprocessing), with the split and training
  weights the baseline stage builds at 1 and 10 s windows. Unlike the
  unmixed ridge rows above, these fits can reach validation accuracy 1.0,
  where the search stops.
- The CNN path (`kernels`): `preprocess_recording` of one 240 s subject
  (64 + 2 reference channels at 128 Hz, float32 as loaded from disk),
  `_zero_phase` and `resample_series` on that subject's 64 float64
  channels, `predict_proba` of 700 windows (1 and 5 input channels,
  float32 and float64 parameters), `extract_ssf` of 256 one-second
  windows (biosemi64, 5 sub-windows) and `partition_maps` of 1,024 laid
  end to end in one recording, its chunks consumed as they come (its
  signature took a list of windows before the WindowSet index table).
- The map kernels (`kernels`): `band_power` of those 256 windows' 1,280
  sub-windows, and `CloughTocher.grid` of their 1,280 unclamped maps and
  of 200 clamped ones.
- The tensor cache (`kernels`): `stage_extract` of a one-subject workspace
  whose train partition holds 1,016 five-sub-window windows (the extract
  and the cache write of every partition), and, on that train cache, a
  64-window random gather through `load_tensor_cache` against a whole
  `np.fromfile` of its payload.

- The split (`kernels`): `build_split` of 1 and of 16 48-min subjects at
  70 Hz (8 trials each, one channel: windows hold no samples), 0.1 s
  windows at 50 % overlap, the ROADMAP's paper scale.
- The trainer (`kernels`), for the default CNN in float32 at batch 64
  with 1 and 5 input channels (`_1ch`, `_5ch`): the conv (the patches,
  the product and the in-place bias add), its gradients (the `dW`
  products and the bias sum), the batch-norm forward (with the ReLU) and
  backward, `_pool` and `_pool_adjoint`, the fc1 products (forward, then
  the weight, bias and input gradients), `rmsprop_step` on every trained
  tensor (the pure step: copies of the parameters and the state, then the
  update), `rmsprop_update` (the in-place update that `train_arrays`
  runs, on the row's own copies; the row is left out for a checkout from
  before it), the whole `loss_and_grad`, and one `train_arrays` epoch on
  1,400 windows (140 validation windows). The conv, batch-norm and fc1
  rows call the layer functions that `forward` and `loss_and_grad` are
  built from (`_conv`, `_conv_grads`, `_bn_relu`, `_bn_backward`,
  `_dense`, `_dense_grads`), so this script cannot time a checkout from
  before those functions, nor one from before the chunked conv, whose
  `_conv` returned the patches and whose `_conv_grads` took them; the
  `conv_dw` row includes building the patches again from the conv's
  input. The batch-norm forward row works in place on its conv buffer, as
  `forward` does; the backward row includes a copy of its input, since it
  works in place.

Rows are built and run group by group: the trainer, the split, the CNN
path, the lambda search, then the tensor cache. A row's figure depends on
the rows run before it in the same process, so `--only ROW[,ROW]` runs
just the named rows, in that order, after building only the groups up to
the last one that holds a named row, and skips the ridge rows. One row
per process:

    PYTHONPATH=src python3 scripts/bench_kernels.py --only rmsprop_update_5ch

`--paper-scale` instead runs three calls once each at the paper's
recording length, 48 min, and reports the time and tracemalloc peak of
each: `preprocess_recording` of one synthetic subject (66 channels at
128 Hz, float32), `_synth_subject` of one subject of the pipeline's
default synth section with envelope mixing on (`envelope_mix_gain` 1), its
recording and envelopes written to a temporary directory, and
`select_lambda` of one subject (64 float32 channels at 70 Hz, as the
baseline stage loads them, 19 lags, the default lambda grid) with training
weights from 1 s windows at 50 % overlap in 8 trials of 6 min, every fifth
window held out for validation.

Prints one JSON object with the machine facts (nproc, numpy, scipy, BLAS
name and version, OPENBLAS_NUM_THREADS) and the figures. With
`--out FILE --label NAME` the object is also stored under NAME in FILE,
next to what FILE already holds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

# one BLAS thread, as in the benchmark, unless the caller sets it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from asad import baseline  # noqa: E402
from asad.data import (  # noqa: E402
    LEFT,
    RIGHT,
    RawRecording,
    SynthConfig,
    Trial,
    WindowSet,
    bundled_montage,
    synth_recording,
)
from asad.features import band_power, extract_ssf, load_tensor_cache  # noqa: E402
from asad.geometry import project_electrodes  # noqa: E402
from asad.interpolate import interpolator  # noqa: E402
from asad.network import (  # noqa: E402
    TRAINED,
    CnnConfig,
    TrainConfig,
    _bn_backward,
    _bn_relu,
    _conv,
    _conv_grads,
    _dense,
    _dense_grads,
    _pool,
    _pool_adjoint,
    forward,
    init_params,
    loss_and_grad,
    predict_proba,
    rmsprop_step,
    train_arrays,
)

try:
    from asad.network import rmsprop_update  # noqa: E402
except ImportError:  # a checkout from before the in-place update
    rmsprop_update = None
from asad.data import load_recording  # noqa: E402
from asad.pipeline import (  # noqa: E402
    FeatureSection,
    _n_lags,
    _synth_subject,
    build_split,
    config_from_dict,
    partition_maps,
    stage_extract,
    stage_preprocess,
    stage_synth,
)
from asad.preprocess import (  # noqa: E402
    PreprocConfig,
    _design_bandpass,
    _impulse_settle_len,
    _zero_phase,
    preprocess_recording,
    resample_series,
)

FS, N_CHANNELS, N_SAMPLES, N_LAGS = 70, 32, 16_800, 19
TRIAL = 30 * FS
WINDOW_SIZES_S = (1, 2, 5, 10)
MIB = 2**20


def inputs(window_s: int, seed: int = 9):
    """Float32 EEG, weights m, target y and the window count for one window size."""
    rng = np.random.default_rng(seed)
    eeg = rng.normal(size=(N_CHANNELS, N_SAMPLES)).astype(np.float32)
    env_l, env_r = np.abs(rng.normal(size=(2, N_SAMPLES)))
    length = window_s * FS
    starts, labels = [], []
    for k, t0 in enumerate(range(0, N_SAMPLES, TRIAL)):
        for i, s in enumerate(range(t0, t0 + TRIAL - length + 1, length // 2)):
            if i % 5 != 4:  # every fifth window is held out
                starts.append(s)
                labels.append(baseline.LEFT if k % 2 == 0 else baseline.RIGHT)
    n = len(starts)
    wins = WindowSet(np.full(n, "s"), np.zeros(n, int), np.array(starts), np.array(labels), length)
    m, y = baseline.train_weights(wins, env_l, env_r, N_LAGS)
    return eeg, m, y, len(starts)


def median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_call(fn) -> tuple[object, float, float]:
    """fn's result, its seconds and its tracemalloc peak in MiB, from one call."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - t0
        return out, seconds, tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


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


def ridge_rows(repeats: int) -> list[dict]:
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
                lambda: baseline.accumulate_covariances(eeg, m, y, N_LAGS), repeats
            ),
            "solve_grid_s": median_s(
                lambda: [baseline._solve(r_auto, r_cross, lam) for lam in baseline.LAMBDA_GRID],
                repeats,
            ),
            "reconstruct_s": median_s(lambda: baseline.reconstruct(dec, eeg), repeats),
        })
    return rows


def subject(duration_s: float, seed: int = 5):
    """One synthetic subject as loaded from disk: 64 + 2 channels, float32."""
    cfg = SynthConfig(n_channels=64, duration_s=duration_s, sample_rate=128.0, seed=seed)
    rec = synth_recording(cfg, bundled_montage("biosemi64"))
    rec.data = rec.data.astype(np.float32)
    return rec


def cnn_kernels() -> dict[str, tuple[str, object]]:
    """Name -> (what the inputs are, a call with the same signature in every version)."""
    rec = subject(240.0)
    pp = PreprocConfig(reference_channels=["M1", "M2"])
    eeg = rec.data[:64].astype(float)
    sos = _design_bandpass(pp.band, pp.filter_order, rec.sample_rate)
    pad = _impulse_settle_len(sos, rec.sample_rate)
    kernels = {
        "preprocess_recording": ("66 x 30,720 float32 at 128 Hz, 8 trials",
                                 lambda: preprocess_recording(rec, pp)),
        "_zero_phase": ("64 x 30,720 float64, 8-13 Hz order 4",
                        lambda: _zero_phase(sos, eeg, pad)),
        "resample_series": ("64 x 30,720 float64, 128 -> 70 Hz",
                            lambda: resample_series(eeg, 128.0, 70.0)),
    }
    rng = np.random.default_rng(7)
    for ch in (1, 5):
        cfg = CnnConfig(in_channels=ch)
        x = rng.normal(size=(700, ch, 32, 32)).astype(np.float32)
        params = init_params(cfg, np.random.default_rng(ch))
        for dt in (np.float32, np.float64):
            p = {k: v.astype(dt) for k, v in params.items()}
            kernels[f"predict_proba_{ch}ch_{np.dtype(dt).name}"] = (
                f"700 windows x {ch} x 32 x 32 float32, {np.dtype(dt).name} parameters",
                lambda cfg=cfg, p=p, x=x: predict_proba(cfg, p, x),
            )
    layout = project_electrodes(bundled_montage("biosemi64"))
    feat = FeatureSection(sub_windows=5)
    segs = rng.normal(size=(1024, 64, 70))
    data = {"s": np.concatenate(segs, axis=1)}
    wins = WindowSet(np.full(1024, "s"), np.zeros(1024, int), 70 * np.arange(1024),
                     np.full(1024, LEFT), 70)
    kernels["extract_ssf"] = (
        "256 windows x 64 channels x 70 samples, 5 sub-windows, grid 32",
        lambda: extract_ssf(segs[:256], layout, 70.0, **asdict(feat)),
    )
    kernels["partition_maps"] = (
        "1,024 windows x 64 channels x 70 samples, 5 sub-windows, grid 32",
        lambda: [None for _ in partition_maps(wins, data, layout, 70.0, feat)],
    )
    subs = segs[:256].reshape(256, 64, 5, 14).transpose(0, 2, 1, 3)
    power = band_power(subs, 70.0, (8.0, 13.0))
    kernels["band_power"] = (
        "256 x 5 sub-windows x 64 channels x 14 samples, 8-13 Hz",
        lambda: band_power(subs, 70.0, (8.0, 13.0)),
    )
    kernels["grid_unclamped"] = (
        "1,280 maps of 64 values, biosemi64, grid 32",
        lambda: interpolator(layout).grid(power, 32),
    )
    kernels["grid_clamped"] = (
        "200 maps of 64 values, biosemi64, grid 32, clamped gradients",
        lambda: interpolator(layout, True).grid(power.reshape(-1, 64)[:200], 32),
    )
    return kernels


def split_kernels() -> dict[str, tuple[str, object]]:
    """`build_split` at paper scale, on 1 and 16 subjects."""
    cfg = config_from_dict({"window_sizes_s": [0.1]})
    trial = 6 * 60 * 70  # 8 trials of 6 min: 48 min at 70 Hz
    recs = [
        RawRecording(f"S{i:02d}", 70.0, ["a"], np.zeros((1, 8 * trial), dtype=np.float32),
                     [Trial(k * trial, (k + 1) * trial, LEFT if (i + k) % 2 else RIGHT)
                      for k in range(8)])
        for i in range(16)
    ]
    return {
        f"build_split_{n}": (f"{n} x 48 min at 70 Hz, 0.1 s windows, 50 % overlap",
                             lambda n=n: build_split(cfg, recs[:n], 0.1))
        for n in (1, 16)
    }


def cache_kernels(root: Path) -> dict[str, tuple[str, object]]:
    """The tensor cache kernels on a workspace under `root`."""
    cfg = config_from_dict({
        "models": ["cnn"],
        "synth": {"n_subjects": 1, "duration_s": 672.0, "seed": 3},
        "split": {"block_s": 10.0},
        "features": {"sub_windows": 5},
        "window_sizes_s": [1.0],
    })
    stage_synth(cfg, root)
    stage_preprocess(cfg, root)
    stage_extract(cfg, root)
    train = root / "features" / "w1" / "train"
    n = len(json.loads(train.with_suffix(".json").read_text())["labels"])
    idx = np.random.default_rng(11).choice(n, size=64, replace=False)
    return {
        "stage_extract": (f"1 subject x 672 s, 64 channels at 70 Hz, 5 sub-windows: {n:,} train windows",
                          lambda: stage_extract(cfg, root)),
        "cache_gather_64": (f"64 random windows of a {n:,}-window train cache",
                            lambda: load_tensor_cache(train)[0][idx]),
        "cache_fromfile": (f"whole payload of that {n:,}-window cache",
                           lambda: np.fromfile(train.with_suffix(".f32"), dtype="<f4")),
    }


def search_kernels(root: Path) -> dict[str, tuple[str, object]]:
    """`select_lambda` of one subject of a `linear-sweep` workspace under
    `root`, at 1 and 10 s windows, on the fit the baseline stage makes."""
    cfg = config_from_dict({
        "models": ["linear"],
        "montage": "builtin:biosemi32",
        "synth": {"n_subjects": 1, "n_channels": 32, "duration_s": 240.0,
                  "envelope_mix_gain": 1.0, "seed": 1},
        "window_sizes_s": [1.0, 10.0],
    })
    stage_synth(cfg, root)
    stage_preprocess(cfg, root)
    rec = load_recording(root / "preprocessed_baseline" / "S00")
    env_l, env_r = (baseline.load_envelope(root / "envelopes_rs" / f"S00.{side}").samples
                    for side in ("left", "right"))
    n_lags, kernels = _n_lags(cfg), {}
    for ws in cfg.window_sizes_s:
        split = build_split(cfg, [rec], ws)
        m, y = baseline.train_weights(split.train, env_l, env_r, n_lags)
        kernels[f"select_lambda_{ws:g}s"] = (
            f"{rec.n_channels} x {rec.n_samples:,} float32 at 70 Hz, {n_lags} lags, "
            f"envelope_mix_gain 1, {len(split.train):,} train and "
            f"{len(split.validation):,} validation {ws:g} s windows, default lambda grid",
            lambda tr=(rec.data, m, y), val=(env_l, env_r, split.validation), n=n_lags:
            baseline.select_lambda(tr, val, n, baseline.LAMBDA_GRID),
        )
    return kernels


def trainer_kernels() -> dict[str, tuple[str, object]]:
    """The training step's layers at batch 64, float32, 1 and 5 input channels."""
    kernels = {}
    tc = TrainConfig(max_epochs=1, early_stop_patience=1)
    for ch in (1, 5):
        cfg = CnnConfig(in_channels=ch)
        rng = np.random.default_rng(20 + ch)
        params = init_params(cfg, rng)
        x = rng.normal(size=(64, ch, 32, 32)).astype(np.float32)
        y = rng.integers(0, 2, size=64)
        _, cache = forward(cfg, params, x, mode="train", rng=np.random.default_rng(1))
        _, grads, _ = loss_and_grad(cfg, params, x, y, rng=np.random.default_rng(1))
        trained = {k: grads[k] for k in TRAINED}
        _, state = rmsprop_step(params, trained, None, 0, tc)
        relu1, xhat = cache["relu1"], cache["xhat"]
        f, conv_w, conv_b = cfg.conv_filters, params["conv_w"], params["conv_b"]
        conv = _conv(x, conv_w, conv_b).reshape(64, f, 32, 32)
        dpooled = rng.normal(size=(64, f, 16, 16)).astype(np.float32)
        dbn = _pool_adjoint(dpooled, relu1)
        dconv = rng.normal(size=(64, f, 32 * 32)).astype(np.float32)
        x_epoch = rng.normal(size=(1540, ch, 32, 32)).astype(np.float32)
        y_epoch = rng.integers(0, 2, size=1540)
        what = f"batch 64 x {ch} x 32 x 32, default CNN, float32"
        kernels.update({
            f"im2col_conv_{ch}ch": (what, lambda x=x, w=conv_w, b=conv_b: _conv(x, w, b)),
            f"conv_dw_{ch}ch": (what, lambda d=dconv, x=x, s=conv_w.shape:
                                _conv_grads(d, x, s)),
            f"bn_relu_forward_{ch}ch": (what, lambda c=conv, p=params, e=cfg.bn_epsilon:
                                        _bn_relu(c, p["bn_gamma"], p["bn_beta"], e)),
            f"bn_backward_{ch}ch": (what, lambda d=dbn, xh=xhat, p=params, s=cache["inv_std"]:
                                    _bn_backward(d.copy(), xh, p["bn_gamma"], s)),
            f"pool_{ch}ch": (what, lambda r=relu1: _pool(r)),
            f"pool_adjoint_{ch}ch": (what, lambda d=dpooled, r=relu1: _pool_adjoint(d, r)),
            f"rmsprop_step_{ch}ch": (what + ", every trained tensor, state given",
                                     lambda p=params, g=trained, s=state:
                                     rmsprop_step(p, g, s, 1, tc)),
            f"loss_and_grad_{ch}ch": (what, lambda p=params, x=x, y=y, cfg=cfg:
                                      loss_and_grad(cfg, p, x, y, rng=np.random.default_rng(1))),
            f"train_epoch_{ch}ch": (f"1,400 train + 140 validation windows x {ch} x 32 x 32, "
                                    f"one epoch", lambda cfg=cfg, x=x_epoch, y=y_epoch:
                                    train_arrays(cfg, tc, x[:1400], y[:1400], x[1400:], y[1400:])),
        })
        if rmsprop_update is not None:
            own_p = {k: params[k].copy() for k in TRAINED}
            own_s = {k: v.copy() for k, v in state.items()}
            kernels[f"rmsprop_update_{ch}ch"] = (
                what + ", every trained tensor, in place on the row's own copies",
                lambda p=own_p, g=trained, s=own_s: rmsprop_update(p, g, s, 1, tc))
    flat, fc1_w, fc1_b = cache["flat"], params["fc1_w"], params["fc1_b"]
    dfc1 = np.random.default_rng(3).normal(size=(64, fc1_w.shape[0])).astype(np.float32)
    kernels["fc1_products"] = (
        f"batch 64, {fc1_w.shape[1]:,} -> {fc1_w.shape[0]} float32: forward, dW, db and dflat",
        lambda: (_dense(flat, fc1_w, fc1_b), _dense_grads(dfc1, flat, fc1_w)),
    )
    return kernels


def kernel_rows(root: Path, only: list[str] | None) -> dict[str, tuple[str, object]]:
    """Every row, group by group, or the rows named in `only`, in that
    order, with no group built after the last one that holds one of them."""
    rows: dict[str, tuple[str, object]] = {}
    for build in (trainer_kernels, split_kernels, cnn_kernels,
                  lambda: search_kernels(root / "search"), lambda: cache_kernels(root)):
        if only is not None and all(name in rows for name in only):
            break
        rows.update(build())
    if only is None:
        return rows
    unknown = [name for name in only if name not in rows]
    if unknown:
        raise SystemExit(f"unknown kernel rows: {', '.join(unknown)}")
    return {name: rows[name] for name in only}


def kernel_table(repeats: int, only: list[str] | None = None) -> dict:
    table = {}
    root = Path(tempfile.mkdtemp(prefix="bench-kernels-"))
    try:
        for name, (what, fn) in kernel_rows(root, only).items():
            fn()  # warm-up: imports, interpolator tables
            table[name] = {
                "inputs": what,
                "seconds": median_s(fn, repeats),
                "peak_mib": traced_call(fn)[2],
            }
    finally:
        shutil.rmtree(root)
    return table


def paper_preprocess() -> dict:
    rec = subject(48 * 60.0)
    pp = PreprocConfig(reference_channels=["M1", "M2"])
    out, seconds, peak = traced_call(lambda: preprocess_recording(rec, pp))
    return {
        "inputs": f"{rec.n_channels} x {rec.n_samples:,} float32 at 128 Hz, 8 trials",
        "input_mib": rec.data.nbytes / MIB,
        "output_mib": out.data.nbytes / MIB,
        "seconds": seconds,
        "peak_mib": peak,
    }


def paper_synth_subject() -> dict:
    cfg = config_from_dict({"models": ["linear"], "synth": {
        "n_subjects": 1, "duration_s": 48 * 60.0, "envelope_mix_gain": 1.0}})
    mont = bundled_montage("biosemi64")
    n_ch, n = cfg.synth.n_channels + len(cfg.reference_channels), 48 * 60 * 128
    root = Path(tempfile.mkdtemp(prefix="bench-synth-"))
    try:
        (root / "recordings").mkdir()
        (root / "envelopes").mkdir()
        _, seconds, peak = traced_call(
            lambda: _synth_subject(cfg, mont, 0, root / "recordings", root / "envelopes"))
    finally:
        shutil.rmtree(root)
    return {
        "inputs": f"{n_ch} x {n:,} float64 at 128 Hz, 8 trials, envelope_mix_gain 1",
        "recording_mib": n_ch * n * 8 / MIB,
        "seconds": seconds,
        "peak_mib": peak,
    }


def paper_select_lambda(seed: int = 13) -> dict:
    n_ch, fs, trial = 64, 70, 6 * 60 * 70
    rng = np.random.default_rng(seed)
    eeg = rng.normal(size=(n_ch, 8 * trial)).astype(np.float32)
    env_l, env_r = np.abs(rng.normal(size=(2, 8 * trial)))
    starts, labels, held = [], [], []
    for k in range(8):
        for i, s in enumerate(range(k * trial, (k + 1) * trial - fs + 1, fs // 2)):
            starts.append(s)
            labels.append(LEFT if k % 2 == 0 else RIGHT)
            held.append(i % 5 == 4)
    n, held = len(starts), np.array(held)
    wins = WindowSet(np.full(n, "s"), np.zeros(n, int), np.array(starts), np.array(labels), fs)
    train, val = wins[np.flatnonzero(~held)], wins[np.flatnonzero(held)]
    m, y = baseline.train_weights(train, env_l, env_r, N_LAGS)
    (dec, _), seconds, peak = traced_call(lambda: baseline.select_lambda(
        (eeg, m, y), (env_l, env_r, val), N_LAGS, baseline.LAMBDA_GRID))
    return {
        "inputs": f"{n_ch} x {eeg.shape[1]:,} float32 at {fs} Hz, {N_LAGS} lags, "
                  f"{len(train):,} train and {len(val):,} validation 1 s windows",
        "eeg_mib": eeg.nbytes / MIB,
        "ridge_lambda": dec.ridge_lambda,
        "seconds": seconds,
        "peak_mib": peak,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--paper-scale", action="store_true")
    ap.add_argument("--only", type=lambda text: text.split(","), metavar="ROW[,ROW]",
                    help="run just these kernel rows, in this order, and no ridge rows")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--label")
    args = ap.parse_args(argv)
    if (args.out is None) != (args.label is None):
        ap.error("--out and --label go together")
    if args.paper_scale and args.only:
        ap.error("--only selects kernel rows, which --paper-scale does not run")
    result = {"script": "scripts/bench_kernels.py", "machine": machine()}
    if args.only:
        result.update({"repeats": args.repeats, "kernels": kernel_table(args.repeats, args.only)})
    elif args.paper_scale:
        result["paper_scale"] = {
            "preprocess_recording": paper_preprocess(),
            "_synth_subject": paper_synth_subject(),
            "select_lambda": paper_select_lambda(),
        }
    else:
        rows = ridge_rows(args.repeats)
        result.update({
            "repeats": args.repeats,
            "shape": {"channels": N_CHANNELS, "samples": N_SAMPLES, "lags": N_LAGS, "fs": FS},
            "rows": rows,
            "totals": {
                key: sum(r[key] for r in rows)
                for key in ("covariance_s", "solve_grid_s", "reconstruct_s")
            },
            "kernels": kernel_table(args.repeats),
        })
    print(json.dumps(result, indent=2))
    if args.out:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[args.label] = result
        args.out.write_text(json.dumps(stored, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
