"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s`).
The synthetic end-to-end runs use frozen configs and seeds, so their
results are bit-reproducible on any machine with the same library stack.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from asad.baseline import (
    add_envelope_mixture,
    decide_attention,
    fit_decoder,
    fit_decoder_segments,
    reconstruct,
    synth_envelope,
)
from asad.data import (
    LEFT,
    RIGHT,
    RawRecording,
    Trial,
    segment_windows,
    stratified_split,
)
from asad.features import band_power
from asad.geometry import azimuthal_equidistant, project_electrodes
from asad.interpolate import interpolator
from asad.network import TRAINED, CnnConfig, _draw_masks, init_params, loss_and_grad, paired_t_test
from asad.pipeline import config_from_dict, run_experiment

from conftest import make_random_montage
from test_features import naive_band_power


def _report(num: int, text: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {text}")
    assert passed, f"criterion {num}: {text}"


# ---------------------------------------------------------------------------
# 1. gradient oracle
# ---------------------------------------------------------------------------

def test_c01_gradient_oracle():
    t0 = time.time()
    cfg = CnnConfig(in_channels=2, conv_filters=2, in_size=8, fc_sizes=(16, 8))
    rng = np.random.default_rng(0)
    params = init_params(cfg, rng, dtype=np.float64)
    for name in ("conv_b", "bn_beta", "bn_gamma", "fc1_b", "fc2_b", "out_b"):
        params[name] = params[name] + rng.normal(0, 0.05, params[name].shape)
    x = rng.normal(size=(4, 2, 8, 8))
    y = np.array([0, 1, 1, 0])
    masks = _draw_masks(cfg, 4, rng)
    _, grads, _ = loss_and_grad(cfg, params, x, y, masks=masks)
    h = 1e-4
    worst = 0.0
    for name in TRAINED:
        flat = params[name].ravel()
        g = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _, _ = loss_and_grad(cfg, params, x, y, masks=masks)
            flat[i] = orig - h
            lm, _, _ = loss_and_grad(cfg, params, x, y, masks=masks)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            rel = abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-7)
            worst = max(worst, rel)
    elapsed = time.time() - t0
    _report(
        1,
        f"all {sum(params[n].size for n in TRAINED)} gradient coordinates match "
        f"central differences (worst rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 60s)",
        worst < 1e-4 and elapsed < 60.0,
    )


# ---------------------------------------------------------------------------
# 2. spectral oracle
# ---------------------------------------------------------------------------

def test_c02_spectral_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for w in range(2, 129):
        seg = rng.normal(size=(1, w))
        mine = band_power(seg, 70.0, (8.0, 13.0))
        oracle = naive_band_power(seg, 70.0, (8.0, 13.0))
        worst = max(worst, float(np.max(np.abs(mine - oracle) / np.abs(oracle))))
    elapsed = time.time() - t0
    _report(
        2,
        f"band power equals the naive DFT for W=2..128 "
        f"(worst rel err {worst:.2e} < 1e-10, {elapsed:.1f}s < 10s)",
        worst < 1e-10 and elapsed < 10.0,
    )


# ---------------------------------------------------------------------------
# 3. projection analytics
# ---------------------------------------------------------------------------

def test_c03_projection_analytics():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(1000, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    uv = azimuthal_equidistant(v)
    rho = np.hypot(uv[:, 0], uv[:, 1])
    err_r = float(np.max(np.abs(rho - np.arccos(np.clip(v[:, 2], -1, 1)))))
    mask = rho > 1e-9
    diff = np.angle(
        np.exp(1j * (np.arctan2(v[mask, 1], v[mask, 0]) - np.arctan2(uv[mask, 1], uv[mask, 0])))
    )
    err_a = float(np.max(np.abs(diff)))
    _report(
        3,
        f"radial distance equals arccos(z) and azimuth is preserved over 1000 "
        f"random unit vectors (errors {err_r:.2e}, {err_a:.2e} < 1e-12)",
        err_r < 1e-12 and err_a < 1e-12,
    )


# ---------------------------------------------------------------------------
# 4. interpolation exactness
# ---------------------------------------------------------------------------

def test_c04_interpolation_exactness():
    worst_const, worst_affine = 0.0, 0.0
    rng = np.random.default_rng(3)
    for k in range(20):
        n = int(rng.integers(16, 65))
        layout = project_electrodes(make_random_montage(n, 300 + k))
        ct = interpolator(layout)
        inside = ct.grid_cache(32)["inside"].reshape(32, 32)

        c = float(rng.normal())
        grid = ct.grid(np.full(n, c), 32)
        worst_const = max(worst_const, float(np.max(np.abs(grid[inside] - c))))

        a, b, c0 = rng.normal(size=3)
        vals = a * layout.points[:, 0] + b * layout.points[:, 1] + c0
        grid = ct.grid(vals, 32)
        umin, umax, vmin, vmax = layout.extent
        us = umin + (np.arange(32) + 0.5) * (umax - umin) / 32
        vs = vmin + (np.arange(32) + 0.5) * (vmax - vmin) / 32
        uu, vv = np.meshgrid(us, vs, indexing="xy")
        worst_affine = max(
            worst_affine, float(np.max(np.abs((grid - (a * uu + b * vv + c0))[inside])))
        )
    _report(
        4,
        f"piecewise-cubic interpolation reproduces constants "
        f"({worst_const:.2e} < 1e-9) and affine fields ({worst_affine:.2e} < 1e-6) "
        f"on 20 random montages of 16-64 electrodes",
        worst_const < 1e-9 and worst_affine < 1e-6,
    )


# ---------------------------------------------------------------------------
# 5. synthetic end-to-end
# ---------------------------------------------------------------------------

def _endtoend_config(gain: float) -> dict:
    return {
        "models": ["cnn"],
        "synth": {
            "n_subjects": 16, "n_channels": 64, "duration_s": 240.0,
            "sample_rate": 128.0, "n_trials": 8, "lateralization_gain": gain,
            "noise_sigma": 1.0, "seed": 11,
        },
        "split": {"block_s": 10.0},
        "window_sizes_s": [1.0],
        "train": {"max_epochs": 30, "early_stop_patience": 5},
        "seeds": {"base": 7, "runs": 1},
    }


def _overall_test_accuracy(out: Path, ws_tag: str, seed: int) -> float:
    from asad.data import LABEL_INDEX
    from asad.features import load_tensor_cache
    from asad.network import evaluate_features, load_checkpoint

    x, labels, subjects, _ = load_tensor_cache(out / "features" / ws_tag / "test")
    y = np.array([LABEL_INDEX[l] for l in labels])
    ckpt = load_checkpoint(out / "runs" / ws_tag / f"seed{seed}" / "checkpoint")
    return evaluate_features(ckpt, x, y, subjects).accuracy


def test_c05_synthetic_end_to_end(tmp_path_factory):
    t0 = time.time()
    root = tmp_path_factory.mktemp("c05")
    out_hi = root / "gain2"
    run_experiment(config_from_dict(_endtoend_config(2.0)), out_hi)
    acc_hi = _overall_test_accuracy(out_hi, "w1", 7)

    out_null = root / "gain0"
    run_experiment(config_from_dict(_endtoend_config(0.0)), out_null)
    acc_null = _overall_test_accuracy(out_null, "w1", 7)
    elapsed = time.time() - t0
    _report(
        5,
        f"16 synthetic subjects, 1 s windows: gain 2 accuracy {acc_hi:.3f} >= 0.95; "
        f"gain 0 accuracy {acc_null:.3f} within 0.50 +/- 0.03 ({elapsed:.0f}s < 900s)",
        acc_hi >= 0.95 and abs(acc_null - 0.5) <= 0.03 and elapsed < 900.0,
    )


# ---------------------------------------------------------------------------
# 6. accuracy grows with window length
# ---------------------------------------------------------------------------

def test_c06_window_length_monotonicity(tmp_path_factory):
    cfg = config_from_dict({
        "models": ["cnn"],
        "synth": {
            "n_subjects": 8, "n_channels": 64, "duration_s": 480.0,
            "sample_rate": 128.0, "n_trials": 8, "lateralization_gain": 0.2,
            "noise_sigma": 1.0, "seed": 23,
        },
        "split": {"block_s": 20.0, "ratios": [0.7, 0.1, 0.2]},
        "features": {"band": [9.0, 11.0]},
        "window_sizes_s": [1.0, 2.0, 5.0, 10.0],
        "cnn": {"conv_filters": 4, "fc_sizes": [128, 32]},
        "train": {"max_epochs": 60, "early_stop_patience": 10, "batch_size": 32},
        "seeds": {"base": 3, "runs": 1},
    })
    out = tmp_path_factory.mktemp("c06") / "run"
    run_experiment(cfg, out)
    rows = list(csv.DictReader(open(out / "report" / "metrics.csv")))
    means = []
    for ws in (1.0, 2.0, 5.0, 10.0):
        accs = [float(r["accuracy"]) for r in rows if float(r["window_s"]) == ws]
        means.append(float(np.mean(accs)))
    inversions = [(a - b) for a, b in zip(means, means[1:]) if a > b]
    ok = len(inversions) == 0 or (len(inversions) == 1 and inversions[0] <= 0.01)
    _report(
        6,
        "mean accuracy over window sizes {1,2,5,10}s = "
        + ", ".join(f"{m:.3f}" for m in means)
        + f" (non-decreasing; {len(inversions)} inversion(s), tolerance one <= 0.01)",
        ok,
    )


# ---------------------------------------------------------------------------
# 7. linear baseline closed loop
# ---------------------------------------------------------------------------

def test_c07_linear_closed_loop():
    # shift oracle: channel 0 follows the envelope by 3 samples
    rng = np.random.default_rng(42)
    env = np.abs(rng.normal(size=3000))
    eeg = rng.normal(size=(3, 3000)) * 1e-6
    eeg[0] = np.concatenate([np.zeros(3), env[:-3]])
    dec = fit_decoder(eeg, env, lags=5, ridge_lambda=0.0)
    w_err = abs(dec.weights[0, 3] - 1.0)
    rest = dec.weights.copy()
    rest[0, 3] = 0.0
    rest_err = float(np.max(np.abs(rest)))

    # closed loop: lagged mixture of the attended envelope plus noise
    fs, n_trials, trial_s = 70.0, 8, 60.0
    n = int(fs * n_trials * trial_s)
    env_l = synth_envelope(n, fs, "left", np.random.default_rng(1))
    env_r = synth_envelope(n, fs, "right", np.random.default_rng(2))
    labels = [LEFT, RIGHT] * (n_trials // 2)
    trials = [
        Trial(int(i * trial_s * fs), int((i + 1) * trial_s * fs), labels[i])
        for i in range(n_trials)
    ]
    base = RawRecording(
        "s0", fs, [f"ch{c:02d}" for c in range(16)],
        np.random.default_rng(7).normal(0, 0.5, (16, n)), trials,
    )
    rec = add_envelope_mixture(base, env_l, env_r, max_lag=18, mix_gain=1.0, seed=9)
    wins = segment_windows(rec, 10.0, 0.5)
    split = stratified_split(wins, (0.8, 0.1, 0.1), seed=9, block_s=30.0, sample_rate=fs)

    def seg(w, env):
        return env.samples[w.origin[1] : w.origin[1] + w.length]

    def samples(w):
        return rec.data[:, w.origin[1] : w.origin[1] + w.length]

    pairs = [(samples(w), seg(w, env_l if w.label == LEFT else env_r)) for w in split.train]
    decoder = fit_decoder_segments(pairs, n_lags=19, ridge_lambda=1.0)
    held_out = [*split.validation, *split.test]
    hits = 0
    for w in held_out:
        s_hat = reconstruct(decoder, samples(w))
        d = decide_attention(s_hat, seg(w, env_l)[: len(s_hat)], seg(w, env_r)[: len(s_hat)])
        hits += d.label == w.label
    acc = hits / len(held_out)
    _report(
        7,
        f"closed loop: attended side recovered on {acc:.2%} of held-out 10 s windows "
        f"(>= 90%); shift oracle lag-3 weight error {w_err:.1e} < 1e-6 "
        f"(other weights {rest_err:.1e})",
        acc >= 0.90 and w_err < 1e-6 and rest_err < 1e-6,
    )


# ---------------------------------------------------------------------------
# 8. determinism of full experiment runs
# ---------------------------------------------------------------------------

def test_c08_experiment_determinism(tmp_path_factory):
    cfg_dict = {
        "models": ["cnn", "linear"],
        "synth": {
            "n_subjects": 2, "duration_s": 120.0, "n_trials": 8, "sample_rate": 128.0,
            "lateralization_gain": 2.0, "noise_sigma": 1.0, "envelope_mix_gain": 1.0,
        },
        "split": {"block_s": 10.0},
        "window_sizes_s": [1.0],
        "train": {"max_epochs": 2},
        "seeds": {"base": 7, "runs": 2},
    }
    root = tmp_path_factory.mktemp("c08")
    out_a, out_b = root / "a", root / "b"
    run_experiment(config_from_dict(cfg_dict), out_a)
    run_experiment(config_from_dict(cfg_dict), out_b)
    compared = []
    for rel in (
        "runs/w1/seed7/checkpoint.json", "runs/w1/seed7/checkpoint.f32",
        "runs/w1/seed8/checkpoint.json", "runs/w1/seed8/checkpoint.f32",
        "report/metrics.csv", "eval/metrics_by_seed.csv",
        "baseline_eval/metrics_by_seed.csv", "report/paired_tests.csv",
    ):
        compared.append((out_a / rel).read_bytes() == (out_b / rel).read_bytes())
    _report(
        8,
        "two identically-seeded experiment runs produce byte-identical "
        f"checkpoints and metrics CSVs ({sum(compared)}/{len(compared)} files match)",
        all(compared),
    )


# ---------------------------------------------------------------------------
# 9. statistics oracle
# ---------------------------------------------------------------------------

def test_c09_statistics_oracle():
    res = paired_t_test([2.0, 3.0, 4.0, 5.0], [1.0, 1.0, 1.0, 1.0])  # d = 1,2,3,4
    ok = abs(res.t - 3.872983) < 1e-3 and abs(res.p - 0.0305) < 1e-3 and res.df == 3
    _report(
        9,
        f"paired t-test reproduces the d={{1,2,3,4}} textbook case "
        f"(t={res.t:.4f}~3.873, p={res.p:.4f}~0.0305, df={res.df})",
        ok,
    )


# ---------------------------------------------------------------------------
# 10. full-scale reproduction (external data; excluded from CI)
# ---------------------------------------------------------------------------

@pytest.mark.skip(
    reason="requires the external 16-subject recordings converted to the "
    "container format; see README 'Running on real recordings'"
)
def test_c10_full_scale_reproduction():
    pass
