"""Correctness checks on a finished workspace, computed outside the program.

The checks read the workspace containers directly (JSON header plus a
little-endian float32 payload), recompute what they compare against with
their own code, and return ``{check name: None or a failure message}``.
Two things come from the program on purpose: which partition each window
was dealt to (the split is the program's decision; the checks verify its
invariants) and the layout's Clough-Tocher interpolator (the map check
verifies the band power that feeds it and the cache that stores it).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from asad.data import load_recording
from asad.geometry import project_electrodes
from asad.interpolate import interpolator
from asad.pipeline import build_split, resolve_montage

F32_ULP = 2.0 ** -23


def read_container(prefix: Path) -> tuple[dict, np.ndarray]:
    header = json.loads(Path(str(prefix) + ".json").read_text())
    payload = np.fromfile(str(prefix) + ".f32", dtype="<f4").astype(np.float64)
    return header, payload


def read_recording(path: Path) -> tuple[dict, np.ndarray]:
    header, payload = read_container(path)
    return header, payload.reshape(len(header["channels"]), -1)


def _ws_tag(ws: float) -> str:
    return f"w{ws:g}"


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _window_origins(header: dict, window_s: float, overlap: float) -> dict:
    """(trial index, start) -> (length, label) for every window the
    recording's trials hold."""
    w = _round_half_up(window_s * header["sample_rate"])
    hop = max(1, _round_half_up(w * (1.0 - overlap)))
    out = {}
    for ti, tr in enumerate(header["trials"]):
        for start in range(tr["start"], tr["end"] - w + 1, hop):
            out[(ti, start)] = (w, tr["label"])
    return out


def _splits(cfg, out: Path, sub_dir: str, ws: float, per_subject: bool):
    """The program's split of the workspace recordings in `sub_dir`."""
    paths = sorted((out / sub_dir).glob("*.json"))
    recs = [load_recording(p) for p in paths]
    if per_subject:
        return [(rec.subject_id, build_split(cfg, [rec], ws)) for rec in recs]
    return [(None, build_split(cfg, recs, ws))]


def check_no_leakage(cfg, out: Path) -> str | None:
    """No sample of a subject lies in windows of two different partitions,
    every split window is one that the trial table holds, and each cached
    partition lists the split's windows in order."""
    chains = []
    if "cnn" in cfg.models:
        chains.append(("preprocessed", False))
    if "linear" in cfg.models:
        chains.append(("preprocessed_baseline", True))
    for sub_dir, per_subject in chains:
        headers = {
            h["subject_id"]: h
            for h in (json.loads(p.read_text()) for p in sorted((out / sub_dir).glob("*.json")))
        }
        for ws in cfg.window_sizes_s:
            origins = {
                sid: _window_origins(h, ws, cfg.overlap_fraction) for sid, h in headers.items()
            }
            for _, split in _splits(cfg, out, sub_dir, ws, per_subject):
                owner = {}
                for p, (pname, wins) in enumerate(split.partitions().items()):
                    for win in wins:
                        expect = origins[win.subject_id].get(tuple(win.origin))
                        if expect != (win.length, win.label):
                            return f"{sub_dir} {ws:g} s: window {win.subject_id}{win.origin} not in the trial table"
                        n = headers[win.subject_id]["trials"][-1]["end"]
                        own = owner.setdefault(win.subject_id, np.full(n, -1))
                        _, start = win.origin
                        seg = own[start : start + win.length]
                        if np.any((seg >= 0) & (seg != p)):
                            return f"{sub_dir} {ws:g} s: {win.subject_id} sample shared across partitions"
                        seg[:] = p
                    if sub_dir == "preprocessed":
                        hdr = json.loads((out / "features" / _ws_tag(ws) / f"{pname}.json").read_text())
                        if hdr["labels"] != [w.label for w in wins] or hdr["subjects"] != [
                            w.subject_id for w in wins
                        ]:
                            return f"features {ws:g} s {pname}: cache does not list the split's windows"
    return None


def direct_band_power(seg: np.ndarray, fs: float, band: tuple[float, float]) -> np.ndarray:
    """Mean of |X_k|^2 / W^2 over in-band bins, X_k summed from the DFT
    definition on the zero-padded bin grid."""
    w = seg.shape[1]
    nfft = 1 << max(7, (w - 1).bit_length())
    k = np.arange(nfft // 2 + 1)
    k = k[(k * fs / nfft >= band[0]) & (k * fs / nfft <= band[1])]
    basis = np.exp(-2j * np.pi * np.outer(np.arange(w), k) / nfft)
    return np.mean(np.abs(seg @ basis) ** 2, axis=1) / (w * w)


def map_sample(rng: np.random.Generator, n_windows: int, k: int = 12) -> np.ndarray:
    """Indices of the windows of one cached partition that the map check recomputes."""
    return rng.choice(n_windows, size=min(k, n_windows), replace=False)


def check_cached_maps(cfg, out: Path, seed: int) -> str | None:
    """Recompute a seeded sample of cached maps and compare to float32 rounding."""
    feat = cfg.features
    layout = project_electrodes(resolve_montage(cfg))
    ct = interpolator(layout, feat.clamp_gradients)
    rng = np.random.default_rng(seed)
    data = {}
    for ws in cfg.window_sizes_s:
        (_, split), = _splits(cfg, out, "preprocessed", ws, per_subject=False)
        for pname, wins in split.partitions().items():
            hdr, payload = read_container(out / "features" / _ws_tag(ws) / pname)
            s, g = hdr["S"], hdr["grid_n"]
            maps = payload.reshape(len(hdr["labels"]), s, g, g)
            for i in map_sample(rng, len(wins)):
                win = wins[i]
                if win.subject_id not in data:
                    data[win.subject_id] = read_recording(out / "preprocessed" / win.subject_id)[1]
                _, start = win.origin
                samples = data[win.subject_id][:, start : start + win.length]
                step = win.length // s
                for j in range(s):
                    values = direct_band_power(
                        samples[:, j * step : (j + 1) * step], cfg.target_rate, tuple(feat.band)
                    )
                    if feat.log_power:
                        values = np.log1p(values)
                    ref = ct.grid(values, g, fill=0.0)
                    tol = F32_ULP * np.abs(ref) + 1e-12 * np.max(np.abs(ref))
                    if np.any(np.abs(maps[i, j] - ref) > tol):
                        err = float(np.max(np.abs(maps[i, j] - ref)))
                        return f"{ws:g} s {pname} window {i} map {j}: off by {err:.3e}"
    return None


def read_checkpoint(prefix: Path) -> tuple[dict, dict]:
    header, payload = read_container(prefix)
    params, off = {}, 0
    for entry in header["tensors"]:
        size = int(np.prod(entry["shape"]))
        params[entry["name"]] = payload[off : off + size].reshape(entry["shape"])
        off += size
    if off != payload.size:
        raise ValueError(f"{prefix}: payload holds {payload.size} floats, tensors need {off}")
    return header, params


def predict(header: dict, p: dict, x: np.ndarray) -> np.ndarray:
    """Eval-mode class decisions: same-padded 3x3 conv, batch norm on the
    running statistics, ReLU, 2x2 mean pool, then fc-ReLU-fc-ReLU-linear."""
    cfg = header["config"]
    b, _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    conv = np.zeros((b, p["conv_w"].shape[0], h, w))
    for ki in range(3):
        for kj in range(3):
            conv += np.einsum("fc,bchw->bfhw", p["conv_w"][:, :, ki, kj], xp[:, :, ki : ki + h, kj : kj + w])
    conv += p["conv_b"][None, :, None, None]
    scale = p["bn_gamma"] / np.sqrt(p["bn_running_var"] + cfg["bn_epsilon"])
    bn = (conv - p["bn_running_mean"][None, :, None, None]) * scale[None, :, None, None]
    act = np.maximum(bn + p["bn_beta"][None, :, None, None], 0.0)
    pooled = act.reshape(b, act.shape[1], h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    z = np.maximum(pooled.reshape(b, -1) @ p["fc1_w"].T + p["fc1_b"], 0.0)
    z = np.maximum(z @ p["fc2_w"].T + p["fc2_b"], 0.0)
    return np.argmax(z @ p["out_w"].T + p["out_b"], axis=1)


def _seed_metrics(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_test_accuracy(cfg, out: Path, hits_out: dict) -> str | None:
    """Recompute test hits from the checkpoints and test caches; every
    subject's accuracy must equal eval/metrics_by_seed.csv. Fills
    `hits_out` with {window_s: (hits, windows)} over all seeds."""
    rows = _seed_metrics(out / "eval" / "metrics_by_seed.csv")
    for ws in cfg.window_sizes_s:
        hdr, payload = read_container(out / "features" / _ws_tag(ws) / "test")
        s, g = hdr["S"], hdr["grid_n"]
        x = payload.reshape(len(hdr["labels"]), s, g, g)
        y = np.array([0 if label == "Left" else 1 for label in hdr["labels"]])
        subjects = np.array(hdr["subjects"])
        hits_total = n_total = 0
        for k in range(cfg.seeds.runs):
            seed = cfg.seeds.base + k
            ck_hdr, params = read_checkpoint(out / "runs" / _ws_tag(ws) / f"seed{seed}" / "checkpoint")
            pred = np.concatenate([predict(ck_hdr, params, x[i : i + 256]) for i in range(0, len(x), 256)])
            hits = pred == y
            claimed = {
                r["subject"]: float(r["accuracy"])
                for r in rows
                if r["model"] == "cnn" and float(r["window_s"]) == ws and int(r["seed"]) == seed
            }
            if sorted(claimed) != sorted(set(subjects)):
                return f"{ws:g} s seed {seed}: metrics list subjects {sorted(claimed)}"
            for subj, acc in claimed.items():
                sel = subjects == subj
                if round(acc * sel.sum()) != hits[sel].sum():
                    return (f"{ws:g} s seed {seed} {subj}: csv says {acc!r}, "
                            f"recomputed {hits[sel].sum()}/{sel.sum()}")
            hits_total += int(hits.sum())
            n_total += len(hits)
        hits_out[ws] = (hits_total, n_total)
    return None


def check_ridge_normal_equations(cfg, out: Path) -> str | None:
    """Each saved decoder w solves (R + lam * mean(diag R) * I) w = r, with
    R and r summed over the training windows' lagged rows, to within the
    rounding of w to float32: |A w - r| <= 4 * 2^-24 * |A| |w| per row."""
    base = out / "preprocessed_baseline"
    for ws in cfg.window_sizes_s:
        for sid, split in _splits(cfg, out, "preprocessed_baseline", ws, per_subject=True):
            dec_prefix = out / "baseline_eval" / "decoders" / f"{sid}.{_ws_tag(ws)}"
            if not Path(str(dec_prefix) + ".json").exists():
                return f"{sid} {ws:g} s: no decoder saved"
            dec_hdr, w = read_container(dec_prefix)
            n_lags, lam = dec_hdr["n_lags"], dec_hdr["ridge_lambda"]
            _, eeg = read_recording(base / sid)
            env = {side: read_container(out / "envelopes_rs" / f"{sid}.{side}")[1]
                   for side in ("left", "right")}
            # every lagged row of a window depends only on its absolute
            # sample, so R sums each row once times the windows that hold it
            mult = np.zeros(eeg.shape[1])
            target = np.zeros(eeg.shape[1])
            for win in split.train:
                _, start = win.origin
                rows = slice(start, start + win.length - n_lags + 1)
                mult[rows] += 1
                target[rows] = env["left" if win.label == "Left" else "right"][rows]
            idx = np.flatnonzero(mult)
            dim = eeg.shape[0] * n_lags
            r_auto, r_cross = np.zeros((dim, dim)), np.zeros(dim)
            for lo in range(0, len(idx), 4096):
                rows = idx[lo : lo + 4096]
                x = np.stack([eeg[:, rows + tau] for tau in range(n_lags)], axis=2)
                x = x.transpose(1, 0, 2).reshape(len(rows), dim)
                r_auto += (x * mult[rows, None]).T @ x
                r_cross += x.T @ (mult[rows] * target[rows])
            a = r_auto + (lam * np.mean(np.diag(r_auto)) * np.eye(dim) if lam > 0 else 0.0)
            resid = np.abs(a @ w - r_cross)
            tol = 4 * 2.0 ** -24 * (np.abs(a) @ np.abs(w)) + 1e-12 * np.max(np.abs(r_cross))
            if np.any(resid > tol):
                worst = int(np.argmax(resid / tol))
                return (f"{sid} {ws:g} s: normal-equation residual {resid[worst]:.3e} "
                        f"exceeds {tol[worst]:.3e} at lambda {lam}")
    return None


def linear_accuracy(out: Path) -> dict[float, float]:
    """Subject-mean linear test accuracy per window size from the baseline stage."""
    acc: dict[float, list[float]] = {}
    for r in _seed_metrics(out / "baseline_eval" / "metrics_by_seed.csv"):
        acc.setdefault(float(r["window_s"]), []).append(float(r["accuracy"]))
    return {ws: float(np.mean(v)) for ws, v in acc.items()}


CNN_STRONG_MIN = 0.95  # c05: accuracy under strong lateralization
CHANCE_HALF_WIDTH = 0.1  # null control: accuracy within 0.5 +/- this
LINEAR_MIN = 0.9  # c07: linear accuracy at windows of 5 s and longer


def _plan(cfg, out: Path, seed: int, names) -> list[tuple[str, object]]:
    """(name, check) for each check in `names`, in that order. The
    accuracy-level checks read the hits that `cnn_accuracy_consistent`
    recomputes, so it must come before them."""
    hits: dict = {}

    def overall() -> float:
        return sum(h for h, _ in hits.values()) / sum(n for _, n in hits.values())

    def strong() -> str | None:
        acc = overall()
        return None if acc >= CNN_STRONG_MIN else f"accuracy {acc:.4f} < {CNN_STRONG_MIN}"

    def chance() -> str | None:
        acc = overall()
        return (None if abs(acc - 0.5) <= CHANCE_HALF_WIDTH
                else f"accuracy {acc:.4f} outside 0.5 +/- {CHANCE_HALF_WIDTH}")

    def linear() -> str | None:
        low = {ws: a for ws, a in linear_accuracy(out).items() if ws >= 5.0 and a < LINEAR_MIN}
        return f"linear accuracy below {LINEAR_MIN}: {low}" if low else None

    every = {
        "no_leakage": lambda: check_no_leakage(cfg, out),
        "cached_maps": lambda: check_cached_maps(cfg, out, seed),
        "cnn_accuracy_consistent": lambda: check_test_accuracy(cfg, out, hits),
        "cnn_accuracy_strong": strong,
        "cnn_accuracy_chance": chance,
        "ridge_normal_equations": lambda: check_ridge_normal_equations(cfg, out),
        "linear_accuracy": linear,
    }
    return [(name, every[name]) for name in names]


def run_checks(cfg, out: Path, seed: int, names) -> dict[str, str | None]:
    """Run the named checks in order; a check that raises fails."""
    results: dict[str, str | None] = {}
    for name, check in _plan(cfg, out, seed, names):
        try:
            results[name] = check()
        except Exception as exc:  # a crash inside a check is a failed check
            results[name] = f"{type(exc).__name__}: {exc}"
    return results
