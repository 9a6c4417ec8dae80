"""Linear stimulus-reconstruction decoder.

Ridge regression from time-lagged EEG to the speech envelope:

    s_hat(t) = sum_c sum_tau w(c, tau) * eeg(c, t + tau)

solved from (R + lambda * mean(diag(R)) * I) w = r with R the lagged EEG
autocovariance and r the EEG-envelope cross-covariance. Attention is
decided per decision window by Pearson-correlating the reconstruction
against the two candidate envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import (
    LEFT,
    RIGHT,
    RawRecording,
    _round_half_up,
    read_header,
    read_payload,
    write_container,
)

LAMBDA_GRID = tuple(10.0 ** k for k in range(-3, 4))


@dataclass
class Envelope:
    samples: np.ndarray  # non-negative, at the EEG rate it is compared against
    speaker_id: str
    sample_rate: float

    def validate(self) -> "Envelope":
        if self.samples.ndim != 1:
            raise ValueError("envelope must be a 1-D series")
        if np.any(self.samples < 0):
            raise ValueError("envelope samples must be non-negative")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        return self


@dataclass
class LinearDecoder:
    weights: np.ndarray  # (n_channels, n_lags)
    lags: np.ndarray  # contiguous 0..L
    ridge_lambda: float

    def validate(self) -> "LinearDecoder":
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("decoder weights must be finite")
        if self.weights.shape[1] != len(self.lags):
            raise ValueError("weights/lags shape mismatch")
        if not np.array_equal(self.lags, np.arange(len(self.lags))):
            raise ValueError("lags must be contiguous from 0")
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be >= 0")
        return self


def _lagged_design(eeg: np.ndarray, n_lags: int) -> np.ndarray:
    """(T - L, C * n_lags) design matrix, lag index fastest."""
    t = eeg.shape[1]
    if t < n_lags:
        raise ValueError(f"series of {t} samples is shorter than max lag {n_lags - 1}")
    sw = sliding_window_view(eeg, n_lags, axis=1)  # (C, T-L, n_lags)
    return np.ascontiguousarray(sw.transpose(1, 0, 2)).reshape(t - n_lags + 1, -1)


def accumulate_covariances(
    segments: list[tuple[np.ndarray, np.ndarray]], n_lags: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sum lagged auto-/cross-covariances over (eeg, envelope) segments."""
    dim = None
    r_auto = r_cross = None
    for eeg, env in segments:
        if eeg.shape[1] != len(env):
            raise ValueError("eeg and envelope must be aligned and equal length")
        x = _lagged_design(np.asarray(eeg, dtype=float), n_lags)
        y = np.asarray(env, dtype=float)[: x.shape[0]]
        if dim is None:
            dim = x.shape[1]
            r_auto = np.zeros((dim, dim))
            r_cross = np.zeros(dim)
        r_auto += x.T @ x
        r_cross += x.T @ y
    if r_auto is None:
        raise ValueError("no segments supplied")
    return r_auto, r_cross


def _solve(r_auto: np.ndarray, r_cross: np.ndarray, lam: float) -> np.ndarray:
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    a = r_auto
    if lam > 0:
        a = r_auto + lam * float(np.mean(np.diag(r_auto))) * np.eye(len(r_auto))
    try:
        w = np.linalg.solve(a, r_cross)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"singular lagged-covariance system at lambda={lam}; regularize (lambda > 0)"
        ) from exc
    return w


def fit_decoder(
    eeg: np.ndarray,
    envelope: Envelope | np.ndarray,
    lags: int | np.ndarray,
    ridge_lambda: float = 0.0,
) -> LinearDecoder:
    """Least-squares (lambda = 0) or ridge fit on one aligned segment."""
    env = envelope.samples if isinstance(envelope, Envelope) else np.asarray(envelope, float)
    n_lags = int(lags) + 1 if np.isscalar(lags) else len(np.asarray(lags))
    return fit_decoder_segments([(np.asarray(eeg, float), env)], n_lags, ridge_lambda)


def fit_decoder_segments(
    segments: list[tuple[np.ndarray, np.ndarray]], n_lags: int, ridge_lambda: float
) -> LinearDecoder:
    """Fit across many segments (e.g. decision windows) at once."""
    r_auto, r_cross = accumulate_covariances(segments, n_lags)
    w = _solve(r_auto, r_cross, ridge_lambda)
    n_ch = segments[0][0].shape[0]
    return LinearDecoder(
        weights=w.reshape(n_ch, n_lags), lags=np.arange(n_lags), ridge_lambda=ridge_lambda
    ).validate()


def reconstruct(decoder: LinearDecoder, eeg: np.ndarray) -> np.ndarray:
    """s_hat(t) = sum_{c,tau} w(c,tau) eeg(c, t+tau); last L samples truncated."""
    decoder.validate()
    eeg = np.asarray(eeg, dtype=float)
    if eeg.shape[0] != decoder.weights.shape[0]:
        raise ValueError(
            f"decoder expects {decoder.weights.shape[0]} channels, got {eeg.shape[0]}"
        )
    x = _lagged_design(eeg, len(decoder.lags))
    return x @ decoder.weights.ravel()


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 3:
        raise ValueError("need equal-length 1-D series of length >= 3")
    da, db = a - a.mean(), b - b.mean()
    na, nb = np.linalg.norm(da), np.linalg.norm(db)
    if na == 0 or nb == 0:
        raise ValueError("zero-variance series in correlation")
    return float(np.dot(da, db) / (na * nb))


@dataclass
class Decision:
    label: str
    r_left: float
    r_right: float
    tie: bool = False


def decide_attention(s_hat: np.ndarray, env_left: np.ndarray, env_right: np.ndarray) -> Decision:
    """Pick the side whose candidate envelope correlates best with the
    reconstruction; exact ties go Left with the tie flag set."""
    r_l = pearson(s_hat, env_left)
    r_r = pearson(s_hat, env_right)
    if r_l == r_r:
        return Decision(label=LEFT, r_left=r_l, r_right=r_r, tie=True)
    return Decision(label=LEFT if r_l > r_r else RIGHT, r_left=r_l, r_right=r_r)


def select_lambda(
    train_segments: list[tuple[np.ndarray, np.ndarray]],
    val_windows: list[tuple[np.ndarray, np.ndarray, np.ndarray, str]],
    n_lags: int,
    grid: tuple[float, ...] = LAMBDA_GRID,
) -> tuple[LinearDecoder, float]:
    """Fit once per grid value, keep the decoder with the best validation
    decision accuracy (ties favor the smaller lambda)."""
    r_auto, r_cross = accumulate_covariances(train_segments, n_lags)
    n_ch = train_segments[0][0].shape[0]
    best = None
    for lam in sorted(grid):
        try:
            w = _solve(r_auto, r_cross, lam)
        except ValueError:
            continue
        dec = LinearDecoder(
            weights=w.reshape(n_ch, n_lags), lags=np.arange(n_lags), ridge_lambda=lam
        )
        hits = 0
        for eeg, env_l, env_r, label in val_windows:
            s_hat = reconstruct(dec, eeg)
            d = decide_attention(s_hat, env_l[: len(s_hat)], env_r[: len(s_hat)])
            hits += d.label == label
        acc = hits / len(val_windows)
        if best is None or acc > best[0]:
            best = (acc, dec)
    if best is None:
        raise ValueError("no lambda on the grid produced a solvable system")
    return best[1], best[0]


# ---------------------------------------------------------------------------
# Envelope containers and closed-loop synthesis
# ---------------------------------------------------------------------------

def save_envelope(env: Envelope, path: str | Path) -> Path:
    env.validate()
    header = {"speaker_id": env.speaker_id, "sample_rate": env.sample_rate}
    return write_container(path, "envelope", header, env.samples)


def load_envelope(path: str | Path) -> Envelope:
    header = read_header(path, "envelope", ("speaker_id", "sample_rate"))
    return Envelope(
        samples=read_payload(path, (-1,)).astype(float),
        speaker_id=str(header["speaker_id"]),
        sample_rate=float(header["sample_rate"]),
    ).validate()


def synth_envelope(
    n_samples: int, sample_rate: float, speaker_id: str, rng: np.random.Generator,
    smooth_s: float = 0.1,
) -> Envelope:
    """Non-negative smoothed rectified noise, a stand-in speech envelope."""
    raw = np.abs(rng.normal(size=n_samples))
    k = max(1, _round_half_up(smooth_s * sample_rate))
    kernel = np.ones(k) / k
    sm = np.convolve(raw, kernel, mode="same")
    return Envelope(samples=sm, speaker_id=speaker_id, sample_rate=sample_rate).validate()


def add_envelope_mixture(
    rec: RawRecording,
    env_left: Envelope,
    env_right: Envelope,
    max_lag: int,
    mix_gain: float,
    seed: int,
) -> RawRecording:
    """Add a lagged linear mixture of the attended envelope to every channel.

    Each channel gets a fixed random causal kernel over lags 0..max_lag;
    within each trial the kernel is convolved with that trial's attended
    envelope, so the EEG follows the stimulus.
    """
    if len(env_left.samples) != rec.n_samples or len(env_right.samples) != rec.n_samples:
        raise ValueError("envelopes must cover the full recording")
    rng = np.random.default_rng(seed)
    kernels = rng.normal(0.0, 1.0, size=(rec.n_channels, max_lag + 1))
    kernels *= mix_gain / math.sqrt(max_lag + 1)
    data = rec.data.astype(float).copy()
    for tr in rec.trials:
        env = env_left if tr.label == LEFT else env_right
        seg = env.samples[tr.start : tr.end]
        for c in range(rec.n_channels):
            mixed = np.convolve(seg, kernels[c])[: tr.length]
            data[c, tr.start : tr.end] += mixed
    return replace(rec, data=data, trials=[replace(t) for t in rec.trials]).validate()


# ---------------------------------------------------------------------------
# Decoder serialization
# ---------------------------------------------------------------------------

def save_decoder(decoder: LinearDecoder, path: str | Path) -> Path:
    decoder.validate()
    header = {
        "ridge_lambda": decoder.ridge_lambda,
        "n_lags": len(decoder.lags),
        "tensors": [{"name": "weights", "shape": list(decoder.weights.shape)}],
    }
    return write_container(path, "linear_decoder", header, decoder.weights)


def load_decoder(path: str | Path) -> LinearDecoder:
    header = read_header(path, "linear_decoder", ("ridge_lambda", "n_lags", "tensors"))
    w = read_payload(path, tuple(header["tensors"][0]["shape"]))
    return LinearDecoder(
        weights=w.astype(float),
        lags=np.arange(int(header["n_lags"])),
        ridge_lambda=float(header["ridge_lambda"]),
    ).validate()
