"""Linear stimulus-reconstruction decoder.

Ridge regression from time-lagged EEG to the speech envelope:

    s_hat(t) = sum_c sum_tau w(c, tau) * eeg(c, t + tau)

solved from (R + lambda * mean(diag(R)) * I) w = r with R the lagged EEG
autocovariance and r the EEG-envelope cross-covariance. Overlapping
training windows share lagged rows, so R and r sum each distinct row once,
weighted by the number of windows that hold it; R is assembled from its
channel x channel lag blocks, and each lambda > 0 is solved by Cholesky.
Attention is decided per decision window by Pearson-correlating the
reconstruction against the two candidate envelopes; the reconstruction is
computed once per recording and sliced into windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_factor, cho_solve

from .data import (
    LEFT,
    RIGHT,
    RawRecording,
    WindowSet,
    _round_half_up,
    read_header,
    read_payload,
    write_container,
)

LAMBDA_GRID = tuple(10.0 ** k for k in range(-3, 4))
# lagged rows, and samples where the row weight steps, gathered at a time by
# accumulate_covariances: each block stays small (2.4 MiB at 32 channels x
# 19 lags), so fitting adds little to the peak memory of the baseline stage
ROW_CHUNK = 512
# outputs of reconstruct formed at a time (the last block up to twice as
# many): at 64 channels and 19 lags a block's float64 columns and per-lag
# product take 2.6 MiB, where the whole product of a 48-min recording took
# 29 MiB per lambda, and a 48-min recording needs only 49 blocks
RECONSTRUCT_BLOCK = 4096


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


def train_weights(
    windows: WindowSet, env_left: np.ndarray, env_right: np.ndarray, n_lags: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample multiplicity m (how many windows hold the lagged row that
    starts there) and attended-envelope target y, over the recording that
    the envelopes span."""
    rows = windows.rows(n_lags)
    m = np.bincount(rows.ravel(), minlength=len(env_left)).astype(float)
    y = np.zeros(len(env_left))
    for side, env in ((LEFT, env_left), (RIGHT, env_right)):
        r = rows[windows.labels == side]
        y[r] = env[r]
    return m, y


def accumulate_covariances(
    eeg: np.ndarray, m: np.ndarray, y: np.ndarray, n_lags: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lagged auto-/cross-covariances with the row at sample t weighted by
    m[t] >= 0: sum_t m[t] x_t x_t' and sum_t m[t] y[t] x_t, x_t holding
    eeg[c, t + tau].

    R is built from its C x C lag blocks. Block (i, i + d) is
    B_i[d] = sum_s m[s - i] e[s] e[s + d]', so the top block-row B_0 comes
    from the distinct rows (every run of m > 0, formed ROW_CHUNK rows at a
    time, each row once whatever its weight), and each next block-row is
    B_i = B_{i-1} + sum_u D_u e[u + i] e[u + i + d]' over the K samples u
    where the weight steps, D_u = m[u] - m[u + 1] != 0 (gathered ROW_CHUNK
    at a time); the rest of R is its transpose. That is about
    L C^2 rows + L^2 C^2 K / 2 multiply-adds instead of L^2 C^2 rows / 2.
    Each training window adds at most two steps, so this costs more than a
    Gram matrix of the rows only when windows start fewer than about 3
    samples apart (measured at 32 channels and 19 lags, where a 2-sample
    hop takes 1.4x as long)."""
    eeg = np.asarray(eeg)  # each chunk is cast to float64 as it is formed
    m, y = (np.asarray(a, dtype=float) for a in (m, y))
    n_ch, t = eeg.shape
    if m.shape != (t,) or y.shape != (t,):
        raise ValueError("weights and target must hold one value per EEG sample")
    if np.any(m < 0):
        raise ValueError("row weights must be non-negative")
    n_rows = t - n_lags + 1
    if n_rows < 1 or np.any(m[n_rows:]):
        raise ValueError("a weighted row runs past the end of the series")
    active = np.concatenate(([False], m[:n_rows] > 0, [False]))
    edges = np.flatnonzero(active[1:] != active[:-1])  # run starts and ends alternate
    if len(edges) == 0:
        raise ValueError("no weighted rows")
    top, r_cross = np.zeros((n_ch, n_ch * n_lags)), np.zeros(n_ch * n_lags)
    for lo_run, hi_run in zip(edges[::2], edges[1::2]):
        for lo in range(lo_run, hi_run, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, hi_run)
            seg = eeg[:, lo : hi + n_lags - 1].astype(float)
            x = _lagged_design(seg, n_lags)
            top += (seg[:, : hi - lo] * m[lo:hi]) @ x
            r_cross += (m[lo:hi] * y[lo:hi]) @ x
    # R[(c, tau), (c', tau')] as [c, tau, c', tau']; block-row i holds B_i as
    # the [c, c', d] view r4[:, i, :, i:], d = tau' - i
    r4 = np.zeros((n_ch, n_lags, n_ch, n_lags))
    # steps of the weight at rows u = -1 .. n_rows - 1 (m is 0 outside)
    step = -np.diff(np.concatenate(([0.0], m[:n_rows], [0.0])))
    u = np.flatnonzero(step) - 1
    d_u = step[u + 1]
    for lo in range(0, len(u), ROW_CHUNK):
        uc, dc = u[lo : lo + ROW_CHUNK], d_u[lo : lo + ROW_CHUNK, None]
        # e[u + j] for j = 1 .. n_lags - 1, as (steps, n_lags - 1, C)
        at_steps = eeg.T[uc[:, None] + np.arange(1, n_lags)].astype(float)
        for i in range(1, n_lags):
            # B_i - B_{i-1} = sum_u D_u e[u + i] e[u + i + d]' for
            # d < n_lags - i; the right-hand factor is a view of at_steps
            lagged = at_steps[:, i - 1 :].reshape(len(uc), -1)
            change = (at_steps[:, i - 1] * dc).T @ lagged
            r4[:, i, :, i:] += change.reshape(n_ch, n_lags - i, n_ch).transpose(0, 2, 1)
    r4[:, 0] = top.reshape(n_ch, n_ch, n_lags)
    return _fill_lag_blocks(r4).reshape(n_ch * n_lags, n_ch * n_lags), r_cross


def _fill_lag_blocks(r4: np.ndarray) -> np.ndarray:
    """R as [c, tau, c', tau'], completed in place from B_0 in r4[:, 0] and
    the increments B_i - B_{i-1} in r4[:, i, :, i:], each as [c, c', d]:
    every block-row adds the one above it, then the lower blocks mirror the
    upper ones."""
    n_lags = r4.shape[1]
    r4[:, 0] += 0.0  # a -0.0 of B_0 becomes +0.0, as when B_0 took an increment of zeros
    for i in range(1, n_lags):
        r4[:, i, :, i:] += r4[:, i - 1, :, i - 1 : n_lags - 1]
    for i in range(n_lags - 1):
        r4[:, i + 1 :, :, i] = r4[:, i, :, i + 1 :].transpose(1, 2, 0)
    return r4


def _solve(r_auto: np.ndarray, r_cross: np.ndarray, lam: float) -> np.ndarray:
    """Solve (R + lam * mean(diag R) * I) w = r: by LU at lam = 0, and by
    Cholesky for lam > 0, where the system is symmetric positive definite."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    try:
        if lam == 0:
            return np.linalg.solve(r_auto, r_cross)
        # Fortran order, which LAPACK takes as it is: cho_factor would copy
        # a C-ordered matrix into Fortran order first
        a = np.array(r_auto, order="F")
        diag = np.arange(len(a))
        a[diag, diag] += lam * float(np.mean(np.diag(r_auto)))
        # no finiteness scan, as np.linalg.solve at lam = 0 has none;
        # decoders check their weights for finiteness
        factor = cho_factor(a, overwrite_a=True, check_finite=False)
        return cho_solve(factor, r_cross, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"singular lagged-covariance system at lambda={lam}; regularize (lambda > 0)"
        ) from exc


def _decoder(w: np.ndarray, n_ch: int, n_lags: int, lam: float) -> LinearDecoder:
    return LinearDecoder(weights=w.reshape(n_ch, n_lags), lags=np.arange(n_lags), ridge_lambda=lam)


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
    """Fit across many segments (e.g. decision windows) at once: the segments
    are laid end to end, with weight 1 on each segment's own lagged rows and
    0 on the rows that would span two segments."""
    if not segments:
        raise ValueError("no segments supplied")
    weights = []
    for eeg, env in segments:
        t = eeg.shape[1]
        if t != len(env):
            raise ValueError("eeg and envelope must be aligned and equal length")
        if t < n_lags:
            raise ValueError(f"series of {t} samples is shorter than max lag {n_lags - 1}")
        weights.append(np.arange(t) <= t - n_lags)
    eeg = np.concatenate([e for e, _ in segments], axis=1)
    y = np.concatenate([v for _, v in segments])
    r_auto, r_cross = accumulate_covariances(eeg, np.concatenate(weights), y, n_lags)
    w = _solve(r_auto, r_cross, ridge_lambda)
    return _decoder(w, eeg.shape[0], n_lags, ridge_lambda).validate()


def reconstruct(decoder: LinearDecoder, eeg: np.ndarray) -> np.ndarray:
    """s_hat(t) = sum_{c,tau} w(c,tau) eeg(c, t+tau); last L samples truncated.
    For each block of RECONSTRUCT_BLOCK outputs, one (n_lags, C) x (C, block
    + n_lags - 1) product of the float64 cast of its columns, then a sum of
    the product's rows shifted by their lag, so no lagged design is formed.
    The blocks give the bits of the whole product."""
    decoder.validate()
    eeg = np.asarray(eeg)  # each column block is cast to float64 as it is formed
    if eeg.shape[0] != decoder.weights.shape[0]:
        raise ValueError(
            f"decoder expects {decoder.weights.shape[0]} channels, got {eeg.shape[0]}"
        )
    n_lags = len(decoder.lags)
    n = eeg.shape[1] - n_lags + 1
    if n < 1:
        raise ValueError(f"series of {eeg.shape[1]} samples is shorter than max lag {n_lags - 1}")
    s_hat = np.empty(n)
    # the last block takes the remainder: a narrow product can take another
    # BLAS path than the same columns of the whole product (at n_lags = 1 a
    # lone column is a dot product, not a gemv) and round differently
    starts = range(0, max(n - RECONSTRUCT_BLOCK, 0) + 1, RECONSTRUCT_BLOCK)
    for lo, hi in zip(starts, [*starts[1:], n]):
        per_lag = decoder.weights.T @ eeg[:, lo : hi + n_lags - 1].astype(float)
        s_hat[lo:hi] = per_lag[0, : hi - lo]
        for tau in range(1, n_lags):
            s_hat[lo:hi] += per_lag[tau, tau : tau + hi - lo]
    return s_hat


def pearson(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Correlation of two 1-D series, or of matching rows of two 2-D arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim not in (1, 2) or a.shape[-1] < 3:
        raise ValueError("need equal-shape 1-D series or rows of length >= 3")
    da = a - a.mean(axis=-1, keepdims=True)
    db = b - b.mean(axis=-1, keepdims=True)
    na = np.sqrt(np.einsum("...i,...i->...", da, da))
    nb = np.sqrt(np.einsum("...i,...i->...", db, db))
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("zero-variance series in correlation")
    r = np.einsum("...i,...i->...", da, db) / (na * nb)
    return float(r) if a.ndim == 1 else r


@dataclass
class Decision:
    label: str | np.ndarray
    r_left: float | np.ndarray
    r_right: float | np.ndarray
    tie: bool | np.ndarray = False


def decide_attention(s_hat: np.ndarray, env_left: np.ndarray, env_right: np.ndarray) -> Decision:
    """Pick the side whose candidate envelope correlates best with the
    reconstruction; exact ties go Left with the tie flag set. Rows of 2-D
    inputs are separate windows, decided together into arrays."""
    r_l = pearson(s_hat, env_left)
    r_r = pearson(s_hat, env_right)
    label = np.where(r_l >= r_r, LEFT, RIGHT)
    tie = np.equal(r_l, r_r)
    if np.ndim(r_l) == 0:
        return Decision(label=str(label), r_left=r_l, r_right=r_r, tie=bool(tie))
    return Decision(label=label, r_left=r_l, r_right=r_r, tie=tie)


def select_lambda(
    train: tuple[np.ndarray, np.ndarray, np.ndarray],
    val: tuple[np.ndarray, np.ndarray, WindowSet],
    n_lags: int,
    grid: tuple[float, ...] = LAMBDA_GRID,
) -> tuple[LinearDecoder, float]:
    """Fit once per grid value, keep the decoder with the best validation
    decision accuracy (ties favor the smaller lambda); a lambda with a
    singular system is skipped.

    `train` is (eeg, m, y) as for `accumulate_covariances`; `val` is
    (env_left, env_right, windows) for validation windows on the same
    recording. Each fit reconstructs the recording once and decides every
    window from slices of it.
    """
    eeg, m, y = train
    env_left, env_right, windows = val
    r_auto, r_cross = accumulate_covariances(eeg, m, y, n_lags)
    rows = windows.rows(n_lags)
    best = None
    for lam in sorted(grid):
        try:
            w = _solve(r_auto, r_cross, lam)
        except ValueError:
            continue
        dec = _decoder(w, eeg.shape[0], n_lags, lam)
        s_hat = reconstruct(dec, eeg)
        d = decide_attention(s_hat[rows], env_left[rows], env_right[rows])
        acc = int(np.sum(d.label == windows.labels)) / len(windows.labels)
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
    """Add a lagged linear mixture of the attended envelope to every channel
    of `rec`, in place, and return `rec`.

    Each channel gets a fixed random causal kernel over lags 0..max_lag;
    within each trial the kernel is convolved with that trial's attended
    envelope, so the EEG follows the stimulus.
    """
    if len(env_left.samples) != rec.n_samples or len(env_right.samples) != rec.n_samples:
        raise ValueError("envelopes must cover the full recording")
    rng = np.random.default_rng(seed)
    kernels = rng.normal(0.0, 1.0, size=(rec.n_channels, max_lag + 1))
    kernels *= mix_gain / math.sqrt(max_lag + 1)
    for tr in rec.trials:
        env = env_left if tr.label == LEFT else env_right
        seg = env.samples[tr.start : tr.end]
        for c in range(rec.n_channels):
            mixed = np.convolve(seg, kernels[c])[: tr.length]
            rec.data[c, tr.start : tr.end] += mixed
    return rec.validate()


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
