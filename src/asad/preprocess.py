"""Deterministic EEG preprocessing chain.

Order is fixed: mastoid-style re-referencing, zero-phase Butterworth
bandpass (per trial, so filter transients never smear across trials),
polyphase resampling to the target rate, then per-trial normalization to
zero mean / unit variance.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy import signal as sps

from .data import CHANNEL_BLOCK, RawRecording, Trial, _round_half_up, subset_recording


@dataclass
class PreprocConfig:
    reference_channels: list[str]
    band: tuple[float, float] = (8.0, 13.0)
    target_rate: float = 70.0
    filter_order: int = 4

    def validate(self) -> "PreprocConfig":
        low, high = self.band
        if not (0 < low < high):
            raise ValueError(f"band edges must satisfy 0 < low < high, got {self.band}")
        if high >= self.target_rate / 2:
            raise ValueError(
                f"band high edge {high} Hz must stay below target Nyquist "
                f"{self.target_rate / 2} Hz"
            )
        if not self.reference_channels:
            raise ValueError("reference_channels must be non-empty")
        if self.filter_order < 2 or self.filter_order % 2 != 0:
            raise ValueError("filter_order must be an even integer >= 2")
        return self


def rereference(rec: RawRecording, reference_channels: list[str]) -> RawRecording:
    """Subtract the per-sample mean of the reference channels everywhere,
    then drop the reference channels."""
    if not reference_channels:
        raise ValueError("reference_channels must be non-empty")
    ref_idx = [rec.channel_index(n) for n in reference_channels]
    ref_mean = rec.data[ref_idx].mean(axis=0)
    keep = [i for i in range(rec.n_channels) if i not in set(ref_idx)]
    if not keep:
        raise ValueError("re-referencing would drop every channel")
    data = rec.data[keep] - ref_mean[None, :]
    return replace(
        rec,
        channels=[rec.channels[i] for i in keep],
        data=data,
        trials=[replace(t) for t in rec.trials],
    ).validate()


def _design_bandpass(band: tuple[float, float], order: int, fs: float) -> np.ndarray:
    low, high = band
    if high >= fs / 2:
        raise ValueError(f"band edge {high} Hz is at or above Nyquist {fs / 2} Hz")
    return sps.butter(order, [low, high], btype="bandpass", fs=fs, output="sos")


@functools.cache
def _bandpass_design(band: tuple[float, float], order: int, fs: float) -> tuple[np.ndarray, int]:
    """`_design_bandpass` and its `_impulse_settle_len`, designed once per
    (band, order, fs); the SOS array is shared, so it is read-only."""
    sos = _design_bandpass(band, order, fs)
    pad = _impulse_settle_len(sos, fs)
    sos.flags.writeable = False
    return sos, pad


def _impulse_settle_len(sos: np.ndarray, fs: float, tol: float = 1e-9) -> int:
    """Samples until the impulse response decays below tol of its peak;
    used as the reflect-pad length for zero-phase filtering."""
    n = max(64, int(fs))
    for _ in range(16):
        imp = np.zeros(n)
        imp[0] = 1.0
        h = sps.sosfilt(sos, imp)
        peak = np.max(np.abs(h))
        idx = np.flatnonzero(np.abs(h) > tol * peak)
        if idx.size and idx[-1] < n - 1:
            return int(idx[-1]) + 1
        n *= 2
    return n


def _reflect_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """`x` extended along its last axis by `pad` samples mirrored about each
    end sample (which is not repeated); `x` itself when `pad` is 0."""
    if pad <= 0:
        return x
    return np.concatenate([x[..., 1 : pad + 1][..., ::-1], x, x[..., -pad - 1 : -1][..., ::-1]],
                          axis=-1)


def _zero_phase(sos: np.ndarray, x: np.ndarray, pad: int) -> np.ndarray:
    """Forward pass, time-reverse, second pass, reverse; reflect-padded."""
    n = x.shape[-1]
    pad = min(pad, n - 1)
    ext = _reflect_pad(x, pad)
    y = sps.sosfilt(sos, ext, axis=-1)
    del ext  # the padded input is not needed for the backward pass
    y = sps.sosfilt(sos, y[..., ::-1], axis=-1)[..., ::-1]
    return np.ascontiguousarray(y[..., pad : pad + n])


def bandpass(
    rec: RawRecording, band: tuple[float, float] = (8.0, 13.0), order: int = 4
) -> RawRecording:
    """Zero-phase Butterworth bandpass applied independently per trial."""
    sos, pad = _bandpass_design(tuple(band), order, rec.sample_rate)
    sos = sos.copy()  # sosfilt takes only a writable array; the shared one stays read-only
    data = rec.data.astype(float)
    for tr in rec.trials:
        data[:, tr.start : tr.end] = _zero_phase(sos, data[:, tr.start : tr.end], pad)
    return replace(rec, data=data, trials=[replace(t) for t in rec.trials]).validate()


def resample_series(x: np.ndarray, fs: float, target_rate: float) -> np.ndarray:
    """Kaiser-windowed-sinc polyphase resampling along the last axis.

    The input is reflect-extended by whole down-factor multiples so the
    output is transient-free at the edges, then cut to exactly
    round(n * target_rate / fs) samples.
    """
    n = x.shape[-1]
    ratio = Fraction(target_rate) / Fraction(fs)
    ratio = ratio.limit_denominator(1_000_000)
    up, down = ratio.numerator, ratio.denominator
    n_out = _round_half_up(n * target_rate / fs)
    if up == down:
        return x.astype(float, copy=True)
    # reflect-pad by k*down input samples so the pad maps to exactly k*up
    # output samples on each side
    half_len_in = 10 * max(up, down) / up  # scipy's default filter half-length
    k = int(math.ceil((half_len_in + 1) / down)) + 1
    pad = min(k * down, (n - 1) // down * down)
    y = sps.resample_poly(_reflect_pad(x, pad), up, down, axis=-1, window=("kaiser", 8.6))
    off = pad * up // down
    return np.ascontiguousarray(y[..., off : off + n_out])


def resample(rec: RawRecording, target_rate: float) -> RawRecording:
    """Resample the whole recording; trial boundaries rescale by the same
    ratio and are re-validated."""
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    data = resample_series(np.asarray(rec.data, dtype=float), rec.sample_rate, target_rate)
    ratio = target_rate / rec.sample_rate
    trials = [
        Trial(_round_half_up(t.start * ratio), _round_half_up(t.end * ratio), t.label)
        for t in rec.trials
    ]
    return replace(rec, sample_rate=target_rate, data=data, trials=trials).validate()


def normalize_trial(rec: RawRecording) -> RawRecording:
    """Shift/scale each (channel, trial) segment to mean 0, variance 1
    (population variance). Samples outside any trial are left untouched."""
    data = rec.data.astype(float)
    for ti, tr in enumerate(rec.trials):
        seg = data[:, tr.start : tr.end]
        if seg.shape[1] < 2:
            raise ValueError(f"trial {ti} has fewer than 2 samples")
        mean = seg.mean(axis=1, keepdims=True)
        var = seg.var(axis=1, keepdims=True)
        dead = np.flatnonzero(var[:, 0] <= 0.0)
        if dead.size:
            raise ValueError(
                f"zero-variance segment: channel {rec.channels[dead[0]]!r} in trial {ti}"
            )
        seg -= mean
        seg /= np.sqrt(var)
    return replace(rec, data=data, trials=[replace(t) for t in rec.trials]).validate()


def preprocess_blocks(
    read: Callable[[list[str]], RawRecording], cfg: PreprocConfig, channels: list[str]
) -> Iterator[RawRecording]:
    """Full chain: re-reference, bandpass, resample, normalize, of `channels`,
    CHANNEL_BLOCK at a time, in the order given.

    `read(names)` gives the recording of just those channels, in that order:
    a block's channels and then the reference channels. Each block's output,
    float64 at the target rate, comes as soon as it is done, and its rows
    are the bytes of the four steps applied to the whole recording, since
    each step treats a channel on its own once the reference mean (the same
    values in every block) is subtracted.
    """
    cfg.validate()
    refs = list(cfg.reference_channels)
    if not channels:
        raise ValueError("re-referencing would drop every channel")
    for lo in range(0, len(channels), CHANNEL_BLOCK):
        names = list(channels[lo : lo + CHANNEL_BLOCK])
        # nested, so each step's input is freed as soon as the next returns
        yield normalize_trial(resample(
            bandpass(rereference(read([*names, *refs]), refs), cfg.band, cfg.filter_order),
            cfg.target_rate,
        ))


def preprocess_recording(
    rec: RawRecording, cfg: PreprocConfig, channels: list[str] | None = None
) -> RawRecording:
    """`preprocess_blocks` of `channels` (default: every channel but the
    references), gathered from `rec`, into one float64 output: no
    whole-recording copy beyond the output."""
    if channels is None:
        channels = [c for c in rec.channels if c not in cfg.reference_channels]
    data, lo = None, 0
    for block in preprocess_blocks(functools.partial(subset_recording, rec), cfg, channels):
        if data is None:
            data = np.empty((len(channels), block.n_samples))
        data[lo : lo + block.n_channels] = block.data
        lo += block.n_channels
    return replace(block, channels=list(channels), data=data).validate()
