"""Spectro-spatial feature maps.

A decision window becomes a stack of 32x32 topographic images: per-channel
alpha-band power (DFT of the zero-padded segment, mean of |X|^2 / W^2 over
the in-band bins) is interpolated over the projected electrode layout.
Windows are processed in batches: band power and the unclamped map are
matrix products over the batch.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    LABELS,
    PayloadRows,
    atomic_write_text,
    read_header,
    write_container_chunks,
)
from .geometry import ProjectedLayout
from .interpolate import interpolator

MIN_FFT = 128


@dataclass
class SsfMap:
    grid: np.ndarray  # (grid_n, grid_n)
    extent: tuple[float, float, float, float]


def fft_length(n_samples: int) -> int:
    """Zero-pad target: max(W, 128) rounded up to a power of two."""
    return max(MIN_FFT, 1 << (int(n_samples) - 1).bit_length())


def band_bins(n_samples: int, fs: float, band: tuple[float, float]) -> tuple[int, np.ndarray]:
    """(nfft, k): the zero-pad length of an `n_samples` segment and the
    indices of the DFT bins with low <= k * fs / nfft <= high."""
    nfft = fft_length(n_samples)
    freqs = np.arange(nfft // 2 + 1) * fs / nfft
    bins = np.flatnonzero((freqs >= band[0]) & (freqs <= band[1]))
    if not bins.size:
        raise ValueError(f"no FFT bin inside band {band} at fs={fs} with nfft={nfft}")
    return nfft, bins


def band_power(
    segment: np.ndarray, fs: float, band: tuple[float, float] = (8.0, 13.0)
) -> np.ndarray:
    """Mean in-band spectral power per channel.

    Parameters
    ----------
    segment : (..., n_channels, W) array
    fs : sampling rate in Hz
    band : inclusive (low, high) edges in Hz

    Returns
    -------
    (..., n_channels) non-negative power: mean over FFT bins with
    low <= f_k <= high of |X_k|^2 / W^2, where X is the DFT of the
    segment zero-padded to max(W, 128) rounded up to a power of two.
    Only the in-band DFT rows are formed, as one cos and one sin product.
    """
    seg = np.asarray(segment, dtype=float)
    if seg.ndim < 2 or seg.shape[-1] < 2:
        raise ValueError("segment must be (..., n_channels, W) with W >= 2")
    if not (0 < band[0] < band[1] < fs / 2):
        raise ValueError(f"band {band} invalid at fs={fs}")
    w = seg.shape[-1]
    nfft, bins = band_bins(w, fs, band)
    # n * k reduced mod nfft keeps the phase in [0, 2 pi)
    phase = (2.0 * np.pi / nfft) * (np.outer(np.arange(w), bins) % nfft)
    re = seg @ np.cos(phase)
    im = seg @ np.sin(phase)
    return ((re * re + im * im) / (w * w)).mean(axis=-1)


def extract_ssf(
    segments: np.ndarray,
    layout: ProjectedLayout,
    fs: float,
    band: tuple[float, float] = (8.0, 13.0),
    sub_windows: int = 1,
    grid_n: int = 32,
    log_power: bool = False,
    clamp_gradients: bool = False,
) -> np.ndarray:
    """(N, S, grid_n, grid_n) maps of N windows (N, n_channels, W): each
    window splits into S equal consecutive sub-windows, one power map per
    sub-window, in time order."""
    segs = np.asarray(segments, dtype=float)
    if segs.ndim != 3:
        raise ValueError("segments must be (N, n_channels, W)")
    if sub_windows < 1:
        raise ValueError("sub_windows must be >= 1")
    n, c, w = segs.shape
    if w % sub_windows != 0 or w // sub_windows < 2:
        raise ValueError(
            f"window of {w} samples does not divide into {sub_windows} "
            f"sub-windows of >= 2 samples"
        )
    subs = segs.reshape(n, c, sub_windows, w // sub_windows).transpose(0, 2, 1, 3)
    values = band_power(subs, fs, band)  # (N, S, C)
    if log_power:
        values = np.log1p(values)
    maps = interpolator(layout, clamp_gradients).grid(values, grid_n, fill=0.0)
    if not np.all(np.isfinite(maps)):
        raise ValueError("interpolated map contains non-finite cells")
    return maps


# ---------------------------------------------------------------------------
# Tensor cache and debug dumps
# ---------------------------------------------------------------------------

def save_tensor_cache(
    maps: np.ndarray | Iterable[np.ndarray],
    labels: list[str],
    subjects: list[str],
    extent: tuple[float, float, float, float],
    path: str | Path,
) -> Path:
    """Header JSON + float32 blob of maps (N, S, grid_n, grid_n), window-major.
    `maps` is the whole array, or an iterable of (n, S, grid_n, grid_n)
    chunks in window order, written as they come. Returns the header path."""
    if not len(labels) == len(subjects):
        raise ValueError("one label and one subject id per window required")
    if not set(labels) <= set(LABELS):
        raise ValueError(f"bad label(s) {sorted(set(labels) - set(LABELS))}")
    chunks = iter((maps,) if isinstance(maps, np.ndarray) else maps)
    first = next(chunks, None)
    if first is None or first.ndim != 4 or first.shape[2] != first.shape[3]:
        raise ValueError("maps must be a non-empty (N, S, grid_n, grid_n) array")
    _, s, grid_n, _ = first.shape

    def checked():
        count = 0
        for chunk in itertools.chain((first,), chunks):
            if chunk.shape[1:] != first.shape[1:]:
                raise ValueError(f"map chunk of shape {chunk.shape} after {first.shape}")
            count += len(chunk)
            yield chunk
        if not count or count != len(labels):
            raise ValueError(
                f"{count} windows of maps for {len(labels)} labels: "
                "one label and one subject id per window required"
            )

    header = {"S": s, "grid_n": grid_n, "extent": [float(v) for v in extent],
              "labels": list(labels), "subjects": list(subjects)}
    return write_container_chunks(path, "tensor_cache", header, checked())


def load_tensor_cache(path: str | Path) -> tuple[PayloadRows, list[str], list[str], dict]:
    """Returns (maps, labels, subjects, header). `maps` is the read-only
    (N, S, g, g) float32 view of the payload that reads only the windows
    indexed; the caller closes it."""
    header = read_header(path, "tensor_cache", ("S", "grid_n", "labels", "subjects"))
    s, grid_n = int(header["S"]), int(header["grid_n"])
    labels = [str(x) for x in header["labels"]]
    subjects = [str(x) for x in header["subjects"]]
    return PayloadRows(path, (len(labels), s, grid_n, grid_n)), labels, subjects, header


def write_map_pgm(ssf_map: SsfMap, path: str | Path) -> None:
    """ASCII PGM, min-max scaled to 0..255, nose (max v) at the top row."""
    grid = ssf_map.grid
    lo, hi = float(grid.min()), float(grid.max())
    scaled = np.zeros_like(grid) if hi <= lo else (grid - lo) / (hi - lo)
    pixels = np.round(scaled * 255).astype(int)[::-1]  # flip so v grows upward
    lines = ["P2", f"{grid.shape[1]} {grid.shape[0]}", "255"]
    lines += [" ".join(str(v) for v in row) for row in pixels]
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_map_csv(ssf_map: SsfMap, path: str | Path) -> None:
    rows = [",".join(repr(float(v)) for v in row) for row in ssf_map.grid]
    atomic_write_text(Path(path), "\n".join(rows) + "\n")
