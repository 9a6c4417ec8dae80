"""Spectro-spatial feature maps.

A decision window becomes a stack of 32x32 topographic images: per-channel
alpha-band power (FFT of the zero-padded segment, mean of |X|^2 / W^2 over
the in-band bins) is interpolated over the projected electrode layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    DecisionWindow,
    LABELS,
    atomic_write_text,
    read_header,
    read_payload,
    write_container,
)
from .geometry import ProjectedLayout
from .interpolate import interpolator

MIN_FFT = 128


@dataclass
class SsfMap:
    grid: np.ndarray  # (grid_n, grid_n)
    extent: tuple[float, float, float, float]


@dataclass
class SsfTensor:
    maps: np.ndarray  # (S, grid_n, grid_n)
    label: str

    @property
    def sub_windows(self) -> int:
        return self.maps.shape[0]


def fft_length(n_samples: int) -> int:
    """Zero-pad target: max(W, 128) rounded up to a power of two."""
    target = max(MIN_FFT, int(n_samples))
    n = 1
    while n < target:
        n <<= 1
    return n


def band_power(
    segment: np.ndarray, fs: float, band: tuple[float, float] = (8.0, 13.0)
) -> np.ndarray:
    """Mean in-band spectral power per channel.

    Parameters
    ----------
    segment : (n_channels, W) array
    fs : sampling rate in Hz
    band : inclusive (low, high) edges in Hz

    Returns
    -------
    (n_channels,) non-negative power vector: mean over FFT bins with
    low <= f_k <= high of |X_k|^2 / W^2, where X is the DFT of the
    segment zero-padded to max(W, 128) rounded up to a power of two.
    """
    seg = np.asarray(segment, dtype=float)
    if seg.ndim != 2 or seg.shape[1] < 2:
        raise ValueError("segment must be (n_channels, W) with W >= 2")
    low, high = band
    if not (0 < low < high < fs / 2):
        raise ValueError(f"band {band} invalid at fs={fs}")
    w = seg.shape[1]
    nfft = fft_length(w)
    freqs = np.arange(nfft // 2 + 1) * fs / nfft
    in_band = (freqs >= low) & (freqs <= high)
    if not in_band.any():
        raise ValueError(f"no FFT bin inside band {band} at fs={fs} with nfft={nfft}")
    spec = np.fft.rfft(seg, n=nfft, axis=1)
    power = np.abs(spec[:, in_band]) ** 2 / (w * w)
    return power.mean(axis=1)


def extract_ssf(
    window: DecisionWindow,
    layout: ProjectedLayout,
    fs: float,
    band: tuple[float, float] = (8.0, 13.0),
    sub_windows: int = 1,
    grid_n: int = 32,
    log_power: bool = False,
    clamp_gradients: bool = False,
) -> SsfTensor:
    """Split the window into equal consecutive sub-windows and build one
    power map per sub-window, stacked in time order."""
    if sub_windows < 1:
        raise ValueError("sub_windows must be >= 1")
    w = window.length
    if w % sub_windows != 0 or w // sub_windows < 2:
        raise ValueError(
            f"window of {w} samples does not divide into {sub_windows} "
            f"sub-windows of >= 2 samples"
        )
    step = w // sub_windows
    ct = interpolator(layout, clamp_gradients)
    maps = np.empty((sub_windows, grid_n, grid_n))
    for s in range(sub_windows):
        seg = window.samples[:, s * step : (s + 1) * step]
        values = band_power(seg, fs, band)
        if log_power:
            values = np.log1p(values)
        maps[s] = ct.grid(values, grid_n, fill=0.0)
    if not np.all(np.isfinite(maps)):
        raise ValueError("interpolated map contains non-finite cells")
    return SsfTensor(maps=maps, label=window.label)


# ---------------------------------------------------------------------------
# Tensor cache and debug dumps
# ---------------------------------------------------------------------------

def save_tensor_cache(
    tensors: list[SsfTensor],
    subjects: list[str],
    extent: tuple[float, float, float, float],
    path: str | Path,
) -> Path:
    """Header JSON + float32 blob, window-major. Returns the header path."""
    if len(tensors) != len(subjects):
        raise ValueError("one subject id per tensor required")
    if not tensors:
        raise ValueError("empty tensor cache")
    s = tensors[0].sub_windows
    grid_n = tensors[0].maps.shape[1]
    for t in tensors:
        if t.maps.shape != (s, grid_n, grid_n):
            raise ValueError("tensors in one cache must share a shape")
        if t.label not in LABELS:
            raise ValueError(f"bad label {t.label!r}")
    header = {
        "S": s,
        "grid_n": grid_n,
        "extent": [float(v) for v in extent],
        "labels": [t.label for t in tensors],
        "subjects": list(subjects),
    }
    return write_container(path, "tensor_cache", header, np.stack([t.maps for t in tensors]))


def load_tensor_cache(path: str | Path) -> tuple[np.ndarray, list[str], list[str], dict]:
    """Returns (maps (N,S,g,g) float32, labels, subjects, header)."""
    header = read_header(path, "tensor_cache", ("S", "grid_n", "labels", "subjects"))
    s, grid_n = int(header["S"]), int(header["grid_n"])
    labels = [str(x) for x in header["labels"]]
    subjects = [str(x) for x in header["subjects"]]
    return read_payload(path, (len(labels), s, grid_n, grid_n)), labels, subjects, header


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
