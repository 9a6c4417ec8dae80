from types import SimpleNamespace

import numpy as np
import pytest

from asad.data import LEFT, RIGHT, WindowSet, load_recording
from asad.features import (
    SsfMap,
    band_power,
    extract_ssf,
    fft_length,
    load_tensor_cache,
    save_tensor_cache,
    write_map_csv,
    write_map_pgm,
)
from asad.geometry import project_electrodes
from asad.interpolate import interpolator
from asad.pipeline import (
    EXTRACT_CHUNK,
    FeatureSection,
    _input_paths,
    build_split,
    config_from_dict,
    partition_maps,
    resolve_montage,
    stage_extract,
    stage_preprocess,
    stage_synth,
)

from conftest import make_random_montage


def naive_band_power(segment, fs, band):
    """O(N^2) DFT-definition oracle on the padded bin grid."""
    seg = np.asarray(segment, dtype=float)
    w = seg.shape[1]
    nfft = fft_length(w)
    freqs = np.arange(nfft // 2 + 1) * fs / nfft
    keep = (freqs >= band[0]) & (freqs <= band[1])
    out = np.zeros(seg.shape[0])
    n_idx = np.arange(w)
    for ci in range(seg.shape[0]):
        acc = []
        for k in np.flatnonzero(keep):
            xk = np.sum(seg[ci] * np.exp(-2j * np.pi * k * n_idx / nfft))
            acc.append(abs(xk) ** 2 / (w * w))
        out[ci] = np.mean(acc)
    return out


def extract_window(samples, label, layout, **features):
    """One window's maps and label, through the batched extract_ssf."""
    maps = extract_ssf(samples[None], layout, **features)[0]
    return SimpleNamespace(maps=maps, label=label)


def test_zero_signal_zero_power():
    assert np.all(band_power(np.zeros((3, 70)), 70.0, (8, 13)) == 0.0)


def test_amplitude_scaling_quadruples_power(rng):
    seg = rng.normal(size=(4, 70))
    p1 = band_power(seg, 70.0, (8, 13))
    p2 = band_power(2.0 * seg, 70.0, (8, 13))
    assert np.allclose(p2, 4.0 * p1, rtol=1e-12)


def test_band_power_matches_naive_dft_sinusoid():
    t = np.arange(70) / 70.0
    seg = np.sin(2 * np.pi * 10 * t)[None, :]
    mine = band_power(seg, 70.0, (8, 13))
    oracle = naive_band_power(seg, 70.0, (8, 13))
    assert abs(mine[0] - oracle[0]) < 1e-10 * max(1.0, abs(oracle[0]))


def test_band_power_exhaustive_small_windows(rng):
    # covered again (with timing) by the acceptance suite
    for w in range(2, 129, 7):
        seg = rng.normal(size=(2, w))
        mine = band_power(seg, 70.0, (8, 13))
        oracle = naive_band_power(seg, 70.0, (8, 13))
        rel = np.abs(mine - oracle) / np.maximum(np.abs(oracle), 1e-300)
        assert np.max(rel) < 1e-10


def test_band_without_bins_rejected(rng):
    seg = rng.normal(size=(1, 16))
    with pytest.raises(ValueError, match="no FFT bin"):
        band_power(seg, 70.0, (0.01, 0.2))


def test_extract_single_map(rng):
    mont = make_random_montage(16, 0)
    layout = project_electrodes(mont)
    t = extract_window(rng.normal(size=(16, 70)), LEFT, layout, fs=70.0)
    assert t.maps.shape == (1, 32, 32)
    assert t.label == LEFT


def test_extract_identical_halves(rng):
    mont = make_random_montage(16, 1)
    layout = project_electrodes(mont)
    half = rng.normal(size=(16, 64))
    t = extract_window(np.concatenate([half, half], axis=1), RIGHT, layout, fs=70.0, sub_windows=2)
    assert t.maps.shape == (2, 32, 32)
    assert np.max(np.abs(t.maps[0] - t.maps[1])) < 1e-9


def test_extract_bad_subdivision(rng):
    mont = make_random_montage(16, 2)
    layout = project_electrodes(mont)
    samples = rng.normal(size=(16, 70))
    with pytest.raises(ValueError, match="sub-windows"):
        extract_window(samples, LEFT, layout, fs=70.0, sub_windows=3)  # 70 % 3 != 0


def test_log_power_option(rng):
    mont = make_random_montage(16, 3)
    layout = project_electrodes(mont)
    samples = rng.normal(size=(16, 70))
    plain = extract_window(samples, LEFT, layout, fs=70.0)
    logged = extract_window(samples, LEFT, layout, fs=70.0, log_power=True)
    assert not np.allclose(plain.maps, logged.maps)


def test_subwindow_maps_track_full_window():
    # stationary alpha: each of the S=10 sub-window maps stays within the
    # sampling-variability band around the full-window map, with the band
    # measured by a Monte-Carlo oracle over fresh draws of the same process
    mont = make_random_montage(16, 5)
    layout = project_electrodes(mont)

    def draw(seed):
        r = np.random.default_rng(seed)
        t = np.arange(70) / 70.0
        phase = r.uniform(0, 2 * np.pi)
        sig = np.sin(2 * np.pi * 10 * t + phase)[None, :] + r.normal(0, 0.5, (16, 70))
        return sig

    def deviation(sig):
        subs = extract_window(sig, LEFT, layout, fs=70.0, sub_windows=10).maps
        full = extract_window(sig, LEFT, layout, fs=70.0, sub_windows=1).maps[0]
        return float(np.max(np.abs(subs.mean(axis=0) - full)))

    bound = 1.2 * max(deviation(draw(1000 + i)) for i in range(200))
    assert deviation(draw(7)) <= bound


def test_tensor_cache_roundtrip(tmp_path, rng):
    tensors = [
        SimpleNamespace(maps=rng.normal(size=(2, 32, 32)).astype(np.float32), label=LEFT),
        SimpleNamespace(maps=rng.normal(size=(2, 32, 32)).astype(np.float32), label=RIGHT),
    ]
    save_tensor_cache(
        np.stack([t.maps for t in tensors]), [t.label for t in tensors], ["s0", "s1"],
        (0.0, 1.0, 0.0, 1.0), tmp_path / "cache",
    )
    maps, labels, subjects, header = load_tensor_cache(tmp_path / "cache")
    assert maps.shape == (2, 2, 32, 32)
    assert labels == [LEFT, RIGHT]
    assert subjects == ["s0", "s1"]
    assert header["S"] == 2 and header["grid_n"] == 32
    assert np.array_equal(maps[0], tensors[0].maps.astype(np.float32))


def test_pgm_uniform_for_constant_map(tmp_path):
    m = SsfMap(grid=np.full((32, 32), 5.0), extent=(0, 1, 0, 1))
    write_map_pgm(m, tmp_path / "m.pgm")
    lines = (tmp_path / "m.pgm").read_text().strip().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "32 32"
    assert lines[2] == "255"
    body = " ".join(lines[3:]).split()
    assert set(body) == {"0"}


def test_map_csv_roundtrip(tmp_path, rng):
    grid = rng.normal(size=(32, 32))
    write_map_csv(SsfMap(grid=grid, extent=(0, 1, 0, 1)), tmp_path / "m.csv")
    back = np.array(
        [[float(x) for x in line.split(",")] for line in (tmp_path / "m.csv").read_text().splitlines()]
    )
    assert np.array_equal(back, grid)


# ---------------------------------------------------------------------------
# Batched band power and maps
# ---------------------------------------------------------------------------

def test_band_power_batch_matches_per_segment_and_naive(rng):
    segs = rng.normal(size=(2, 3, 4, 14))
    batched = band_power(segs, 70.0, (8, 13))
    assert batched.shape == (2, 3, 4)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(batched[idx], band_power(segs[idx], 70.0, (8, 13)))
        oracle = naive_band_power(segs[idx], 70.0, (8, 13))
        assert np.max(np.abs(batched[idx] - oracle) / oracle) < 1e-10


def test_extract_batch_equals_single_windows(rng):
    layout = project_electrodes(make_random_montage(16, 6))
    n = EXTRACT_CHUNK + 3
    segs = rng.normal(size=(n, 16, 70))
    maps = extract_ssf(segs, layout, fs=70.0, sub_windows=5)
    # the segments laid end to end as one recording, one window each
    data = {"s": np.concatenate(segs, axis=1)}
    wins = WindowSet(np.full(n, "s"), np.zeros(n, int), 70 * np.arange(n), np.full(n, LEFT), 70)
    feat = FeatureSection(sub_windows=5)
    chunked = np.concatenate(list(partition_maps(wins, data, layout, 70.0, feat)))
    assert maps.shape == chunked.shape == (n, 5, 32, 32)
    for i in range(n):
        single = extract_ssf(segs[i : i + 1], layout, fs=70.0, sub_windows=5)
        assert np.array_equal(maps[i], single[0])
        assert np.array_equal(chunked[i], single[0].astype(np.float32))


def test_stage_extract_cache_matches_per_window_reference(tmp_path):
    """The cache of one partition equals, after the float32 cast, maps built
    one sub-window at a time from FFT band power and Bezier evaluation."""
    cfg = config_from_dict({
        "models": ["cnn"],
        "synth": {"n_subjects": 1, "duration_s": 60.0, "n_channels": 32},
        "montage": "builtin:biosemi32",
        "split": {"block_s": 10.0},
        "window_sizes_s": [1.0],
        "features": {"sub_windows": 2},
    })
    stage_synth(cfg, tmp_path)
    stage_preprocess(cfg, tmp_path)
    stage_extract(cfg, tmp_path)
    maps, labels, _, _ = load_tensor_cache(tmp_path / "features" / "w1" / "test")

    layout = project_electrodes(resolve_montage(cfg))
    ct = interpolator(layout)
    umin, umax, vmin, vmax = layout.extent
    us = umin + (np.arange(32) + 0.5) * (umax - umin) / 32
    vs = vmin + (np.arange(32) + 0.5) * (vmax - vmin) / 32
    uu, vv = np.meshgrid(us, vs, indexing="xy")
    query = np.column_stack([uu.ravel(), vv.ravel()])
    recs = [load_recording(p) for p in _input_paths(tmp_path / "preprocessed", "preprocess")]
    data = {rec.subject_id: rec.data for rec in recs}
    wins = build_split(cfg, recs, 1.0).test
    assert labels == [w.label for w in wins]
    nfft = fft_length(35)
    freqs = np.arange(nfft // 2 + 1) * 70.0 / nfft
    in_band = (freqs >= 8.0) & (freqs <= 13.0)
    for i, win in enumerate(wins):
        for s in range(2):
            _, start = win.origin
            samples = data[win.subject_id][:, start : start + win.length]
            seg = np.asarray(samples[:, s * 35 : (s + 1) * 35], dtype=float)
            spec = np.fft.rfft(seg, n=nfft, axis=1)
            power = (np.abs(spec[:, in_band]) ** 2 / (35 * 35)).mean(axis=1)
            ref = ct.evaluate(power, query, fill=0.0).reshape(32, 32)
            assert np.array_equal(maps[i, s], ref.astype(np.float32)), (i, s)
