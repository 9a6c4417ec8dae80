import tracemalloc

import numpy as np
import pytest

from asad.data import (
    LEFT,
    RIGHT,
    RawRecording,
    Trial,
    _round_half_up,
    container_paths,
    save_recording,
    save_recording_blocks,
    subset_recording,
)
from asad.preprocess import (
    CHANNEL_BLOCK,
    PreprocConfig,
    _bandpass_design,
    _design_bandpass,
    _impulse_settle_len,
    _zero_phase,
    bandpass,
    normalize_trial,
    preprocess_blocks,
    preprocess_recording,
    rereference,
    resample,
    resample_series,
)


def _sine_recording(freqs, fs=128.0, seconds=30.0, ref_value=None):
    t = np.arange(int(fs * seconds)) / fs
    rows = [np.sin(2 * np.pi * f * t) for f in freqs]
    names = [f"c{i}" for i in range(len(rows))]
    if ref_value is not None:
        rows.append(np.full_like(t, ref_value))
        names.append("ref")
    return RawRecording(
        "s", fs, names, np.vstack(rows), [Trial(0, len(t), LEFT)]
    ).validate()


def test_rereference_identical_channel_zeroes():
    t = np.arange(100) / 10.0
    x = np.sin(t)
    rec = RawRecording("s", 10.0, ["a", "m"], np.vstack([x, x]), [Trial(0, 100, LEFT)])
    out = rereference(rec, ["m"])
    assert out.channels == ["a"]
    assert np.allclose(out.data[0], 0.0)


def test_rereference_constant_pair_shift():
    rec = RawRecording(
        "s", 10.0, ["a", "m1", "m2"],
        np.vstack([np.arange(50.0), np.full(50, 2.0), np.full(50, 4.0)]),
        [Trial(0, 50, RIGHT)],
    )
    out = rereference(rec, ["m1", "m2"])
    assert np.allclose(out.data[0], np.arange(50.0) - 3.0)


def test_rereference_missing_channel():
    rec = _sine_recording([10.0])
    with pytest.raises(ValueError, match="unknown channel"):
        rereference(rec, ["m9"])


def test_bandpass_passband_and_stopband():
    rec = _sine_recording([10.5, 2.0])
    out = bandpass(rec, (8.0, 13.0), 4)
    edge = int(2 * rec.sample_rate)
    inband = out.data[0, edge:-edge]
    assert abs(np.abs(inband).max() - 1.0) < 0.01
    stop = out.data[1, edge:-edge]
    rms_in = np.sqrt(np.mean(rec.data[1] ** 2))
    assert np.sqrt(np.mean(stop**2)) < 0.05 * rms_in


def test_bandpass_zero_in_zero_out():
    rec = _sine_recording([10.0])
    rec.data[:] = 0.0
    out = bandpass(rec, (8.0, 13.0), 4)
    assert np.all(out.data == 0.0)


def test_bandpass_zero_phase_no_lag():
    # alpha burst: cross-correlation of input and output peaks at lag 0
    fs = 128.0
    t = np.arange(int(fs * 20)) / fs
    burst = np.sin(2 * np.pi * 10 * t) * np.exp(-((t - 10) ** 2) / 2.0)
    rec = RawRecording("s", fs, ["a"], burst[None, :], [Trial(0, len(t), LEFT)])
    out = bandpass(rec, (8.0, 13.0), 4)
    xc = np.correlate(out.data[0], rec.data[0], mode="full")
    assert np.argmax(xc) == len(t) - 1


def test_bandpass_edge_above_nyquist():
    rec = _sine_recording([10.0], fs=20.0)
    with pytest.raises(ValueError, match="Nyquist"):
        bandpass(rec, (8.0, 13.0), 4)


def test_resample_identity():
    rec = _sine_recording([10.0], seconds=5.0)
    out = resample(rec, rec.sample_rate)
    assert np.sqrt(np.mean((out.data - rec.data) ** 2)) < 1e-9


def test_resample_analytic_sinusoid():
    fs = 8192.0
    n = int(fs * 60)
    x = np.sin(2 * np.pi * 10 * np.arange(n) / fs)[None, :]
    y = resample_series(x, fs, 70.0)
    assert y.shape[1] == round(n * 70 / 8192)
    expected = np.sin(2 * np.pi * 10 * np.arange(y.shape[1]) / 70.0)
    rel = np.sqrt(np.mean((y[0] - expected) ** 2)) / np.sqrt(np.mean(expected**2))
    assert rel < 0.01


def test_resample_six_minute_trial_count():
    fs = 8192.0
    n = int(fs * 360)
    rec = RawRecording(
        "s", fs, ["a"], np.zeros((1, n), dtype=np.float32), [Trial(0, n, LEFT)]
    )
    out = resample(rec, 70.0)
    assert out.trials[0].length == 25200  # 360 s * 70 Hz
    assert out.n_samples == 25200


def test_normalize_two_point_segment():
    rec = RawRecording("s", 2.0, ["a"], np.array([[1.0, 3.0]]), [Trial(0, 2, LEFT)])
    out = normalize_trial(rec)
    assert np.allclose(out.data, [[-1.0, 1.0]])


def test_normalize_idempotent():
    rec = _sine_recording([10.0], seconds=4.0)
    once = normalize_trial(rec)
    twice = normalize_trial(once)
    assert np.max(np.abs(once.data - twice.data)) < 1e-12


def test_normalize_constant_segment_error():
    rec = RawRecording(
        "s", 10.0, ["a", "b"],
        np.vstack([np.arange(40.0), np.full(40, 7.0)]),
        [Trial(0, 40, LEFT)],
    )
    with pytest.raises(ValueError, match="zero-variance segment.*'b'.*trial 0"):
        normalize_trial(rec)


def test_chain_invariants():
    fs = 128.0
    rng = np.random.default_rng(0)
    n = int(fs * 40)
    data = rng.normal(size=(5, n))
    trials = [Trial(0, n // 2, LEFT), Trial(n // 2, n, RIGHT)]
    rec = RawRecording("s", fs, ["a", "b", "c", "m1", "m2"], data, trials).validate()
    cfg = PreprocConfig(reference_channels=["m1", "m2"])
    out = preprocess_recording(rec, cfg)
    assert out.channels == ["a", "b", "c"]
    assert out.sample_rate == 70.0
    assert [t.label for t in out.trials] == [LEFT, RIGHT]
    for tr in out.trials:
        seg = out.data[:, tr.start : tr.end]
        assert np.all(np.abs(seg.mean(axis=1)) < 1e-9)
        assert np.all(np.abs(seg.var(axis=1) - 1.0) < 1e-6)


def test_chain_deterministic():
    rec = _sine_recording([10.0, 9.0], ref_value=0.5)
    rec.data += np.random.default_rng(4).normal(0, 0.1, rec.data.shape)
    cfg = PreprocConfig(reference_channels=["ref"])
    a = preprocess_recording(rec, cfg)
    b = preprocess_recording(rec, cfg)
    assert np.array_equal(a.data, b.data)


def test_config_validation():
    with pytest.raises(ValueError):
        PreprocConfig(reference_channels=[]).validate()
    with pytest.raises(ValueError):
        PreprocConfig(reference_channels=["m"], band=(8.0, 40.0)).validate()
    with pytest.raises(ValueError):
        PreprocConfig(reference_channels=["m"], filter_order=3).validate()


def _eeg_recording(n_channels, seconds, fs=128.0, n_trials=4, dtype=np.float32, seed=0):
    """Noise on `n_channels` channels plus the references m1, m2."""
    n = int(fs * seconds)
    data = np.random.default_rng(seed).normal(size=(n_channels + 2, n)).astype(dtype)
    per = n // n_trials
    trials = [Trial(i * per, (i + 1) * per, (LEFT, RIGHT)[i % 2]) for i in range(n_trials)]
    names = [f"c{i}" for i in range(n_channels)] + ["m1", "m2"]
    return RawRecording("s", fs, names, data, trials).validate()


def _copy_based_chain(rec, cfg):
    """The chain as four whole-recording steps, each on its own copy."""
    out = rereference(rec, cfg.reference_channels)
    fs = out.sample_rate
    sos = _design_bandpass(cfg.band, cfg.filter_order, fs)
    pad = _impulse_settle_len(sos, fs)
    data = out.data.astype(float).copy()
    for tr in out.trials:
        data[:, tr.start : tr.end] = _zero_phase(sos, data[:, tr.start : tr.end], pad)
    trials = out.trials
    if cfg.target_rate != fs:
        data = resample_series(data.astype(float), fs, cfg.target_rate)
        r = cfg.target_rate / fs
        trials = [
            Trial(_round_half_up(t.start * r), _round_half_up(t.end * r), t.label)
            for t in trials
        ]
    data = data.astype(float).copy()
    for tr in trials:
        seg = data[:, tr.start : tr.end]
        data[:, tr.start : tr.end] = (seg - seg.mean(axis=1, keepdims=True)) / np.sqrt(
            seg.var(axis=1, keepdims=True)
        )
    return data, trials


@pytest.mark.parametrize(
    "n_channels,fs,n_trials,dtype",
    [
        (2 * CHANNEL_BLOCK + 3, 128.0, 4, np.float32),  # a partial last block
        (CHANNEL_BLOCK - 1, 128.0, 1, np.float64),
        (CHANNEL_BLOCK + 1, 70.0, 3, np.float32),  # no resampling
        (5, 512.0, 2, np.float32),
    ],
)
def test_chain_matches_copy_based_steps(n_channels, fs, n_trials, dtype):
    rec = _eeg_recording(n_channels, 30.0, fs, n_trials, dtype, seed=n_channels)
    cfg = PreprocConfig(reference_channels=["m1", "m2"])
    data, trials = _copy_based_chain(rec, cfg)
    out = preprocess_recording(rec, cfg)
    assert out.data.dtype == np.float64
    assert out.data.tobytes() == data.tobytes()
    assert out.trials == trials
    assert rec.data.dtype == dtype and rec.n_channels == n_channels + 2  # input untouched


@pytest.mark.parametrize("n_trials", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_streamed_container_has_whole_array_bytes(tmp_path, dtype, n_trials):
    """The chain's blocks, written as they come by save_recording_blocks,
    give the container that save_recording writes of the copy-based
    chain's whole float64 output, for a partial last block."""
    rec = _eeg_recording(2 * CHANNEL_BLOCK + 3, 30.0, n_trials=n_trials, dtype=dtype, seed=n_trials)
    cfg = PreprocConfig(reference_channels=["m1", "m2"])
    channels = rec.channels[:-2]
    blocks = preprocess_blocks(lambda names: subset_recording(rec, names), cfg, channels)
    save_recording_blocks(blocks, tmp_path / "streamed")
    data, trials = _copy_based_chain(rec, cfg)
    save_recording(RawRecording(rec.subject_id, cfg.target_rate, channels, data, trials),
                   tmp_path / "whole")
    for streamed, whole in zip(container_paths(tmp_path / "streamed"),
                               container_paths(tmp_path / "whole")):
        assert streamed.read_bytes() == whole.read_bytes()


def test_save_recording_blocks_refuses_mismatched_blocks(tmp_path):
    rec = _eeg_recording(4, 10.0)
    a, b = subset_recording(rec, ["c0", "c1"]), subset_recording(rec, ["c2", "c3"])
    b.trials = b.trials[:-1]
    with pytest.raises(ValueError, match="channel blocks differ"):
        save_recording_blocks([a, b], tmp_path / "r")
    with pytest.raises(ValueError, match="no channel blocks"):
        save_recording_blocks([], tmp_path / "r")
    assert not any(tmp_path.iterdir())  # nothing is left behind


def test_chain_of_chosen_channels_matches_chain_of_their_subset():
    """`channels` picks and orders the channels straight from the recording:
    the bytes of the chain run on a copy holding those channels and the
    references, in that order."""
    rec = _eeg_recording(CHANNEL_BLOCK + 5, 30.0, seed=2)
    cfg = PreprocConfig(reference_channels=["m1", "m2"])
    chosen = [f"c{i}" for i in range(CHANNEL_BLOCK + 4, -1, -2)]
    out = preprocess_recording(rec, cfg, chosen)
    want = preprocess_recording(subset_recording(rec, chosen + ["m1", "m2"]), cfg)
    assert out.channels == chosen and out.data.tobytes() == want.data.tobytes()


def test_bandpass_design_is_shared_and_read_only():
    sos, pad = _bandpass_design((8.0, 13.0), 4, 128.0)
    assert _bandpass_design((8.0, 13.0), 4, 128.0)[0] is sos and not sos.flags.writeable
    assert sos.tobytes() == _design_bandpass((8.0, 13.0), 4, 128.0).tobytes()
    assert pad == _impulse_settle_len(_design_bandpass((8.0, 13.0), 4, 128.0), 128.0)


def test_resample_series_channel_blocks_match_whole():
    x = np.random.default_rng(3).normal(size=(2 * CHANNEL_BLOCK + 5, 3000))
    whole = resample_series(x, 128.0, 70.0)
    blocks = [resample_series(x[lo : lo + CHANNEL_BLOCK], 128.0, 70.0)
              for lo in range(0, len(x), CHANNEL_BLOCK)]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


def test_chain_memory_bounded():
    """The chain's traced peak, less its output, stays within 0.6x the
    input's float64 size at 1x and 2x the duration: no whole-recording
    copy, re-referenced or otherwise, only a few blocks of channels (0.45x
    with 8-channel blocks, 0.90x with 16; 1.25x with a whole re-referenced
    copy)."""
    cfg = PreprocConfig(reference_channels=["m1", "m2"])
    preprocess_recording(_eeg_recording(64, 4.0), cfg)  # warm up scipy
    for seconds in (60.0, 120.0):
        rec = _eeg_recording(64, seconds)
        tracemalloc.start()
        try:
            out = preprocess_recording(rec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.data.nbytes <= 0.6 * rec.data.size * 8
