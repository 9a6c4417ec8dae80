import json
import math
import os
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asad.data import (
    CHANNEL_BLOCK,
    LABEL_INDEX,
    LABELS,
    LEFT,
    RIGHT,
    RawRecording,
    SynthConfig,
    Trial,
    bundled_montage,
    container_paths,
    load_recording,
    save_recording,
    segment_windows,
    stratified_split,
    synth_recording,
    window_hop,
    write_table,
)
from asad.features import band_power
from asad.pipeline import build_split, config_from_dict

from conftest import make_recording


# ---------------------------------------------------------------------------
# container I/O
# ---------------------------------------------------------------------------

def test_load_minimal_container(tmp_path):
    rec = RawRecording(
        subject_id="s1",
        sample_rate=10.0,
        channels=["a", "b"],
        data=np.arange(20.0).reshape(2, 10),
        trials=[Trial(0, 10, LEFT)],
    )
    save_recording(rec, tmp_path / "r")
    out = load_recording(tmp_path / "r.json")
    assert out.n_channels == 2
    assert out.n_samples == 10
    assert out.trials[0].label == LEFT
    assert np.allclose(out.data, rec.data)


def test_shape_mismatch_rejected(tmp_path):
    header = {
        "format_version": 1,
        "subject_id": "s",
        "sample_rate": 10.0,
        "channels": [f"c{i}" for i in range(64)],
        "trials": [{"start": 0, "end": 5, "label": "Left"}],
    }
    (tmp_path / "r.json").write_text(json.dumps(header))
    (tmp_path / "r.f32").write_bytes(np.zeros((63, 10), dtype="<f4").tobytes())
    with pytest.raises(ValueError, match="shape mismatch"):
        load_recording(tmp_path / "r.json")


def test_malformed_header_and_bad_label(tmp_path):
    (tmp_path / "r.json").write_text("{not json")
    (tmp_path / "r.f32").write_bytes(b"")
    with pytest.raises(ValueError, match="malformed header"):
        load_recording(tmp_path / "r")

    rec = make_recording()
    rec.trials[0].label = "Up"
    with pytest.raises(ValueError, match="unknown trial label"):
        rec.validate()


def test_overlapping_trials_rejected():
    with pytest.raises(ValueError, match="overlapping trials"):
        RawRecording(
            subject_id="s",
            sample_rate=10.0,
            channels=["a"],
            data=np.zeros((1, 100)),
            trials=[Trial(0, 60, LEFT), Trial(50, 100, RIGHT)],
        ).validate()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_save_recording_chunks_give_whole_cast_bytes(tmp_path, dtype, order):
    """A channel count that is not a multiple of CHANNEL_BLOCK, written a
    block at a time, gives the bytes of one whole-array float32 cast."""
    n_ch = 2 * CHANNEL_BLOCK + 3
    data = np.random.default_rng(8).normal(size=(n_ch, 301)).astype(dtype, order=order)
    rec = RawRecording("s", 10.0, [f"c{i}" for i in range(n_ch)], data, [Trial(0, 301, LEFT)])
    save_recording(rec, tmp_path / "r")
    _, payload = container_paths(tmp_path / "r")
    assert payload.read_bytes() == data.astype("<f4").tobytes()


def test_load_recording_reads_the_channels_asked_for(tmp_path):
    """Only the rows of the channels given, in their order; a non-finite
    sample is named by its channel's place in the container."""
    rec = make_recording(n_channels=5, n_samples=64, seed=4)
    rec.data[3, 9] = np.inf
    save_recording(rec, tmp_path / "r")
    out = load_recording(tmp_path / "r", ["c4", "c0", "c2"])
    assert out.channels == ["c4", "c0", "c2"]
    assert out.data.tobytes() == rec.data[[4, 0, 2]].astype("<f4").tobytes()
    assert out.trials == rec.trials and out.sample_rate == rec.sample_rate
    with pytest.raises(ValueError, match=r"r.f32: channel 3 \('c3'\), sample 9"):
        load_recording(tmp_path / "r", ["c0", "c3"])
    with pytest.raises(ValueError, match="unknown channel 'x'"):
        load_recording(tmp_path / "r", ["c0", "x"])


def test_load_recording_of_no_channels_reads_only_the_header(tmp_path, monkeypatch):
    """No channels asked for: zero rows, the header's trials and rate, and
    the payload's sample count, with no payload read at all."""
    rec = make_recording(n_channels=5, n_samples=64, seed=5)
    rec.data[2, 7] = np.nan  # not read, so not refused
    save_recording(rec, tmp_path / "r")
    reads = []
    monkeypatch.setattr(os, "preadv", lambda *a: reads.append(a) or 0)
    out = load_recording(tmp_path / "r", [])
    assert reads == []
    assert out.channels == [] and out.data.shape == (0, 64) and out.n_samples == 64
    assert out.trials == rec.trials and out.sample_rate == rec.sample_rate
    assert out.subject_id == rec.subject_id


def test_load_recording_of_no_channels_refuses_a_truncated_payload(tmp_path):
    save_recording(make_recording(n_channels=5, n_samples=64), tmp_path / "r")
    _, payload = container_paths(tmp_path / "r")
    payload.write_bytes(payload.read_bytes()[:-4])
    for channels in ([], None):
        with pytest.raises(ValueError, match="payload shape mismatch"):
            load_recording(tmp_path / "r", channels)


def test_roundtrip_byte_identical(tmp_path):
    # write-then-read oracle over randomly generated recordings
    for seed in range(5):
        rec = make_recording(n_channels=4, n_samples=256, n_trials=4, seed=seed)
        p1 = tmp_path / f"a{seed}"
        save_recording(rec, p1)
        p2 = tmp_path / f"b{seed}"
        save_recording(load_recording(p1), p2)
        for suffix in (".json", ".f32"):
            b1, _ = container_paths(p1)
            b2, _ = container_paths(p2)
            a = (tmp_path / f"a{seed}{suffix}").read_bytes()
            b = (tmp_path / f"b{seed}{suffix}").read_bytes()
            assert a == b, f"suffix {suffix} differs for seed {seed}"


# ---------------------------------------------------------------------------
# channel subsetting, by the container read
# ---------------------------------------------------------------------------

def _saved_with_names(tmp_path, names, n_samples=100):
    rec = make_recording(n_channels=len(names), n_samples=n_samples)
    rec.channels = list(names)
    save_recording(rec, tmp_path / "r")
    return rec


def test_subset_identity(tmp_path):
    mont = bundled_montage("biosemi64")
    rec = _saved_with_names(tmp_path, mont.names)
    out = load_recording(tmp_path / "r", list(mont.names))
    assert out.channels == rec.channels
    assert np.array_equal(out.data, rec.data.astype(np.float32))
    assert out.data.tobytes() == load_recording(tmp_path / "r").data.tobytes()


def test_subset_64_to_32(tmp_path):
    mont64 = bundled_montage("biosemi64")
    mont32 = bundled_montage("biosemi32")
    rec = _saved_with_names(tmp_path, mont64.names, n_samples=120)
    out = load_recording(tmp_path / "r", list(mont32.names))
    assert out.data.shape == (32, 120)
    assert out.n_samples == rec.n_samples
    assert out.channels == list(mont32.names)
    rows = [mont64.index(n) for n in mont32.names]
    assert np.array_equal(out.data, rec.data[rows].astype(np.float32))
    assert out.trials == rec.trials


def test_subset_unknown_channel(tmp_path):
    mont = bundled_montage("biosemi32")
    _saved_with_names(tmp_path, mont.names)
    with pytest.raises(ValueError, match="XX"):
        load_recording(tmp_path / "r", ["XX"])


# ---------------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------------

def test_window_equals_trial():
    rec = make_recording(n_channels=1, n_samples=100, sample_rate=1.0, n_trials=1)
    wins = segment_windows(rec, 100.0, 0.5)
    assert len(wins) == 1
    assert wins[0].origin == (0, 0)


def test_window_starts_enumerated():
    rec = RawRecording(
        "s", 1.0, ["a"], np.arange(1000.0)[None, :], [Trial(0, 1000, LEFT)]
    )
    wins = segment_windows(rec, 100.0, 0.5)
    assert [w.origin[1] for w in wins] == list(range(0, 901, 50))
    assert len(wins) == 19


def test_window_longer_than_trials():
    rec = make_recording(n_samples=100, sample_rate=1.0, n_trials=2)  # 50-sample trials
    with pytest.raises(ValueError, match="longer than every trial"):
        segment_windows(rec, 60.0, 0.0)


def test_count_formula_matches_enumeration():
    # brute-force oracle: valid starts are 0, H, 2H, ... with start + W <= L
    def brute(length, w, hop):
        return sum(1 for s in range(0, length, hop) if s + w <= length)

    for length in range(2, 61):
        for w in range(2, length + 1):
            for hop in range(1, w + 1):
                assert (length - w) // hop + 1 == brute(length, w, hop)

    rng = np.random.default_rng(0)
    for _ in range(300):
        length = int(rng.integers(2, 1001))
        w = int(rng.integers(2, length + 1))
        hop = int(rng.integers(1, w + 1))
        assert (length - w) // hop + 1 == brute(length, w, hop)


def test_windows_respect_trial_boundaries():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_trials = int(rng.integers(1, 5))
        lengths = rng.integers(30, 200, n_trials)
        bounds, start = [], 0
        for L in lengths:
            bounds.append((start, start + int(L)))
            start += int(L) + int(rng.integers(0, 10))
        trials = [Trial(s, e, LEFT if i % 2 else RIGHT) for i, (s, e) in enumerate(bounds)]
        rec = RawRecording("s", 1.0, ["a"], np.zeros((1, start + 5)), trials)
        for w in segment_windows(rec, 25.0, 0.5):
            ti, s = w.origin
            assert trials[ti].start <= s and s + w.length <= trials[ti].end
            assert w.label == trials[ti].label


def test_paper_scale_window_count():
    # 48 min at 70 Hz, 0.1 s windows, 50 % overlap: W = 7, hop = round(3.5) = 4
    rec = RawRecording(
        "s",
        70.0,
        ["a"],
        np.zeros((1, 8 * 25200), dtype=np.float32),
        [Trial(i * 25200, (i + 1) * 25200, LEFT if i % 2 else RIGHT) for i in range(8)],
    )
    wins = segment_windows(rec, 0.1, 0.5)
    per_trial = (25200 - 7) // 4 + 1
    assert len(wins) == 8 * per_trial == 50392


# ---------------------------------------------------------------------------
# stratified splitting
# ---------------------------------------------------------------------------

def _one_window_trials(n_left, n_right, w=100):
    trials = []
    for i in range(n_left + n_right):
        label = LEFT if i < n_left else RIGHT
        trials.append(Trial(i * w, (i + 1) * w, label))
    rec = RawRecording(
        "s", 1.0, ["a"], np.zeros((1, (n_left + n_right) * w)), trials
    )
    return segment_windows(rec, float(w), 0.0)


def test_split_exact_on_unit_blocks():
    wins = _one_window_trials(100, 100)
    split = stratified_split(wins, (0.8, 0.1, 0.1), seed=1, block_s=100.0, sample_rate=1.0)
    for part, want in ((split.train, 80), (split.validation, 10), (split.test, 10)):
        left = sum(1 for w in part if w.label == LEFT)
        assert left == want and len(part) == 2 * want


def test_split_deterministic():
    wins = _one_window_trials(40, 40)
    a = stratified_split(wins, seed=9, block_s=100.0, sample_rate=1.0)
    b = stratified_split(wins, seed=9, block_s=100.0, sample_rate=1.0)
    for pa, pb in zip(a.partitions().values(), b.partitions().values()):
        assert [w.origin for w in pa] == [w.origin for w in pb]


def test_split_label_ratio_property():
    # per-partition left/right ratio within one block of the global ratio
    rng = np.random.default_rng(7)
    for trial_seed in range(8):
        n_left = int(rng.integers(20, 60))
        n_right = int(rng.integers(20, 60))
        wins = _one_window_trials(n_left, n_right)
        split = stratified_split(
            wins, (0.8, 0.1, 0.1), seed=trial_seed, block_s=100.0, sample_rate=1.0
        )
        global_ratio = n_left / (n_left + n_right)
        for part in split.partitions().values():
            left = sum(1 for w in part if w.label == LEFT)
            expect = global_ratio * len(part)
            assert abs(left - expect) <= 1.0 + 1e-9


def test_split_partitions_disjoint_and_no_shared_samples():
    rec = make_recording(n_channels=1, n_samples=4000, sample_rate=1.0, n_trials=4)
    wins = segment_windows(rec, 100.0, 0.5)
    split = stratified_split(wins, seed=3, block_s=200.0, sample_rate=1.0)
    seen = {}
    spans = {}
    for name, part in split.partitions().items():
        for w in part:
            assert w.origin not in seen
            seen[w.origin] = name
            ti, s = w.origin
            spans.setdefault(name, []).append((ti, s, s + w.length))
    for name_a, sp_a in spans.items():
        for name_b, sp_b in spans.items():
            if name_a >= name_b:
                continue
            for ta, sa, ea in sp_a:
                for tb, sb, eb in sp_b:
                    if ta == tb:
                        assert ea <= sb or eb <= sa, (
                            f"windows share samples across {name_a}/{name_b}"
                        )


def test_split_group_too_small():
    wins = _one_window_trials(2, 2)
    with pytest.raises(ValueError, match="cannot populate"):
        stratified_split(wins, seed=0, block_s=100.0, sample_rate=1.0)


def _list_split(recs, w, overlap, ratios, seed, block_samples):
    """Reference: segmentation and split one window at a time on lists of
    (subject, trial, start, label), as the per-window implementation did.
    Returns the (subject, trial, start) list of each partition."""
    hop = window_hop(w, overlap)
    windows = []
    for rec in recs:
        found = False
        for ti, tr in enumerate(rec.trials):
            for k in range((tr.length - w) // hop + 1 if tr.length >= w else 0):
                windows.append((rec.subject_id, ti, tr.start + k * hop, tr.label))
                found = True
        if not found:
            raise ValueError(
                f"window of {w} samples is longer than every trial "
                f"(max length {max(t.length for t in rec.trials)})"
            )

    def block_key(win):
        return (win[0], win[1], win[2] // block_samples)

    groups = {}
    for win in windows:
        groups.setdefault((win[0], win[3]), {}).setdefault(block_key(win), []).append(win)
    assignment = {}
    for gkey in sorted(groups):
        keys = sorted(groups[gkey])
        if len(keys) < sum(1 for r in ratios if r > 0):
            raise ValueError(
                f"group subject={gkey[0]!r} label={gkey[1]!r} has only {len(keys)} "
                f"block(s); cannot populate all partitions"
            )
        g_seed = (seed, zlib.crc32(gkey[0].encode()), LABEL_INDEX[gkey[1]])
        order = np.random.default_rng(g_seed).permutation(len(keys))
        targets = [r * len(keys) for r in ratios]
        counts = [0, 0, 0]
        for oi in order:
            scores = [
                (targets[p] - counts[p]) / targets[p] if targets[p] > 0 else -1.0
                for p in range(3)
            ]
            p = int(np.argmax(scores))
            assignment[keys[oi]] = p
            counts[p] += 1
    parts = ([], [], [])
    for win in windows:
        key = block_key(win)
        p = assignment[key]
        last_block = (win[2] + w - 1) // block_samples
        if all(assignment.get((win[0], win[1], b), p) == p for b in range(key[2] + 1, last_block + 1)):
            parts[p].append(win[:3])
    for name, part, ratio in zip(("train", "validation", "test"), parts, ratios):
        if not part and ratio > 0:
            raise ValueError(f"partition {name!r} ended up empty")
    return list(parts)


def _array_split(recs, w, overlap, ratios, seed, block_samples):
    cfg = config_from_dict({
        "window_sizes_s": [float(w)], "target_rate": 1.0, "band": [0.1, 0.4],
        "overlap_fraction": overlap, "models": ["linear"],
        "features": {"band": [0.1, 0.4]}, "baseline": {"band": [0.1, 0.4], "max_lag_s": 0.0},
        "split": {"ratios": list(ratios), "block_s": float(block_samples)},
        "seeds": {"base": seed},
    })
    split = build_split(cfg, recs, float(w))
    return [[(w.subject_id, *w.origin) for w in part] for part in split.partitions().values()]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


trial_tables = st.lists(
    st.tuples(st.integers(0, 20), st.integers(2, 150), st.sampled_from(LABELS)),
    min_size=1, max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(
    tables=st.dictionaries(st.text("abAB0_", min_size=1, max_size=3), trial_tables,
                           min_size=1, max_size=3),
    w=st.integers(2, 12),
    overlap=st.sampled_from([0.0, 0.5, 0.75]),
    block_windows=st.floats(1.0, 4.0),
    ratios=st.sampled_from([(0.8, 0.1, 0.1), (0.5, 0.5, 0.0), (0.6, 0.0, 0.4),
                            (0.0, 0.5, 0.5), (1.0, 0.0, 0.0)]),
    seed=st.integers(0, 2**16),
)
def test_array_split_equals_per_window_reference(tables, w, overlap, block_windows, ratios, seed):
    """Random multi-subject trial tables, with gaps and unequal trials: the
    array segmentation and split give the per-window reference's
    (subject, trial, start) lists per partition, in order, or its error."""
    recs = []
    for sid, table in tables.items():
        trials, t = [], 0
        for gap, length, label in table:
            trials.append(Trial(t + gap, t + gap + length, label))
            t += gap + length
        recs.append(RawRecording(sid, 1.0, ["a"], np.zeros((1, t)), trials))
    block_samples = int(round(w * block_windows))
    ref = _outcome(_list_split, recs, w, overlap, ratios, seed, block_samples)
    assert _outcome(_array_split, recs, w, overlap, ratios, seed, block_samples) == ref


def test_paper_scale_split_memory():
    """build_split of one 48-min subject at 70 Hz, 0.1 s windows at 50 %
    overlap (50,392 windows) holds only index arrays: its traced peak is
    7.7 MiB (16.5 MiB for a list of per-window objects)."""
    rec = RawRecording(
        "S00", 70.0, ["a"], np.zeros((1, 8 * 25200), dtype=np.float32),
        [Trial(i * 25200, (i + 1) * 25200, LEFT if i % 2 else RIGHT) for i in range(8)],
    )
    cfg = config_from_dict({"window_sizes_s": [0.1]})
    build_split(cfg, [rec], 0.1)
    tracemalloc.start()
    try:
        split = build_split(cfg, [rec], 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(p) for p in split.partitions().values()) > 50_000
    assert peak < 10 * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# synthetic recordings
# ---------------------------------------------------------------------------

def test_synth_gain_zero_symmetric():
    from scipy import stats

    mont = bundled_montage("biosemi64")
    cfg = SynthConfig(
        n_channels=64, duration_s=64.0, sample_rate=128.0, lateralization_gain=0.0,
        noise_sigma=1.0, n_trials=16, seed=5,
    )
    rec = synth_recording(cfg, mont)
    x = mont.positions[:, 0]
    left, right = np.where(x < -1e-9)[0], np.where(x > 1e-9)[0]
    lp, rp = [], []
    for tr in rec.trials:
        bp = band_power(rec.data[:64, tr.start : tr.end], cfg.sample_rate, (8, 13))
        lp.append(bp[left].mean())
        rp.append(bp[right].mean())
    assert stats.ttest_ind(lp, rp).pvalue > 0.01


def test_synth_power_ratio_exact():
    mont = bundled_montage("biosemi64")
    cfg = SynthConfig(
        n_channels=64, duration_s=32.0, sample_rate=128.0, lateralization_gain=2.0,
        noise_sigma=0.0, n_trials=4, seed=3,
    )
    rec = synth_recording(cfg, mont)
    x = mont.positions[:, 0]
    left, right = np.where(x < -1e-9)[0], np.where(x > 1e-9)[0]
    for tr in rec.trials:
        bp = band_power(rec.data[:64, tr.start : tr.end], cfg.sample_rate, (8, 13))
        boosted, other = (left, right) if tr.label == LEFT else (right, left)
        ratio = bp[boosted].mean() / bp[other].mean()
        assert abs(ratio - 9.0) < 1e-9 * 9.0


def test_synth_deterministic(tmp_path):
    mont = bundled_montage("biosemi32")
    cfg = SynthConfig(n_channels=32, duration_s=16.0, sample_rate=128.0, n_trials=4, seed=11)
    save_recording(synth_recording(cfg, mont), tmp_path / "a")
    save_recording(synth_recording(cfg, mont), tmp_path / "b")
    assert (tmp_path / "a.f32").read_bytes() == (tmp_path / "b.f32").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_synth_reference_channels_noise_only():
    mont = bundled_montage("biosemi32")
    cfg = SynthConfig(
        n_channels=32, duration_s=16.0, sample_rate=128.0, lateralization_gain=3.0,
        noise_sigma=0.0, n_trials=4, seed=2,
    )
    rec = synth_recording(cfg, mont)
    assert rec.channels[-2:] == ["M1", "M2"]
    assert np.all(rec.data[-2:] == 0.0)  # sigma 0: reference rows carry no carrier


def test_split_block_shorter_than_a_window_rejected():
    wins = _one_window_trials(10, 10)
    with pytest.raises(ValueError, match="split block of 99 s is 99 samples, shorter than a 100-sample window"):
        stratified_split(wins, seed=0, block_s=99.0, sample_rate=1.0)


def test_write_table_writes_str_as_is_and_the_rest_as_repr(tmp_path):
    path = tmp_path / "t.csv"
    row = ("s", 0.1, 3, True, math.inf, -0.0)
    write_table(path, "a,b,c,d,e,f", [row])
    assert path.read_text() == "a,b,c,d,e,f\ns,0.1,3,True,inf,-0.0\n"
    fields = path.read_text().splitlines()[1].split(",")
    for want, text in zip(row, fields):
        if isinstance(want, float):
            assert np.float64(text).tobytes() == np.float64(want).tobytes()
