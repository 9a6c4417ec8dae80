import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from asad import baseline
from asad.baseline import (
    LAMBDA_GRID,
    ROW_CHUNK,
    Envelope,
    LinearDecoder,
    _lagged_design,
    accumulate_covariances,
    decide_attention,
    fit_decoder,
    fit_decoder_segments,
    load_decoder,
    load_envelope,
    pearson,
    reconstruct,
    save_decoder,
    save_envelope,
    select_lambda,
    synth_envelope,
    train_weights,
)
from asad.data import LEFT, RIGHT, WindowSet


def test_exact_regression_single_lag(rng):
    eeg = rng.normal(size=(4, 2000))
    dec = fit_decoder(eeg, eeg[0].copy(), lags=0, ridge_lambda=0.0)
    assert abs(dec.weights[0, 0] - 1.0) < 1e-8
    assert np.max(np.abs(dec.weights[1:, 0])) < 1e-8


def test_shift_oracle_unit_weight_at_lag_three(rng):
    env = np.abs(rng.normal(size=3000))
    eeg = rng.normal(size=(3, 3000)) * 1e-6
    eeg[0] = np.concatenate([np.zeros(3), env[:-3]])  # channel follows envelope by 3
    dec = fit_decoder(eeg, env, lags=5, ridge_lambda=0.0)
    assert abs(dec.weights[0, 3] - 1.0) < 1e-6
    others = dec.weights.copy()
    others[0, 3] = 0.0
    assert np.max(np.abs(others)) < 1e-6
    s_hat = reconstruct(dec, eeg)
    assert pearson(s_hat, env[: len(s_hat)]) > 0.999


def test_ridge_shrinkage_monotone(rng):
    eeg = rng.normal(size=(3, 1500))
    env = np.abs(rng.normal(size=1500))
    norms = [
        np.linalg.norm(fit_decoder(eeg, env, lags=4, ridge_lambda=lam).weights)
        for lam in (0.0, 0.1, 1.0, 10.0, 100.0, 1e4)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-2 * norms[0]


def test_lambda_zero_is_least_squares_optimal(rng):
    eeg = rng.normal(size=(4, 1200))
    env = np.abs(rng.normal(size=1200))
    r0 = None
    for lam in (0.0, 0.5, 5.0, 50.0):
        dec = fit_decoder(eeg, env, lags=3, ridge_lambda=lam)
        r = pearson(reconstruct(dec, eeg), env[: 1200 - 3])
        if lam == 0.0:
            r0 = r
        else:
            assert r0 >= r - 1e-12


def test_singular_system_reported():
    rng = np.random.default_rng(0)
    row = rng.normal(size=2000)
    eeg = np.vstack([row, row])  # duplicated channel: singular at lambda 0
    with pytest.raises(ValueError, match="singular"):
        fit_decoder(eeg, np.abs(row), lags=2, ridge_lambda=0.0)


def test_reconstruct_zero_weights_and_linearity(rng):
    dec = LinearDecoder(weights=np.zeros((2, 4)), lags=np.arange(4), ridge_lambda=0.0)
    eeg = rng.normal(size=(2, 300))
    assert np.all(reconstruct(dec, eeg) == 0.0)

    dec = LinearDecoder(weights=rng.normal(size=(2, 4)), lags=np.arange(4), ridge_lambda=0.0)
    a, b = rng.normal(size=(2, 300)), rng.normal(size=(2, 300))
    lhs = reconstruct(dec, a + b)
    rhs = reconstruct(dec, a) + reconstruct(dec, b)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_reconstruct_too_short(rng):
    dec = LinearDecoder(weights=np.zeros((1, 10)), lags=np.arange(10), ridge_lambda=0.0)
    with pytest.raises(ValueError, match="shorter than max lag"):
        reconstruct(dec, rng.normal(size=(1, 5)))


def test_decide_exact_match_and_swap(rng):
    env_a = np.abs(rng.normal(size=200))
    env_b = np.abs(rng.normal(size=200))
    d = decide_attention(env_a, env_a, env_b)
    assert d.label == LEFT and abs(d.r_left - 1.0) < 1e-12 and not d.tie
    swapped = decide_attention(env_a, env_b, env_a)
    assert swapped.label == RIGHT
    assert abs(swapped.r_right - d.r_left) < 1e-12


def test_decide_tie_flag(rng):
    s = rng.normal(size=100)
    env = np.abs(rng.normal(size=100))
    d = decide_attention(s, env, env.copy())
    assert d.tie and d.label == LEFT


def test_decide_null_distribution(rng):
    # uncorrelated reconstruction: |r| stays small, a decision is still emitted
    for _ in range(20):
        s = rng.normal(size=3000)
        d = decide_attention(s, np.abs(rng.normal(size=3000)), np.abs(rng.normal(size=3000)))
        assert d.label in (LEFT, RIGHT)
        assert abs(d.r_left) < 0.1 and abs(d.r_right) < 0.1


def test_decide_zero_variance_error(rng):
    with pytest.raises(ValueError, match="zero-variance"):
        decide_attention(np.ones(50), np.abs(rng.normal(size=50)), np.abs(rng.normal(size=50)))


def test_pearson_shift_scale_invariance(rng):
    a, b = rng.normal(size=500), rng.normal(size=500)
    r = pearson(a, b)
    assert abs(pearson(a, 3.7 * b + 11.0) - r) < 1e-12


def test_envelope_roundtrip(tmp_path, rng):
    env = synth_envelope(500, 70.0, "spk", rng)
    save_envelope(env, tmp_path / "e")
    back = load_envelope(tmp_path / "e")
    assert back.speaker_id == "spk"
    assert back.sample_rate == 70.0
    assert np.allclose(back.samples, env.samples.astype(np.float32))
    assert np.all(back.samples >= 0)


def test_envelope_negative_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        Envelope(samples=np.array([0.5, -0.1]), speaker_id="x", sample_rate=70.0).validate()


def test_decoder_roundtrip(tmp_path, rng):
    dec = LinearDecoder(weights=rng.normal(size=(5, 7)), lags=np.arange(7), ridge_lambda=2.5)
    save_decoder(dec, tmp_path / "d")
    back = load_decoder(tmp_path / "d")
    assert back.ridge_lambda == 2.5
    assert np.allclose(back.weights, dec.weights.astype(np.float32))


def test_fit_decoder_segments_matches_single_fit(rng):
    eeg = rng.normal(size=(3, 2000))
    env = np.abs(rng.normal(size=2000))
    whole = fit_decoder(eeg, env, lags=4, ridge_lambda=1.0)
    # one segment equals the plain fit
    seg = fit_decoder_segments([(eeg, env)], n_lags=5, ridge_lambda=1.0)
    assert np.allclose(whole.weights, seg.weights)


def test_accuracy_grows_with_window_length():
    # closed loop at moderate SNR: longer decision windows decode better
    from asad.data import RawRecording, Trial, segment_windows, stratified_split
    from asad.baseline import add_envelope_mixture

    fs, n_trials, trial_s = 70.0, 12, 60.0
    n = int(fs * n_trials * trial_s)
    env_l = synth_envelope(n, fs, "left", np.random.default_rng(1))
    env_r = synth_envelope(n, fs, "right", np.random.default_rng(2))
    labels = [LEFT, RIGHT] * 6
    trials = [
        Trial(int(i * trial_s * fs), int((i + 1) * trial_s * fs), labels[i])
        for i in range(n_trials)
    ]
    base = RawRecording(
        "s0", fs, [f"ch{c:02d}" for c in range(8)],
        np.random.default_rng(7).normal(0, 2.0, (8, n)), trials,
    )
    rec = add_envelope_mixture(base, env_l, env_r, max_lag=18, mix_gain=0.4, seed=9)

    def seg(w, env):
        return env.samples[w.origin[1] : w.origin[1] + w.length]

    def samples(w):
        return rec.data[:, w.origin[1] : w.origin[1] + w.length]

    accs = []
    for ws in (2.0, 5.0, 10.0):
        wins = segment_windows(rec, ws, 0.5)
        split = stratified_split(wins, (0.7, 0.1, 0.2), seed=9, block_s=30.0, sample_rate=fs)
        pairs = [(samples(w), seg(w, env_l if w.label == LEFT else env_r)) for w in split.train]
        dec = fit_decoder_segments(pairs, n_lags=19, ridge_lambda=1.0)
        held = [*split.validation, *split.test]
        hits = sum(
            decide_attention(
                reconstruct(dec, samples(w)),
                seg(w, env_l)[: w.length - 18],
                seg(w, env_r)[: w.length - 18],
            ).label
            == w.label
            for w in held
        )
        accs.append(hits / len(held))
    assert accs[0] < accs[1] < accs[2], accs


# ---------------------------------------------------------------------------
# Distinct-row fit: weighted covariances, whole-recording reconstruction
# ---------------------------------------------------------------------------

def _trial_windows(trials, length, overlap, keep):
    """WindowSet of the windows of `length` samples, at the given overlap,
    inside each (start, end, label) trial; `keep[i]` drops window i."""
    hop = max(1, round(length * (1 - overlap)))
    starts, labels = [], []
    for start, end, label in trials:
        for s0 in range(start, end - length + 1, hop):
            starts.append(s0)
            labels.append(label)
    picked = [i for i in range(len(starts)) if keep[i % len(keep)]] or [0]
    return WindowSet(np.full(len(picked), "s"), np.zeros(len(picked), int),
                     np.array(starts)[picked], np.array(labels)[picked], length)


@settings(max_examples=30, deadline=None)
@given(
    overlap=st.sampled_from([0.0, 0.5, 0.75]),
    n_lags=st.integers(1, 6),
    length=st.integers(8, 700),
    gaps=st.lists(st.integers(0, 60), min_size=1, max_size=3),
    trial_len=st.integers(700, 1600),
    keep=st.lists(st.booleans(), min_size=1, max_size=7),
    seed=st.integers(0, 2**16),
)
def test_weighted_covariances_equal_per_window_sum(
    overlap, n_lags, length, gaps, trial_len, keep, seed
):
    rng = np.random.default_rng(seed)
    trials, t = [], 0
    for i, gap in enumerate(gaps):
        t += gap
        trials.append((t, t + trial_len, LEFT if i % 2 == 0 else RIGHT))
        t += trial_len
    eeg = rng.normal(size=(2, t + 5))
    env_l, env_r = np.abs(rng.normal(size=(2, t + 5)))
    wins = _trial_windows(trials, length, overlap, keep)
    m, y = train_weights(wins, env_l, env_r, n_lags)
    r_auto, r_cross = accumulate_covariances(eeg, m, y, n_lags)

    # reference: one lagged design and Gram matrix per window
    ref_auto = np.zeros_like(r_auto)
    ref_cross = np.zeros_like(r_cross)
    for s0, label in zip(wins.starts, wins.labels):
        x = _lagged_design(eeg[:, s0 : s0 + length], n_lags)
        env = env_l if label == LEFT else env_r
        ref_auto += x.T @ x
        ref_cross += x.T @ env[s0 : s0 + len(x)]
    assert np.max(np.abs(r_auto - ref_auto)) <= 1e-12 * np.max(np.abs(ref_auto))
    assert np.max(np.abs(r_cross - ref_cross)) <= 1e-12 * np.max(np.abs(ref_cross))


def test_covariance_designs_stay_within_row_chunk(rng, monkeypatch):
    calls = []

    def recording_design(eeg, n_lags):
        x = _lagged_design(eeg, n_lags)
        calls.append(x.shape[0])
        return x

    monkeypatch.setattr(baseline, "_lagged_design", recording_design)
    n_lags, t = 4, 3 * ROW_CHUNK + 200
    eeg = rng.normal(size=(2, t))
    m = np.zeros(t)
    m[5 : 3 * ROW_CHUNK + 50] = 2.0  # one run longer than three chunks
    m[3 * ROW_CHUNK + 80 : t - n_lags + 1] = 1.0
    accumulate_covariances(eeg, m, np.abs(rng.normal(size=t)), n_lags)
    assert max(calls) <= ROW_CHUNK
    assert sum(calls) == np.count_nonzero(m)


def test_whole_recording_reconstruction_sliced_equals_per_window(rng):
    eeg = rng.normal(size=(5, 3000))
    dec = LinearDecoder(weights=rng.normal(size=(5, 19)), lags=np.arange(19), ridge_lambda=1.0)
    wins = WindowSet(np.full(4, "s"), np.zeros(4, int), np.array([0, 35, 700, 2930]),
                     np.array([LEFT, RIGHT, LEFT, RIGHT]), 70)
    whole = reconstruct(dec, eeg)
    assert len(whole) == 3000 - 18
    sliced = whole[wins.rows(19)]
    for row, s0 in zip(sliced, wins.starts):
        per_window = reconstruct(dec, eeg[:, s0 : s0 + 70])
        assert np.max(np.abs(row - per_window)) <= 1e-12 * np.max(np.abs(per_window))


def test_batched_decisions_equal_one_window_at_a_time(rng):
    s_hat = rng.normal(size=(6, 50))
    env_l, env_r = np.abs(rng.normal(size=(2, 6, 50)))
    env_r[2] = env_l[2]  # an exact tie goes Left
    d = decide_attention(s_hat, env_l, env_r)
    for i in range(6):
        one = decide_attention(s_hat[i], env_l[i], env_r[i])
        assert d.label[i] == one.label and d.tie[i] == one.tie
        assert d.r_left[i] == pytest.approx(one.r_left, abs=1e-14)
    assert d.label[2] == LEFT and d.tie[2] and d.tie.sum() == 1


def test_select_lambda_skips_singular_lambda_zero(rng):
    n = 4000
    env_l = synth_envelope(n, 70.0, "l", np.random.default_rng(1)).samples
    env_r = synth_envelope(n, 70.0, "r", np.random.default_rng(2)).samples
    eeg = rng.normal(size=(3, n))
    eeg[0] += np.concatenate([np.zeros(2), env_l[:-2]])  # tracks the left envelope
    eeg[2] = 0.0  # an all-zero channel makes the lambda = 0 system singular
    trials = [(0, 2000, LEFT), (2000, 4000, LEFT)]
    train = _trial_windows([trials[0]], 140, 0.5, [True])
    val = _trial_windows([trials[1]], 140, 0.5, [True])
    m, y = train_weights(train, env_l, env_r, 5)
    with pytest.raises(ValueError, match="singular"):
        fit_decoder_segments(
            [(eeg[:, s : s + 140], env_l[s : s + 140]) for s in train.starts], 5, 0.0
        )
    dec, acc = select_lambda((eeg, m, y), (env_l, env_r, val), 5, (0.0, 1.0))
    assert dec.ridge_lambda == 1.0 and acc > 0.5
    with pytest.raises(ValueError, match="no lambda"):
        select_lambda((eeg, m, y), (env_l, env_r, val), 5, (0.0,))


# ---------------------------------------------------------------------------
# Lag-block covariances and the Cholesky solve
# ---------------------------------------------------------------------------

def _direct_covariances(eeg, m, y, n_lags):
    """sum_t m[t] x_t x_t' and sum_t m[t] y[t] x_t over one full lagged design."""
    x = _lagged_design(eeg, n_lags)
    n_rows = len(x)
    return x.T @ (x * m[:n_rows, None]), x.T @ (m[:n_rows] * y[:n_rows])


@pytest.mark.parametrize("window_s", [1.0, 10.0])
def test_lag_block_covariances_at_realistic_size(rng, window_s):
    # 32 channels and 19 lags at 70 Hz; windows at 50 % overlap inside
    # 20 s blocks that leave gaps of 0.5-3 s between them
    fs, n_lags = 70, 19
    length = int(window_s * fs)
    blocks, t = [], 0
    for i, gap_s in enumerate((0.5, 3.0, 1.0, 2.0)):
        t += int(gap_s * fs)
        blocks.append((t, t + 20 * fs, LEFT if i % 2 == 0 else RIGHT))
        t += 20 * fs
    eeg = rng.normal(size=(32, t + 40))
    env_l, env_r = np.abs(rng.normal(size=(2, t + 40)))
    wins = _trial_windows(blocks, length, 0.5, [True, True, False, True])
    m, y = train_weights(wins, env_l, env_r, n_lags)
    r_auto, r_cross = accumulate_covariances(eeg, m, y, n_lags)
    ref_auto, ref_cross = _direct_covariances(eeg, m, y, n_lags)
    assert np.max(np.abs(r_auto - ref_auto)) <= 1e-12 * np.max(np.abs(ref_auto))
    assert np.max(np.abs(r_cross - ref_cross)) <= 1e-12 * np.max(np.abs(ref_cross))


def test_lag_block_covariances_with_weighted_rows_at_both_edges(rng):
    # runs of m > 0 start at sample 0 and end at the last row, and the
    # weights are not integers, so the weight steps at rows -1 and n_rows - 1;
    # the first run steps at every row, more than ROW_CHUNK times
    n_lags, t = 6, 1000
    n_rows = t - n_lags + 1
    eeg = rng.normal(size=(3, t))
    y = rng.normal(size=t)
    m = np.zeros(t)
    m[:700] = rng.uniform(0.25, 3.5, size=700)
    m[770:n_rows] = np.repeat(rng.uniform(0.1, 2.0, size=5), [40, 1, 60, 77, 47])
    assert m[0] > 0 and m[n_rows - 1] > 0 and not np.any(m[n_rows:])
    assert np.count_nonzero(np.diff(m, prepend=0.0)) > ROW_CHUNK
    r_auto, r_cross = accumulate_covariances(eeg, m, y, n_lags)
    ref_auto, ref_cross = _direct_covariances(eeg, m, y, n_lags)
    assert np.max(np.abs(r_auto - ref_auto)) <= 1e-12 * np.max(np.abs(ref_auto))
    assert np.max(np.abs(r_cross - ref_cross)) <= 1e-12 * np.max(np.abs(ref_cross))


def test_solve_cholesky_matches_lu(rng):
    x = rng.normal(size=(400, 60))
    r_auto, r_cross = x.T @ x, x.T @ rng.normal(size=400)
    for lam in (1e-3, 1.0, 1e3):
        a = r_auto + lam * np.mean(np.diag(r_auto)) * np.eye(60)
        ref = np.linalg.solve(a, r_cross)
        w = baseline._solve(r_auto, r_cross, lam)
        assert np.max(np.abs(w - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert np.array_equal(r_auto, x.T @ x)  # the ridge is not added to the caller's R
    singular = np.zeros((60, 60))
    singular[:30, :30] = r_auto[:30, :30]
    with pytest.raises(ValueError, match="singular"):
        baseline._solve(singular, r_cross, 0.0)
    with pytest.raises(ValueError, match="lambda must be >= 0"):
        baseline._solve(r_auto, r_cross, -1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1), exact_symmetry=st.booleans())
def test_solve_factor_matches_c_order_cholesky_bits(n, seed, exact_symmetry):
    """`_solve` factors a Fortran-ordered copy of the system; it gives the
    bits of scipy's factor of the C-ordered system, which scipy copies into
    Fortran order itself, on every lambda of the default grid, also when R
    is symmetric only to rounding, as `accumulate_covariances` gives it for
    real row weights."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n + 8, n))
    r_auto = x.T @ x
    if not exact_symmetry:
        r_auto = r_auto + r_auto * rng.uniform(-1e-15, 1e-15, size=(n, n))
    r_cross = rng.normal(size=n)
    for lam in LAMBDA_GRID:
        a = r_auto.copy()
        a.flat[:: n + 1] += lam * float(np.mean(np.diag(r_auto)))
        ref = cho_solve(cho_factor(a, overwrite_a=True, check_finite=False), r_cross,
                        check_finite=False)
        assert baseline._solve(r_auto, r_cross, lam).tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# Float32 recordings: the fits cast one chunk at a time and keep the bits
# ---------------------------------------------------------------------------

def _covariances_whole_cast(eeg, m, y, n_lags):
    """accumulate_covariances with the whole recording cast to float64 first
    and R assembled from B_0 and a separate array of block-row increments."""
    eeg, m, y = (np.asarray(a, dtype=float) for a in (eeg, m, y))
    n_ch, t = eeg.shape
    n_rows = t - n_lags + 1
    active = np.concatenate(([False], m[:n_rows] > 0, [False]))
    edges = np.flatnonzero(active[1:] != active[:-1])
    top, r_cross = np.zeros((n_ch, n_ch * n_lags)), np.zeros(n_ch * n_lags)
    for lo_run, hi_run in zip(edges[::2], edges[1::2]):
        for lo in range(lo_run, hi_run, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, hi_run)
            x = _lagged_design(eeg[:, lo : hi + n_lags - 1], n_lags)
            top += (eeg[:, lo:hi] * m[lo:hi]) @ x
            r_cross += (m[lo:hi] * y[lo:hi]) @ x
    step = -np.diff(np.concatenate(([0.0], m[:n_rows], [0.0])))
    u = np.flatnonzero(step) - 1
    d_u = step[u + 1]
    inc = np.zeros((n_lags, n_ch, n_lags, n_ch))  # B_i - B_{i-1}, as [i, c, d, c']
    for lo in range(0, len(u), ROW_CHUNK):
        uc, dc = u[lo : lo + ROW_CHUNK], d_u[lo : lo + ROW_CHUNK, None]
        at_steps = eeg.T[uc[:, None] + np.arange(1, n_lags)]
        for i in range(1, n_lags):
            lagged = at_steps[:, i - 1 :].reshape(len(uc), -1)
            change = (at_steps[:, i - 1] * dc).T @ lagged
            inc[i, :, : n_lags - i] += change.reshape(n_ch, n_lags - i, n_ch)
    r4 = _blocks_from_increments(top, inc)
    return r4.reshape(n_ch * n_lags, n_ch * n_lags), r_cross


def _blocks_from_increments(top, inc):
    """R as [c, tau, c', tau'] from B_0 (top, as [c, (c', d)]) and the
    increments inc[i] = B_i - B_{i-1} as [c, d, c'], one block-row at a time."""
    n_lags, n_ch = inc.shape[:2]
    block = top.reshape(n_ch, n_ch, n_lags).transpose(0, 2, 1).copy()  # B_0 as [c, d, c']
    r4 = np.empty((n_ch, n_lags, n_ch, n_lags))
    for i in range(n_lags):
        block += inc[i]
        b_i = block[:, : n_lags - i].transpose(0, 2, 1)  # B_i as [c, c', d]
        r4[:, i, :, i:] = b_i
        r4[:, i + 1 :, :, i] = b_i[:, :, 1:].transpose(1, 2, 0)
    return r4


@settings(max_examples=40, deadline=None)
@given(
    n_ch=st.integers(1, 4),
    n_lags=st.integers(1, 8),
    chunks=st.integers(0, 3),
    rest=st.integers(1, ROW_CHUNK - 1),
    runs=st.lists(st.tuples(st.integers(1, 900), st.integers(0, 40)), min_size=1, max_size=4),
    first_row=st.booleans(),
    last_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_covariances_of_float32_eeg_keep_the_float64_bits(
    n_ch, n_lags, chunks, rest, runs, first_row, last_row, seed
):
    """A float32 recording, cast one chunk at a time, gives the bits of its
    float64 copy, and those of the whole-cast path, for real-valued row
    weights in runs that may hold the first and the last row."""
    rng = np.random.default_rng(seed)
    t = max(chunks * ROW_CHUNK + rest, n_lags + 1)
    n_rows = t - n_lags + 1
    eeg = rng.normal(size=(n_ch, t)).astype(np.float32)
    y = rng.normal(size=t)
    m, pos = np.zeros(t), 0
    for length, gap in runs:  # weights step inside each run, not only at its ends
        pos += gap
        seg = slice(pos, min(pos + length, n_rows))
        m[seg] = rng.choice(rng.uniform(0.1, 4.0, size=3), size=len(m[seg]))
        pos += length
    if first_row:
        m[0] = rng.uniform(0.1, 4.0)
    if last_row:
        m[n_rows - 1] = rng.uniform(0.1, 4.0)
    if not np.any(m):
        m[0] = 1.5
    got = accumulate_covariances(eeg, m, y, n_lags)
    for ref in (accumulate_covariances(eeg.astype(float), m, y, n_lags),
                _covariances_whole_cast(eeg, m, y, n_lags)):
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()


@settings(max_examples=40, deadline=None)
@given(n_ch=st.integers(1, 4), n_lags=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_lag_blocks_filled_in_place_equal_the_increment_assembly(n_ch, n_lags, seed):
    """R completed in place from B_0 and the block-row increments has the
    bits of the assembly through a separate increment array, -0.0 and +0.0
    entries of B_0 included."""
    rng = np.random.default_rng(seed)
    top = rng.normal(size=(n_ch, n_ch * n_lags))
    top[rng.random(top.shape) < 0.3] = -0.0
    top[rng.random(top.shape) < 0.1] = 0.0
    top.flat[0] = -0.0
    inc = np.zeros((n_lags, n_ch, n_lags, n_ch))
    for i in range(1, n_lags):
        inc[i, :, : n_lags - i] = rng.normal(size=(n_ch, n_lags - i, n_ch))
    r4 = np.zeros((n_ch, n_lags, n_ch, n_lags))
    r4[:, 0] = top.reshape(n_ch, n_ch, n_lags)
    for i in range(1, n_lags):
        r4[:, i, :, i:] = inc[i, :, : n_lags - i].transpose(0, 2, 1)
    got = baseline._fill_lag_blocks(r4)
    assert got is r4
    assert got.tobytes() == _blocks_from_increments(top, inc).tobytes()
    assert got[0, 0, 0, 0] == 0.0 and not np.signbit(got[0, 0, 0, 0])  # top.flat[0]


def _reconstruct_whole(weights, eeg):
    """s_hat from one (n_lags, C) x (C, T) product of the float64 recording."""
    n_lags = weights.shape[1]
    n = eeg.shape[1] - n_lags + 1
    per_lag = weights.T @ np.asarray(eeg, dtype=float)
    s_hat = per_lag[0, :n].copy()
    for tau in range(1, n_lags):
        s_hat += per_lag[tau, tau : tau + n]
    return s_hat


@settings(max_examples=40, deadline=None)
@given(
    n_ch=st.integers(1, 6),
    n_lags=st.integers(2, 20),
    blocks=st.integers(0, 3),
    rest=st.integers(-3, 40),
    float32=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_blocked_reconstruct_keeps_the_whole_product_bits(
    n_ch, n_lags, blocks, rest, float32, seed
):
    """Column blocks give the bits of the whole per-lag product and its
    shifted sum: for outputs that are not a multiple of the block, a few
    more or fewer than a block, and series shorter than one block."""
    rng = np.random.default_rng(seed)
    t = max(blocks * baseline.RECONSTRUCT_BLOCK + rest + n_lags - 1, n_lags)
    eeg = rng.normal(size=(n_ch, t))
    if float32:
        eeg = eeg.astype(np.float32)
    dec = LinearDecoder(rng.normal(size=(n_ch, n_lags)), np.arange(n_lags), 1.0)
    assert reconstruct(dec, eeg).tobytes() == _reconstruct_whole(dec.weights, eeg).tobytes()


_SINGLE_LAG_BITS = """
import numpy as np
from asad.baseline import RECONSTRUCT_BLOCK as B, LinearDecoder, reconstruct
rng = np.random.default_rng(5)
for n_ch in (1, 3, 64):
    for t in (1, 7, B - 1, B, B + 1, B + 3, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 17):
        eeg = rng.normal(size=(n_ch, t)).astype(np.float32)
        w = rng.normal(size=(n_ch, 1))
        whole = (w.T @ eeg.astype(float))[0]
        got = reconstruct(LinearDecoder(w, np.arange(1), 1.0), eeg)
        assert got.tobytes() == whole.tobytes(), (n_ch, t)
print("ok")
"""


def test_single_lag_reconstruct_keeps_the_whole_product_bits_on_one_blas_thread():
    """At n_lags = 1 the per-lag product is a matrix-vector product, whose
    whole-series bits depend on how many BLAS threads split it; on one
    thread the column blocks give the bits of the whole product, lone
    trailing columns included."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", _SINGLE_LAG_BITS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_fits_on_float32_eeg_allocate_less_than_its_float64_copy(rng):
    """Neither the covariances nor the reconstruction of a float32 recording
    holds a float64 copy of it: each casts one chunk at a time."""
    n_ch, t, n_lags = 32, 60_000, 19
    eeg = rng.normal(size=(n_ch, t)).astype(np.float32)
    y = rng.normal(size=t)
    m = np.zeros(t)
    for s0 in range(0, t - 400, 2_000):  # 70-sample windows at 50 % overlap
        m[s0 : s0 + 300] = rng.uniform(0.5, 2.0)
    dec = LinearDecoder(rng.normal(size=(n_ch, n_lags)), np.arange(n_lags), 1.0)
    float64_copy = eeg.size * 8
    for call in (lambda: accumulate_covariances(eeg, m, y, n_lags),
                 lambda: reconstruct(dec, eeg)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < float64_copy, (peak, float64_copy)
