import inspect
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asad.network import (
    RMSPROP_BLOCK,
    Checkpoint,
    CnnConfig,
    TrainConfig,
    TrainingDiverged,
    TRAINED,
    _bn_backward,
    _bn_relu,
    _conv,
    _conv_grads,
    _dense_grads,
    _draw_masks,
    _pool,
    _pool_adjoint,
    evaluate_features,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grad,
    paired_t_test,
    param_shapes,
    predict_proba,
    rmsprop_step,
    rmsprop_update,
    save_checkpoint,
    train_arrays,
)

TINY = CnnConfig(in_channels=2, conv_filters=2, in_size=8, fc_sizes=(16, 8))


def _zero_params(cfg):
    shapes = param_shapes(cfg)
    return {
        k: (np.ones(s) if k in ("bn_gamma", "bn_running_var") else np.zeros(s))
        for k, s in shapes.items()
    }


def _blob_data(cfg, n, seed, separation=2.0):
    """Class-dependent mean maps plus noise; trivially separable at high
    separation."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    base = rng.normal(size=(2, cfg.in_channels, cfg.in_size, cfg.in_size))
    x = base[y] * separation + rng.normal(size=(n, cfg.in_channels, cfg.in_size, cfg.in_size))
    return x.astype(np.float32), y


def test_zero_params_uniform_probs(rng):
    probs, _ = forward(TINY, _zero_params(TINY), rng.normal(size=(5, 2, 8, 8)), mode="eval")
    assert np.allclose(probs, 0.5)


def test_softmax_rows_sum_to_one(rng):
    params = init_params(TINY, rng)
    probs, _ = forward(TINY, params, rng.normal(size=(9, 2, 8, 8)), mode="eval")
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
    assert np.all((probs > 0) & (probs < 1))


def test_eval_mode_deterministic(rng):
    params = init_params(TINY, rng)
    x = rng.normal(size=(4, 2, 8, 8))
    a, _ = forward(TINY, params, x, mode="eval")
    b, _ = forward(TINY, params, x, mode="eval")
    assert a.tobytes() == b.tobytes()


def test_loss_of_confident_and_uniform_predictions(rng):
    params = _zero_params(TINY)
    x = rng.normal(size=(6, 2, 8, 8))
    y = np.zeros(6, dtype=int)
    masks = _draw_masks(TINY, 6, np.random.default_rng(0))
    loss, _, _ = loss_and_grad(TINY, params, x, y, masks=masks)
    assert abs(loss - np.log(2.0)) < 1e-12  # uniform (0.5, 0.5)

    confident = dict(params)
    confident["out_b"] = np.array([60.0, -60.0])  # probability ~1 for class 0
    loss, _, _ = loss_and_grad(TINY, confident, x, y, masks=masks)
    assert abs(loss) < 1e-12


def test_gradient_matches_finite_differences(rng):
    cfg = TINY
    params = init_params(cfg, rng, dtype=np.float64)
    for name in ("conv_b", "bn_beta", "fc1_b", "fc2_b", "out_b"):
        params[name] = params[name] + rng.normal(0, 0.05, params[name].shape)
    x = rng.normal(size=(4, 2, 8, 8))
    y = np.array([0, 1, 1, 0])
    masks = _draw_masks(cfg, 4, rng)
    _, grads, _ = loss_and_grad(cfg, params, x, y, masks=masks)
    h = 1e-4
    for name in TRAINED:
        flat = params[name].ravel()
        g = grads[name].ravel()
        idx = np.linspace(0, flat.size - 1, min(flat.size, 40)).astype(int)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp, _, _ = loss_and_grad(cfg, params, x, y, masks=masks)
            flat[i] = orig - h
            lm, _, _ = loss_and_grad(cfg, params, x, y, masks=masks)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(g[i]), 1e-7)
            assert abs(fd - g[i]) / denom < 1e-4, f"{name}[{i}]"


def test_rmsprop_zero_gradient_keeps_params():
    params = {"w": np.array([1.5, -2.0])}
    grads = {"w": np.zeros(2)}
    state = {"w": np.array([0.4, 0.4])}
    new_p, new_s = rmsprop_step(params, grads, state, 0, TrainConfig())
    assert np.array_equal(new_p["w"], params["w"])
    assert np.allclose(new_s["w"], 0.9 * 0.4)


def test_rmsprop_hand_computed_first_step():
    params = {"w": np.array([0.0])}
    grads = {"w": np.array([1.0])}
    new_p, new_s = rmsprop_step(params, grads, None, 0, TrainConfig())
    assert abs(new_s["w"][0] - 0.1) < 1e-15
    assert abs(new_p["w"][0] - (-1e-3 / (np.sqrt(0.1) + 1e-8))) < 1e-12


def test_rmsprop_learning_rate_decay():
    # identical state/grad, epochs 0 and 100: steps scale by 1/(1 + 0.001*100)
    grads = {"w": np.array([1.0])}
    state = {"w": np.array([1.0])}
    p0, _ = rmsprop_step({"w": np.array([0.0])}, grads, state, 0, TrainConfig())
    p100, _ = rmsprop_step({"w": np.array([0.0])}, grads, dict(state), 100, TrainConfig())
    assert abs(p100["w"][0] / p0["w"][0] - 1.0 / 1.1) < 1e-12


def test_batchnorm_train_statistics(rng):
    params = init_params(TINY, rng)
    x = rng.normal(size=(16, 2, 8, 8))
    _, cache = forward(TINY, params, x, mode="train", rng=rng)
    xhat = cache["xhat"]
    mu = xhat.mean(axis=(0, 2, 3))
    var = xhat.var(axis=(0, 2, 3))
    assert np.max(np.abs(mu)) < 1e-6
    assert np.max(np.abs(var - 1.0)) < 1e-4


def test_dropout_expectation_preserved(rng):
    # inverted dropout: averaging the train-mode activations at the dropout
    # site over many mask draws reproduces the eval-mode activations
    cfg = CnnConfig(in_channels=1, conv_filters=2, in_size=8, fc_sizes=(16, 8), dropout_p=0.5)
    x = rng.normal(size=(2, 1, 8, 8))
    params = init_params(cfg, rng)
    masks0 = _draw_masks(cfg, 2, np.random.default_rng(0))
    _, cache = forward(cfg, params, x, mode="train", masks=masks0)
    pooled = cache["pooled"]  # pre-dropout, mask-independent
    mask_rng = np.random.default_rng(7)
    acc = np.zeros_like(pooled)
    n = 10_000
    for _ in range(n):
        acc += pooled * _draw_masks(cfg, 2, mask_rng)["drop_pool"]
    acc /= n
    rel = np.linalg.norm(acc - pooled) / np.linalg.norm(pooled)
    assert rel < 0.02


def test_pool_flatten_shapes():
    for f in range(1, 9):
        cfg = CnnConfig(in_channels=1, conv_filters=f, in_size=32)
        shapes = param_shapes(cfg)
        assert cfg.pooled_size == 16
        assert shapes["fc1_w"] == (512, f * 256)
        params = init_params(cfg, np.random.default_rng(f))
        probs, _ = forward(cfg, params, np.zeros((2, 1, 32, 32)), mode="eval")
        assert probs.shape == (2, 2)


def test_checkpoint_roundtrip_bit_identical(tmp_path, rng):
    params = init_params(TINY, rng)
    ckpt = Checkpoint(
        config=TINY, params=params, train_config=TrainConfig(seed=3), epoch=4,
        validation_accuracy=0.75,
    )
    save_checkpoint(ckpt, tmp_path / "c")
    loaded = load_checkpoint(tmp_path / "c")
    for name in params:
        assert loaded.params[name].tobytes() == params[name].astype("<f4").tobytes()
    x = rng.normal(size=(8, 2, 8, 8)).astype(np.float32)
    y = (np.arange(8) % 2).astype(int)
    m1 = evaluate_features(loaded, x, y, ["a"] * 8)
    save_checkpoint(loaded, tmp_path / "c2")
    m2 = evaluate_features(load_checkpoint(tmp_path / "c2"), x, y, ["a"] * 8)
    assert m1 == m2
    assert (tmp_path / "c.f32").read_bytes() == (tmp_path / "c2.f32").read_bytes()


def test_train_learns_separable_blobs():
    cfg = CnnConfig(in_channels=1, conv_filters=2, in_size=8, fc_sizes=(16, 8))
    x, y = _blob_data(cfg, 400, seed=0, separation=2.0)
    tc = TrainConfig(max_epochs=20, batch_size=32, seed=1)
    ckpt, history = train_arrays(cfg, tc, x[:320], y[:320], x[320:], y[320:])
    assert ckpt.validation_accuracy >= 0.95
    assert len(history) <= 20


def test_train_chance_on_shuffled_labels():
    cfg = CnnConfig(in_channels=1, conv_filters=2, in_size=8, fc_sizes=(16, 8))
    rng = np.random.default_rng(5)
    x = rng.normal(size=(600, 1, 8, 8)).astype(np.float32)  # no signal at all
    y = (np.arange(600) % 2).astype(int)
    perm = rng.permutation(500)
    tc = TrainConfig(max_epochs=10, batch_size=32, seed=2)
    ckpt, _ = train_arrays(cfg, tc, x[:500], y[:500][perm], x[500:550], y[500:550])
    m = evaluate_features(ckpt, x[550:], y[550:], ["s"] * 50)
    assert abs(m.accuracy - 0.5) <= 0.05


def test_train_deterministic(tmp_path):
    cfg = CnnConfig(in_channels=1, conv_filters=2, in_size=8, fc_sizes=(16, 8))
    x, y = _blob_data(cfg, 200, seed=3)
    tc = TrainConfig(max_epochs=4, batch_size=32, seed=9)
    c1, h1 = train_arrays(cfg, tc, x[:160], y[:160], x[160:], y[160:])
    c2, h2 = train_arrays(cfg, tc, x[:160], y[:160], x[160:], y[160:])
    assert h1 == h2
    save_checkpoint(c1, tmp_path / "a")
    save_checkpoint(c2, tmp_path / "b")
    assert (tmp_path / "a.f32").read_bytes() == (tmp_path / "b.f32").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_detected():
    cfg = CnnConfig(in_channels=1, conv_filters=2, in_size=8, fc_sizes=(16, 8))
    x, y = _blob_data(cfg, 64, seed=4)
    tc = TrainConfig(learning_rate=1e18, max_epochs=5, batch_size=16, seed=0)
    with pytest.raises(TrainingDiverged):
        train_arrays(cfg, tc, x[:48], y[:48], x[48:], y[48:])


def test_evaluate_per_subject_and_sd(rng):
    params = _zero_params(TINY)
    confident = dict(params)
    confident["out_b"] = np.array([10.0, -10.0])  # always predicts class 0
    ckpt = Checkpoint(TINY, confident, TrainConfig(), 0, 0.5)
    x = rng.normal(size=(4, 2, 8, 8)).astype(np.float32)
    # subject a: labels 0,0 -> acc 1; subject b: labels 1,1 -> acc 0
    m = evaluate_features(ckpt, x, np.array([0, 0, 1, 1]), ["a", "a", "b", "b"])
    assert m.per_subject == {"a": 1.0, "b": 0.0}
    assert m.subject_mean == 0.5
    assert m.subject_sd == 0.5
    assert m.accuracy == 0.5


def test_single_window_argmax(rng):
    params = _zero_params(TINY)
    biased = dict(params)
    biased["out_b"] = np.array([2.0, -2.0])
    ckpt = Checkpoint(TINY, biased, TrainConfig(), 0, 0.5)
    x = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
    m = evaluate_features(ckpt, x, np.array([0]), ["s"])
    assert m.accuracy == 1.0


def test_paired_t_test_textbook():
    res = paired_t_test([2, 3, 4, 5], [1, 1, 1, 1])  # d = 1, 2, 3, 4
    assert abs(res.t - 3.872983) < 1e-3
    assert abs(res.p - 0.0305) < 1e-3
    assert res.df == 3
    assert not res.degenerate


def test_paired_t_test_degenerate_and_symmetry():
    res = paired_t_test([1.0, 2.0], [1.0, 2.0])
    assert res.degenerate and res.p == 1.0

    res = paired_t_test([2.0, 3.0], [1.0, 2.0])  # d = 1, 1 constant nonzero
    assert res.degenerate and res.p == 0.0

    a, b = [0.9, 0.8, 0.7, 0.95], [0.5, 0.6, 0.75, 0.8]
    fwd = paired_t_test(a, b)
    rev = paired_t_test(b, a)
    assert abs(fwd.t + rev.t) < 1e-12
    assert abs(fwd.p - rev.p) < 1e-12


# ---------------------------------------------------------------------------
# dtype-following arithmetic: float32 training, float64 oracles and eval
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(1, 1, 2, 2), (3, 2, 8, 8), (64, 8, 32, 32)])
def test_pool_matches_reshape_mean_bitwise(shape):
    a = np.random.default_rng(0).normal(size=shape)
    b, f, h, w = shape
    ref = a.reshape(b, f, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    assert _pool(a).tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (3, 2, 4, 4), (64, 8, 16, 16)])
def test_pool_adjoint_matches_double_repeat_bitwise(shape):
    rng = np.random.default_rng(1)
    d = rng.normal(size=shape)
    b, f, hp, wp = shape
    up = np.repeat(np.repeat(d, 2, 2), 2, 3) / 4
    assert _pool_adjoint(d, np.ones((b, f, 2 * hp, 2 * wp))).tobytes() == up.tobytes()
    relu = np.maximum(rng.normal(size=(b, f, 2 * hp, 2 * wp)), 0.0)
    assert _pool_adjoint(d, relu).tobytes() == (up * (relu > 0)).tobytes()


def test_float32_gradients_match_float64(rng):
    p32 = init_params(TINY, rng)
    for name in ("conv_b", "bn_beta", "fc1_b", "fc2_b", "out_b"):
        p32[name] = p32[name] + rng.normal(0, 0.05, p32[name].shape).astype(np.float32)
    p64 = {k: v.astype(np.float64) for k, v in p32.items()}
    x = rng.normal(size=(16, 2, 8, 8)).astype(np.float32)
    y = np.arange(16) % 2
    masks = _draw_masks(TINY, 16, rng)
    loss32, g32, _ = loss_and_grad(TINY, p32, x, y, masks=masks)
    loss64, g64, _ = loss_and_grad(TINY, p64, x, y, masks=masks)
    assert abs(loss32 - loss64) <= 1e-5 * abs(loss64)
    for name in TRAINED:
        assert g32[name].dtype == np.float32 and g64[name].dtype == np.float64
        err = np.linalg.norm(g32[name] - g64[name])
        if name == "conv_b":  # batch norm cancels the conv bias: zero up to rounding
            assert err <= 1e-5 * np.linalg.norm(g64["conv_w"])
        else:
            assert err <= 1e-3 * np.linalg.norm(g64[name]), name


def _rmsprop_unblocked(params, grads, state, t, cfg):
    """rmsprop_step as whole-array expressions, one temporary per step."""
    lr_t = cfg.learning_rate / (1.0 + cfg.decay * t)
    rho = cfg.rmsprop_rho
    new_params, new_state = dict(params), {}
    for name, g in grads.items():
        v_old = np.zeros_like(g) if state is None else np.asarray(state[name], dtype=g.dtype)
        v = rho * v_old
        tmp = (1.0 - rho) * g
        tmp *= g
        v += tmp
        denom = np.sqrt(v, out=tmp)
        denom += cfg.rmsprop_epsilon
        step = lr_t * g
        step /= denom
        theta = np.subtract(np.asarray(params[name], dtype=g.dtype), step, out=step)
        new_state[name] = v
        new_params[name] = theta.astype(params[name].dtype, copy=False)
    return new_params, new_state


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(0, 2),
    offset=st.integers(-1, 1),
    dtype=st.sampled_from([np.float32, np.float64]),
    with_state=st.booleans(),
    t=st.integers(0, 50),
    seed=st.integers(0, 2**16),
)
def test_rmsprop_blocks_match_unblocked_bits(k, offset, dtype, with_state, t, seed):
    """Sizes around multiples of RMSPROP_BLOCK, state None or given: the
    blocked step gives the bits of the whole-array formula."""
    size = max(1, k * RMSPROP_BLOCK + offset)
    rng = np.random.default_rng(seed)
    params = {"w": rng.normal(size=size).astype(dtype), "b": rng.normal(size=(3, 5)).astype(dtype)}
    grads = {name: rng.normal(size=v.shape).astype(dtype) for name, v in params.items()}
    state = ({name: rng.random(v.shape).astype(dtype) for name, v in params.items()}
             if with_state else None)
    tc = TrainConfig(decay=0.01)
    got_p, got_s = rmsprop_step(params, grads, state, t, tc)
    want_p, want_s = _rmsprop_unblocked(params, grads, state, t, tc)
    for name in params:
        assert got_p[name].dtype == want_p[name].dtype and got_s[name].dtype == want_s[name].dtype
        assert got_p[name].tobytes() == want_p[name].tobytes()
        assert got_s[name].tobytes() == want_s[name].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rmsprop_keeps_dtype_and_inputs(dtype):
    rng = np.random.default_rng(2)
    params = {"w": rng.normal(size=(4, 3)).astype(dtype)}
    grads = {"w": rng.normal(size=(4, 3)).astype(dtype)}
    before = (params["w"].copy(), grads["w"].copy())
    p1, s1 = rmsprop_step(params, grads, None, 0, TrainConfig())
    s1_before = s1["w"].copy()
    p2, s2 = rmsprop_step(p1, grads, dict(s1), 1, TrainConfig())
    for arr in (p1["w"], s1["w"], p2["w"], s2["w"]):
        assert arr.dtype == dtype
    assert np.array_equal(params["w"], before[0]) and np.array_equal(grads["w"], before[1])
    assert np.array_equal(s1["w"], s1_before)


# ---------------------------------------------------------------------------
# the bounded training step keeps the bytes of the whole-buffer one
# ---------------------------------------------------------------------------

def _loss_and_grad_whole_cache(cfg, params, batch, labels, rng=None, masks=None):
    """loss_and_grad as it was before the step bounded its working set: every
    activation cached to the end, fc1's gradients formed before the conv
    backward, dpooled and the pool adjoint in new buffers."""
    y = np.asarray(labels)
    probs, cache = forward(cfg, params, batch, mode="train", rng=rng, masks=masks)
    b = len(y)
    p = cache["params"]
    xhat = cache["xhat"]
    loss = float(-np.mean(np.log(probs[np.arange(b), y] + np.finfo(float).tiny)))
    correct = int(np.sum(probs.argmax(axis=1) == y))
    dlogits = probs.copy()
    dlogits[np.arange(b), y] -= 1.0
    dlogits /= b
    dlogits = dlogits.astype(xhat.dtype, copy=False)
    grads = {}
    grads["out_w"], grads["out_b"], drelu3 = _dense_grads(dlogits, cache["relu3"], p["out_w"])
    dfc2 = drelu3 * (cache["fc2"] > 0)
    grads["fc2_w"], grads["fc2_b"], ddrop2 = _dense_grads(dfc2, cache["drop2"], p["fc2_w"])
    drelu2 = ddrop2 * cache["masks"]["drop_fc1"]
    dfc1 = drelu2 * (cache["fc1"] > 0)
    grads["fc1_w"], grads["fc1_b"], dflat = _dense_grads(dfc1, cache["flat"], p["fc1_w"])
    hp = cfg.pooled_size
    dpooled = dflat.reshape(b, cfg.conv_filters, hp, hp) * cache["masks"]["drop_pool"]
    dbn = _pool_adjoint(dpooled, cache["relu1"])
    dconv, grads["bn_gamma"], grads["bn_beta"] = _bn_backward(dbn, xhat, p["bn_gamma"],
                                                              cache["inv_std"])
    grads["conv_w"], grads["conv_b"] = _conv_grads(dconv, cache["cols"], p["conv_w"].shape)
    aux = {"correct": correct, "batch_mean": cache["mu"], "batch_var": cache["var"]}
    return loss, grads, aux


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(1, 70),
    in_channels=st.integers(1, 5),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_loss_and_grad_keeps_the_whole_cache_bytes(batch, in_channels, dtype, seed):
    cfg = CnnConfig(in_channels=in_channels)
    rng = np.random.default_rng(seed)
    params = {k: v.astype(dtype) for k, v in init_params(cfg, rng).items()}
    x = rng.normal(size=(batch, in_channels, 32, 32)).astype(np.float32)
    y = rng.integers(0, 2, size=batch)
    loss, grads, aux = loss_and_grad(cfg, params, x, y, rng=np.random.default_rng(seed))
    want = _loss_and_grad_whole_cache(cfg, params, x, y, rng=np.random.default_rng(seed))
    assert loss == want[0]
    assert sorted(grads) == sorted(want[1])
    for name, g in grads.items():
        assert g.dtype == want[1][name].dtype and g.tobytes() == want[1][name].tobytes(), name
    assert aux["correct"] == want[2]["correct"]
    for key in ("batch_mean", "batch_var"):
        assert aux[key].tobytes() == want[2][key].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(0.0, 0.99),
    dtype=st.sampled_from([np.float32, np.float64]),
    batch=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_dropout_masks_equal_the_float64_scaled_masks(p, dtype, batch, seed):
    """The masks built in their own dtype give the bytes of `keep / (1 - p)`
    formed in float64 and cast."""
    cfg = CnnConfig(in_channels=2, conv_filters=2, in_size=8, fc_sizes=(16, 8), dropout_p=p)
    got = _draw_masks(cfg, batch, np.random.default_rng(seed), dtype)
    rng = np.random.default_rng(seed)
    for name, shape in (("drop_pool", (batch, 2, 4, 4)), ("drop_fc1", (batch, 16))):
        if p == 0.0:
            want = np.ones(shape, dtype=dtype)
        else:
            want = ((rng.random(shape, dtype=dtype) >= p) / (1.0 - p)).astype(dtype, copy=False)
        assert got[name].dtype == want.dtype and got[name].tobytes() == want.tobytes()


def _train_with_pure_steps(cnn_cfg, train_cfg, x_train, y_train, x_val, y_val):
    """train_arrays' loop with the pure rmsprop_step: new parameter and state
    arrays at every step."""
    rng = np.random.default_rng(train_cfg.seed)
    params = init_params(cnn_cfg, rng)
    state, mom, n = None, cnn_cfg.bn_momentum, len(x_train)
    best_acc, best_epoch, best_params, stale = -1.0, -1, None, 0
    for epoch in range(train_cfg.max_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, train_cfg.batch_size):
            idx = order[lo : lo + train_cfg.batch_size]
            _, grads, aux = loss_and_grad(cnn_cfg, params, x_train[idx], y_train[idx], rng=rng)
            params, state = rmsprop_step(params, grads, state, epoch, train_cfg)
            params["bn_running_mean"] = (mom * params["bn_running_mean"]
                                         + (1.0 - mom) * aux["batch_mean"])
            params["bn_running_var"] = np.maximum(
                mom * params["bn_running_var"] + (1.0 - mom) * aux["batch_var"], 1e-12)
        val_acc = float(np.mean(predict_proba(cnn_cfg, params, x_val).argmax(axis=1) == y_val))
        if val_acc > best_acc:
            best_acc, best_epoch, stale = val_acc, epoch, 0
            best_params = {k: v.copy() for k, v in params.items()}
        else:
            stale += 1
            if stale >= train_cfg.early_stop_patience:
                break
    return best_params, best_epoch


def test_in_place_training_keeps_the_pure_step_checkpoint():
    """Seed 1 peaks at epoch 0 of 6: the best weights are copied, then
    updated on for five epochs, so an alias of the in-place update would
    show in the checkpoint."""
    x, y = _blob_data(TINY, 96, seed=1, separation=0.3)
    tc = TrainConfig(max_epochs=6, batch_size=16, seed=1)
    ckpt, history = train_arrays(TINY, tc, x[:64], y[:64], x[64:], y[64:])
    want, want_epoch = _train_with_pure_steps(TINY, tc, x[:64], y[:64], x[64:], y[64:])
    assert ckpt.epoch == want_epoch < len(history) - 1
    for name in want:
        assert ckpt.params[name].tobytes() == want[name].tobytes(), name


def test_rmsprop_update_works_in_place_and_rejects_a_copying_layout():
    rng = np.random.default_rng(4)
    params = {"w": rng.normal(size=(3, 4)).astype(np.float32)}
    grads = {"w": rng.normal(size=(3, 4)).astype(np.float32)}
    state = {"w": np.zeros((3, 4), np.float32)}
    want_p, want_s = rmsprop_step(params, grads, None, 2, TrainConfig())
    buffers = (params["w"], state["w"])
    rmsprop_update(params, grads, state, 2, TrainConfig())
    assert params["w"] is buffers[0] and state["w"] is buffers[1]
    assert params["w"].tobytes() == want_p["w"].tobytes()
    assert state["w"].tobytes() == want_s["w"].tobytes()
    with pytest.raises(ValueError, match="C-contiguous"):
        rmsprop_update({"w": np.zeros((4, 3), np.float32).T}, grads, state, 0, TrainConfig())
    with pytest.raises(ValueError, match="C-contiguous"):
        rmsprop_update(params, grads, {"w": np.zeros((3, 4))}, 0, TrainConfig())


@pytest.mark.parametrize("in_channels", [1, 5])
def test_loss_and_grad_memory_is_bounded_by_its_conv_buffers(in_channels):
    """At batch 64, one step's traced peak stays under the patches, three
    conv outputs (xhat, the ReLU buffer that takes the pool adjoint, one
    batch-norm temporary) and 2 MiB for the rest: activations leave the
    cache at their last use, and fc1's 4 MiB weight gradient is formed
    after the conv buffers are freed."""
    cfg = CnnConfig(in_channels=in_channels)
    rng = np.random.default_rng(in_channels)
    params = init_params(cfg, rng)
    x = rng.normal(size=(64, in_channels, 32, 32)).astype(np.float32)
    y = rng.integers(0, 2, size=64)
    loss_and_grad(cfg, params, x, y, rng=np.random.default_rng(0))
    tracemalloc.start()
    try:
        loss_and_grad(cfg, params, x, y, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    conv_bytes = 64 * cfg.conv_filters * 32 * 32 * 4
    cols_bytes = 64 * in_channels * 9 * 32 * 32 * 4
    assert peak < cols_bytes + 3 * conv_bytes + 2 * 2**20


def _shifted(x):
    """(ki, kj, the input seen by tap (ki, kj) of a same-padded 3x3 conv)."""
    h, w = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    return [(ki, kj, xp[:, :, ki : ki + h, kj : kj + w]) for ki in range(3) for kj in range(3)]


def _loop_conv(x, conv_w, conv_b):
    """A same-padded 3x3 conv written as nine shifted products."""
    conv = np.zeros((x.shape[0], conv_w.shape[0], *x.shape[2:]))
    for ki, kj, xs in _shifted(x):
        conv += np.einsum("fc,bchw->bfhw", conv_w[:, :, ki, kj], xs)
    return conv + conv_b[None, :, None, None]


def _loop_conv_grads(x, dconv):
    """`_loop_conv`'s weight and bias gradients for the output gradient dconv."""
    dw = np.zeros((dconv.shape[1], x.shape[1], 3, 3))
    for ki, kj, xs in _shifted(x):
        dw[:, :, ki, kj] = np.einsum("bfhw,bchw->fc", dconv, xs)
    return dw, dconv.sum(axis=(0, 2, 3))


def _predict_float64(cfg, params, x):
    """Eval-mode decisions in float64 with a conv written as nine shifted
    products, independent of the network module's im2col and pool."""
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    x = np.asarray(x, dtype=np.float64)
    b, _, h, w = x.shape
    conv = _loop_conv(x, p["conv_w"], p["conv_b"])
    scale = p["bn_gamma"] / np.sqrt(p["bn_running_var"] + cfg.bn_epsilon)
    bn = (conv - p["bn_running_mean"][None, :, None, None]) * scale[None, :, None, None]
    act = np.maximum(bn + p["bn_beta"][None, :, None, None], 0.0)
    pooled = act.reshape(b, act.shape[1], h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    z = np.maximum(pooled.reshape(b, -1) @ p["fc1_w"].T + p["fc1_b"], 0.0)
    z = np.maximum(z @ p["fc2_w"].T + p["fc2_b"], 0.0)
    return np.argmax(z @ p["out_w"].T + p["out_b"], axis=1)


def test_evaluate_features_decides_in_float64():
    # inputs of 1e6 plus unit noise through the centre tap of the conv: the
    # running mean removes the offset, so float32 rounding of the conv sum
    # is a few percent of the signal and flips some decisions, float64's is not
    rng = np.random.default_rng(0)
    params = init_params(TINY, rng)
    centre = params["conv_w"][:, :, 1, 1].copy()
    params["conv_w"][:] = 0.0
    params["conv_w"][:, :, 1, 1] = centre
    params["bn_running_mean"] = (centre.astype(np.float64).sum(axis=1) * 1e6).astype(np.float32)
    params["out_b"] = np.array([0.0, 0.01], dtype=np.float32)
    x = (1e6 + rng.normal(size=(400, 2, 8, 8))).astype(np.float32)
    ref = _predict_float64(TINY, params, x)
    assert 0.2 < ref.mean() < 0.8
    assert np.any(predict_proba(TINY, params, x).argmax(axis=1) != ref)  # float32 differs
    m = evaluate_features(Checkpoint(TINY, params, TrainConfig(), 0, 0.5), x, ref, ["s"] * 400)
    assert m.accuracy == 1.0


LAYER_SHAPES = dict(
    b=st.integers(1, 4), f=st.integers(1, 3), hw=st.integers(1, 4).map(lambda k: 2 * k),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=40, deadline=None)
@given(**LAYER_SHAPES, c=st.integers(1, 3))
def test_conv_and_its_gradients_match_the_loop_convolution(b, c, f, hw, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, c, hw, hw))
    conv_w, conv_b = rng.normal(size=(f, c, 3, 3)), rng.normal(size=f)
    dconv = rng.normal(size=(b, f, hw, hw))
    cols, conv = _conv(x, conv_w, conv_b)
    np.testing.assert_allclose(conv.reshape(b, f, hw, hw), _loop_conv(x, conv_w, conv_b),
                               rtol=1e-12, atol=1e-12)
    for got, want in zip(_conv_grads(dconv, cols, conv_w.shape), _loop_conv_grads(x, dconv)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(**LAYER_SHAPES, given_stats=st.booleans())
def test_bn_relu_matches_the_formula(b, f, hw, seed, given_stats):
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=rng.normal(size=(1, f, 1, 1)), size=(b, f, hw, hw))
    gamma, beta, eps = rng.normal(size=f), rng.normal(size=f), 1e-5
    if given_stats:
        stats = (rng.normal(size=f), rng.uniform(0.5, 2.0, size=f))
        mean, var = stats
    else:
        stats, mean, var = None, x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    col = (slice(None), None, None)
    xhat = (x - mean[col]) / np.sqrt(var[col] + eps)
    want = np.maximum(gamma[col] * xhat + beta[col], 0.0)
    buf = x.copy()
    relu, mu, v, inv_std = _bn_relu(buf, gamma, beta, eps, stats)
    np.testing.assert_allclose(relu, want, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(buf, xhat, rtol=1e-10, atol=1e-12)  # buf became xhat
    np.testing.assert_allclose(mu, mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(v, var, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(inv_std, 1.0 / np.sqrt(var + eps), rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(**LAYER_SHAPES)
def test_bn_backward_matches_the_per_channel_formula(b, f, hw, seed):
    """dconv = gamma * inv_std / n * (n * dy - sum(dy) - xhat * sum(dy * xhat)),
    dgamma = sum(dy * xhat), dbeta = sum(dy), one channel at a time."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, f, hw, hw))
    dy = rng.normal(size=x.shape)
    gamma, eps = rng.normal(size=f), 1e-5
    inv_std = 1.0 / np.sqrt(x.var(axis=(0, 2, 3)) + eps)
    xhat = (x - x.mean(axis=(0, 2, 3))[:, None, None]) * inv_std[:, None, None]
    n = b * hw * hw
    dconv, dgamma, dbeta = _bn_backward(dy.copy(), xhat, gamma, inv_std)
    for k in range(f):
        g, xk = dy[:, k], xhat[:, k]
        want = gamma[k] * inv_std[k] / n * (n * g - g.sum() - xk * np.sum(g * xk))
        np.testing.assert_allclose(dconv[:, k], want, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(dgamma[k], np.sum(g * xk), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dbeta[k], g.sum(), rtol=1e-12, atol=1e-12)


PREDICT_CHUNK = inspect.signature(predict_proba).parameters["chunk"].default


def test_predict_proba_memory_does_not_grow_with_windows():
    """predict_proba's traced peak, less its (N, 2) output, stays the same
    for 1x, 2x and 4x the windows: the eval forward runs chunk by chunk."""
    cfg = CnnConfig(in_channels=5)
    params = {k: v.astype(np.float64) for k, v in init_params(cfg, np.random.default_rng(2)).items()}
    x = np.random.default_rng(3).normal(size=(8 * PREDICT_CHUNK, 5, 32, 32)).astype(np.float32)
    predict_proba(cfg, params, x[:1])

    def extra_bytes(n):
        tracemalloc.start()
        try:
            probs = predict_proba(cfg, params, x[:n])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - probs.nbytes

    one, two, four = (extra_bytes(k * 2 * PREDICT_CHUNK) for k in (1, 2, 4))
    assert two <= one + 2**20
    assert four <= one + 2**20


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("in_channels", [1, 5])
def test_predict_proba_chunk_keeps_decisions(dtype, in_channels):
    cfg = CnnConfig(in_channels=in_channels)
    rng = np.random.default_rng(in_channels)
    params = {k: v.astype(dtype) for k, v in init_params(cfg, rng).items()}
    x = rng.normal(size=(300, in_channels, 32, 32)).astype(np.float32)
    ref = predict_proba(cfg, params, x, chunk=256)
    probs = predict_proba(cfg, params, x)
    assert np.array_equal(probs.argmax(axis=1), ref.argmax(axis=1))
    assert np.allclose(probs, ref, rtol=0, atol=1e-5)


_TRAIN_HASH = textwrap.dedent(
    """
    import hashlib
    import numpy as np
    from asad.network import TENSOR_ORDER, CnnConfig, TrainConfig, train_arrays
    cfg = CnnConfig()
    rng = np.random.default_rng(11)
    x = rng.normal(size=(320, 1, 32, 32)).astype(np.float32)
    y = np.arange(320) % 2
    tc = TrainConfig(max_epochs=1, seed=4)
    ckpt, _ = train_arrays(cfg, tc, x[:256], y[:256], x[256:], y[256:])
    h = hashlib.sha256()
    for name in TENSOR_ORDER:
        h.update(np.ascontiguousarray(ckpt.params[name]).tobytes())
    print(h.hexdigest())
    """
)


def test_training_hash_same_for_one_and_two_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        res = subprocess.run(
            [sys.executable, "-c", _TRAIN_HASH], env=env, capture_output=True, text=True,
            check=True, timeout=300,
        )
        digests.append(res.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


# ---------------------------------------------------------------------------
# parameter checks at the entry points, finiteness checks during training
# ---------------------------------------------------------------------------

def _nan_params(cfg, rng):
    params = init_params(cfg, rng)
    params["fc1_w"][3, 5] = np.nan
    return params


def test_nan_parameter_rejected_by_train_arrays(monkeypatch):
    from asad import network

    monkeypatch.setattr(network, "init_params", lambda cfg, rng: _nan_params(cfg, rng))
    x, y = _blob_data(TINY, 32, seed=1)
    with pytest.raises(FloatingPointError, match="fc1_w"):
        train_arrays(TINY, TrainConfig(max_epochs=1, batch_size=16), x[:16], y[:16], x[16:], y[16:])


def test_nan_parameter_rejected_by_load_checkpoint(tmp_path, rng):
    save_checkpoint(Checkpoint(TINY, init_params(TINY, rng), TrainConfig(), 0, 0.5), tmp_path / "c")
    payload = np.fromfile(tmp_path / "c.f32", dtype="<f4")
    payload[-1] = np.nan  # out_b, the last tensor
    payload.tofile(tmp_path / "c.f32")
    with pytest.raises(FloatingPointError, match="out_b"):
        load_checkpoint(tmp_path / "c")


def test_nan_parameter_rejected_by_evaluate_features(rng):
    ckpt = Checkpoint(TINY, _nan_params(TINY, rng), TrainConfig(), 0, 0.5)
    x, y = _blob_data(TINY, 8, seed=2)
    with pytest.raises(FloatingPointError, match="fc1_w"):
        evaluate_features(ckpt, x, y, ["s"] * 8)


def test_nan_gradient_during_training_diverges(monkeypatch):
    # finite parameters and logits, but the backward pass yields a NaN
    from asad import network

    real_adjoint = network._pool_adjoint

    def nan_adjoint(dpooled, relu, out=None):
        out = real_adjoint(dpooled, relu, out)
        out.flat[0] = np.nan
        return out

    monkeypatch.setattr(network, "_pool_adjoint", nan_adjoint)
    x, y = _blob_data(TINY, 32, seed=3)
    with pytest.raises(TrainingDiverged, match="gradient norm nan"):
        train_arrays(TINY, TrainConfig(max_epochs=1, batch_size=16), x[:16], y[:16], x[16:], y[16:])
