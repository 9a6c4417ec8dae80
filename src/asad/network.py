"""Compact convolutional left/right classifier, written against numpy.

Fixed architecture: same-padded 3x3 conv (stride 1) -> batch norm -> ReLU
-> 2x2/2 average pool -> dropout -> flatten -> fc -> ReLU -> dropout ->
fc -> ReLU -> linear -> softmax. Weights are stored single precision.

Arithmetic follows the dtype of the parameters it is given: training runs
in float32 (`init_params` returns float32), while `evaluate_features` and
the gradient oracles run in float64. The (B, 2) softmax and the loss are
always float64.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import stdtr

from .data import read_header, read_payload, write_container

TENSOR_ORDER = (
    "conv_w", "conv_b", "bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var",
    "fc1_w", "fc1_b", "fc2_w", "fc2_b", "out_w", "out_b",
)
TRAINED = tuple(n for n in TENSOR_ORDER if not n.startswith("bn_running"))
RMSPROP_BLOCK = 65536  # elements per pass of rmsprop_update: a block of each operand stays in L2
CONV_CHUNK_WINDOWS = 16  # float32 windows per chunk of conv patches; 8 in float64


@dataclass
class CnnConfig:
    in_channels: int = 1  # sub-window maps stacked as input channels
    conv_filters: int = 8
    in_size: int = 32
    fc_sizes: tuple[int, int] = (512, 32)
    classes: int = 2
    dropout_p: float = 0.5
    bn_momentum: float = 0.9
    bn_epsilon: float = 1e-5

    def validate(self) -> "CnnConfig":
        if self.conv_filters < 1 or self.in_channels < 1:
            raise ValueError("conv_filters and in_channels must be >= 1")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must lie in [0, 1)")
        if self.in_size < 2 or self.in_size % 2 != 0:
            raise ValueError("in_size must be even and >= 2")
        if len(self.fc_sizes) != 2 or any(s < 1 for s in self.fc_sizes):
            raise ValueError("fc_sizes must be two positive widths")
        if self.classes != 2:
            raise ValueError("binary classifier: classes must be 2")
        return self

    @property
    def pooled_size(self) -> int:
        return self.in_size // 2

    @property
    def flat_features(self) -> int:
        return self.conv_filters * self.pooled_size * self.pooled_size


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    decay: float = 1e-3
    rmsprop_rho: float = 0.9
    rmsprop_epsilon: float = 1e-8
    batch_size: int = 64
    max_epochs: int = 50
    early_stop_patience: int = 5
    seed: int = 0

    def validate(self) -> "TrainConfig":
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 < self.rmsprop_rho < 1.0):
            raise ValueError("rmsprop_rho must lie in (0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.decay < 0 or self.rmsprop_epsilon <= 0:
            raise ValueError("decay must be >= 0 and rmsprop_epsilon > 0")
        if self.max_epochs < 1 or self.early_stop_patience < 1:
            raise ValueError("max_epochs and early_stop_patience must be >= 1")
        return self


def param_shapes(cfg: CnnConfig) -> dict[str, tuple[int, ...]]:
    f, s = cfg.conv_filters, cfg.in_channels
    h1, h2 = cfg.fc_sizes
    return {
        "conv_w": (f, s, 3, 3),
        "conv_b": (f,),
        "bn_gamma": (f,),
        "bn_beta": (f,),
        "bn_running_mean": (f,),
        "bn_running_var": (f,),
        "fc1_w": (h1, cfg.flat_features),
        "fc1_b": (h1,),
        "fc2_w": (h2, h1),
        "fc2_b": (h2,),
        "out_w": (cfg.classes, h2),
        "out_b": (cfg.classes,),
    }


def init_params(cfg: CnnConfig, rng: np.random.Generator, dtype=np.float32) -> dict:
    """He-uniform weights for the ReLU stack, zero biases, unit batch-norm."""
    cfg.validate()
    shapes = param_shapes(cfg)
    params: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if name.endswith("_w"):
            fan_in = int(np.prod(shape[1:]))
            limit = math.sqrt(6.0 / fan_in)
            params[name] = rng.uniform(-limit, limit, size=shape).astype(dtype)
        elif name in ("bn_gamma", "bn_running_var"):
            params[name] = np.ones(shape, dtype=dtype)
        else:
            params[name] = np.zeros(shape, dtype=dtype)
    return params


def validate_params(cfg: CnnConfig, params: dict) -> None:
    shapes = param_shapes(cfg)
    for name, shape in shapes.items():
        if name not in params:
            raise ValueError(f"missing parameter tensor {name!r}")
        if tuple(params[name].shape) != shape:
            raise ValueError(
                f"parameter {name!r} has shape {params[name].shape}, expected {shape}"
            )
        if not np.all(np.isfinite(params[name])):
            raise FloatingPointError(f"non-finite values in parameter {name!r}")
    if np.any(params["bn_running_var"] <= 0):
        raise ValueError("bn_running_var must stay positive")


def _patches(x: np.ndarray):
    """(lo, hi, the (hi - lo, C*9, H*W) patches of windows lo:hi) of the
    1-padded (B, C, H, W) x, chunk by chunk. The chunk's pad and patch
    buffers are reused, so each patch array is overwritten by the next."""
    b, c, h, w = x.shape
    n = min(b, CONV_CHUNK_WINDOWS * 4 // x.itemsize)
    pad = np.zeros((n, c, h + 2, w + 2), x.dtype)
    cols = np.empty((n, c * 9, h * w), x.dtype)
    for lo in range(0, b, n):
        k = min(n, b - lo)
        pad[:k, :, 1:-1, 1:-1] = x[lo : lo + k]
        win = sliding_window_view(pad[:k], (3, 3), axis=(2, 3))  # (k, C, H, W, 3, 3)
        cols[:k].reshape(k, c, 3, 3, h, w)[...] = win.transpose(0, 1, 4, 5, 2, 3)
        yield lo, lo + k, cols[:k]


def _draw_masks(
    cfg: CnnConfig, batch_size: int, rng: np.random.Generator, dtype=np.float64
) -> dict:
    p = cfg.dropout_p
    hp = cfg.pooled_size
    shapes = {
        "drop_pool": (batch_size, cfg.conv_filters, hp, hp),
        "drop_fc1": (batch_size, cfg.fc_sizes[0]),
    }
    masks = {}
    for name, shape in shapes.items():
        if p == 0.0:
            masks[name] = np.ones(shape, dtype=dtype)
        else:
            keep = rng.random(shape, dtype=dtype) >= p
            # the scale rounded once to dtype: no float64 mask on the way
            masks[name] = np.multiply(keep, np.dtype(dtype).type(1 / (1 - p)), dtype=dtype)
    return masks


def _pool(a: np.ndarray) -> np.ndarray:
    """2x2/2 average pool of (B, F, H, W) as a sum of four strided views."""
    tl, tr = a[:, :, 0::2, 0::2], a[:, :, 0::2, 1::2]
    bl, br = a[:, :, 1::2, 0::2], a[:, :, 1::2, 1::2]
    pooled = (tl + tr) + (bl + br)
    pooled *= 0.25
    return pooled


def _pool_adjoint(dpooled: np.ndarray, relu: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Gradient at the pool's ReLU input: each of the four inputs of a cell
    gets a quarter of the cell's gradient where the ReLU passed it. Written
    into `out` when given, which may be `relu` itself."""
    b, f, hp, wp = dpooled.shape
    # repeated along columns, broadcast over each cell's row pair: a
    # broadcast of length 2 in the innermost axis runs about twice as slow
    quarter = np.repeat(dpooled * 0.25, 2, axis=3)[:, :, :, None, :]
    rows = (b, f, hp, 2, 2 * wp)
    passed = relu.reshape(rows) > 0
    out = np.empty_like(relu) if out is None else out
    if not out.flags.c_contiguous:
        raise ValueError("the pool adjoint's output must be C-contiguous")
    np.multiply(quarter, passed, out=out.reshape(rows))
    return out


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padded 3x3 conv of (B, C, H, W) by (F, C, 3, 3) weights: the
    (B, F, H*W) output, one chunk of `_patches` at a time. numpy multiplies
    a stack one window at a time, so the chunks give the whole batch's bits."""
    wmat = w.reshape(len(w), -1)
    conv = np.empty((len(x), len(w), x.shape[2] * x.shape[3]), np.result_type(w, x))
    for lo, hi, cols in _patches(x):
        np.matmul(wmat, cols, out=conv[lo:hi])
    conv += b[None, :, None]
    return conv


def _bn_relu(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float,
             stats: tuple[np.ndarray, np.ndarray] | None = None):
    """Batch norm and ReLU of the (B, F, H, W) conv buffer `xhat`, which
    becomes xhat in place: (relu, mean, var, inv_std). Normalizes with the
    batch statistics, or with `stats` = (mean, var) in eval mode. The
    output buffer holds the squared deviations and then gamma * xhat + beta."""
    relu = np.empty_like(xhat)
    if stats is None:
        mu = xhat.mean(axis=(0, 2, 3))
        xhat -= mu[None, :, None, None]
        var = np.square(xhat, out=relu).mean(axis=(0, 2, 3))
    else:
        mu, var = stats
        xhat -= mu[None, :, None, None]
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std[None, :, None, None]
    np.multiply(gamma[None, :, None, None], xhat, out=relu)
    relu += beta[None, :, None, None]
    np.maximum(relu, 0.0, out=relu)
    return relu, mu, var, inv_std


def _bn_backward(dbn: np.ndarray, xhat: np.ndarray, gamma: np.ndarray, inv_std: np.ndarray):
    """Train-mode batch-norm backward: (dconv, dgamma, dbeta). dbn becomes
    dxhat and then dconv in place, with `tmp` holding the elementwise products."""
    b, _, h, w = dbn.shape
    tmp = np.multiply(dbn, xhat)
    dgamma = tmp.sum(axis=(0, 2, 3))
    dbeta = dbn.sum(axis=(0, 2, 3))
    dxhat = dbn
    dxhat *= gamma[None, :, None, None]
    n = b * h * w
    sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
    sum_dxhat_xhat = np.multiply(dxhat, xhat, out=tmp).sum(axis=(0, 2, 3), keepdims=True)
    dconv = dxhat
    dconv *= n
    dconv -= sum_dxhat
    dconv -= np.multiply(xhat, sum_dxhat_xhat, out=tmp)
    dconv *= inv_std[None, :, None, None] / n
    return dconv, dgamma, dbeta


def _conv_grads(dconv: np.ndarray, x: np.ndarray, shape: tuple[int, ...]):
    """The conv's weight gradient, of the weights' `shape`, and bias gradient
    from the (B, F, H, W) or (B, F, H*W) output gradient and the conv's input
    x, whose patches are built again chunk by chunk. Each window's products
    are added in window order into a zeroed sum: the bits of one einsum over
    the batch, which adds each window's dot into its zeroed output."""
    b, f = dconv.shape[:2]
    dconv_mat = dconv.reshape(b, f, -1)
    dw = np.zeros((f, math.prod(shape[1:])), np.result_type(dconv, x))
    for lo, hi, cols in _patches(x):
        for window in np.einsum("bfn,bcn->bfc", dconv_mat[lo:hi], cols):
            dw += window
    return dw.reshape(shape), dconv_mat.sum(axis=(0, 2))


def _dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w.T + b


def _dense_grads(d: np.ndarray, x: np.ndarray, w: np.ndarray):
    """A dense layer's weight, bias and input gradients from its output gradient."""
    return d.T @ x, d.sum(axis=0), d @ w


def forward(
    cfg: CnnConfig,
    params: dict,
    batch: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    masks: dict | None = None,
):
    """Probabilities (B, 2); additionally the activation cache in train mode.

    Train mode normalizes with batch statistics and applies inverted
    dropout (masks drawn from `rng` unless supplied); eval mode uses the
    running statistics and no dropout, and is fully deterministic. Layers
    run in the parameters' dtype; the softmax runs in float64. Parameters
    are checked where they enter (`train_arrays`, `load_checkpoint`,
    `evaluate_features`), not per batch.
    """
    cfg.validate()
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    dt = np.result_type(*params.values())
    x = np.asarray(batch, dtype=dt)
    if x.ndim != 4 or x.shape[1:] != (cfg.in_channels, cfg.in_size, cfg.in_size):
        raise ValueError(
            f"batch shape {x.shape} incompatible with config "
            f"(*, {cfg.in_channels}, {cfg.in_size}, {cfg.in_size})"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite values in input batch")
    p = {k: np.asarray(v, dtype=dt) for k, v in params.items()}
    b = x.shape[0]
    f = cfg.conv_filters
    h = w = cfg.in_size
    train = mode == "train"

    conv = _conv(x, p["conv_w"], p["conv_b"])
    xhat = conv.reshape(b, f, h, w)
    stats = None if train else (p["bn_running_mean"], p["bn_running_var"])
    relu1, mu, var, inv_std = _bn_relu(xhat, p["bn_gamma"], p["bn_beta"], cfg.bn_epsilon, stats)
    pooled = _pool(relu1)

    if train:
        if masks is None:
            if rng is None:
                raise ValueError("train mode needs an rng (or explicit masks) for dropout")
            masks = _draw_masks(cfg, b, rng, dt)
        else:
            masks = {k: np.asarray(v, dtype=dt) for k, v in masks.items()}
        drop1 = pooled * masks["drop_pool"]
    else:
        drop1 = pooled

    flat = drop1.reshape(b, -1)
    fc1 = _dense(flat, p["fc1_w"], p["fc1_b"])
    relu2 = np.maximum(fc1, 0.0)
    drop2 = relu2 * masks["drop_fc1"] if train else relu2
    fc2 = _dense(drop2, p["fc2_w"], p["fc2_b"])
    relu3 = np.maximum(fc2, 0.0)
    logits = np.asarray(_dense(relu3, p["out_w"], p["out_b"]), dtype=np.float64)
    if not np.all(np.isfinite(logits)):  # finite logits give finite probabilities
        raise FloatingPointError("non-finite activation at softmax")

    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)

    if not train:
        return probs, None
    cache = {
        "x": x, "mu": mu, "var": var, "inv_std": inv_std, "xhat": xhat,
        "relu1": relu1, "pooled": pooled, "masks": masks, "flat": flat, "fc1": fc1,
        "drop2": drop2, "fc2": fc2, "relu3": relu3, "probs": probs, "params": p,
    }
    return probs, cache


def loss_and_grad(
    cfg: CnnConfig,
    params: dict,
    batch: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator | None = None,
    masks: dict | None = None,
):
    """Mean cross-entropy, its gradient w.r.t. every trainable tensor, and
    `aux`: the correct decisions and the batch mean and variance.

    Backpropagates through the batch-norm batch statistics and reuses the
    dropout masks drawn in the forward pass. The loss comes from the
    float64 softmax; the gradients are in the parameters' dtype. Each
    activation leaves the cache at its last use, the pool adjoint goes into
    the ReLU output's buffer, and the conv's patches exist one chunk at a
    time (the weight gradient builds them again from the batch), so at most
    one chunk of patches and three conv-sized buffers are alive; fc1's
    weight gradient is formed after them. Raises FloatingPointError when
    the loss or the gradient norm is not finite.
    """
    y = np.asarray(labels)
    if y.ndim != 1 or np.any((y != 0) & (y != 1)):
        raise ValueError("labels must be a vector over {0, 1}")
    probs, cache = forward(cfg, params, batch, mode="train", rng=rng, masks=masks)
    del cache["pooled"]  # the backward pass reads the dropped copy, `flat`
    b = len(y)
    p = cache["params"]
    masks = cache.pop("masks")

    eps = np.finfo(float).tiny
    loss = float(-np.mean(np.log(probs[np.arange(b), y] + eps)))
    correct = int(np.sum(probs.argmax(axis=1) == y))

    dlogits = probs.copy()
    dlogits[np.arange(b), y] -= 1.0
    dlogits /= b
    dlogits = dlogits.astype(cache["xhat"].dtype, copy=False)

    grads: dict[str, np.ndarray] = {}
    # each input gradient of a dense layer is scaled in place into the one below
    grads["out_w"], grads["out_b"], dfc2 = _dense_grads(dlogits, cache.pop("relu3"), p["out_w"])
    dfc2 *= cache.pop("fc2") > 0
    grads["fc2_w"], grads["fc2_b"], dfc1 = _dense_grads(dfc2, cache.pop("drop2"), p["fc2_w"])
    dfc1 *= masks["drop_fc1"]
    dfc1 *= cache.pop("fc1") > 0
    dflat = dfc1 @ p["fc1_w"]

    hp = cfg.pooled_size
    dpooled = dflat.reshape(b, cfg.conv_filters, hp, hp)
    dpooled *= masks.pop("drop_pool")
    relu1 = cache.pop("relu1")
    dbn = _pool_adjoint(dpooled, relu1, out=relu1)
    del dflat, dpooled, relu1
    dconv, grads["bn_gamma"], grads["bn_beta"] = _bn_backward(dbn, cache.pop("xhat"),
                                                              p["bn_gamma"], cache["inv_std"])
    del dbn
    grads["conv_w"], grads["conv_b"] = _conv_grads(dconv, cache.pop("x"), p["conv_w"].shape)
    del dconv
    # fc1's weight gradient (the products of `_dense_grads`) once the conv buffers are gone
    flat = cache.pop("flat")
    grads["fc1_w"], grads["fc1_b"] = dfc1.T @ flat, dfc1.sum(axis=0)

    # one pass per tensor: a non-finite element (or a norm past the dtype's
    # range) gives a non-finite norm
    grad_norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if not (math.isfinite(loss) and math.isfinite(grad_norm)):
        raise FloatingPointError(f"non-finite loss {loss} or gradient norm {grad_norm}")

    aux = {"correct": correct, "batch_mean": cache["mu"], "batch_var": cache["var"]}
    return loss, grads, aux


def rmsprop_update(params: dict, grads: dict, state: dict, t: int, cfg: TrainConfig) -> None:
    """In place, for each tensor of `grads`: v <- rho v + (1-rho) g^2 into
    state[name] and theta <- theta - lr_t g / (sqrt(v) + eps) into
    params[name], with lr_t = learning_rate / (1 + decay * t).
    RMSPROP_BLOCK elements at a time through two block-sized temporaries;
    elementwise, so bit for bit the whole-array formula. params[name] and
    state[name] must be C-contiguous arrays of the gradient's dtype and shape."""
    cfg.validate()
    lr_t = cfg.learning_rate / (1.0 + cfg.decay * t)
    rho = cfg.rmsprop_rho
    for name, g in grads.items():
        g, v, theta = np.asarray(g), state[name], params[name]
        if not all(a.shape == g.shape and a.dtype == g.dtype and a.flags.c_contiguous
                   for a in (v, theta)):
            raise ValueError(f"optimizer state or parameter of {name!r} is not a "
                             f"C-contiguous {g.dtype} array of shape {g.shape}")
        tmp = np.empty(min(g.size, RMSPROP_BLOCK), g.dtype)
        step = np.empty_like(tmp)
        flat_g, flat_v, flat_theta = (a.reshape(-1) for a in (g, v, theta))
        for lo in range(0, g.size, RMSPROP_BLOCK):
            hi = lo + RMSPROP_BLOCK
            gb, vb, pb = flat_g[lo:hi], flat_v[lo:hi], flat_theta[lo:hi]
            tb, sb = tmp[: len(gb)], step[: len(gb)]
            np.multiply(rho, vb, out=vb)
            np.multiply(1.0 - rho, gb, out=tb)
            tb *= gb
            vb += tb
            denom = np.sqrt(vb, out=tb)
            denom += cfg.rmsprop_epsilon
            np.multiply(lr_t, gb, out=sb)
            sb /= denom
            np.subtract(pb, sb, out=pb)


def rmsprop_step(
    params: dict, grads: dict, state: dict | None, t: int, cfg: TrainConfig
) -> tuple[dict, dict]:
    """`rmsprop_update` on copies in each gradient's dtype (zeros for a None
    state): new dicts, each parameter cast back to its input's dtype, and
    the inputs left as they were."""
    new_state, theta = {}, {}
    for name, g in grads.items():
        g = np.asarray(g)
        new_state[name] = (np.zeros_like(g) if state is None
                           else np.array(state[name], dtype=g.dtype, order="C"))
        theta[name] = np.array(params[name], dtype=g.dtype, order="C")
    rmsprop_update(theta, grads, new_state, t, cfg)
    new_params = dict(params)
    new_params.update({k: v.astype(params[k].dtype, copy=False) for k, v in theta.items()})
    return new_params, new_state


# ---------------------------------------------------------------------------
# Training and evaluation
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    config: CnnConfig
    params: dict
    train_config: TrainConfig
    epoch: int
    validation_accuracy: float


@dataclass
class Metrics:
    accuracy: float
    per_subject: dict[str, float]
    subject_mean: float
    subject_sd: float
    n_windows: int


class TrainingDiverged(RuntimeError):
    pass


def predict_proba(cfg: CnnConfig, params: dict, x: np.ndarray, chunk: int = 64) -> np.ndarray:
    """Eval-mode probabilities, `chunk` windows per forward pass, so memory
    does not grow with len(x): a pass holds its conv output and ReLU buffer,
    and `_conv` builds the patches a few windows at a time."""
    outs = [forward(cfg, params, x[i : i + chunk], mode="eval")[0] for i in range(0, len(x), chunk)]
    return np.concatenate(outs, axis=0)


def train_arrays(
    cnn_cfg: CnnConfig,
    train_cfg: TrainConfig,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
) -> tuple[Checkpoint, list[dict]]:
    """Train with seeded shuffling and keep the best-validation weights.

    Stops at max_epochs or once validation accuracy has not improved for
    early_stop_patience consecutive epochs. Deterministic given the seed.
    """
    cnn_cfg.validate()
    train_cfg.validate()
    if len(x_train) == 0 or len(x_val) == 0:
        raise ValueError("train and validation sets must be non-empty")

    rng = np.random.default_rng(train_cfg.seed)
    params = init_params(cnn_cfg, rng)
    validate_params(cnn_cfg, params)
    state = {k: np.zeros_like(params[k]) for k in TRAINED}
    mom = cnn_cfg.bn_momentum
    n = len(x_train)
    history: list[dict] = []
    best_acc, best_epoch, best_params, stale = -1.0, -1, None, 0

    for epoch in range(train_cfg.max_epochs):
        order = rng.permutation(n)
        total_loss, correct = 0.0, 0
        for lo in range(0, n, train_cfg.batch_size):
            idx = order[lo : lo + train_cfg.batch_size]
            try:
                loss, grads, aux = loss_and_grad(
                    cnn_cfg, params, x_train[idx], y_train[idx], rng=rng
                )
            except FloatingPointError as exc:
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}, batch {lo // train_cfg.batch_size}: {exc}"
                ) from exc
            rmsprop_update(params, grads, state, epoch, train_cfg)
            del grads  # freed before the next step's are built
            run_mean, run_var = params["bn_running_mean"], params["bn_running_var"]
            params["bn_running_mean"] = mom * run_mean + (1.0 - mom) * aux["batch_mean"]
            params["bn_running_var"] = np.maximum(
                mom * run_var + (1.0 - mom) * aux["batch_var"], 1e-12
            )
            total_loss += loss * len(idx)
            correct += aux["correct"]
        val_probs = predict_proba(cnn_cfg, params, x_val)
        val_acc = float(np.mean(val_probs.argmax(axis=1) == y_val))
        history.append(
            {
                "epoch": epoch,
                "train_loss": total_loss / n,
                "train_acc": correct / n,
                "val_acc": val_acc,
            }
        )
        if val_acc > best_acc:
            best_acc, best_epoch, stale = val_acc, epoch, 0
            best_params = {k: v.copy() for k, v in params.items()}
        else:
            stale += 1
            if stale >= train_cfg.early_stop_patience:
                break

    checkpoint = Checkpoint(
        config=cnn_cfg,
        params=best_params,
        train_config=train_cfg,
        epoch=best_epoch,
        validation_accuracy=best_acc,
    )
    return checkpoint, history


def evaluate_features(
    checkpoint: Checkpoint, x: np.ndarray, y: np.ndarray, subjects: list[str]
) -> Metrics:
    """Eval-mode accuracy overall and per subject (argmax decision), in
    float64 whatever the checkpoint's dtype."""
    if len(x) == 0:
        raise ValueError("empty window set")
    validate_params(checkpoint.config, checkpoint.params)
    params = {k: np.asarray(v, dtype=np.float64) for k, v in checkpoint.params.items()}
    # half of predict_proba's 64 windows per pass: the float64 conv output and
    # ReLU buffer of a pass are then no larger than a float32 training batch's
    # (`_conv` builds its patches in chunks of its own, half as many windows in float64)
    probs = predict_proba(checkpoint.config, params, x, chunk=32)
    hits = probs.argmax(axis=1) == np.asarray(y)
    per_subject: dict[str, list[bool]] = {}
    for subj, hit in zip(subjects, hits):
        per_subject.setdefault(subj, []).append(bool(hit))
    subj_acc = {s: float(np.mean(v)) for s, v in sorted(per_subject.items())}
    accs = np.array(list(subj_acc.values()))
    return Metrics(
        accuracy=float(np.mean(hits)),
        per_subject=subj_acc,
        subject_mean=float(accs.mean()),
        subject_sd=float(accs.std()),
        n_windows=len(x),
    )


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------

def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> Path:
    validate_params(ckpt.config, ckpt.params)
    header = {
        "config": asdict(ckpt.config),
        "train_config": asdict(ckpt.train_config),
        "epoch": ckpt.epoch,
        "validation_accuracy": ckpt.validation_accuracy,
        "tensors": [
            {"name": n, "shape": list(ckpt.params[n].shape)} for n in TENSOR_ORDER
        ],
    }
    blob = np.concatenate([np.ravel(ckpt.params[n]) for n in TENSOR_ORDER])
    return write_container(path, "cnn_checkpoint", header, blob)


def load_checkpoint(path: str | Path) -> Checkpoint:
    keys = ("config", "train_config", "epoch", "validation_accuracy", "tensors")
    header = read_header(path, "cnn_checkpoint", keys)
    cfgd = dict(header["config"])
    cfgd["fc_sizes"] = tuple(cfgd["fc_sizes"])
    cfg = CnnConfig(**cfgd).validate()
    tc = TrainConfig(**header["train_config"]).validate()
    shapes = [tuple(entry["shape"]) for entry in header["tensors"]]
    sizes = [math.prod(shape) for shape in shapes]
    blob = read_payload(path, (sum(sizes),))
    chunks = np.split(blob, np.cumsum(sizes)[:-1])
    params = {
        entry["name"]: chunk.reshape(shape)
        for entry, chunk, shape in zip(header["tensors"], chunks, shapes)
    }
    validate_params(cfg, params)
    return Checkpoint(
        config=cfg,
        params=params,
        train_config=tc,
        epoch=int(header["epoch"]),
        validation_accuracy=float(header["validation_accuracy"]),
    )


# ---------------------------------------------------------------------------
# Paired comparison
# ---------------------------------------------------------------------------

@dataclass
class TTestResult:
    t: float
    p: float
    df: int
    degenerate: bool = False


def paired_t_test(accuracies_a, accuracies_b) -> TTestResult:
    """Two-tailed paired t-test on per-subject accuracy differences.

    Zero-variance differences give the defined degenerate result: p = 1
    when the mean difference is 0, else p = 0.
    """
    a = np.asarray(accuracies_a, dtype=float)
    b = np.asarray(accuracies_b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or len(a) < 2:
        raise ValueError("need two equal-length vectors of length >= 2")
    d = a - b
    n = len(d)
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, p=1.0, df=df, degenerate=True)
        return TTestResult(t=math.copysign(math.inf, mean), p=0.0, df=df, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * float(stdtr(df, -abs(t)))
    return TTestResult(t=t, p=p, df=df, degenerate=False)
