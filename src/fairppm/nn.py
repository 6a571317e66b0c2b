"""Recurrent outcome classifier: embeddings, (bi)LSTM, losses, optimizer.

The model embeds each categorical attribute separately, concatenates the
embeddings with the numeric channels per timestep, runs one or two
(optionally bidirectional) LSTM layers, reads the hidden state at the last
real (unmasked) event, and maps it through a dense layer + sigmoid to a
propensity in (0,1). Everything runs on the autodiff tape from
``fairppm.autodiff``; one call builds one graph, with one fused node per
LSTM layer and direction (the backward one reverses each row's span inside
its node). Only a training forward records a backward (the nodes' VJPs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .encoding import EncoderSpec, PackedDataset
from .records import float_array
from .transport import SinkhornConfig, SinkhornResult, sinkhorn_distance

__all__ = [
    "Hyper",
    "ModelParams",
    "CompositeLossConfig",
    "CompositeLossResult",
    "ForwardResult",
    "AdamWState",
    "PlateauScheduler",
    "EarlyStopper",
    "init_params",
    "forward",
    "predict",
    "bce_loss",
    "composite_loss",
    "backward",
    "adamw_step",
]

GATES = ("i", "f", "g", "o")
BCE_CLAMP = 1e-7


@dataclass(frozen=True)
class Hyper:
    """One architecture/training cell."""

    layers: int = 1
    hidden: int = 16
    bidirectional: bool = False
    batch: int = 512
    lr: float = 1e-3
    dropout: float = 0.2

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0,1)")


@dataclass
class ModelParams:
    """Named weight arrays plus the hyper cell they were shaped by."""

    hyper: Hyper
    arrays: dict

    def __post_init__(self):
        # arrays read from JSON arrive as nested lists, which must hold only numbers
        self.arrays = {
            k: np.asarray(v, dtype=np.float64) if isinstance(v, np.ndarray) else float_array(k, v)
            for k, v in self.arrays.items()
        }

    def copy(self) -> "ModelParams":
        return ModelParams(self.hyper, {k: v.copy() for k, v in self.arrays.items()})


@dataclass(frozen=True)
class CompositeLossConfig:
    """Accuracy/fairness mixing weight and the Sinkhorn settings behind it."""

    lam: float = 0.0
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be in [0,1]")


def _directions(hyper: Hyper):
    return ("f", "b") if hyper.bidirectional else ("f",)


def init_params(hyper: Hyper, encoder: EncoderSpec, seed: int) -> ModelParams:
    """Seeded init: uniform +-1/sqrt(fan_in) weights, zero biases except the
    forget gate at 1.0. Embedding fan_in counts the one-hot width. The LSTM
    W (F, 4H), U (H, 4H) and b (4H) stack the gate blocks in ``GATES`` order."""
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    arrays = {}
    input_size = 0
    for attr in encoder.categorical_attrs:
        vocab = len(encoder.labels[attr])
        dim = encoder.embedding_dims[attr]
        arrays[f"emb:{attr}"] = uniform((vocab + 1, dim), vocab + 1)
        input_size += dim
    input_size += len(encoder.numeric_attrs)

    h = hyper.hidden
    feat = input_size
    for layer in range(hyper.layers):
        for direction in _directions(hyper):
            draws = [(uniform((feat, h), feat), uniform((h, h), h)) for _ in GATES]
            key = f"lstm{layer}:{direction}"
            arrays[f"{key}:W"] = np.concatenate([w for w, _ in draws], axis=1)
            arrays[f"{key}:U"] = np.concatenate([u for _, u in draws], axis=1)
            arrays[f"{key}:b"] = np.concatenate([np.full(h, float(g == "f")) for g in GATES])
        feat = h * len(_directions(hyper))

    out_size = h * len(_directions(hyper))
    arrays["dense:w"] = uniform((out_size,), out_size)
    arrays["dense:b"] = np.zeros(1)
    return ModelParams(hyper, arrays)


@dataclass
class ForwardResult:
    propensities: Var  # (B,) in (0,1)
    leaves: dict  # param name -> leaf Var, for gradient extraction


def _lstm_layer(x: Var, w: Var, u: Var, b: Var, order=np.s_[:]) -> Var:
    """One LSTM direction over ``x[order]`` (B, T, F) as one tape node: the
    hidden states (B, T, H) as ``states[order]``, where ``order`` is its own
    inverse (a per-row reversal). The forward keeps each step's gate
    activations and cell state; the VJP is backprop through time over them."""
    xs, wv, uv = x.value[order], w.value, u.value
    n, steps, feat = xs.shape
    hidden = uv.shape[0]
    x_tm = np.ascontiguousarray(xs.transpose(1, 0, 2)).reshape(steps * n, feat)
    # gate-major (T, 4, B, H) and (4, H, H), so each gate's block is contiguous
    pre = (x_tm @ wv + b.value).reshape(steps, n, 4, hidden)
    pre = np.ascontiguousarray(pre.transpose(0, 2, 1, 3))
    u_gates = np.ascontiguousarray(uv.reshape(hidden, 4, hidden).transpose(1, 0, 2))
    h = c = np.zeros((n, hidden))
    gates, cells, tanh_c, hs = [], [c], [], [h]
    for t in range(steps):
        z = pre[t] + h @ u_gates
        i, f = ad.logistic(z[:2])
        g = np.tanh(z[2])
        o = ad.logistic(z[3])
        c = f * c + i * g
        tanh_c.append(np.tanh(c))
        h = o * tanh_c[t]
        gates.append((i, f, g, o))
        cells.append(c)
        hs.append(h)

    def vjp(g_out):
        g_out = g_out[order]
        d_pre = np.empty((steps, n, 4, hidden))  # rows (t, b), columns as in W
        dh = dc = np.zeros((n, hidden))
        for t in range(steps - 1, -1, -1):
            i, f, g, o = gates[t]
            dh = dh + g_out[:, t]
            dc = dc + dh * o * (1.0 - tanh_c[t] ** 2)
            d = d_pre[t]
            d[:, 0] = dc * g * i * (1.0 - i)
            d[:, 1] = dc * cells[t] * f * (1.0 - f)
            d[:, 2] = dc * i * (1.0 - g * g)
            d[:, 3] = dh * tanh_c[t] * o * (1.0 - o)
            dc = dc * f
            dh = d.reshape(n, 4 * hidden) @ uv.T
        flat = d_pre.reshape(steps * n, 4 * hidden)
        dx = (flat @ wv.T).reshape(steps, n, feat).transpose(1, 0, 2)
        du = np.concatenate(hs[:-1]).T @ flat
        return dx[order], x_tm.T @ flat, du, flat.sum(axis=0)

    return ad.custom_op((x, w, u, b), np.stack(hs[1:], axis=1)[order], vjp)


def _dropout(var, rate, rng):
    return var * ((rng.random(var.shape) >= rate) / (1.0 - rate))


def forward(
    params: ModelParams,
    batch: PackedDataset,
    training: bool,
    rng: np.random.Generator | None = None,
) -> ForwardResult:
    """Propensities for a packed batch on a fresh tape.

    Only a training forward records a backward: an eval forward's leaves
    need no gradients, so none of its nodes keeps a VJP. Padded positions
    are computed but never selected: the forward direction reads the state
    at the last unmasked step, the backward direction (run over each row's
    unmasked span reversed) the state at position 0. ``rng`` is required in
    training mode when dropout is active.
    """
    hyper = params.hyper
    if training and hyper.dropout > 0 and rng is None:
        raise ValueError("training-mode forward with dropout needs an rng")
    tape = Tape()
    leaves = {name: tape.leaf(arr, needs_grad=training) for name, arr in params.arrays.items()}

    lengths = batch.mask.sum(axis=1).astype(np.int64)
    if (lengths < 1).any():
        raise ValueError("every sample must have at least one unmasked event")
    n, steps = batch.mask.shape

    # columns in cat_order, then num_order: the order of layer 0's W rows
    channels = [ad.take(leaves[f"emb:{attr}"], batch.cat[attr]) for attr in batch.cat_order]
    if batch.num_order:
        channels.append(tape.constant(np.stack([batch.num[a] for a in batch.num_order], -1)))
    x = ad.concat(channels, axis=-1) if len(channels) > 1 else channels[0]

    # per-row reversal of the unmasked span; padding maps to itself
    pos, span = np.arange(steps), lengths[:, None]
    reverse = (np.arange(n)[:, None], np.where(pos < span, span - 1 - pos, pos))

    def lstm(inp, layer, direction, order=np.s_[:]):
        return _lstm_layer(inp, *(leaves[f"lstm{layer}:{direction}:{p}"] for p in "WUb"), order)

    for layer in range(hyper.layers):
        seq_f = lstm(x, layer, "f")
        if hyper.bidirectional:
            seq_b = lstm(x, layer, "b", reverse)
        if layer < hyper.layers - 1:
            x = ad.concat([seq_f, seq_b], axis=-1) if hyper.bidirectional else seq_f
            if training and hyper.dropout > 0:
                x = _dropout(x, hyper.dropout, rng)

    last = ad.gather_steps(seq_f, lengths - 1)
    if hyper.bidirectional:
        # the backward direction has consumed the whole span at position 0
        last = ad.concat([last, ad.gather_steps(seq_b, np.zeros(n, np.int64))], axis=-1)
    if training and hyper.dropout > 0:
        last = _dropout(last, hyper.dropout, rng)

    logits = ad.matmul(last, leaves["dense:w"]) + leaves["dense:b"]
    return ForwardResult(propensities=ad.sigmoid(logits), leaves=leaves)


def predict(params: ModelParams, data: PackedDataset, chunk: int = 2048) -> np.ndarray:
    """Eval-mode propensities for a whole dataset, batched for memory."""
    pieces = []
    for start in range(0, len(data), chunk):
        part = data.subset(np.arange(start, min(start + chunk, len(data))))
        pieces.append(forward(params, part, training=False).propensities.value)
    return np.concatenate(pieces)


def bce_loss(propensities: Var, labels) -> Var:
    """Mean binary cross-entropy against 0/1 labels, as one tape node; an
    entry outside [1e-7, 1-1e-7] is clamped to it and gets zero gradient."""
    p = propensities.value
    positive = np.asarray(labels) == 1
    q = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    inside = (p >= BCE_CLAMP) & (p <= 1.0 - BCE_CLAMP)

    def vjp(g):
        s = -g / p.size
        return (np.where(positive, s / q, -(s / (1.0 - q))) * inside,)

    value = -np.where(positive, np.log(q), np.log(1.0 - q)).mean()
    return ad.custom_op((propensities,), value, vjp)


@dataclass
class CompositeLossResult:
    loss: Var
    bce: float
    ipm: float | None
    group_empty: bool
    sinkhorn: SinkhornResult | None


def composite_loss(
    propensities: Var, labels, sensitive, cfg: CompositeLossConfig
) -> CompositeLossResult:
    """(1-lambda)*BCE + lambda*Sinkhorn between the batch's group scores.

    With a single-group batch the transport term is 0 (flagged via
    ``group_empty``). At lambda = 0 the loss is the BCE node itself and no
    Sinkhorn runs; every lambda > 0 takes the one mixed path.
    """
    sensitive = np.asarray(sensitive)
    bce = bce_loss(propensities, labels)
    lam = cfg.lam
    if lam == 0.0:
        return CompositeLossResult(bce, float(bce.value), None, False, None)

    idx0 = np.flatnonzero(sensitive == 0)
    idx1 = np.flatnonzero(sensitive == 1)
    if idx0.size == 0 or idx1.size == 0:
        return CompositeLossResult(bce * (1.0 - lam), float(bce.value), None, True, None)

    result = sinkhorn_distance(
        ad.take(propensities, idx0), ad.take(propensities, idx1), cfg.sinkhorn
    )
    loss = bce * (1.0 - lam) + result.var * lam
    return CompositeLossResult(loss, float(bce.value), result.value, False, result)


def backward(tape: Tape, loss: Var, leaves: dict) -> dict:
    """Gradients of ``loss`` for every named parameter leaf (zeros if the
    parameter never reached the loss)."""
    tape.backward(loss)
    return {name: tape.grad(var) for name, var in leaves.items()}


@dataclass
class AdamWState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(
    params: ModelParams,
    grads: dict,
    state: AdamWState,
    lr: float,
    betas: tuple = (0.9, 0.999),
    eps: float = 1e-8,
    weight_decay: float = 0.01,
) -> None:
    """One AdamW update in place: decoupled decay, bias-corrected moments."""
    state.step += 1
    b1, b2 = betas
    corr1 = 1.0 - b1**state.step
    corr2 = 1.0 - b2**state.step
    for name, w in params.arrays.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(w))
        v = state.v.setdefault(name, np.zeros_like(w))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        w -= lr * weight_decay * w
        w -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)


class PlateauScheduler:
    """Cut the learning rate by ``factor`` after ``patience`` consecutive
    epochs whose validation loss fails to beat the best by more than
    ``margin``; the stall counter resets on improvement and on reduction."""

    def __init__(self, lr: float, factor: float = 0.75, patience: int = 10, margin: float = 1e-3):
        self.lr = lr
        self.factor = factor
        self.patience = patience
        self.margin = margin
        self.best = np.inf
        self.stall = 0

    def step(self, validation_loss: float) -> float:
        if validation_loss < self.best - self.margin:
            self.best = validation_loss
            self.stall = 0
        else:
            self.stall += 1
            if self.stall >= self.patience:
                self.lr *= self.factor
                self.stall = 0
        return self.lr


class EarlyStopper:
    """Stop after ``patience`` epochs without strict best-loss improvement,
    or at the epoch cap; keeps a snapshot of the best parameters."""

    def __init__(self, patience: int, max_epochs: int = 300):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.max_epochs = max_epochs
        self.best = np.inf
        self.best_epoch = 0
        self.best_params: ModelParams | None = None
        self.stall = 0
        self.epoch = 0

    def update(self, validation_loss: float, params: ModelParams) -> bool:
        self.epoch += 1
        if validation_loss < self.best:
            self.best = validation_loss
            self.best_epoch = self.epoch
            self.best_params = params.copy()
            self.stall = 0
        else:
            self.stall += 1
        return self.stall >= self.patience or self.epoch >= self.max_epochs
