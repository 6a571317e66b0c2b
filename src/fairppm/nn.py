"""Recurrent outcome classifier: embeddings, (bi)LSTM, losses, optimizer.

The model reads each sample's events as ``PackedDataset`` holds them, row
by row in one (E, ·) array. It embeds each categorical attribute
separately, concatenates the embeddings with the numeric channels per
event, runs one or two (optionally bidirectional) LSTM layers, reads the
hidden state at each row's last event (the backward direction's at its
first), and maps it through a dense layer + sigmoid to a propensity in
(0,1). Everything runs on the autodiff tape from
``fairppm.autodiff``; one call builds one graph, with one fused node per
LSTM layer and direction. The nodes share one event plan per forward: one
longest-first sort of the rows, so each LSTM step updates only the rows
still live. Only a training forward records a backward (the nodes' VJPs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .encoding import EncoderSpec, PackedDataset
from .records import float_array
from .transport import w1_distance

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
# the fixed optimizer (AdamW) and learning-rate schedule (cuts on plateaus)
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01
LR_FACTOR = 0.75
LR_PATIENCE = 10
LR_MARGIN = 1e-3


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
    """The accuracy/fairness mixing weight lambda."""

    lam: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda {self.lam} is outside [0,1]")


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


class _EventPlan:
    """A batch's real events, packed row by row into (E, ·), E = Σ lengths:
    each row's ``first`` and ``last`` position, and the step-major order an
    LSTM direction reads them in. Rows run longest first, so the rows live
    at step k are a prefix: step k reads ``spans[k]`` (start, count) of
    ``forward``, their k-th events, or of ``reverse``, k-th from the end."""

    def __init__(self, lengths: np.ndarray):
        order = np.argsort(-lengths, kind="stable")
        k, r = np.nonzero(lengths[order] > np.arange(lengths.max())[:, None])
        rows = order[r]
        live = np.bincount(k).tolist()
        self.spans = list(zip(accumulate([0] + live[:-1]), live))
        self.last = np.cumsum(lengths) - 1
        self.first = self.last - lengths + 1
        self.forward = self.first[rows] + k
        self.reverse = self.last[rows] - k


def _lstm_layer(x: Var, w: Var, u: Var, b: Var, plan: _EventPlan, reverse: bool) -> Var:
    """One LSTM direction over packed events ``x`` (E, F), as one tape node:
    the hidden state after each event (E, H). With ``reverse`` each row's
    events are read backwards, so a state has consumed its row's suffix.

    Each step updates only the rows still live. When an input needs
    gradients, the forward keeps each step's gate activations and cell
    state for the VJP, backprop through time over the same live prefixes;
    an eval forward keeps none of them."""
    xv, wv, uv = x.value, w.value, u.value
    feat, hidden = wv.shape[0], uv.shape[0]
    src = plan.reverse if reverse else plan.forward
    live0 = plan.spans[0][1]
    x_p = xv[src]
    # gate-major (4, F, H), (4, 1, H) and (4, H, H), so each step's gate
    # pre-activations come out as contiguous (m, H) blocks
    w_gates = np.ascontiguousarray(wv.reshape(feat, 4, hidden).transpose(1, 0, 2))
    b_gates = b.value.reshape(4, 1, hidden)
    u_gates = np.ascontiguousarray(uv.reshape(hidden, 4, hidden).transpose(1, 0, 2))
    states = np.empty((src.size, hidden))
    h = c = np.zeros((live0, hidden))
    record = any(v.tape.nodes[v.idx].needs_grad for v in (x, w, u, b))
    gates, cells, tanh_c = [], [], []
    for s, m in plan.spans:
        z = x_p[s : s + m] @ w_gates
        z += b_gates
        z += h[:m] @ u_gates
        i, f = ad.logistic(z[:2])
        g = np.tanh(z[2])
        o = ad.logistic(z[3])
        c_prev = c[:m]
        c = f * c_prev + i * g
        t = np.tanh(c)
        h = o * t
        states[src[s : s + m]] = h
        if record:
            gates.append((i, f, g, o))
            cells.append(c_prev)
            tanh_c.append(t)

    def vjp(g_out):
        g_p = g_out[src]
        d_pre = np.empty((src.size, 4, hidden))  # rows as x_p, columns as in W
        dh_next = np.zeros((live0, hidden))  # carried in from step k+1
        dc_next = np.zeros((live0, hidden))
        for step in reversed(range(len(plan.spans))):
            s, m = plan.spans[step]
            i, f, g, o = gates[step]
            dh = dh_next[:m] + g_p[s : s + m]
            dc = dc_next[:m] + dh * o * (1.0 - tanh_c[step] ** 2)
            d = d_pre[s : s + m]
            d[:, 0] = dc * g * i * (1.0 - i)
            d[:, 1] = dc * cells[step] * f * (1.0 - f)
            d[:, 2] = dc * i * (1.0 - g * g)
            d[:, 3] = dh * tanh_c[step] * o * (1.0 - o)
            np.multiply(dc, f, out=dc_next[:m])
            np.matmul(d.reshape(m, 4 * hidden), uv.T, out=dh_next[:m])
        flat = d_pre.reshape(-1, 4 * hidden)
        dx = np.empty((src.size, feat))
        dx[src] = flat @ wv.T
        # a row's events stay together, so an event after its row's first
        # follows the state next to it; first events (state 0) add nothing to dU
        h_prev = states[src[live0:] + (1 if reverse else -1)]
        du = h_prev.T @ flat[live0:]
        return dx, x_p.T @ flat, du, flat.sum(axis=0)

    return ad.custom_op((x, w, u, b), states, vjp)


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
    need no gradients, so none of its nodes keeps a VJP. The model reads
    the batch's events as packed, row by row: the forward direction's state
    is read at each row's last event, the backward direction's (run over
    each row's events reversed) at its first. ``rng`` is required in
    training mode when dropout is active.
    """
    hyper = params.hyper
    if training and hyper.dropout > 0 and rng is None:
        raise ValueError("training-mode forward with dropout needs an rng")
    tape = Tape()
    leaves = {name: tape.leaf(arr, needs_grad=training) for name, arr in params.arrays.items()}

    if (batch.lengths < 1).any():
        raise ValueError("every sample must have at least one event")
    plan = _EventPlan(batch.lengths)

    # categorical columns by sorted name, then numeric ones: the order of layer 0's W rows
    channels = [ad.take(leaves[f"emb:{a}"], batch.cat[a]) for a in sorted(batch.cat)]
    if batch.num:
        numeric = [batch.num[a] for a in sorted(batch.num)]
        channels.append(tape.constant(np.stack(numeric, axis=-1)))
    x = ad.concat(channels, axis=-1) if len(channels) > 1 else channels[0]

    def lstm(inp, layer, direction):
        weights = (leaves[f"lstm{layer}:{direction}:{p}"] for p in "WUb")
        return _lstm_layer(inp, *weights, plan, direction == "b")

    for layer in range(hyper.layers):
        seq_f = lstm(x, layer, "f")
        if hyper.bidirectional:
            seq_b = lstm(x, layer, "b")
        if layer < hyper.layers - 1:
            x = ad.concat([seq_f, seq_b], axis=-1) if hyper.bidirectional else seq_f
            if training and hyper.dropout > 0:
                x = _dropout(x, hyper.dropout, rng)

    last = ad.take(seq_f, plan.last)
    if hyper.bidirectional:
        last = ad.concat([last, ad.take(seq_b, plan.first)], axis=-1)
    if training and hyper.dropout > 0:
        last = _dropout(last, hyper.dropout, rng)

    logits = ad.matmul(last, leaves["dense:w"]) + leaves["dense:b"]
    return ForwardResult(propensities=ad.sigmoid(logits), leaves=leaves)


def predict(params: ModelParams, data: PackedDataset, chunk: int = 512) -> np.ndarray:
    """Eval-mode propensities for a whole dataset, ``chunk`` rows at a time.
    The default keeps each LSTM step's (rows, H) arrays small enough for the
    allocator to reuse heap memory rather than map and unmap pages per step."""
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
    group_empty: bool


def composite_loss(
    propensities: Var, labels, sensitive, cfg: CompositeLossConfig
) -> CompositeLossResult:
    """(1-lambda)*BCE + lambda*W1 between the batch's group scores, W1 the
    exact 1-D distance (``transport.w1_distance``) that ``metrics.abcc``
    reports.

    With a single-group batch the transport term is 0 (flagged via
    ``group_empty``). At lambda = 0 the loss is the BCE node itself and no
    transport term is computed; every lambda > 0 takes the one mixed path.
    """
    sensitive = np.asarray(sensitive)
    bce = bce_loss(propensities, labels)
    lam = cfg.lam
    if lam == 0.0:
        return CompositeLossResult(bce, float(bce.value), False)

    idx0 = np.flatnonzero(sensitive == 0)
    idx1 = np.flatnonzero(sensitive == 1)
    if idx0.size == 0 or idx1.size == 0:
        return CompositeLossResult(bce * (1.0 - lam), float(bce.value), True)

    w1 = w1_distance(ad.take(propensities, idx0), ad.take(propensities, idx1))
    loss = bce * (1.0 - lam) + w1 * lam
    return CompositeLossResult(loss, float(bce.value), False)


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


def adamw_step(params: ModelParams, grads: dict, state: AdamWState, lr: float) -> None:
    """One AdamW update in place: decoupled decay, bias-corrected moments."""
    state.step += 1
    b1, b2 = ADAM_BETAS
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
        w -= lr * WEIGHT_DECAY * w
        w -= lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)


class PlateauScheduler:
    """Cut the learning rate by LR_FACTOR after LR_PATIENCE consecutive epochs
    whose validation loss fails to beat the best by more than LR_MARGIN; the
    stall counter resets on improvement and on reduction."""

    def __init__(self, lr: float):
        self.lr = lr
        self.best = np.inf
        self.stall = 0

    def step(self, validation_loss: float) -> float:
        if validation_loss < self.best - LR_MARGIN:
            self.best = validation_loss
            self.stall = 0
        else:
            self.stall += 1
            if self.stall >= LR_PATIENCE:
                self.lr *= LR_FACTOR
                self.stall = 0
        return self.lr


class EarlyStopper:
    """Stop after ``patience`` epochs without strict best-loss improvement
    (the caller's loop caps the epochs); keeps the best parameters."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
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
        return self.stall >= self.patience
