"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` is a Wengert list: every primitive operation appends one node in
execution order. Operands must exist before they are used, so insertion
order is already a topological order and the backward sweep is a single
reverse pass over the node list, visiting each node exactly once.

Values are numpy arrays (scalars are 0-d arrays). Ops follow numpy
broadcasting; adjoints are summed back over broadcast axes. A fused op that
is computed off the tape enters it as one ``custom_op`` node carrying its
own vector-Jacobian product: the Sinkhorn loop and each LSTM direction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tape",
    "Var",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "sigmoid",
    "tanh",
    "log",
    "exp",
    "maximum",
    "absolute",
    "clip",
    "reduce_sum",
    "reduce_mean",
    "reshape",
    "concat",
    "take",
    "gather_steps",
    "custom_op",
    "logistic",
]


class Node:
    """One recorded primitive: its op name, parent slots and saved context."""

    __slots__ = ("op", "parents", "value", "ctx", "needs_grad")

    def __init__(self, op, parents, value, ctx, needs_grad):
        self.op = op
        self.parents = parents
        self.value = value
        self.ctx = ctx
        self.needs_grad = needs_grad


class Var:
    """Handle to a node on a tape. Cheap to copy; owns no data."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape, idx):
        self.tape = tape
        self.idx = idx

    @property
    def value(self):
        return self.tape.nodes[self.idx].value

    @property
    def shape(self):
        return self.tape.nodes[self.idx].value.shape

    def __add__(self, other):
        return add(self, self._lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, self._lift(other))

    def __rsub__(self, other):
        return sub(self._lift(other), self)

    def __mul__(self, other):
        return mul(self, self._lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, self._lift(other))

    def __rtruediv__(self, other):
        return div(self._lift(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def _lift(self, other):
        if isinstance(other, Var):
            return other
        return self.tape.constant(other)


class Tape:
    """Append-only record of primitive ops, with a single backward sweep."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._adjoints: list = []

    def leaf(self, value, needs_grad=True) -> Var:
        value = np.asarray(value, dtype=np.float64)
        return self._push("leaf", (), value, None, needs_grad)

    def constant(self, value) -> Var:
        return self.leaf(value, needs_grad=False)

    def _push(self, op, parents, value, ctx, needs_grad) -> Var:
        self.nodes.append(Node(op, parents, value, ctx, needs_grad))
        return Var(self, len(self.nodes) - 1)

    def backward(self, out: Var) -> None:
        """Accumulate adjoints of every needs_grad node w.r.t. ``out``.

        ``out`` must be scalar. Nodes are visited in reverse insertion
        order, each exactly once; nodes with no adjoint (not on a path to
        ``out``) and nodes with needs_grad=False are skipped.
        """
        if out.tape is not self:
            raise ValueError("output variable belongs to a different tape")
        if np.asarray(out.value).size != 1:
            raise ValueError("backward requires a scalar output")
        n = len(self.nodes)
        self._adjoints = [None] * n
        self._adjoints[out.idx] = np.ones_like(self.nodes[out.idx].value)
        for idx in range(n - 1, -1, -1):
            g = self._adjoints[idx]
            if g is None:
                continue
            node = self.nodes[idx]
            if node.op == "leaf" or not node.needs_grad:
                continue
            _BACKWARD[node.op](self, node, g)

    def grad(self, var: Var):
        """Adjoint of ``var`` from the last backward pass (zeros if unused)."""
        g = self._adjoints[var.idx]
        if g is None:
            return np.zeros_like(self.nodes[var.idx].value)
        return g

    def _accumulate(self, idx, contribution):
        node = self.nodes[idx]
        if not node.needs_grad:
            return
        if self._adjoints[idx] is None:
            self._adjoints[idx] = np.zeros_like(node.value)
        self._adjoints[idx] += contribution


def _unbroadcast(grad, shape):
    """Sum ``grad`` back down to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _needs(*vars_):
    return any(v.tape.nodes[v.idx].needs_grad for v in vars_)


def _same_tape(*vars_):
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise ValueError("operands live on different tapes")
    return tape


# ---------------------------------------------------------------------------
# primitives


def add(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    return tape._push("add", (a.idx, b.idx), a.value + b.value, None, _needs(a, b))


def sub(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    return tape._push("sub", (a.idx, b.idx), a.value - b.value, None, _needs(a, b))


def mul(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    return tape._push("mul", (a.idx, b.idx), a.value * b.value, None, _needs(a, b))


def div(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    return tape._push("div", (a.idx, b.idx), a.value / b.value, None, _needs(a, b))


def neg(a: Var) -> Var:
    return a.tape._push("neg", (a.idx,), -a.value, None, _needs(a))


def matmul(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    return tape._push("matmul", (a.idx, b.idx), a.value @ b.value, None, _needs(a, b))


def logistic(x: np.ndarray) -> np.ndarray:
    """The sigmoid of a plain array; the piecewise form avoids overflow in
    exp for large |x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Var) -> Var:
    return a.tape._push("sigmoid", (a.idx,), logistic(a.value), None, _needs(a))


def tanh(a: Var) -> Var:
    return a.tape._push("tanh", (a.idx,), np.tanh(a.value), None, _needs(a))


def log(a: Var) -> Var:
    return a.tape._push("log", (a.idx,), np.log(a.value), None, _needs(a))


def exp(a: Var) -> Var:
    return a.tape._push("exp", (a.idx,), np.exp(a.value), None, _needs(a))


def maximum(a: Var, b: Var) -> Var:
    """Elementwise max; at exact ties the adjoint is split half/half."""
    tape = _same_tape(a, b)
    return tape._push("maximum", (a.idx, b.idx), np.maximum(a.value, b.value), None, _needs(a, b))


def absolute(a: Var) -> Var:
    return maximum(a, neg(a))


def clip(a: Var, lo: float, hi: float) -> Var:
    out = np.clip(a.value, lo, hi)
    return a.tape._push("clip", (a.idx,), out, (lo, hi), _needs(a))


def reduce_sum(a: Var, axis=None) -> Var:
    out = np.asarray(a.value.sum(axis=axis))
    return a.tape._push("sum", (a.idx,), out, axis, _needs(a))


def reduce_mean(a: Var) -> Var:
    out = np.asarray(a.value.mean())
    return a.tape._push("mean", (a.idx,), out, a.value.size, _needs(a))


def reshape(a: Var, shape) -> Var:
    return a.tape._push("reshape", (a.idx,), a.value.reshape(shape), None, _needs(a))


def concat(vars_, axis=-1) -> Var:
    tape = _same_tape(*vars_)
    out = np.concatenate([v.value for v in vars_], axis=axis)
    sizes = [v.value.shape[axis] for v in vars_]
    return tape._push(
        "concat", tuple(v.idx for v in vars_), out, (axis, sizes), _needs(*vars_)
    )


def take(a: Var, indices) -> Var:
    """Index the leading axis with an integer array (gather with repeats)."""
    idx = np.asarray(indices)
    return a.tape._push("take", (a.idx,), a.value[idx], idx, _needs(a))


def gather_steps(a: Var, indices) -> Var:
    """Per-row timestep gather: out[b, k] = a[b, indices[b, k]].

    ``a`` is (B, T, F), ``indices`` is (B,) or (B, K); the result is
    (B, F) or (B, K, F).
    """
    idx = np.asarray(indices)
    rows = np.arange(a.value.shape[0])
    if idx.ndim == 1:
        out = a.value[rows, idx]
    else:
        out = a.value[rows[:, None], idx]
    return a.tape._push("gather_steps", (a.idx,), out, idx, _needs(a))


def custom_op(inputs, value, vjp) -> Var:
    """One node computed outside the tape, with its own backward rule.

    ``value`` is the output, already computed from ``inputs`` (a sequence
    of Vars on one tape). ``vjp(g)`` maps the output adjoint ``g`` to one
    adjoint per input, each shaped like that input's value, or None for an
    input it sends nothing to. The backward sweep calls it, so a fused op
    keeps what its backward needs in the closure instead of on the tape.
    Pass ``vjp=None`` when no input needs gradients.
    """
    tape = _same_tape(*inputs)
    value = np.asarray(value, dtype=np.float64)
    return tape._push("custom", tuple(v.idx for v in inputs), value, vjp, _needs(*inputs))


# ---------------------------------------------------------------------------
# backward rules


def _bw_add(tape, node, g):
    ai, bi = node.parents
    tape._accumulate(ai, _unbroadcast(g, tape.nodes[ai].value.shape))
    tape._accumulate(bi, _unbroadcast(g, tape.nodes[bi].value.shape))


def _bw_sub(tape, node, g):
    ai, bi = node.parents
    tape._accumulate(ai, _unbroadcast(g, tape.nodes[ai].value.shape))
    tape._accumulate(bi, _unbroadcast(-g, tape.nodes[bi].value.shape))


def _bw_mul(tape, node, g):
    ai, bi = node.parents
    a, b = tape.nodes[ai].value, tape.nodes[bi].value
    tape._accumulate(ai, _unbroadcast(g * b, a.shape))
    tape._accumulate(bi, _unbroadcast(g * a, b.shape))


def _bw_div(tape, node, g):
    ai, bi = node.parents
    a, b = tape.nodes[ai].value, tape.nodes[bi].value
    tape._accumulate(ai, _unbroadcast(g / b, a.shape))
    tape._accumulate(bi, _unbroadcast(-g * a / (b * b), b.shape))


def _bw_neg(tape, node, g):
    tape._accumulate(node.parents[0], -g)


def _bw_matmul(tape, node, g):
    ai, bi = node.parents
    a, b = tape.nodes[ai].value, tape.nodes[bi].value
    if a.ndim == 2 and b.ndim == 2:
        tape._accumulate(ai, g @ b.T)
        tape._accumulate(bi, a.T @ g)
    elif a.ndim == 2 and b.ndim == 1:
        tape._accumulate(ai, np.outer(g, b))
        tape._accumulate(bi, a.T @ g)
    elif a.ndim == 1 and b.ndim == 2:
        tape._accumulate(ai, g @ b.T)
        tape._accumulate(bi, np.outer(a, g))
    elif a.ndim == 1 and b.ndim == 1:
        tape._accumulate(ai, g * b)
        tape._accumulate(bi, g * a)
    else:
        raise NotImplementedError("matmul backward supports 1-D/2-D operands")


def _bw_sigmoid(tape, node, g):
    s = node.value
    tape._accumulate(node.parents[0], g * s * (1.0 - s))


def _bw_tanh(tape, node, g):
    t = node.value
    tape._accumulate(node.parents[0], g * (1.0 - t * t))


def _bw_log(tape, node, g):
    tape._accumulate(node.parents[0], g / tape.nodes[node.parents[0]].value)


def _bw_exp(tape, node, g):
    tape._accumulate(node.parents[0], g * node.value)


def _bw_maximum(tape, node, g):
    ai, bi = node.parents
    a, b = tape.nodes[ai].value, tape.nodes[bi].value
    wa = np.where(a > b, 1.0, np.where(a == b, 0.5, 0.0))
    tape._accumulate(ai, _unbroadcast(g * wa, a.shape))
    tape._accumulate(bi, _unbroadcast(g * (1.0 - wa), b.shape))


def _bw_clip(tape, node, g):
    lo, hi = node.ctx
    x = tape.nodes[node.parents[0]].value
    tape._accumulate(node.parents[0], g * ((x >= lo) & (x <= hi)))


def _bw_sum(tape, node, g):
    axis = node.ctx
    x = tape.nodes[node.parents[0]].value
    if axis is None:
        tape._accumulate(node.parents[0], np.broadcast_to(g, x.shape).copy())
    else:
        tape._accumulate(node.parents[0], np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())


def _bw_mean(tape, node, g):
    size = node.ctx
    x = tape.nodes[node.parents[0]].value
    tape._accumulate(node.parents[0], np.broadcast_to(g / size, x.shape).copy())


def _bw_reshape(tape, node, g):
    x = tape.nodes[node.parents[0]].value
    tape._accumulate(node.parents[0], g.reshape(x.shape))


def _bw_concat(tape, node, g):
    axis, sizes = node.ctx
    offset = 0
    for pid, size in zip(node.parents, sizes):
        sl = [slice(None)] * g.ndim
        sl[axis] = slice(offset, offset + size)
        tape._accumulate(pid, g[tuple(sl)])
        offset += size


def _bw_take(tape, node, g):
    idx = node.ctx
    x = tape.nodes[node.parents[0]].value
    gx = np.zeros_like(x)
    np.add.at(gx, idx, g)
    tape._accumulate(node.parents[0], gx)


def _bw_gather_steps(tape, node, g):
    idx = node.ctx
    x = tape.nodes[node.parents[0]].value
    gx = np.zeros_like(x)
    rows = np.arange(x.shape[0])
    if idx.ndim == 1:
        np.add.at(gx, (rows, idx), g)
    else:
        np.add.at(gx, (rows[:, None], idx), g)
    tape._accumulate(node.parents[0], gx)


def _bw_custom(tape, node, g):
    for pid, contribution in zip(node.parents, node.ctx(g)):
        if contribution is not None:
            tape._accumulate(pid, contribution)


_BACKWARD = {
    "add": _bw_add,
    "sub": _bw_sub,
    "mul": _bw_mul,
    "div": _bw_div,
    "neg": _bw_neg,
    "matmul": _bw_matmul,
    "sigmoid": _bw_sigmoid,
    "tanh": _bw_tanh,
    "log": _bw_log,
    "exp": _bw_exp,
    "maximum": _bw_maximum,
    "clip": _bw_clip,
    "sum": _bw_sum,
    "mean": _bw_mean,
    "reshape": _bw_reshape,
    "concat": _bw_concat,
    "take": _bw_take,
    "gather_steps": _bw_gather_steps,
    "custom": _bw_custom,
}
