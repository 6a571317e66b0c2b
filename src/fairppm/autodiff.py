"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` is a Wengert list: every primitive operation appends one node in
execution order, and each node carries its own vector-Jacobian product (VJP)
as a closure. Operands must exist before they are used, so insertion order
is already a topological order and the backward sweep is a single reverse
pass over the node list, calling each node's VJP exactly once.

Values are numpy arrays (scalars are 0-d arrays). Ops follow numpy
broadcasting; adjoints are summed back over broadcast axes. Every node enters
the tape through ``custom_op``: the primitives below, and fused ops computed
off the tape, such as the exact W1, each LSTM direction and the BCE.
The primitives are the ones the pipeline uses (``Var`` adds ``+`` and
``*``), with ``take`` the one gather, along the leading axis; the test
oracles build any other op on ``custom_op`` themselves.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tape",
    "Var",
    "add",
    "mul",
    "matmul",
    "sigmoid",
    "logistic",
    "concat",
    "take",
    "custom_op",
]


class Node:
    """One recorded value: its parent slots and, when a parent needs
    gradients, the VJP that maps its adjoint to one adjoint per parent."""

    __slots__ = ("parents", "value", "vjp", "needs_grad")

    def __init__(self, parents, value, vjp, needs_grad):
        self.parents = parents
        self.value = value
        self.vjp = vjp
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

    def __mul__(self, other):
        return mul(self, self._lift(other))

    def _lift(self, other):
        if isinstance(other, Var):
            return other
        return self.tape.constant(other)


class Tape:
    """Append-only record of nodes, with a single backward sweep."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._adjoints: list = []

    def leaf(self, value, needs_grad=True) -> Var:
        self.nodes.append(Node((), np.asarray(value, dtype=np.float64), None, needs_grad))
        return Var(self, len(self.nodes) - 1)

    def constant(self, value) -> Var:
        return self.leaf(value, needs_grad=False)

    def backward(self, out: Var) -> None:
        """Accumulate adjoints of every needs_grad node w.r.t. ``out``.

        ``out`` must be scalar. Nodes are visited in reverse insertion
        order, each exactly once; nodes with no adjoint (not on a path to
        ``out``) and nodes with no VJP (leaves, and nodes none of whose
        inputs needs gradients) are skipped.
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
            node = self.nodes[idx]
            if g is None or node.vjp is None:
                continue
            for pid, contribution in zip(node.parents, node.vjp(g)):
                if contribution is not None:
                    self._accumulate(pid, contribution)

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
            # 0 + c in a fresh array, as zeros += c would give: -0.0 becomes +0.0
            self._adjoints[idx] = np.add(contribution, 0.0, out=np.empty_like(node.value))
        else:
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


def custom_op(inputs, value, vjp) -> Var:
    """Record one node: a value and its own backward rule.

    ``value`` is the output, already computed from ``inputs`` (a sequence
    of Vars on one tape). ``vjp(g)`` maps the output adjoint ``g`` to one
    adjoint per input, each shaped like that input's value, or None for an
    input it sends nothing to. The backward sweep calls it, so a node keeps
    what its backward needs in the closure instead of on the tape. When no
    input needs gradients the node keeps no closure, so a caller that knows
    this may pass ``vjp=None``.
    """
    tape = inputs[0].tape
    for v in inputs[1:]:
        if v.tape is not tape:
            raise ValueError("operands live on different tapes")
    needs_grad = any(tape.nodes[v.idx].needs_grad for v in inputs)
    node = Node(
        tuple(v.idx for v in inputs),
        np.asarray(value, dtype=np.float64),
        vjp if needs_grad else None,
        needs_grad,
    )
    tape.nodes.append(node)
    return Var(tape, len(tape.nodes) - 1)


# ---------------------------------------------------------------------------
# primitives: each computes its value and hands custom_op the VJP


def add(a: Var, b: Var) -> Var:
    sa, sb = a.shape, b.shape
    return custom_op(
        (a, b), a.value + b.value, lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb))
    )


def mul(a: Var, b: Var) -> Var:
    """The product; the VJP computes only the adjoints of operands that need
    gradients (a dropout mask or a constant factor gets none)."""
    x, y = a.value, b.value
    need_x, need_y = (v.tape.nodes[v.idx].needs_grad for v in (a, b))

    def vjp(g):
        return (
            _unbroadcast(g * y, x.shape) if need_x else None,
            _unbroadcast(g * x, y.shape) if need_y else None,
        )

    return custom_op((a, b), x * y, vjp)


def matmul(a: Var, b: Var) -> Var:
    x, y = a.value, b.value

    def vjp(g):
        if x.ndim == 2 and y.ndim == 2:
            return g @ y.T, x.T @ g
        if x.ndim == 2 and y.ndim == 1:
            return np.outer(g, y), x.T @ g
        if x.ndim == 1 and y.ndim == 2:
            return g @ y.T, np.outer(x, g)
        if x.ndim == 1 and y.ndim == 1:
            return g * y, g * x
        raise NotImplementedError("matmul backward supports 1-D/2-D operands")

    return custom_op((a, b), x @ y, vjp)


def logistic(x: np.ndarray) -> np.ndarray:
    """The sigmoid of a plain array, as a fresh array: 1/(1+e) where x >= 0
    and e/(1+e) elsewhere, with e = exp(-|x|), so exp never overflows. The
    branches share one temporary and one divide, element by element the
    same operations as two full-size quotients, so the same bits. Since e
    lies in [0, 1] (or is NaN), the numerator max(e, x >= 0) is 1 where
    x >= 0 and e elsewhere, with no branch per element."""
    e = np.abs(x, out=np.empty(np.shape(x)))  # an array even for a 0-d x
    np.negative(e, out=e)
    np.exp(e, out=e)
    denominator = 1.0 + e
    out = np.maximum(e, x >= 0, out=e)
    out /= denominator
    return out


def sigmoid(a: Var) -> Var:
    s = logistic(a.value)
    return custom_op((a,), s, lambda g: (g * s * (1.0 - s),))


def concat(vars_) -> Var:
    """Join along the last axis."""
    ends = np.cumsum([v.shape[-1] for v in vars_])[:-1]
    out = np.concatenate([v.value for v in vars_], axis=-1)
    return custom_op(vars_, out, lambda g: np.split(g, ends, axis=-1))


def take(a: Var, indices) -> Var:
    """Index the leading axis with an integer array (gather with repeats);
    the adjoint scatters back with repeats summed, in index order, as
    ``np.add.at`` would, through one ``bincount`` over flat positions."""
    x, idx = a.value, np.asarray(indices)

    def vjp(g):
        rows = np.where(idx < 0, idx + len(x), idx).reshape(-1, 1)
        width = math.prod(x.shape[1:])
        flat = rows * width + np.arange(width)
        gx = np.bincount(flat.ravel(), weights=g.ravel(), minlength=x.size)
        # bincount of no indices gives integer zeros, weights or not
        return (gx.astype(np.float64, copy=False).reshape(x.shape),)

    return custom_op((a,), x[idx], vjp)
