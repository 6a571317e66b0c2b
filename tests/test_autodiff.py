"""Tape and primitive-op gradients, checked against central finite differences.

Every primitive is exercised inside a scalar loss so the finite-difference
oracle in conftest applies uniformly: perturb one input entry, re-run the
whole forward function, difference the scalar outputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import assert_grads_match, central_diff, grad_close
from fairppm import autodiff as ad
from fairppm.autodiff import Tape
from fairppm.nn import _lstm_layer
from fairppm.transport import _Kernel


def check_op(build_loss, arrays: dict, step: float = 1e-5):
    """Compare tape gradients for ``build_loss`` against central differences.

    ``build_loss`` maps {name: leaf Var} to a scalar Var on the same tape.
    """

    def run():
        tape = Tape()
        leaves = {name: tape.leaf(a) for name, a in arrays.items()}
        return tape, leaves, build_loss(leaves)

    tape, leaves, loss = run()
    tape.backward(loss)
    ad_grads = {name: tape.grad(v) for name, v in leaves.items()}
    fd_grads = central_diff(lambda: float(run()[2].value), arrays, step=step)
    assert_grads_match(ad_grads, fd_grads)


def weighted_sum(loss_weights):
    """Fold an array output into a scalar with fixed random weights so every
    output entry contributes to the gradient."""

    def fold(var):
        tape = var.tape
        w = tape.constant(loss_weights.reshape(var.value.shape))
        return ad.reduce_sum(var * w)

    return fold


# ---------------------------------------------------------------------------
# elementwise and reduction ops


@pytest.mark.parametrize(
    "name",
    ["add", "sub", "mul", "div", "maximum"],
)
def test_binary_elementwise_grads(name, rng):
    op = getattr(ad, name)
    a = rng.uniform(0.5, 2.0, size=(3, 4))
    b = rng.uniform(0.5, 2.0, size=(3, 4))
    w = rng.normal(size=(3, 4))
    check_op(lambda lv: weighted_sum(w)(op(lv["a"], lv["b"])), {"a": a, "b": b})


@pytest.mark.parametrize(
    "shapes",
    [((3, 4), (4,)), ((3, 4), (1, 4)), ((3, 1), (1, 4)), ((4,), (3, 4))],
)
def test_broadcasting_grads(shapes, rng):
    sa, sb = shapes
    a = rng.uniform(0.5, 2.0, size=sa)
    b = rng.uniform(0.5, 2.0, size=sb)
    out_shape = np.broadcast_shapes(sa, sb)
    w = rng.normal(size=out_shape)
    check_op(lambda lv: weighted_sum(w)(ad.add(lv["a"], lv["b"])), {"a": a, "b": b})
    check_op(lambda lv: weighted_sum(w)(ad.mul(lv["a"], lv["b"])), {"a": a, "b": b})


@pytest.mark.parametrize("name", ["neg", "sigmoid", "tanh", "exp"])
def test_unary_grads(name, rng):
    op = getattr(ad, name)
    a = rng.uniform(-2.0, 2.0, size=(2, 5))
    w = rng.normal(size=(2, 5))
    check_op(lambda lv: weighted_sum(w)(op(lv["a"])), {"a": a})


def test_log_grad(rng):
    a = rng.uniform(0.2, 3.0, size=(6,))
    w = rng.normal(size=(6,))
    check_op(lambda lv: weighted_sum(w)(ad.log(lv["a"])), {"a": a})


def test_absolute_grad_away_from_zero(rng):
    a = rng.uniform(0.1, 1.0, size=(8,)) * rng.choice([-1.0, 1.0], size=8)
    w = rng.normal(size=(8,))
    check_op(lambda lv: weighted_sum(w)(ad.absolute(lv["a"])), {"a": a})


def test_reduce_ops_grads(rng):
    a = rng.normal(size=(3, 5))
    check_op(lambda lv: ad.reduce_sum(lv["a"]), {"a": a})
    w = rng.normal(size=(5,))
    check_op(lambda lv: weighted_sum(w)(ad.reduce_sum(lv["a"], axis=0)), {"a": a.copy()})
    w2 = rng.normal(size=(3,))
    check_op(lambda lv: weighted_sum(w2)(ad.reduce_sum(lv["a"], axis=1)), {"a": a.copy()})


# ---------------------------------------------------------------------------
# matmul variants


@pytest.mark.parametrize(
    "shapes",
    [((3, 4), (4, 2)), ((3, 4), (4,)), ((4,), (4, 2)), ((4,), (4,))],
)
def test_matmul_grads(shapes, rng):
    sa, sb = shapes
    a = rng.normal(size=sa)
    b = rng.normal(size=sb)
    out = a @ b
    if np.ndim(out) == 0:
        check_op(lambda lv: ad.matmul(lv["a"], lv["b"]), {"a": a, "b": b})
    else:
        w = rng.normal(size=np.shape(out))
        check_op(lambda lv: weighted_sum(w)(ad.matmul(lv["a"], lv["b"])), {"a": a, "b": b})


# ---------------------------------------------------------------------------
# structural ops


def test_reshape_concat_grads(rng):
    a = rng.normal(size=(2, 6))
    b = rng.normal(size=(2, 3))
    w = rng.normal(size=(2, 9))

    def loss(lv):
        joined = ad.concat([lv["a"], lv["b"]], axis=-1)
        return weighted_sum(w)(joined)

    check_op(loss, {"a": a, "b": b})
    w2 = rng.normal(size=(12,))
    check_op(lambda lv: weighted_sum(w2)(ad.reshape(lv["a"], (12,))), {"a": a.copy()})


def test_take_grad_with_repeats(rng):
    emb = rng.normal(size=(5, 3))
    idx = np.array([0, 2, 2, 4, 0])
    w = rng.normal(size=(5, 3))
    check_op(lambda lv: weighted_sum(w)(ad.take(lv["emb"], idx)), {"emb": emb})
    # repeated rows must accumulate, not overwrite
    tape = Tape()
    e = tape.leaf(np.ones((3, 2)))
    tape.backward(ad.reduce_sum(ad.take(e, np.array([1, 1, 1]))))
    assert np.array_equal(tape.grad(e), np.array([[0, 0], [3, 3], [0, 0]], dtype=float))


def test_gather_steps_grads(rng):
    a = rng.normal(size=(3, 4, 2))
    w1 = rng.normal(size=(3, 2))
    idx1 = np.array([0, 3, 2])
    check_op(lambda lv: weighted_sum(w1)(ad.gather_steps(lv["a"], idx1)), {"a": a})
    idx2 = np.array([[0, 1, 1, 3], [3, 2, 1, 0], [2, 2, 2, 2]])
    w2 = rng.normal(size=(3, 4, 2))
    check_op(lambda lv: weighted_sum(w2)(ad.gather_steps(lv["a"], idx2)), {"a": a.copy()})


@pytest.mark.parametrize("axis", [0, 1])
def test_softmin_grads(axis, rng):
    # the Sinkhorn soft-min update, entered as one custom_op whose VJP is
    # built from the kernel's softmax weights: d out / d C = w, d out / d pot = -w
    n, m = 4, 3
    pot = rng.normal(scale=0.05, size=(m if axis == 1 else n,))
    cost = rng.uniform(0.0, 1.0, size=(n, m))
    log_w = np.log(np.full(pot.size, 1.0 / pot.size))
    out_size = n if axis == 1 else m
    w = rng.normal(size=(out_size,))

    def softmin(lv):
        kernel = _Kernel(lv["cost"].value, 0.05)
        out = kernel.update(lv["pot"].value, log_w, axis)

        def vjp(g):
            d_cost = kernel.weights(lv["pot"].value, log_w, out, axis) * np.expand_dims(g, axis)
            d_pot = -(kernel.col_sums(d_cost) if axis == 1 else kernel.row_sums(d_cost))
            return d_pot, d_cost

        return weighted_sum(w)(ad.custom_op((lv["pot"], lv["cost"]), out, vjp))

    check_op(softmin, {"pot": pot, "cost": cost})


def test_custom_op_vjp_grads(rng):
    # out_j = sum_i exp(a_i) * b_ij, computed off the tape; the op's own VJP
    # sends nothing (None) to the constant ``c``
    a = rng.normal(size=(3,))
    b = rng.normal(size=(3, 4))
    c = rng.normal(size=(4,))
    w = rng.normal(size=(4,))
    calls = []

    def fused(lv):
        av, bv, cv = lv["a"], lv["b"], lv["b"].tape.constant(c)
        ea = np.exp(av.value)

        def vjp(g):
            calls.append(g)
            return ea * (bv.value @ g), np.outer(ea, g), None

        return weighted_sum(w)(ad.custom_op((av, bv, cv), ea @ bv.value + cv.value, vjp))

    check_op(fused, {"a": a, "b": b})
    assert len(calls) == 1  # one backward sweep, one VJP call


def per_row_reversal(lengths, steps):
    """Reverse each row's first ``lengths[b]`` steps; padding maps to itself."""
    pos = np.broadcast_to(np.arange(steps), (len(lengths), steps))
    span = pos < lengths[:, None]
    return np.arange(len(lengths))[:, None], np.where(span, lengths[:, None] - 1 - pos, pos)


@pytest.mark.parametrize(
    "hidden, steps, reverse",
    [
        pytest.param(h, t, r, id=f"{h}-{t}" + ("-reversed" if r else ""))
        for r in (False, True)
        for h in (1, 3)
        for t in (1, 4)
    ],
)
def test_lstm_layer_node_grads(hidden, steps, reverse, rng):
    # one fused LSTM direction entered through custom_op: its BPTT VJP gives
    # dx, dW, dU and db for every hidden state, each weighted into the loss;
    # the reversed cases run over each row's span backwards, with random lengths
    n, feat = 3, 2
    arrays = {
        "x": rng.normal(size=(n, steps, feat)),
        "W": rng.uniform(-1.0, 1.0, size=(feat, 4 * hidden)),
        "U": rng.uniform(-1.0, 1.0, size=(hidden, 4 * hidden)),
        "b": rng.uniform(-0.5, 0.5, size=(4 * hidden,)),
    }
    order = per_row_reversal(rng.integers(1, steps + 1, size=n), steps) if reverse else np.s_[:]
    w = rng.normal(size=(n, steps, hidden))
    check_op(
        lambda lv: weighted_sum(w)(_lstm_layer(lv["x"], lv["W"], lv["U"], lv["b"], order)),
        arrays,
    )


ON_CONSTANTS = {
    "custom_op": lambda c: ad.custom_op((c,), np.sum(c.value), None),
    "add": lambda c: ad.add(c, c),
    "mul": lambda c: ad.mul(c, c),
    "matmul": lambda c: ad.matmul(c, c),
    "take": lambda c: ad.take(c, [1, 0, 1]),
    "gather_steps": lambda c: ad.gather_steps(ad.reshape(c, (2, 2, 1)), [1, 0]),
    "concat": lambda c: ad.concat([c, c], axis=0),
    "reduce_sum": lambda c: ad.reduce_sum(c, axis=0),
}


@pytest.mark.parametrize("name", list(ON_CONSTANTS))
def test_custom_op_on_constants_needs_no_vjp(name):
    # every primitive enters the tape through custom_op; a node built only
    # from constants keeps no VJP closure and is never differentiated
    tape = Tape()
    x = tape.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = ON_CONSTANTS[name](x)
    node = tape.nodes[out.idx]
    assert not node.needs_grad and node.vjp is None
    tape.backward(ad.reduce_sum(out))
    assert np.array_equal(tape.grad(x), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# tape semantics


def test_diamond_graph_accumulates(rng):
    # y = x*x + x: adjoint must sum both paths, dy/dx = 2x + 1
    x0 = 1.7
    tape = Tape()
    x = tape.leaf(np.asarray(x0))
    y = x * x + x
    tape.backward(y)
    assert grad_close(float(tape.grad(x)), 2 * x0 + 1, rel=1e-12)


def test_unused_leaf_gets_zero_gradient():
    tape = Tape()
    used = tape.leaf(np.array([2.0]))
    unused = tape.leaf(np.array([5.0, 6.0]))
    tape.backward(ad.reduce_sum(used * used))
    assert np.array_equal(tape.grad(unused), np.zeros(2))
    assert float(tape.grad(used)[0]) == 4.0


def test_constants_block_gradients():
    tape = Tape()
    x = tape.leaf(np.asarray(3.0))
    c = tape.constant(np.asarray(4.0))
    tape.backward(x * c)
    node = tape.nodes[c.idx]
    assert not node.needs_grad
    assert float(tape.grad(x)) == 4.0


def test_insertion_order_is_topological():
    tape = Tape()
    x = tape.leaf(np.asarray(2.0))
    y = x * x
    z = y + x
    assert x.idx < y.idx < z.idx
    for idx, node in enumerate(tape.nodes):
        assert all(p < idx for p in node.parents)


def test_backward_requires_scalar():
    tape = Tape()
    x = tape.leaf(np.ones(3))
    with pytest.raises(ValueError):
        tape.backward(x * x)


def test_cross_tape_operands_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.asarray(1.0))
    b = t2.leaf(np.asarray(2.0))
    with pytest.raises(ValueError):
        ad.add(a, b)


def test_second_backward_resets_adjoints():
    tape = Tape()
    x = tape.leaf(np.asarray(3.0))
    y = x * x
    tape.backward(y)
    first = float(tape.grad(x))
    tape.backward(y)
    assert float(tape.grad(x)) == first == 6.0


def test_maximum_tie_splits_adjoint():
    tape = Tape()
    a = tape.leaf(np.asarray([1.0, 2.0]))
    b = tape.leaf(np.asarray([1.0, 0.5]))
    tape.backward(ad.reduce_sum(ad.maximum(a, b)))
    assert np.array_equal(tape.grad(a), np.array([0.5, 1.0]))
    assert np.array_equal(tape.grad(b), np.array([0.5, 0.0]))


# ---------------------------------------------------------------------------
# randomized composite-graph property


def prop_random_graph_gradients(cases: int, seed: int = 7) -> None:
    """Random small compositions of primitives agree with finite differences."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(2, 6))
        a = rng.uniform(0.3, 1.5, size=(n,))
        b = rng.uniform(0.3, 1.5, size=(n,))
        w = rng.normal(size=(n,))

        def loss(lv, w=w):
            h = ad.sigmoid(lv["a"] * lv["b"] - lv["b"])
            h = ad.tanh(h + ad.exp(ad.neg(lv["a"])))
            h = h / (1.0 + ad.absolute(lv["b"]))
            return weighted_sum(w)(h)

        check_op(loss, {"a": a, "b": b})


def test_random_graph_gradients():
    prop_random_graph_gradients(25)
