"""Tape and primitive-op gradients, checked against central finite differences.

Every primitive is exercised inside a scalar loss so the finite-difference
oracle in conftest applies uniformly: perturb one input entry, re-run the
whole forward function, difference the scalar outputs. The primitives are
the package's and the ones conftest builds on ``custom_op``.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import conftest as oracle
from conftest import (
    absolute,
    assert_grads_match,
    build_datasets,
    central_diff,
    div,
    exp,
    grad_close,
    log,
    maximum,
    neg,
    reduce_sum,
    reshape,
    sub,
    tanh,
)
from fairppm import autodiff as ad
from fairppm import transport
from fairppm.autodiff import Tape
from fairppm.nn import CompositeLossConfig, Hyper, _EventPlan, _lstm_layer
from fairppm.train import TrainConfig, evaluate, train_model


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
        return reduce_sum(var * w)

    return fold


def primitive(name):
    """The package's primitive ``name``, or the conftest oracle's for an op
    that only the tests use."""
    return getattr(ad if name in ad.__all__ else oracle, name)


# ---------------------------------------------------------------------------
# elementwise and reduction ops


@pytest.mark.parametrize(
    "name",
    ["add", "sub", "mul", "div", "maximum"],
)
def test_binary_elementwise_grads(name, rng):
    op = primitive(name)
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
    op = primitive(name)
    a = rng.uniform(-2.0, 2.0, size=(2, 5))
    w = rng.normal(size=(2, 5))
    check_op(lambda lv: weighted_sum(w)(op(lv["a"])), {"a": a})


def test_log_grad(rng):
    a = rng.uniform(0.2, 3.0, size=(6,))
    w = rng.normal(size=(6,))
    check_op(lambda lv: weighted_sum(w)(log(lv["a"])), {"a": a})


def test_absolute_grad_away_from_zero(rng):
    a = rng.uniform(0.1, 1.0, size=(8,)) * rng.choice([-1.0, 1.0], size=8)
    w = rng.normal(size=(8,))
    check_op(lambda lv: weighted_sum(w)(absolute(lv["a"])), {"a": a})


def test_reduce_ops_grads(rng):
    a = rng.normal(size=(3, 5))
    check_op(lambda lv: reduce_sum(lv["a"]), {"a": a})
    w = rng.normal(size=(5,))
    check_op(lambda lv: weighted_sum(w)(reduce_sum(lv["a"], axis=0)), {"a": a.copy()})
    w2 = rng.normal(size=(3,))
    check_op(lambda lv: weighted_sum(w2)(reduce_sum(lv["a"], axis=1)), {"a": a.copy()})


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
    check_op(lambda lv: weighted_sum(w2)(reshape(lv["a"], (12,))), {"a": a.copy()})


def test_take_grad_with_repeats(rng):
    emb = rng.normal(size=(5, 3))
    idx = np.array([0, 2, 2, 4, 0])
    w = rng.normal(size=(5, 3))
    check_op(lambda lv: weighted_sum(w)(ad.take(lv["emb"], idx)), {"emb": emb})
    # repeated rows must accumulate, not overwrite
    tape = Tape()
    e = tape.leaf(np.ones((3, 2)))
    tape.backward(reduce_sum(ad.take(e, np.array([1, 1, 1]))))
    assert np.array_equal(tape.grad(e), np.array([[0, 0], [3, 3], [0, 0]], dtype=float))


@pytest.mark.parametrize("axis", [0, 1])
def test_softmin_grads(axis, rng):
    # the linear-time Sinkhorn soft-min update, entered as one custom_op whose
    # VJP is built from _Softmin.sums, on random samples and on cross-set ties
    # x_i == y_j; axis 1 updates the potential on x from the one on y, axis 0
    # the reverse. With P the plan of the update (rows sum to 1), the
    # adjoints of pot, t and s are -P^T g, g * (P sign(t - s)) and
    # (P sign(t - s))^T (-g); the last two sums come from a _Softmin with
    # the roles of t and s swapped. The update works in units of eps; the op
    # does not. At a tie the central difference is off by about
    # (tie weight) * step / eps, so the tie case runs at a larger eps.
    cases = [
        (rng.random(5), rng.random(4), 0.05),
        ([0.2, 0.3, 0.5, 0.8], [0.2, 0.5, 0.9], 0.5),
    ]
    for x, y, eps in cases:
        arrays = {"x": np.sort(x), "y": np.sort(y)}
        t_name, s_name = ("x", "y") if axis == 1 else ("y", "x")
        arrays["pot"] = rng.normal(scale=0.05, size=len(arrays[s_name]))
        w = rng.normal(size=len(arrays[t_name]))

        def softmin(lv):
            t, s = lv[t_name].value, lv[s_name].value
            low = min(t[0], s[0])
            log_w = np.full(s.size, -np.log(s.size))
            update = transport._Softmin(t, s, low, eps, log_w)
            s_w = lv["pot"].value / eps + log_w
            out = update(s_w - log_w)

            def vjp(g):
                _, t_signed = update.sums(out, s_w, np.ones((1, s.size)))
                transposed = transport._Softmin(s, t, low, eps, np.zeros(t.size))
                p_t_g, s_signed = transposed.sums(s_w, out, g[None])
                return -p_t_g[0], g * t_signed[0], s_signed[0]

            op = ad.custom_op((lv["pot"], lv[t_name], lv[s_name]), eps * out, vjp)
            return weighted_sum(w)(op)

        check_op(softmin, arrays)


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


# row lengths of a 3-row, 4-step batch; "random" draws each in 1..steps
LENGTH_PATTERNS = {
    "ties": [2, 4, 2],
    "full": [4, 4, 4],
    "ones": [1, 1, 1],
    "last-step-empty": [3, 1, 3],
}


@pytest.mark.parametrize(
    "hidden, steps, reverse, pattern",
    [
        pytest.param(h, t, r, "random", id=f"{h}-{t}" + ("-reversed" if r else ""))
        for r in (False, True)
        for h in (1, 3)
        for t in (1, 4)
    ]
    + [
        pytest.param(3, 4, r, p, id=f"3-4-{p}" + ("-reversed" if r else ""))
        for r in (False, True)
        for p in LENGTH_PATTERNS
    ],
)
def test_lstm_layer_node_grads(hidden, steps, reverse, pattern, rng):
    # one fused LSTM direction entered through custom_op: its BPTT VJP gives
    # dx, dW, dU and db for every hidden state, each weighted into the loss;
    # the rows' events are packed row by row, each row read over its own
    # events (backwards if reversed) in the plan's step-major order
    n, feat = 3, 2
    if pattern == "random":
        lengths = rng.integers(1, steps + 1, size=n)
    else:
        lengths = np.array(LENGTH_PATTERNS[pattern])
    events = int(lengths.sum())
    arrays = {
        "x": rng.normal(size=(events, feat)),
        "W": rng.uniform(-1.0, 1.0, size=(feat, 4 * hidden)),
        "U": rng.uniform(-1.0, 1.0, size=(hidden, 4 * hidden)),
        "b": rng.uniform(-0.5, 0.5, size=(4 * hidden,)),
    }
    w = rng.normal(size=(events, hidden))
    plan = _EventPlan(lengths)

    def node(lv):
        return _lstm_layer(lv["x"], lv["W"], lv["U"], lv["b"], plan, reverse)

    check_op(lambda lv: weighted_sum(w)(node(lv)), arrays)
    # every event is read exactly once in each direction, and a row's events
    # run from its first packed position to its last
    assert sorted(plan.forward) == sorted(plan.reverse) == list(range(events))
    ends = np.cumsum(lengths)
    assert np.array_equal(plan.first, ends - lengths)
    assert np.array_equal(plan.last, ends - 1)


ON_CONSTANTS = {
    "custom_op": lambda c: ad.custom_op((c,), np.sum(c.value), None),
    "add": lambda c: ad.add(c, c),
    "mul": lambda c: ad.mul(c, c),
    "matmul": lambda c: ad.matmul(c, c),
    "take": lambda c: ad.take(c, [1, 0, 1]),
    "concat": lambda c: ad.concat([c, c], axis=0),
    "reduce_sum": lambda c: reduce_sum(c, axis=0),
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
    tape.backward(reduce_sum(out))
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
    tape.backward(reduce_sum(used * used))
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
    tape.backward(reduce_sum(maximum(a, b)))
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
            h = ad.sigmoid(sub(lv["a"] * lv["b"], lv["b"]))
            h = tanh(h + exp(neg(lv["a"])))
            h = div(h, absolute(lv["b"]) + 1.0)
            return weighted_sum(w)(h)

        check_op(loss, {"a": a, "b": b})


def test_random_graph_gradients():
    prop_random_graph_gradients(25)


# ---------------------------------------------------------------------------
# the package holds only what the pipeline runs


def test_pipeline_reaches_every_exported_primitive(monkeypatch):
    # one training epoch and evaluate, at lambda 0 (two bidirectional layers
    # with dropout) and at lambda 0.3, call every function autodiff exports
    # and every special method of Var: an op only the tests use belongs in
    # the conftest oracle
    called = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    exported = [name for name in ad.__all__ if inspect.isfunction(getattr(ad, name))]
    operators = [
        name
        for name, member in vars(ad.Var).items()
        if name.startswith("__") and callable(member) and name != "__init__"
    ]
    for name in exported:
        monkeypatch.setattr(ad, name, counting(name, getattr(ad, name)))
    for name in ("take", "custom_op"):  # transport imports these by name
        monkeypatch.setattr(transport, name, counting(name, getattr(transport, name)))
    for name in operators:
        monkeypatch.setattr(ad.Var, name, counting(name, getattr(ad.Var, name)))

    encoder, train, valid, test = build_datasets(n_cases=300, seed=3)
    budget = TrainConfig(max_epochs=1, patience=1)
    for hyper, lam in (
        (Hyper(layers=2, hidden=4, bidirectional=True, dropout=0.2), 0.0),
        (Hyper(hidden=4, dropout=0.0), 0.3),
    ):
        ckpt = train_model(train, valid, encoder, hyper, CompositeLossConfig(lam=lam), 0, budget)
        evaluate(ckpt, test)
    assert sorted(set(exported + operators) - called) == []
