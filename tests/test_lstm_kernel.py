"""The LSTM node against the per-gate kernel it replaced, bit for bit.

``reference_lstm_layer`` is that kernel, copied verbatim: it evaluates each
gate as its own (m, H) block in ``GATES`` order and forms the four gate
adjoints one by one. The node now evaluates the gates in the order
(i, f, o, g), with one sigmoid pass over the three sigmoid gates and one
pass for their adjoints; the states and all four VJP outputs must keep
every bit. Both call ``autodiff.logistic``, whose bits the two-quotient
tests in test_autodiff pin.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairppm import autodiff as ad
from fairppm.autodiff import Tape, Var
from fairppm.nn import _EventPlan, _lstm_layer


def reference_lstm_layer(x: Var, w: Var, u: Var, b: Var, plan: _EventPlan, reverse: bool) -> Var:
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


def leaves(tape, rng, lengths, feat, hidden, needs_grad, scale):
    events = int(np.sum(lengths))
    shapes = ((events, feat), (feat, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,))
    return [tape.leaf(scale * rng.uniform(-1.0, 1.0, size=s), needs_grad) for s in shapes]


@settings(max_examples=150, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=9),
    hidden=st.sampled_from([1, 3, 16]),
    feat=st.integers(1, 5),
    reverse=st.booleans(),
    needs_grad=st.booleans(),
    scale=st.sampled_from([1.0, 30.0]),  # 30 saturates the gates
    seed=st.integers(0, 2**32 - 1),
)
def test_lstm_node_matches_the_per_gate_kernel_bit_for_bit(
    lengths, hidden, feat, reverse, needs_grad, scale, seed
):
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths)
    plan = _EventPlan(lengths)
    tape = Tape()
    inputs = leaves(tape, rng, lengths, feat, hidden, needs_grad, scale)
    new = tape.nodes[_lstm_layer(*inputs, plan, reverse).idx]
    old = tape.nodes[reference_lstm_layer(*inputs, plan, reverse).idx]
    assert new.value.tobytes() == old.value.tobytes()
    assert (new.vjp is None) == (old.vjp is None) == (not needs_grad)
    if needs_grad:
        g = rng.normal(size=new.value.shape)
        for ours, theirs in zip(new.vjp(g), old.vjp(g), strict=True):
            assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("needs_grad", [False, True])
def test_lstm_node_memory_per_step(needs_grad):
    # 64 full rows, 8 or 64 steps. Beyond the packed input and the states,
    # an eval forward works in a fixed number of (rows, H) blocks whatever
    # the step count: it keeps no array of a step, no copy of c_prev among
    # them. A training forward keeps six blocks a step for its VJP: the
    # i, f and o gates, g, the cell state c_prev is a view of, and tanh c.
    rows, feat, hidden = 64, 4, 16
    block = 8 * rows * hidden
    extra = {}
    for steps in (8, 64):
        lengths = np.full(rows, steps)
        events = rows * steps
        tape = Tape()
        inputs = leaves(tape, np.random.default_rng(steps), lengths, feat, hidden, needs_grad, 0.5)
        plan = _EventPlan(lengths)
        tracemalloc.start()
        try:
            _lstm_layer(*inputs, plan, reverse=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra[steps] = (peak - 8 * events * (hidden + feat)) / block
    growth = (extra[64] - extra[8]) / (64 - 8)
    if needs_grad:
        assert 5.5 < growth < 6.5, extra
    else:
        assert extra[64] < 32 and abs(growth) < 0.05, extra
