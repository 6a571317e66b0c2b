"""Model forward/backward, losses, optimizer, scheduler, early stopping.

Oracles: a straight-line per-sample NumPy recomputation of the LSTM
equations (scipy.special.expit for the gates), analytic closed forms for
the losses and optimizer steps, and central finite differences for the
full composite-loss gradient.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.special

from conftest import (
    assert_grads_match,
    build_datasets,
    central_diff,
    random_packed,
    reduce_sum,
    toy_encoder,
)
from fairppm.autodiff import Tape
from fairppm.nn import (
    GATES,
    AdamWState,
    CompositeLossConfig,
    EarlyStopper,
    Hyper,
    ModelParams,
    PlateauScheduler,
    adamw_step,
    backward,
    bce_loss,
    composite_loss,
    forward,
    init_params,
    predict,
)
from fairppm.metrics import GroupedScores, abcc
from fairppm.transport import exact_w1_1d


def tiny_model(hyper: Hyper, seed: int = 0, vocab: int = 5, max_len: int = 4):
    return init_params(hyper, toy_encoder(vocab=vocab, max_len=max_len), seed)


# ---------------------------------------------------------------------------
# forward: closed-form and oracle checks


def test_zero_params_output_half(rng):
    params = tiny_model(Hyper(hidden=4, dropout=0.0))
    for name in params.arrays:
        params.arrays[name] = np.zeros_like(params.arrays[name])
    batch = random_packed(rng, 10)
    out = forward(params, batch, training=False).propensities.value
    assert (out == 0.5).all()


def test_output_strictly_inside_unit_interval(rng):
    for hyper in (Hyper(hidden=8, dropout=0.0), Hyper(hidden=4, bidirectional=True, dropout=0.0)):
        params = tiny_model(hyper, seed=3)
        out = forward(params, random_packed(rng, 40), training=False).propensities.value
        assert (out > 0.0).all() and (out < 1.0).all()


def gate_block(array, gate: str, hidden: int):
    """The ``gate`` block of a stacked LSTM array (last axis in GATES order)."""
    k = GATES.index(gate)
    return array[..., k * hidden : (k + 1) * hidden]


def oracle_propensity(params: ModelParams, batch, i: int) -> float:
    """Per-sample straight-line recomputation of the dropout-free forward."""
    hyper = params.hyper
    arrays = params.arrays
    hid = hyper.hidden
    length = int(batch.lengths[i])
    first = int(batch.lengths[:i].sum())

    seq = []
    for t in range(first, first + length):
        parts = [arrays[f"emb:{a}"][batch.cat[a][t]] for a in sorted(batch.cat)]
        parts += [np.array([batch.num[a][t]]) for a in sorted(batch.num)]
        seq.append(np.concatenate(parts))

    def run(inputs, layer, direction):
        w, u, b = (arrays[f"lstm{layer}:{direction}:{p}"] for p in "WUb")
        h = np.zeros(hyper.hidden)
        c = np.zeros(hyper.hidden)
        states = []
        for x in inputs:
            pre = {}
            for gate in GATES:
                pre[gate] = (
                    x @ gate_block(w, gate, hid) + h @ gate_block(u, gate, hid)
                    + gate_block(b, gate, hid)
                )
            c = scipy.special.expit(pre["f"]) * c + scipy.special.expit(pre["i"]) * np.tanh(
                pre["g"]
            )
            h = scipy.special.expit(pre["o"]) * np.tanh(c)
            states.append(h)
        return states

    last = None
    for layer in range(hyper.layers):
        fwd = run(seq, layer, "f")
        if hyper.bidirectional:
            bwd = run(seq[::-1], layer, "b")
            # position t pairs the forward state at t with the backward
            # state that has consumed the suffix starting at t
            seq = [np.concatenate([fwd[t], bwd[length - 1 - t]]) for t in range(length)]
            last = np.concatenate([fwd[-1], bwd[-1]])
        else:
            seq = fwd
            last = fwd[-1]
    logit = last @ arrays["dense:w"] + arrays["dense:b"][0]
    return float(scipy.special.expit(logit))


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_forward_matches_handrolled_lstm(layers, bidirectional):
    rng = np.random.default_rng(layers * 10 + bidirectional)
    hyper = Hyper(layers=layers, hidden=4, bidirectional=bidirectional, dropout=0.0)
    params = tiny_model(hyper, seed=17)
    batch = random_packed(rng, 12)
    out = forward(params, batch, training=False).propensities.value
    for i in range(len(batch)):
        assert out[i] == pytest.approx(oracle_propensity(params, batch, i), abs=1e-12)


def test_forward_commutes_with_row_permutation(rng):
    # rows run sorted by length in the event plan and are read back per row
    hyper = Hyper(layers=2, hidden=3, bidirectional=True, dropout=0.0)
    params = tiny_model(hyper, seed=6)
    batch = random_packed(rng, 16)
    perm = rng.permutation(len(batch))
    whole = forward(params, batch, training=False).propensities.value
    permuted = forward(params, batch.subset(perm), training=False).propensities.value
    assert np.array_equal(permuted, whole[perm])


def test_eval_passes_are_identical(rng):
    params = tiny_model(Hyper(hidden=6, dropout=0.4), seed=5)
    batch = random_packed(rng, 20)
    a = forward(params, batch, training=False).propensities.value
    b = forward(params, batch, training=False).propensities.value
    assert np.array_equal(a, b)


def test_training_dropout_needs_rng_and_perturbs(rng):
    params = tiny_model(Hyper(layers=2, hidden=6, dropout=0.4), seed=5)
    batch = random_packed(rng, 16)
    with pytest.raises(ValueError, match="rng"):
        forward(params, batch, training=True)
    eval_out = forward(params, batch, training=False).propensities.value
    train_out = forward(
        params, batch, training=True, rng=np.random.default_rng(0)
    ).propensities.value
    assert not np.array_equal(eval_out, train_out)


@pytest.mark.parametrize("training", [False, True])
def test_only_a_training_forward_records_vjps(training, rng):
    hyper = Hyper(layers=2, hidden=3, bidirectional=True, dropout=0.0)
    tape = forward(tiny_model(hyper), random_packed(rng, 6), training).propensities.tape
    if training:  # every recorded op, leaves aside, keeps its VJP
        assert all(node.vjp is not None for node in tape.nodes if node.parents)
    else:
        assert all(node.vjp is None for node in tape.nodes)


@pytest.mark.parametrize(
    "hyper, lam, nodes",
    [
        # the README quick-start model at a fairness weight: the fair_train step
        (Hyper(hidden=16, batch=512, lr=0.01, dropout=0.0), 0.3, 25),
        # a 2-layer bidirectional grid cell trained on BCE alone: the bce_train step
        (Hyper(layers=2, hidden=32, bidirectional=True, batch=128, dropout=0.2), 0.0, 36),
    ],
)
def test_training_step_tape_node_counts(hyper, lam, nodes):
    # leaves, one gather per embedding, one numeric constant, the concat, the
    # LSTM nodes, dropout, the last-event gathers, the head and the loss: the
    # synthetic-log encoder has two categorical and three numeric channels
    encoder, train, _, _ = build_datasets(n_cases=60, seed=3)
    assert (len(encoder.categorical_attrs), len(encoder.numeric_attrs)) == (2, 3)
    batch = train.subset(np.arange(40))
    assert set(batch.s.tolist()) == {0, 1}
    result = forward(init_params(hyper, encoder, 0), batch, True, np.random.default_rng(0))
    composite_loss(result.propensities, batch.y, batch.s, CompositeLossConfig(lam=lam))
    assert len(result.propensities.tape.nodes) == nodes


# a grid cell: two bidirectional layers, with dropout that eval ignores
GRID_CELL = Hyper(layers=2, hidden=32, bidirectional=True, batch=128, dropout=0.2)


def test_predict_chunking_matches_single_pass(rng):
    params = tiny_model(Hyper(hidden=5, dropout=0.0), seed=9)
    batch = random_packed(rng, 23)
    whole = forward(params, batch, training=False).propensities.value
    assert np.array_equal(predict(params, batch, chunk=4), whole)
    # a grid cell on rows the default chunk splits 512/512/76
    params = tiny_model(GRID_CELL, seed=9, max_len=6)
    batch = random_packed(rng, 1100, steps=6)
    whole = forward(params, batch, training=False).propensities.value
    assert np.array_equal(predict(params, batch), whole)
    for chunk in (512, len(batch)):
        assert np.array_equal(predict(params, batch, chunk=chunk), whole), chunk
    # BLAS rounds a one-row gate product, and the dense head's matrix-vector
    # product over a few rows, differently from the same rows in a larger
    # product, so tiny chunks agree to within an ulp or two
    for chunk in (1, 7):
        np.testing.assert_allclose(predict(params, batch, chunk=chunk), whole, rtol=1e-14, atol=0)


def test_predict_default_chunk_halves_peak_memory(rng):
    # each chunk's arrays are freed before the next chunk starts, so the
    # default peaks at a fraction of one pass over all 1441 rows
    params = tiny_model(GRID_CELL, seed=2, max_len=6)
    batch = random_packed(rng, 1441, steps=6)

    def peak(**kwargs):
        tracemalloc.start()
        try:
            predict(params, batch, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() <= peak(chunk=len(batch)) / 2


# ---------------------------------------------------------------------------
# init


def test_init_shapes_and_biases():
    encoder = toy_encoder(vocab=5, max_len=4)
    hyper = Hyper(layers=2, hidden=7, bidirectional=True, dropout=0.2)
    params = init_params(hyper, encoder, seed=1)
    a = params.arrays
    emb_dim = encoder.embedding_dims["activity"]
    assert a["emb:activity"].shape == (6, emb_dim)
    input_size = emb_dim + 1
    assert gate_block(a["lstm0:f:W"], "i", 7).shape == (input_size, 7)
    assert gate_block(a["lstm0:b:W"], "i", 7).shape == (input_size, 7)
    assert gate_block(a["lstm1:f:W"], "i", 7).shape == (14, 7)  # stacked on bi output
    assert gate_block(a["lstm0:f:U"], "g", 7).shape == (7, 7)
    assert a["lstm0:f:W"].shape == (input_size, 28)
    assert a["lstm0:f:U"].shape == (7, 28)
    assert a["dense:w"].shape == (14,)
    for layer in (0, 1):
        for d in ("f", "b"):
            assert a[f"lstm{layer}:{d}:b"].shape == (28,)
            assert (gate_block(a[f"lstm{layer}:{d}:b"], "f", 7) == 1.0).all()
            for gate in ("i", "g", "o"):
                assert (gate_block(a[f"lstm{layer}:{d}:b"], gate, 7) == 0.0).all()
    assert (a["dense:b"] == 0.0).all()


def test_init_stacks_the_per_gate_draws_in_order():
    # the stacked arrays hold the numbers of a per-gate draw (W then U for
    # each gate of each layer and direction, after the embeddings)
    encoder = toy_encoder(vocab=5, max_len=4)
    hyper = Hyper(layers=2, hidden=3, bidirectional=True)
    a = init_params(hyper, encoder, seed=11).arrays
    rng = np.random.default_rng(11)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    vocab = len(encoder.vocabularies["activity"])
    emb_dim = encoder.embedding_dims["activity"]
    assert np.array_equal(a["emb:activity"], uniform((vocab + 1, emb_dim), vocab + 1))
    feat = emb_dim + 1
    for layer in (0, 1):
        for d in ("f", "b"):
            for gate in GATES:
                w = uniform((feat, 3), feat)
                u = uniform((3, 3), 3)
                assert np.array_equal(gate_block(a[f"lstm{layer}:{d}:W"], gate, 3), w)
                assert np.array_equal(gate_block(a[f"lstm{layer}:{d}:U"], gate, 3), u)
        feat = 6
    assert np.array_equal(a["dense:w"], uniform((6,), 6))


def test_init_is_seeded():
    encoder = toy_encoder()
    h = Hyper(hidden=4)
    a = init_params(h, encoder, seed=2)
    b = init_params(h, encoder, seed=2)
    c = init_params(h, encoder, seed=3)
    assert all(np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays)
    assert any(not np.array_equal(a.arrays[k], c.arrays[k]) for k in a.arrays)


def test_hyper_validation():
    for bad in (
        dict(layers=0),
        dict(hidden=0),
        dict(batch=0),
        dict(lr=0.0),
        dict(dropout=1.0),
        dict(dropout=-0.1),
    ):
        with pytest.raises(ValueError):
            Hyper(**bad)


# ---------------------------------------------------------------------------
# losses


def var_of(values) -> tuple:
    tape = Tape()
    return tape, tape.leaf(np.asarray(values, dtype=np.float64))


def test_bce_at_half_is_ln2():
    _, p = var_of([0.5, 0.5, 0.5])
    assert bce_loss(p, [1.0, 0.0, 1.0]).value == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_perfect_predictions_tiny():
    _, p = var_of([1.0, 0.0])
    assert bce_loss(p, [1.0, 0.0]).value <= 1e-6


def test_bce_calculator_example():
    _, p = var_of([0.9, 0.2])
    expected = -(np.log(0.9) + np.log(0.8)) / 2.0
    assert bce_loss(p, [1.0, 0.0]).value == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.1643, abs=5e-5)


def test_bce_grad_interior_and_clamped():
    # interior entries pass the gradient through, clamped entries block it;
    # the clamp bound itself counts as inside
    p = np.array([0.3, 0.7, 0.0, 1.0, 1e-9, 0.55, 1e-7])
    labels = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    tape, var = var_of(p)
    tape.backward(bce_loss(var, labels))
    grad = tape.grad(var)
    assert np.array_equal(grad[2:5], np.zeros(3))
    assert grad[6] == -1.0 / 7 / 1e-7
    interior = [0, 1, 5]

    def loss_value() -> float:
        return float(bce_loss(var_of(p)[1], labels).value)

    fd = central_diff(loss_value, {"p": p}, step=1e-6)["p"]
    assert_grads_match({"p": grad[interior]}, {"p": fd[interior]})


def composite_fixture(lam: float, rng=None):
    rng = rng or np.random.default_rng(61)
    _, p = var_of(rng.uniform(0.05, 0.95, size=24))
    labels = rng.integers(0, 2, size=24).astype(np.float64)
    sensitive = np.array([0, 1] * 12)
    result = composite_loss(p, labels, sensitive, CompositeLossConfig(lam=lam))
    return result, p, labels, sensitive


def transport_term(p, sensitive) -> float:
    return exact_w1_1d(p.value[sensitive == 0], p.value[sensitive == 1])


def test_composite_lambda_zero_is_bce():
    result, p, labels, _ = composite_fixture(0.0)
    assert result.loss.value == bce_loss(p, labels).value
    assert not result.group_empty


def test_composite_lambda_one_is_transport_term():
    result, p, _, sensitive = composite_fixture(1.0)
    assert result.loss.value == transport_term(p, sensitive)


def test_composite_component_sum():
    result, p, _, sensitive = composite_fixture(0.5)
    assert result.loss.value == pytest.approx(
        0.5 * result.bce + 0.5 * transport_term(p, sensitive), abs=1e-15
    )


def test_composite_affine_in_lambda():
    base, p, _, sensitive = composite_fixture(0.5)
    for lam in (0.1, 0.25, 0.75, 0.9):
        result, *_ = composite_fixture(lam)
        expected = (1.0 - lam) * base.bce + lam * transport_term(p, sensitive)
        assert result.loss.value == pytest.approx(expected, abs=1e-12)


def test_composite_transport_term_is_the_reported_abcc():
    # the term trained on a model's batch is the metric evaluate reports
    # for the same scores
    encoder, train, _, _ = build_datasets(n_cases=60, seed=3)
    batch = train.subset(np.arange(40))
    hyper = Hyper(hidden=4, dropout=0.0)
    scores = forward(init_params(hyper, encoder, 0), batch, training=True).propensities
    result = composite_loss(scores, batch.y, batch.s, CompositeLossConfig(lam=1.0))
    assert result.loss.value == abcc(GroupedScores.from_scores(scores.value, batch.s))


def test_composite_single_group_batch_flagged(rng):
    _, p = var_of(rng.uniform(0.1, 0.9, size=8))
    labels = rng.integers(0, 2, size=8).astype(np.float64)
    result = composite_loss(p, labels, np.ones(8), CompositeLossConfig(lam=0.3))
    assert result.group_empty
    assert result.loss.value == pytest.approx(0.7 * result.bce, abs=1e-15)


def test_composite_config_validation():
    with pytest.raises(ValueError):
        CompositeLossConfig(lam=1.5)
    with pytest.raises(ValueError):
        CompositeLossConfig(lam=-0.1)


# ---------------------------------------------------------------------------
# backward


def test_backward_identity_and_square():
    tape = Tape()
    w = tape.leaf(np.array(3.0))
    grads = backward(tape, reduce_sum(w), {"w": w})
    assert grads["w"] == pytest.approx(1.0)
    tape = Tape()
    w = tape.leaf(np.array(3.0))
    grads = backward(tape, reduce_sum(w * w), {"w": w})
    assert grads["w"] == pytest.approx(6.0)


def test_backward_unused_parameter_gets_zeros():
    tape = Tape()
    used = tape.leaf(np.array([2.0]))
    unused = tape.leaf(np.array([[1.0, 2.0]]))
    grads = backward(tape, reduce_sum(used), {"used": used, "unused": unused})
    assert np.array_equal(grads["unused"], np.zeros((1, 2)))


def model_gradcheck(lam: float, hyper: Hyper, n: int, seed: int) -> None:
    """All-parameter central-difference check of the composite loss."""
    rng = np.random.default_rng(seed)
    params = tiny_model(hyper, seed=seed)
    batch = random_packed(rng, n)
    cfg = CompositeLossConfig(lam=lam)

    def loss_value() -> float:
        res = forward(params, batch, training=False)
        return float(composite_loss(res.propensities, batch.y, batch.s, cfg).loss.value)

    # dropout is 0, so a training forward gives the eval forward's values
    res = forward(params, batch, training=True)
    comp = composite_loss(res.propensities, batch.y, batch.s, cfg)
    ad_grads = backward(res.propensities.tape, comp.loss, res.leaves)
    fd_grads = central_diff(loss_value, params.arrays, step=1e-5)
    assert_grads_match(ad_grads, fd_grads)


def test_model_gradcheck_unidirectional():
    model_gradcheck(0.3, Hyper(hidden=3, dropout=0.0), n=8, seed=101)


@pytest.mark.slow
def test_model_gradcheck_stacked_bidirectional():
    model_gradcheck(0.5, Hyper(layers=2, hidden=2, bidirectional=True, dropout=0.0), n=6, seed=7)


# ---------------------------------------------------------------------------
# optimizer


def one_param(value) -> ModelParams:
    return ModelParams(Hyper(hidden=1, dropout=0.0), {"w": np.asarray(value, dtype=np.float64)})


def test_adamw_pure_decay():
    params = one_param([1.0, -2.0])
    adamw_step(params, {"w": np.zeros(2)}, AdamWState(), lr=0.001)
    expected = np.array([1.0, -2.0]) * (1.0 - 0.001 * 0.01)
    assert np.array_equal(params.arrays["w"], expected)


def test_adamw_first_step_is_signed_lr():
    params = one_param([0.0, 0.0])
    adamw_step(params, {"w": np.array([0.5, -3.0])}, AdamWState(), lr=0.001)
    assert params.arrays["w"] == pytest.approx([-0.001, 0.001], rel=1e-6)


def test_adamw_descends_quadratic():
    params = one_param(1.0)
    state = AdamWState()
    history = [1.0]
    for _ in range(10):
        adamw_step(params, {"w": 2.0 * params.arrays["w"]}, state, lr=0.05)
        history.append(abs(float(params.arrays["w"])))
    assert all(b < a for a, b in zip(history, history[1:]))


def test_adamw_state_tracks_steps(monkeypatch):
    # the moments are allocated on the first step and updated in place after it
    zeros_like, allocated = np.zeros_like, []
    monkeypatch.setattr(np, "zeros_like", lambda a: allocated.append(a) or zeros_like(a))
    params = one_param(1.0)
    state = AdamWState()
    adamw_step(params, {"w": np.asarray(1.0)}, state, lr=0.01)
    moments = state.m["w"], state.v["w"]
    for i in range(2):
        adamw_step(params, {"w": np.asarray(1.0)}, state, lr=0.01)
    assert state.step == 3 and len(allocated) == 2
    assert state.m["w"] is moments[0] and state.v["w"] is moments[1]


# ---------------------------------------------------------------------------
# scheduler / early stopping


def test_scheduler_improving_never_cuts():
    sched = PlateauScheduler(lr=0.001)
    val = 1.0
    for _ in range(40):
        assert sched.step(val) == 0.001
        val -= 0.01


def test_scheduler_flat_ten_epochs_cuts_once():
    sched = PlateauScheduler(lr=0.001)
    sched.step(1.0)
    for i in range(1, 10):
        assert sched.step(1.0) == 0.001, f"cut too early at stall {i}"
    assert sched.step(1.0) == pytest.approx(0.00075)


def test_scheduler_exact_margin_counts_as_stall():
    sched = PlateauScheduler(lr=0.001)
    sched.step(1.0)
    # each epoch improves on the best by exactly the margin: not enough
    for _ in range(9):
        assert sched.step(0.999) == 0.001
    assert sched.step(0.999) == pytest.approx(0.00075)


def test_scheduler_resets_on_reduction_and_improvement():
    sched = PlateauScheduler(lr=0.001)
    sched.step(1.0)
    for _ in range(10):
        sched.step(1.0)
    assert sched.stall == 0  # reset by the cut
    sched.step(0.5)  # real improvement
    assert sched.best == 0.5 and sched.stall == 0
    for _ in range(9):
        sched.step(0.5)
    assert sched.lr == pytest.approx(0.00075)  # no second cut yet


def test_early_stopper_flat_stops_after_patience():
    stopper = EarlyStopper(patience=20)
    params = one_param(1.0)
    epochs = 0
    while not stopper.update(1.0, params):
        epochs += 1
        assert epochs < 50
    assert stopper.epoch == 21
    assert stopper.best_epoch == 1


def test_early_stopper_snapshot_is_deep_and_best():
    stopper = EarlyStopper(patience=5)
    params = one_param(10.0)
    for val in (0.5, 0.2, 0.4, 0.9):
        stopper.update(val, params)
        params.arrays["w"] += 1.0  # keep training after the snapshot
    # best epoch was the second one, where w was 11.0
    assert stopper.best == 0.2
    assert stopper.best_epoch == 2
    assert float(stopper.best_params.arrays["w"]) == 11.0


def test_early_stopper_strict_improvement_only():
    stopper = EarlyStopper(patience=2)
    params = one_param(1.0)
    assert not stopper.update(1.0, params)
    assert not stopper.update(1.0, params)  # equal is not an improvement
    assert stopper.update(1.0, params)
    assert stopper.best_epoch == 1
