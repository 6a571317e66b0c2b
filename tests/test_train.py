"""Training orchestration: grid search, sweeps, Pareto fronts, evaluation.

Oracles: exhaustive dominance scans for the Pareto front, a linearly
separable toy problem for the training loop, and bit-level comparisons
for determinism and serialization round-trips.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_pareto, build_datasets, random_packed, toy_encoder
from fairppm.encoding import PackedDataset
from fairppm.eventlog import BiasSpec
from fairppm.metrics import (
    GroupedScores,
    UndefinedMetricError,
    abcc,
    abpc,
    auc,
    delta_dp_c,
    optimal_threshold,
)
from fairppm.nn import CompositeLossConfig, Hyper, composite_loss, forward, init_params, predict
from fairppm.records import from_fields
from fairppm.train import (
    IPM_BATCH,
    Checkpoint,
    GridCell,
    SweepPoint,
    TrainConfig,
    TrainingError,
    _run_tasks,
    _validation_loss,
    default_grid,
    default_lambdas,
    evaluate,
    grid_search,
    lambda_sweep,
    load_checkpoint,
    pareto_front,
    save_checkpoint,
    select_best,
    train_model,
)

FAST = TrainConfig(max_epochs=3, patience=2)


@pytest.fixture(scope="module")
def small_data():
    """A compact synthetic pipeline output shared by the loop tests."""
    encoder, train, valid, test = build_datasets(n_cases=120, seed=4)
    return encoder, train, valid, test


def separable_packed(n: int = 80, seed: int = 0) -> PackedDataset:
    """Binary outcome perfectly determined by the numeric channel."""
    rng = np.random.default_rng(seed)
    steps = 2
    y = (np.arange(n) % 2).astype(np.float64)
    base = np.where(y[:, None] == 1.0, 0.8, 0.2)
    num = np.clip(base + rng.normal(0, 0.02, size=(n, steps)), 0.0, 1.0)
    s = rng.integers(0, 2, size=n).astype(np.int64)
    s[:2] = [0, 1]
    return PackedDataset(
        cat={"activity": np.ones(n * steps, dtype=np.int64)},
        num={"score": num.ravel()},
        lengths=np.full(n, steps, dtype=np.int64),
        y=y,
        s=s,
    )


def make_point(lam, auc_value, fair, key="abpc", **kw):
    fields = dict(
        lam=lam,
        auc=auc_value,
        abpc=fair if key == "abpc" else 0.0,
        abcc=fair if key == "abcc" else 0.0,
        seed=0,
    )
    fields.update(kw)
    return SweepPoint(**fields)


# ---------------------------------------------------------------------------
# train_model


def test_lambda_zero_keeps_hyper_batch(small_data):
    encoder, train, valid, _ = small_data
    hyper = Hyper(hidden=4, batch=128, dropout=0.0)
    ckpt = train_model(train, valid, encoder, hyper, CompositeLossConfig(lam=0.0), 0, FAST)
    assert ckpt.effective_batch == 128


def test_lambda_positive_forces_batch_512(small_data):
    encoder, train, valid, _ = small_data
    hyper = Hyper(hidden=4, batch=128, dropout=0.0)
    ckpt = train_model(train, valid, encoder, hyper, CompositeLossConfig(lam=0.3), 0, FAST)
    assert ckpt.effective_batch == IPM_BATCH == 512


def test_separable_toy_reaches_perfect_ranking():
    data = separable_packed()
    encoder = toy_encoder(vocab=1, max_len=2)
    hyper = Hyper(hidden=4, batch=32, lr=0.05, dropout=0.0)
    ckpt = train_model(
        data, data, encoder, hyper, CompositeLossConfig(lam=0.0), 0, TrainConfig(max_epochs=40)
    )
    assert auc(predict(ckpt.params, data), data.y) == 1.0


def test_checkpoint_bookkeeping(small_data):
    encoder, train, valid, _ = small_data
    ckpt = train_model(
        train, valid, encoder, Hyper(hidden=4, dropout=0.2), CompositeLossConfig(), 1, FAST
    )
    assert 1 <= ckpt.best_epoch <= ckpt.epochs_run <= FAST.max_epochs
    # tuned once, on the snapshot's validation scores
    valid_scores = predict(ckpt.params, valid)
    assert ckpt.valid_auc == auc(valid_scores, valid.y)
    assert ckpt.opt_threshold == optimal_threshold(valid_scores, valid.y)
    assert math.isfinite(ckpt.best_val_loss)
    assert ckpt.seed == 1


def test_epoch_cap_ends_a_run_that_patience_cannot_stop(small_data):
    # with patience >= max_epochs early stopping never fires, so the run
    # ends at the training loop's bound
    encoder, train, valid, _ = small_data
    cfg = TrainConfig(max_epochs=3, patience=3)
    ckpt = train_model(train, valid, encoder, Hyper(hidden=4), CompositeLossConfig(), 0, cfg)
    assert ckpt.epochs_run == cfg.max_epochs


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_validation_loss_is_the_mean_of_the_batch_losses(lam, small_data):
    encoder, _, valid, _ = small_data
    params = init_params(Hyper(layers=2, hidden=3, bidirectional=True), encoder, 5)
    cfg = CompositeLossConfig(lam=lam)
    batch = 16
    losses = []
    for start in range(0, len(valid), batch):
        part = valid.subset(np.arange(start, min(start + batch, len(valid))))
        scores = forward(params, part, training=False).propensities
        losses.append(float(composite_loss(scores, part.y, part.s, cfg).loss.value))
    assert len(losses) > 1
    assert _validation_loss(params, valid, cfg, batch) == float(np.mean(losses))


def test_train_model_rejects_empty_sets(small_data):
    encoder, train, valid, _ = small_data
    empty = train.subset(np.array([], dtype=np.int64))
    with pytest.raises(TrainingError):
        train_model(empty, valid, encoder, Hyper(hidden=4), CompositeLossConfig(), 0, FAST)
    with pytest.raises(TrainingError):
        train_model(train, empty, encoder, Hyper(hidden=4), CompositeLossConfig(), 0, FAST)


def test_train_model_needs_both_outcomes_in_validation(small_data):
    encoder, train, valid, _ = small_data
    negatives = valid.subset(np.flatnonzero(valid.y == 0))
    with pytest.raises(UndefinedMetricError, match="both classes"):
        train_model(train, negatives, encoder, Hyper(hidden=4), CompositeLossConfig(), 0, FAST)


def test_train_model_refuses_a_non_finite_validation_loss(small_data, monkeypatch):
    encoder, train, valid, _ = small_data
    monkeypatch.setattr(
        "fairppm.train.predict", lambda params, data, chunk=None: np.full(len(data), np.nan)
    )
    with pytest.raises(TrainingError, match="validation loss is nan at epoch 1"):
        train_model(train, valid, encoder, Hyper(hidden=4), CompositeLossConfig(), 0, FAST)


def test_training_is_deterministic(small_data):
    encoder, train, valid, _ = small_data
    hyper = Hyper(hidden=3, dropout=0.2)
    cfg = CompositeLossConfig(lam=0.1)
    a = train_model(train, valid, encoder, hyper, cfg, 42, FAST)
    b = train_model(train, valid, encoder, hyper, cfg, 42, FAST)
    assert a.best_val_loss == b.best_val_loss
    assert a.best_epoch == b.best_epoch
    assert a.epochs_run == b.epochs_run
    assert all(np.array_equal(a.params.arrays[k], b.params.arrays[k]) for k in a.params.arrays)
    assert (a.valid_auc, a.opt_threshold) == (b.valid_auc, b.opt_threshold)
    c = train_model(train, valid, encoder, hyper, cfg, 43, FAST)
    assert any(
        not np.array_equal(a.params.arrays[k], c.params.arrays[k]) for k in a.params.arrays
    )


# ---------------------------------------------------------------------------
# grid search


def test_default_grid_is_full_cartesian_product():
    grid = default_grid()
    assert len(grid) == 144
    assert len(set(grid)) == 144
    assert {h.hidden for h in grid} == {16, 32, 64}
    assert {h.batch for h in grid} == {128, 256, 512}
    assert {h.lr for h in grid} == {1e-4, 1e-3}
    assert {h.dropout for h in grid} == {0.2, 0.4}
    # nested-loop order (layers outermost, dropout innermost) over ascending axes
    order = ("layers", "bidirectional", "hidden", "batch", "lr", "dropout")
    assert grid == sorted(grid, key=lambda h: [getattr(h, name) for name in order])


def test_default_grid_axis_overrides():
    grid = default_grid({"layers": [2], "hidden": [8, 4]})
    assert len(grid) == 48
    assert {h.layers for h in grid} == {2}
    assert [h.hidden for h in grid[:24]] == [8] * 12 + [4] * 12  # given order kept
    with pytest.raises(ValueError, match="'hiden'"):
        default_grid({"hiden": [8]})
    with pytest.raises(ValueError, match="layers must be >= 1"):
        default_grid({"layers": [0]})


def test_from_fields_casts_to_default_types_and_rejects_unknown_keys():
    assert from_fields(Hyper, {}) == Hyper()
    hyper = from_fields(Hyper, {"layers": 2, "lr": 1, "bidirectional": True})
    assert hyper == Hyper(layers=2, lr=1.0, bidirectional=True)
    assert type(hyper.layers) is int and type(hyper.lr) is float
    assert from_fields(BiasSpec, {"activities": ["a", "b", "offer"]}).activities == (
        "a", "b", "offer",
    )
    # a JSON value must already have its field's type: no truncation, no truthiness
    for raw, kind in (
        ({"layers": 2.0}, "int"),
        ({"hidden": 16.9}, "int"),
        ({"layers": True}, "int"),
        ({"bidirectional": 1}, "bool"),
        ({"bidirectional": "false"}, "bool"),
        ({"lr": True}, "float"),
        ({"lr": "0.1"}, "float"),
    ):
        with pytest.raises(ValueError, match=f"does not cast to {kind}"):
            from_fields(Hyper, raw)
    with pytest.raises(ValueError, match="'activities' value 'abc' does not cast to tuple"):
        from_fields(BiasSpec, {"activities": "abc"})
    with pytest.raises(ValueError, match=r"unknown key 'hiden' \(valid keys: layers, hidden, "):
        from_fields(Hyper, {"hiden": 2})
    with pytest.raises(ValueError, match="'hidden' value 'x' does not cast to int"):
        from_fields(Hyper, {"hidden": "x"})
    # only finite numbers read as floats: NaN, the infinities, and numbers past the float range
    for text in ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400):
        with pytest.raises(ValueError, match="'lr' value .* is not a finite number"):
            from_fields(Hyper, {"lr": json.loads(text)})
    with pytest.raises(ValueError, match="expected an object"):
        from_fields(Hyper, [1])
    with pytest.raises(ValueError, match="patience must be >= 1"):
        from_fields(TrainConfig, {"patience": 0})


def test_select_best_argmax_and_single():
    h1 = Hyper(hidden=16, dropout=0.0)
    h2 = Hyper(hidden=32, dropout=0.0)
    assert select_best([(h1, 0.6), (h2, 0.7)]) == h2
    assert select_best([(h1, 0.4)]) == h1
    with pytest.raises(TrainingError):
        select_best([])


def test_select_best_prefers_smaller_on_ties():
    small = Hyper(layers=1, hidden=16, lr=1e-4, dropout=0.0)
    wide = Hyper(layers=1, hidden=64, lr=1e-4, dropout=0.0)
    deep = Hyper(layers=2, hidden=16, lr=1e-4, dropout=0.0)
    hot = Hyper(layers=1, hidden=16, lr=1e-3, dropout=0.0)
    assert select_best([(wide, 0.7), (small, 0.7), (deep, 0.7), (hot, 0.7)]) == small
    # layers dominate hidden in the tie-break
    assert select_best([(deep, 0.7), (wide, 0.7)]) == wide


def prop_select_best_monotone_invariant(cases: int, seed: int = 89) -> None:
    rng = np.random.default_rng(seed)
    grid = default_grid()
    transforms = [lambda x: 2.0 * x - 0.1, lambda x: x**3, lambda x: np.tanh(3.0 * x)]
    for _ in range(cases):
        cells = [
            (grid[int(i)], float(rng.random()))
            for i in rng.choice(len(grid), size=int(rng.integers(1, 20)), replace=False)
        ]
        base = select_best(cells)
        for f in transforms:
            assert select_best([(h, f(v)) for h, v in cells]) == base


def test_select_best_monotone_invariant():
    prop_select_best_monotone_invariant(100)


def test_grid_search_trains_and_records_cells(small_data):
    encoder, train, valid, _ = small_data
    grid = [Hyper(hidden=3, dropout=0.0), Hyper(hidden=4, dropout=0.0)]
    result = grid_search(train, valid, encoder, seed=0, grid=grid, cfg=FAST)
    assert result.best in grid
    assert len(result.cells) == 2
    for cell in result.cells:
        assert cell.error is None
        assert 0.0 <= cell.valid_auc <= 1.0
    # selection agrees with the recorded AUCs
    assert result.best == select_best([(c.hyper, c.valid_auc) for c in result.cells])


def test_grid_search_all_failures_raise(small_data):
    encoder, train, _, _ = small_data
    empty = train.subset(np.array([], dtype=np.int64))
    message = "every grid cell failed to train; the first: TrainingError: training and"
    with pytest.raises(TrainingError, match=message):
        grid_search(train, empty, encoder, seed=0, grid=[Hyper(hidden=3)], cfg=FAST)


def test_run_tasks_starts_no_more_workers_than_tasks(monkeypatch):
    """A process pool starts all its workers at the first submit, so ``jobs``
    is capped at the task count. The pool is a stand-in: no process starts."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    assert _run_tasks(abs, [-1, -2], jobs=5000) == [1, 2]
    assert _run_tasks(abs, [-1, -2, -3], jobs=2) == [1, 2, 3]
    assert sizes == [2, 2]


# ---------------------------------------------------------------------------
# lambda sweep


def test_default_lambdas_eleven_points():
    lams = default_lambdas()
    assert lams == [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]


def test_sweep_degenerate_single_lambda_matches_direct_training(small_data):
    encoder, train, valid, test = small_data
    hyper = Hyper(hidden=4, dropout=0.0)
    points = lambda_sweep(train, valid, test, encoder, hyper, lambdas=[0.0], seed=3, cfg=FAST)
    assert len(points) == 1
    point = points[0]
    ckpt = train_model(train, valid, encoder, hyper, CompositeLossConfig(lam=0.0), 3, FAST)
    report = evaluate(ckpt, test)
    assert (point.auc, point.abpc, point.abcc) == (report.auc, report.abpc, report.abcc)
    scores = predict(ckpt.params, test)
    grouped = GroupedScores.from_scores(scores, test.s)
    assert point.auc == auc(scores, test.y)
    assert point.abpc == abpc(grouped)
    assert point.abcc == abcc(grouped)
    assert not point.failed


def test_sweep_records_failures_and_continues(small_data, monkeypatch):
    encoder, train, valid, test = small_data
    real = train_model

    def sabotaged(train_, valid_, encoder_, hyper_, loss_cfg, seed_, cfg=None):
        if loss_cfg.lam == 0.05:
            raise RuntimeError("synthetic blowup")
        return real(train_, valid_, encoder_, hyper_, loss_cfg, seed_, cfg)

    monkeypatch.setattr("fairppm.train.train_model", sabotaged)
    points = lambda_sweep(
        train,
        valid,
        test,
        encoder,
        Hyper(hidden=3, dropout=0.0),
        lambdas=[0.05, 0.0],
        seed=0,
        cfg=FAST,
    )
    assert [p.lam for p in points] == [0.0, 0.05]  # lambda order regardless of input order
    ok, bad = points
    assert not ok.failed
    assert bad.failed and "synthetic blowup" in bad.error
    assert math.isnan(bad.auc)


def test_sweep_validates_lambdas(small_data, monkeypatch):
    encoder, train, valid, test = small_data

    def never(*args, **kwargs):
        raise AssertionError("a bad lambda list must fail before any training")

    monkeypatch.setattr("fairppm.train.train_model", never)
    for lambdas, message in (
        ([], "lists no lambda"),
        ([0.2, 1.5], "lambda 1.5 is outside"),
        ([0.3, 0.3], "lists lambda 0.3 twice"),
    ):
        with pytest.raises(ValueError, match=message):
            lambda_sweep(train, valid, test, encoder, Hyper(), lambdas=lambdas)


def test_sweep_is_deterministic(small_data):
    encoder, train, valid, test = small_data
    hyper = Hyper(hidden=3, dropout=0.2)
    kw = dict(lambdas=[0.0, 0.1], seed=9, cfg=FAST)
    a = lambda_sweep(train, valid, test, encoder, hyper, **kw)
    b = lambda_sweep(train, valid, test, encoder, hyper, **kw)
    assert a == b


# ---------------------------------------------------------------------------
# pareto front


def test_pareto_spec_example():
    pts = [
        make_point(0.0, 0.8, 1.0),
        make_point(0.1, 0.7, 0.5),
        make_point(0.2, 0.75, 1.2),
    ]
    front = pareto_front(pts, "abpc")
    assert [(p.auc, p.abpc) for p in front] == [(0.8, 1.0), (0.7, 0.5)]


def test_pareto_single_point():
    pts = [make_point(0.3, 0.6, 0.4)]
    front = pareto_front(pts, "abpc")
    assert front == (pts[0],)


def test_pareto_identical_points_keep_lowest_lambda():
    pts = [make_point(lam, 0.6, 0.4) for lam in (0.3, 0.1, 0.5)]
    front = pareto_front(pts, "abpc")
    assert len(front) == 1
    assert front[0].lam == 0.1


def test_pareto_excludes_failed_points():
    pts = [
        make_point(0.0, 0.9, 0.1, error="boom", auc=float("nan"), abpc=float("nan")),
        make_point(0.1, 0.5, 0.5),
    ]
    front = pareto_front(pts, "abpc")
    assert [p.lam for p in front] == [0.1]
    all_failed = [make_point(0.0, float("nan"), float("nan"), error="x")]
    assert pareto_front(all_failed, "abpc") == ()


def test_pareto_input_validation():
    with pytest.raises(ValueError):
        pareto_front([], "abpc")
    with pytest.raises(ValueError):
        pareto_front([make_point(0.0, 0.5, 0.5)], "auc")


def prop_pareto_matches_brute_force(cases: int, seed: int = 97) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(1, 40))
        key = "abpc" if rng.integers(0, 2) else "abcc"
        # quantized values provoke duplicates and dominance ties
        pts = [
            make_point(
                round(float(rng.integers(0, 11)) * 0.05, 2),
                float(rng.integers(0, 5)) / 4.0,
                float(rng.integers(0, 5)) / 4.0,
                key=key,
            )
            for _ in range(n)
        ]
        ours = pareto_front(pts, key)
        ref = brute_force_pareto(pts, key)
        assert list(ours) == ref
        # no front point is dominated by any swept point
        for p in ours:
            for q in pts:
                f_p, f_q = getattr(p, key), getattr(q, key)
                assert not (q.auc >= p.auc and f_q <= f_p and (q.auc > p.auc or f_q < f_p))


def test_pareto_matches_brute_force():
    prop_pareto_matches_brute_force(200)


# few distinct values, so that AUCs, fairness values and whole metric pairs tie
# across lambdas; a point fails through its error or through a NaN AUC
SWEPT_POINTS = st.lists(
    st.builds(
        SweepPoint,
        lam=st.sampled_from(default_lambdas()),
        auc=st.sampled_from([0.6, 0.7, 0.8, float("nan")]),
        abpc=st.sampled_from([0.1, 0.2, 0.3]),
        abcc=st.sampled_from([0.1, 0.2, 0.3]),
        seed=st.just(0),
        error=st.sampled_from([None, None, None, "RuntimeError: boom"]),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(points=SWEPT_POINTS, key=st.sampled_from(["abpc", "abcc"]))
def test_pareto_matches_the_pairwise_definition(points, key):
    assert list(pareto_front(points, key)) == brute_force_pareto(points, key)


def test_pareto_brute_force_at_scale(rng):
    pts = [
        make_point(
            round(float(i % 11) * 0.05, 2),
            float(rng.integers(0, 30)) / 29.0,
            float(rng.integers(0, 30)) / 29.0,
        )
        for i in range(1000)
    ]
    assert list(pareto_front(pts, "abpc")) == brute_force_pareto(pts, "abpc")


# ---------------------------------------------------------------------------
# evaluate


def constant_checkpoint(seed: int = 0) -> Checkpoint:
    """A model that scores every prefix 0.5, with the validation AUC and
    threshold that tuning on such scores gives (checked below)."""
    params = init_params(Hyper(hidden=4, dropout=0.0), toy_encoder(), seed)
    for k in params.arrays:
        params.arrays[k] = np.zeros_like(params.arrays[k])
    return Checkpoint(
        params=params,
        seed=seed,
        loss_cfg=CompositeLossConfig(),
        train_cfg=TrainConfig(),
        effective_batch=512,
        best_val_loss=float(np.log(2.0)),
        best_epoch=1,
        epochs_run=1,
        valid_auc=0.5,
        opt_threshold=0.0,
        group_empty_batches=0,
    )


def test_evaluate_constant_classifier(rng):
    ckpt = constant_checkpoint()
    valid = random_packed(rng, 20)
    scores = predict(ckpt.params, valid)
    assert (scores == 0.5).all()
    assert (auc(scores, valid.y), optimal_threshold(scores, valid.y)) == (0.5, 0.0)
    test = random_packed(rng, 50)
    report = evaluate(ckpt, test)
    assert report.auc == 0.5
    # group sizes differ, so the KDE bandwidths differ microscopically
    assert report.abpc <= 1e-12
    assert report.abcc == 0.0
    assert report.ddp_c == 0.0
    assert report.ddp_b_0_5 == 0.0


def test_evaluate_twice_is_identical(small_data):
    encoder, train, valid, test = small_data
    ckpt = train_model(
        train, valid, encoder, Hyper(hidden=4, dropout=0.0), CompositeLossConfig(), 0, FAST
    )
    assert evaluate(ckpt, test) == evaluate(ckpt, test)


def test_evaluate_reports_respect_w1_bound(small_data):
    encoder, train, valid, test = small_data
    ckpt = train_model(
        train, valid, encoder, Hyper(hidden=4, dropout=0.0), CompositeLossConfig(), 0, FAST
    )
    report = evaluate(ckpt, test)
    assert report.ddp_c <= report.abcc + 2e-3
    assert 0.0 <= report.opt_threshold <= 1.0


def test_evaluate_missing_group_names_metric(small_data):
    encoder, train, valid, test = small_data
    ckpt = train_model(
        train, valid, encoder, Hyper(hidden=4, dropout=0.0), CompositeLossConfig(), 0, FAST
    )
    one_group = test.subset(np.flatnonzero(test.s == 0))
    with pytest.raises(UndefinedMetricError):
        evaluate(ckpt, one_group)


# ---------------------------------------------------------------------------
# serialization


def test_checkpoint_round_trip(tmp_path, small_data):
    encoder, train, valid, _ = small_data
    cfg = CompositeLossConfig(lam=0.2)
    ckpt = train_model(train, valid, encoder, Hyper(hidden=3, dropout=0.2), cfg, 5, FAST)
    ckpt.encoder_ref = {"path": "encoder.json", "sha256": "f" * 64}
    path = tmp_path / "model.json"
    save_checkpoint(ckpt, path, provenance={"config_hash": "deadbeef0123"})
    loaded = load_checkpoint(path)
    for f in dataclasses.fields(Checkpoint):
        before, after = getattr(ckpt, f.name), getattr(loaded, f.name)
        if f.name == "params":
            assert after.hyper == before.hyper
            assert set(after.arrays) == set(before.arrays)
            for k in before.arrays:
                assert after.arrays[k].dtype == np.float64
                assert np.array_equal(after.arrays[k], before.arrays[k])
        else:
            assert after == before and type(after) is type(before), f.name


def test_checkpoint_version_check(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 999}\n')
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)
