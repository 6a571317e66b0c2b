"""Acceptance gate: nine end-to-end criteria, one PASS/FAIL line each.

Each test prints its verdict through ``record_criterion`` (echoed in the
terminal summary). Training-backed criteria run at reduced desk-scale
budgets with fixed seeds; the asserted margins held with large headroom
when the budgets were calibrated, so they are trend checks, not races.
"""

from __future__ import annotations

import json
import time
import warnings

import numpy as np
import pytest
import scipy.stats

from conftest import build_datasets, pairwise_auc, record_criterion
from fairppm.cli import (
    CHECKPOINT_FILE,
    ENCODER_FILE,
    REPORT_FILE,
    SCORES_FILE,
    SUMMARY_FILE,
    TEST_SAMPLES,
    TRAIN_SAMPLES,
    VALID_SAMPLES,
    main,
)
from fairppm.metrics import GroupedScores, abcc, abpc, auc, delta_dp_b, delta_dp_c
from fairppm.nn import CompositeLossConfig, Hyper
from fairppm.train import TrainConfig, default_lambdas, evaluate, lambda_sweep, pareto_front, train_model
from fairppm.transport import exact_w1_1d

SWEEP_HYPER = Hyper(layers=1, hidden=16, bidirectional=False, batch=512, lr=0.01, dropout=0.0)
SWEEP_BUDGET = TrainConfig(max_epochs=10, patience=10)
SINGLE_BUDGET = TrainConfig(max_epochs=15, patience=15)


def test_c1_metrics_match_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst_abcc = worst_ddp = 0.0
    auc_mismatches = 0
    for trial in range(200):
        s0 = rng.random(int(rng.integers(1, 501)))
        s1 = rng.random(int(rng.integers(1, 501)))
        g = GroupedScores(s0, s1)
        worst_abcc = max(worst_abcc, abs(abcc(g) - exact_w1_1d(s0, s1)))
        worst_ddp = max(worst_ddp, abs(delta_dp_c(g) - abs(s0.mean() - s1.mean())))
        t = float(rng.random())
        direct = abs(float((s0 > t).mean()) - float((s1 > t).mean()))
        worst_ddp = max(worst_ddp, abs(delta_dp_b(g, t) - direct))

        scores = np.concatenate([s0, s1])
        if trial % 2:  # provoke ties half the time
            scores = np.round(scores, 2)
        labels = rng.integers(0, 2, scores.size)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if auc(scores, labels) != pairwise_auc(scores, labels):
            auc_mismatches += 1
    elapsed = time.perf_counter() - start
    record_criterion(
        "C1 metric-oracle equivalence",
        worst_abcc <= 2e-3 and worst_ddp <= 1e-12 and auc_mismatches == 0 and elapsed < 60,
        f"max |abcc-W1| {worst_abcc:.2e}, max ddp dev {worst_ddp:.2e}, "
        f"auc exact {200 - auc_mismatches}/200, {elapsed:.1f}s",
    )


def test_c2_threshold_free_metrics_expose_mirrored_groups():
    # both groups symmetric about 0.5 (equal means) with disjoint supports:
    # one centered, one at the extremes; jitter is mirrored within each pair
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    u = rng.uniform(-0.02, 0.02, 2500)
    v = rng.uniform(-0.02, 0.02, 2500)
    g = GroupedScores(
        np.concatenate([0.4 + u, 0.6 - u]),
        np.concatenate([0.1 + v, 0.9 - v]),
    )
    mean_gap = delta_dp_c(g)
    pdf_gap = abpc(g)
    cdf_gap = abcc(g)
    rates = [delta_dp_b(g, round(0.1 * i, 1)) for i in range(1, 10)]
    spread = max(rates) - min(rates)
    elapsed = time.perf_counter() - start
    record_criterion(
        "C2 mirrored disjoint groups",
        mean_gap <= 1e-3 and pdf_gap >= 1.8 and cdf_gap >= 0.1 and spread >= 0.5 and elapsed < 60,
        f"ddp_c {mean_gap:.1e}, abpc {pdf_gap:.3f}, abcc {cdf_gap:.3f}, "
        f"ddp_b spread {spread:.3f}, {elapsed:.1f}s",
    )


def test_c3_gradients_match_finite_differences():
    from test_nn import model_gradcheck

    start = time.perf_counter()
    hyper = Hyper(layers=1, hidden=4, bidirectional=False, batch=16, dropout=0.0)
    failures = []
    for lam in (0.0, 0.3, 1.0):
        try:
            model_gradcheck(lam, hyper, n=16, seed=2026)
        except AssertionError as exc:
            failures.append(f"lambda={lam}: {str(exc).splitlines()[0]}")
    elapsed = time.perf_counter() - start
    record_criterion(
        "C3 gradient correctness",
        not failures and elapsed < 120,
        failures[0] if failures else f"all parameter gradients within 1e-4 "
        f"for lambda in (0, 0.3, 1), {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_c4_exact_transport_term():
    # the training loss's transport node against the closed form, scipy and
    # one-sided finite differences
    from test_transport import forward_differences, node_with_grads

    start = time.perf_counter()
    rng = np.random.default_rng(40426)
    inexact = 0
    worst_scipy = worst_grad = 0.0
    for _ in range(20):
        a, b = rng.random(50), rng.random(50)
        value, grad_a, grad_b = node_with_grads(a, b)
        inexact += value != exact_w1_1d(a, b)
        worst_scipy = max(worst_scipy, abs(value - scipy.stats.wasserstein_distance(a, b)))
        fd_a, fd_b = forward_differences(a, b)
        worst_grad = max(worst_grad, np.abs(grad_a - fd_a).max(), np.abs(grad_b - fd_b).max())
    elapsed = time.perf_counter() - start
    record_criterion(
        "C4 exact transport term",
        inexact == 0 and worst_scipy <= 1e-12 and worst_grad <= 1e-6 and elapsed < 60,
        f"value equals exact_w1_1d on {20 - inexact}/20 pairs, max |value-scipy| "
        f"{worst_scipy:.1e}, max |grad-fd| {worst_grad:.1e}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_c5_lambda_trades_parity_gap_for_little_auc():
    start = time.perf_counter()
    encoder, train, valid, test = build_datasets("high", 2000, seed=0)
    points = lambda_sweep(
        train,
        valid,
        test,
        encoder,
        SWEEP_HYPER,
        lambdas=default_lambdas(),
        seed=0,
        cfg=SWEEP_BUDGET,
    )
    by_lam = {p.lam: p for p in points}
    base, mid, top = by_lam[0.0], by_lam[0.25], by_lam[0.5]
    front = pareto_front(points, "abcc")
    elapsed = time.perf_counter() - start
    record_criterion(
        "C5 lambda trade-off trend",
        top.abcc < 0.5 * base.abcc
        and top.auc <= base.auc + 0.02
        and len(front) >= 3
        and elapsed < 1200,
        f"abcc {base.abcc:.3f} -> {mid.abcc:.3f} -> {top.abcc:.3f}, "
        f"auc {base.auc:.3f} -> {top.auc:.3f}, front {len(front)} points, {elapsed:.0f}s",
    )


def test_c6_planted_bias_orders_trained_density_gap():
    start = time.perf_counter()
    gaps = {}
    for preset in ("high", "medium", "low"):
        encoder, train, valid, test = build_datasets(preset, 2000, seed=0)
        ckpt = train_model(
            train, valid, encoder, SWEEP_HYPER, CompositeLossConfig(lam=0.0), 0, SINGLE_BUDGET
        )
        gaps[preset] = evaluate(ckpt, test).abpc
    elapsed = time.perf_counter() - start
    record_criterion(
        "C6 bias-level monotonicity",
        gaps["high"] > gaps["medium"] > gaps["low"] and elapsed < 900,
        f"abpc high {gaps['high']:.3f} > medium {gaps['medium']:.3f} "
        f"> low {gaps['low']:.3f}, {elapsed:.0f}s",
    )


def test_c7_dropping_sensitive_feature_leaves_proxy_leakage():
    start = time.perf_counter()
    reports = {}
    for drop in (False, True):
        encoder, train, valid, test = build_datasets("high", 2000, seed=0, drop_sensitive=drop)
        ckpt = train_model(
            train, valid, encoder, SWEEP_HYPER, CompositeLossConfig(lam=0.0), 0, SINGLE_BUDGET
        )
        reports[drop] = evaluate(ckpt, test)
    kept, dropped = reports[False], reports[True]
    elapsed = time.perf_counter() - start
    record_criterion(
        "C7 sensitive-feature removal",
        dropped.ddp_c < kept.ddp_c
        and dropped.abcc < kept.abcc
        and dropped.ddp_c > 0
        and dropped.abcc > 0
        and elapsed < 600,
        f"ddp_c {kept.ddp_c:.3f} -> {dropped.ddp_c:.3f}, "
        f"abcc {kept.abcc:.3f} -> {dropped.abcc:.3f} (both still > 0), {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_c8_property_suite_at_scale():
    import test_autodiff
    import test_encoding
    import test_eventlog
    import test_metrics
    import test_train
    import test_transport

    props = [
        (test_autodiff.prop_random_graph_gradients, 100),
        (test_transport.prop_w1_matches_scipy, 200),
        (test_transport.prop_w1_node_swap, 100),
        (test_transport.prop_w1_node_translation_invariance, 100),
        (test_transport.prop_w1_node_permutation_equivariance, 100),
        (test_transport.prop_w1_node_gradcheck, 100),
        (test_metrics.prop_ddp_metrics_direct_arithmetic, 200),
        (test_metrics.prop_ecdf_monotone, 100),
        (test_metrics.prop_kde_nonnegative, 100),
        (test_metrics.prop_abcc_matches_exact_w1, 200),
        (test_metrics.prop_distribution_metrics_symmetric, 100),
        (test_metrics.prop_metric_bounds, 200),
        (test_metrics.prop_auc_matches_pairwise, 200),
        (test_metrics.prop_optimal_threshold_scan, 100),
        (test_eventlog.prop_prefix_invariants, 100),
        (test_eventlog.prop_split_partition, 100),
        (test_eventlog.prop_samples_jsonl_round_trip, 100),
        (test_encoding.prop_encoding_invariants, 100),
        (test_encoding.prop_subset_matches_packing, 100),
        (test_train.prop_select_best_monotone_invariant, 100),
        (test_train.prop_pareto_matches_brute_force, 200),
    ]
    start = time.perf_counter()
    failures = []
    with warnings.catch_warnings():
        # tiny random training sets legitimately yield constant channels
        warnings.simplefilter("ignore", UserWarning)
        for fn, cases in props:
            try:
                fn(cases, seed=9000 + cases)
            except AssertionError as exc:
                failures.append(f"{fn.__name__}: {str(exc).splitlines()[0]}")
    elapsed = time.perf_counter() - start
    record_criterion(
        "C8 invariant suite at scale",
        not failures and elapsed < 300,
        failures[0]
        if failures
        else f"{len(props)} properties x >=100 fresh cases each, {elapsed:.0f}s",
    )


def test_c9_pipeline_reruns_byte_identical(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "run"
    config = {
        "seed": 3,
        "out": str(out),
        "n_cases": 300,
        "bias_preset": "high",
        "log": str(out / "log.csv"),
        "schema": {
            "case:protected": "boolean",
            "case:proxy": "boolean",
            "resource": "categorical",
            "score": "numeric",
        },
        "target_activity": "offer",
        "hyper": {"layers": 1, "hidden": 8, "bidirectional": False,
                  "batch": 256, "lr": 0.01, "dropout": 0.0},
        "train": {"max_epochs": 4, "patience": 4},
        "lambda": 0.2,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    assert main(["synth", "--config", str(cfg_path)]) == 0
    tracked = (
        TRAIN_SAMPLES,
        VALID_SAMPLES,
        TEST_SAMPLES,
        ENCODER_FILE,
        SUMMARY_FILE,
        CHECKPOINT_FILE,
        REPORT_FILE,
        SCORES_FILE,
    )
    snapshots = []
    for _ in range(2):
        for command in ("ingest", "train", "evaluate"):
            assert main([command, "--config", str(cfg_path)]) == 0
        snapshots.append({name: (out / name).read_bytes() for name in tracked})
    differing = [name for name in tracked if snapshots[0][name] != snapshots[1][name]]
    elapsed = time.perf_counter() - start
    record_criterion(
        "C9 pipeline determinism",
        not differing and elapsed < 600,
        f"differing artifacts: {differing}" if differing
        else f"ingest/train/evaluate twice at lambda 0.2: "
        f"{len(tracked)} artifacts byte-identical, {elapsed:.0f}s",
    )
