"""Fairness and classification metrics.

Oracles: direct arithmetic for demographic-parity gaps, the exact 1-D
Wasserstein distance for the CDF-gap area, O(n^2) pairwise counting for
AUC, and exhaustive threshold scans for F1/accuracy selection.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import brute_force_f1, pairwise_auc
from fairppm.metrics import (
    BANDWIDTH_FLOOR,
    GRID_POINTS,
    EvalReport,
    GroupedScores,
    UndefinedMetricError,
    abcc,
    abpc,
    auc,
    delta_dp_b,
    delta_dp_c,
    density_curve,
    ecdf,
    eval_report,
    f1_acc_at,
    kde_pdf,
    make_grid,
    optimal_threshold,
    trapezoid,
)
from fairppm.records import from_fields
from fairppm.transport import exact_w1_1d


def grouped(s0, s1) -> GroupedScores:
    return GroupedScores(np.asarray(s0, dtype=np.float64), np.asarray(s1, dtype=np.float64))


def random_grouped(rng: np.random.Generator, max_n: int = 500) -> GroupedScores:
    n0 = int(rng.integers(1, max_n + 1))
    n1 = int(rng.integers(1, max_n + 1))
    return grouped(rng.random(n0), rng.random(n1))


# ---------------------------------------------------------------------------
# grid


def test_grid_shape():
    g = make_grid()
    assert g.shape == (GRID_POINTS,)
    assert g[0] == 0.0 and g[-1] == 1.0
    assert np.allclose(np.diff(g), 1.0 / (GRID_POINTS - 1))


# ---------------------------------------------------------------------------
# demographic parity


def test_ddp_c_example():
    assert delta_dp_c(grouped([0.2, 0.4], [0.6])) == pytest.approx(0.3, abs=1e-15)


def test_ddp_b_examples():
    g = grouped([0.2, 0.8], [0.9])
    assert delta_dp_b(g, 0.5) == pytest.approx(0.5, abs=1e-15)
    # strict >: nothing exceeds 1.0, both rates are 0
    assert delta_dp_b(g, 1.0) == 0.0


def test_ddp_b_threshold_strictness():
    # scores equal to the threshold do not count as positive
    g = grouped([0.5, 0.5], [0.5, 0.6])
    assert delta_dp_b(g, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_group_metrics_reject_empty_group():
    with pytest.raises(UndefinedMetricError, match="S1"):
        delta_dp_c(grouped([0.2], []))
    with pytest.raises(UndefinedMetricError, match="S0"):
        abpc(grouped([], [0.2]))
    with pytest.raises(UndefinedMetricError):
        abcc(grouped([], []))
    with pytest.raises(UndefinedMetricError):
        delta_dp_b(grouped([], [0.1]), 0.5)


def test_grouped_scores_from_arrays():
    scores = np.array([0.1, 0.9, 0.4])
    sensitive = np.array([0.0, 1.0, 0.0])
    g = GroupedScores.from_scores(scores, sensitive)
    assert g.s0.tolist() == [0.1, 0.4]
    assert g.s1.tolist() == [0.9]


def test_grouped_scores_reject_nan():
    # NaN compares False with both bounds, so a plain range check lets it through
    with pytest.raises(ValueError, match="s0 contains NaN"):
        GroupedScores([np.nan], [0.5])


def prop_ddp_metrics_direct_arithmetic(cases: int, seed: int = 5) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        g = random_grouped(rng, max_n=200)
        expected_c = abs(g.s0.mean() - g.s1.mean())
        assert abs(delta_dp_c(g) - expected_c) <= 1e-12
        t = float(rng.random())
        expected_b = abs((g.s0 > t).mean() - (g.s1 > t).mean())
        assert abs(delta_dp_b(g, t) - expected_b) <= 1e-12


def test_ddp_direct_arithmetic():
    prop_ddp_metrics_direct_arithmetic(100)


# ---------------------------------------------------------------------------
# ecdf / trapezoid


def test_ecdf_single_point():
    grid = make_grid()
    f = ecdf(np.array([0.5]))
    assert f[grid < 0.5].max() == 0.0
    assert f[grid >= 0.5].min() == 1.0


def test_ecdf_quartiles():
    grid = make_grid()
    f = ecdf(np.array([0.2, 0.4, 0.6, 0.8]))
    i = np.searchsorted(grid, 0.5)
    assert f[i] == pytest.approx(0.5, abs=1e-15)


def prop_ecdf_monotone(cases: int, seed: int = 17) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        f = ecdf(rng.random(int(rng.integers(1, 300))))
        assert (np.diff(f) >= 0).all()
        assert f[0] >= 0.0 and f[-1] == 1.0


def test_ecdf_monotone():
    prop_ecdf_monotone(100)


def test_trapezoid_linear_exact():
    grid = make_grid()
    assert trapezoid(grid, grid) == pytest.approx(0.5, abs=1e-12)


def test_trapezoid_constant():
    grid = make_grid()
    assert trapezoid(np.ones_like(grid), grid) == pytest.approx(1.0, abs=1e-12)


def test_trapezoid_quadratic():
    grid = make_grid()
    assert trapezoid(grid**2, grid) == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_trapezoid_rejects_bad_grid():
    with pytest.raises(ValueError):
        trapezoid(np.ones(3), np.array([0.0, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# kde


def test_kde_symmetric_about_sample_mean():
    grid = make_grid()
    pdf = kde_pdf(np.array([0.4, 0.6]))
    # the density of a symmetric sample mirrors about 0.5 on a symmetric grid
    assert np.allclose(pdf, pdf[::-1], atol=1e-12)
    # bimodal at this separation: modes sit just inside the sample points
    assert abs(grid[int(np.argmax(pdf))] - 0.4) <= 0.01
    assert pdf[np.searchsorted(grid, 0.5)] < pdf.max()


def test_kde_mass_near_one():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.3, 0.7, size=400)
    grid = make_grid()
    mass = trapezoid(kde_pdf(x), grid)
    assert abs(mass - 1.0) <= 0.01


def test_kde_bandwidth_floor_on_constant_sample():
    pdf = kde_pdf(np.full(50, 0.5))
    assert np.isfinite(pdf).all()
    # sigma floors at 1e-3, so the peak is that of a narrow gaussian
    assert pdf.max() == pytest.approx(1.0 / (BANDWIDTH_FLOOR * np.sqrt(2 * np.pi)), rel=1e-6)


def test_kde_rejects_scores_off_its_grid():
    # the samples are binned onto the [0,1] grid, so a score off it has no bin
    for bad in ([0.5, 1.5], [-0.1], [0.2, np.nan], []):
        with pytest.raises(ValueError):
            kde_pdf(np.array(bad))


def prop_kde_nonnegative(cases: int, seed: int = 29) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        pdf = kde_pdf(rng.random(int(rng.integers(1, 200))))
        assert (pdf >= 0).all()
        assert np.isfinite(pdf).all()


def test_kde_nonnegative():
    prop_kde_nonnegative(100)


# ---------------------------------------------------------------------------
# abpc / abcc


def test_abpc_identity_near_zero(rng):
    x = rng.random(100)
    assert abpc(grouped(x, x.copy())) <= 1e-12


def test_abpc_disjoint_lumps_near_two():
    rng = np.random.default_rng(7)
    s0 = np.clip(rng.normal(0.1, 0.01, size=2000), 0, 1)
    s1 = np.clip(rng.normal(0.9, 0.01, size=2000), 0, 1)
    assert abpc(grouped(s0, s1)) >= 1.8


def test_abcc_point_masses():
    # F0 = step at 0, F1 = step at 1, |F0-F1| = 1 on (0,1)
    assert abcc(grouped([0.0], [1.0])) == pytest.approx(1.0, abs=1e-3)


def test_abcc_identity_zero(rng):
    x = rng.random(64)
    assert abcc(grouped(x, x.copy())) == 0.0


def prop_abcc_matches_exact_w1(cases: int, seed: int = 37) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        g = random_grouped(rng)
        assert abs(abcc(g) - exact_w1_1d(g.s0, g.s1)) <= 2e-3


def test_abcc_matches_exact_w1():
    prop_abcc_matches_exact_w1(100)


def prop_distribution_metrics_symmetric(cases: int, seed: int = 41) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        g = random_grouped(rng, max_n=200)
        flipped = GroupedScores(g.s1, g.s0)
        assert abpc(g) == pytest.approx(abpc(flipped), abs=1e-12)
        assert abcc(g) == pytest.approx(abcc(flipped), abs=1e-12)
        assert delta_dp_c(g) == pytest.approx(delta_dp_c(flipped), abs=1e-12)


def test_distribution_metrics_symmetric():
    prop_distribution_metrics_symmetric(100)


def prop_metric_bounds(cases: int, seed: int = 43) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        g = random_grouped(rng, max_n=200)
        assert 0.0 <= abpc(g) <= 2.05
        assert 0.0 <= abcc(g) <= 1.0
        assert 0.0 <= delta_dp_c(g) <= 1.0
        # the mean gap is an integral-of-difference, the cdf gap its abs bound
        assert delta_dp_c(g) <= abcc(g) + 2e-3


def test_metric_bounds():
    prop_metric_bounds(100)


# ---------------------------------------------------------------------------
# auc


def test_auc_separated():
    assert auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0.0, 0.0, 1.0, 1.0])) == 1.0


def test_auc_reversed():
    assert auc(np.array([0.9, 0.8, 0.1]), np.array([0.0, 0.0, 1.0])) == 0.0


def test_auc_all_tied():
    assert auc(np.full(10, 0.5), np.array([0, 1] * 5, dtype=np.float64)) == pytest.approx(0.5)


def test_auc_undefined_single_class():
    with pytest.raises(UndefinedMetricError, match="auc"):
        auc(np.array([0.1, 0.9]), np.array([1.0, 1.0]))


def prop_auc_matches_pairwise(cases: int, seed: int = 47) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(2, 500))
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 1)
        assert auc(scores, labels) == pairwise_auc(scores, labels)


def test_auc_matches_pairwise():
    prop_auc_matches_pairwise(100)


# ---------------------------------------------------------------------------
# f1 / accuracy / threshold selection


def test_f1_acc_example():
    scores = np.array([0.2, 0.6, 0.7, 0.4])
    labels = np.array([0.0, 1.0, 1.0, 1.0])
    f1, acc = f1_acc_at(scores, labels, 0.5)
    assert f1 == pytest.approx(0.8, abs=1e-15)
    assert acc == pytest.approx(0.75, abs=1e-15)


def test_f1_no_positive_predictions_is_zero():
    f1, acc = f1_acc_at(np.array([0.1, 0.2]), np.array([1.0, 0.0]), 0.9)
    assert f1 == 0.0
    assert acc == 0.5


def test_optimal_threshold_examples():
    # separated groups: smallest t with perfect F1 under strict > is 0.3
    scores = np.array([0.3, 0.3, 0.7, 0.7])
    labels = np.array([0.0, 0.0, 1.0, 1.0])
    assert optimal_threshold(scores, labels) == pytest.approx(0.3, abs=1e-15)
    scores = np.array([0.2, 0.3, 0.7, 0.9])
    labels = np.array([0.0, 1.0, 1.0, 1.0])
    assert optimal_threshold(scores, labels) == pytest.approx(0.2, abs=1e-15)


def test_optimal_threshold_single_unique_score():
    # predicting everything positive is optimal; smallest maximizer is 0
    assert optimal_threshold(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == 0.0


def test_optimal_threshold_rejects_single_class():
    with pytest.raises(UndefinedMetricError):
        optimal_threshold(np.array([0.4, 0.6]), np.array([1.0, 1.0]))


def prop_optimal_threshold_scan(cases: int, seed: int = 53) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(2, 60))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        candidates = np.unique(np.concatenate([scores, [0.0, 1.0]]))
        ref_f1 = [brute_force_f1(scores, labels, float(c)) for c in candidates]
        t_ref = float(candidates[int(np.argmax(ref_f1))])
        t = optimal_threshold(scores, labels)
        assert t == pytest.approx(t_ref, abs=1e-12)
        assert f1_acc_at(scores, labels, t)[0] == pytest.approx(max(ref_f1), abs=1e-12)


def test_optimal_threshold_scan():
    prop_optimal_threshold_scan(100)


# ---------------------------------------------------------------------------
# report plumbing


def test_eval_report_round_trip():
    report = EvalReport(
        auc=0.9,
        f1_at_0_5=0.8,
        f1_at_opt=0.85,
        acc_at_0_5=0.7,
        acc_at_opt=0.75,
        opt_threshold=0.4,
        ddp_b_0_5=0.1,
        ddp_b_opt=0.12,
        ddp_c=0.05,
        abpc=0.3,
        abcc=0.07,
    )
    assert from_fields(EvalReport, json.loads(json.dumps(report.to_dict()))) == report
    assert len(report.to_dict()) == 11


def test_eval_report_from_scores(rng):
    n = 400
    scores = rng.random(n)
    labels = (scores + rng.normal(0, 0.3, n) > 0.5).astype(np.float64)
    if labels.min() == labels.max():
        labels[0] = 1.0 - labels[0]
    sensitive = rng.integers(0, 2, n).astype(np.float64)
    report = eval_report(scores, labels, sensitive, optimal_threshold(scores, labels))
    assert 0.0 <= report.auc <= 1.0
    assert report.ddp_c <= report.abcc + 2e-3
    g = GroupedScores.from_scores(scores, sensitive)
    assert report.ddp_c == pytest.approx(delta_dp_c(g), abs=1e-15)
    assert report.abcc == pytest.approx(abcc(g), abs=1e-15)


def test_density_curve():
    rng = np.random.default_rng(9)
    g = grouped(rng.random(50), rng.random(60))
    curve = density_curve(g)
    assert curve.grid.shape == (GRID_POINTS,)
    assert curve.f0.shape == curve.f1.shape == (GRID_POINTS,)
    assert curve.F0.shape == curve.F1.shape == (GRID_POINTS,)
    assert (np.diff(curve.F0) >= 0).all() and (np.diff(curve.F1) >= 0).all()