"""Predictive-performance and group-independence metrics over propensities.

Scores live in [0,1]. Group metrics compare the score distribution of group
S0 against group S1: mean gap (``delta_dp_c``), positive-rate gap at a
threshold (``delta_dp_b``), integrated PDF gap (``abpc``, via Gaussian KDE)
and integrated CDF gap (``abcc``, via empirical CDFs). ``abpc`` and the
exported density curves use the composite trapezoidal rule on a fixed
10,001-point grid over [0,1], i.e. 10,000 intervals. ``abcc`` is exact: the
two empirical CDFs are step functions, and since scores lie in [0,1] the
integral of their gap over [0,1] is the exact 1-D Wasserstein-1 distance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .transport import exact_w1_1d

__all__ = [
    "GRID_POINTS",
    "BANDWIDTH_FLOOR",
    "UndefinedMetricError",
    "GroupedScores",
    "DensityCurve",
    "EvalReport",
    "make_grid",
    "delta_dp_c",
    "delta_dp_b",
    "kde_pdf",
    "ecdf",
    "trapezoid",
    "abpc",
    "abcc",
    "auc",
    "f1_acc_at",
    "optimal_threshold",
    "density_curve",
    "eval_report",
]

GRID_POINTS = 10_001
BANDWIDTH_FLOOR = 1e-3

_GRID = np.linspace(0.0, 1.0, GRID_POINTS)


class UndefinedMetricError(ValueError):
    """A metric's preconditions do not hold (empty group, single class)."""


def make_grid() -> np.ndarray:
    """The standard integration grid: 10,001 points, step 1/10,000."""
    return _GRID.copy()


def _as_scores(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both
        raise ValueError(f"{name} contains NaN or values outside [0,1]")
    return arr


@dataclass(frozen=True)
class GroupedScores:
    """Propensities partitioned by the sensitive attribute (S0 vs S1)."""

    s0: np.ndarray
    s1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s0", _as_scores(self.s0, "s0"))
        object.__setattr__(self, "s1", _as_scores(self.s1, "s1"))

    @classmethod
    def from_scores(cls, scores, sensitive) -> "GroupedScores":
        scores = np.asarray(scores, dtype=np.float64)
        sensitive = np.asarray(sensitive)
        if scores.shape != sensitive.shape:
            raise ValueError("scores and sensitive must align")
        return cls(s0=scores[sensitive == 0], s1=scores[sensitive == 1])

    def require_both(self, metric: str) -> None:
        if self.s0.size == 0:
            raise UndefinedMetricError(f"{metric}: group S0 is empty")
        if self.s1.size == 0:
            raise UndefinedMetricError(f"{metric}: group S1 is empty")


@dataclass(frozen=True)
class DensityCurve:
    """Group score PDFs (KDE) and CDFs (empirical) on the standard grid."""

    grid: np.ndarray
    f0: np.ndarray
    f1: np.ndarray
    F0: np.ndarray
    F1: np.ndarray


@dataclass(frozen=True)
class EvalReport:
    """The full metric panel for one trained classifier on one test set."""

    auc: float
    f1_at_0_5: float
    f1_at_opt: float
    acc_at_0_5: float
    acc_at_opt: float
    opt_threshold: float
    ddp_b_0_5: float
    ddp_b_opt: float
    ddp_c: float
    abpc: float
    abcc: float

    def to_dict(self) -> dict:
        return asdict(self)


def delta_dp_c(g: GroupedScores) -> float:
    """Absolute difference of group mean propensities."""
    g.require_both("ddp_c")
    return float(abs(g.s0.mean() - g.s1.mean()))


def delta_dp_b(g: GroupedScores, t: float) -> float:
    """Absolute difference of group positive-prediction rates at ``t``.

    A prediction is positive iff its score is strictly greater than ``t``.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("threshold must be in [0,1]")
    g.require_both("ddp_b")
    rate0 = float((g.s0 > t).mean())
    rate1 = float((g.s1 > t).mean())
    return abs(rate0 - rate1)


def _silverman_bandwidth(samples: np.ndarray) -> float:
    n = samples.size
    spread = min(
        float(np.std(samples)),
        float(np.subtract(*np.percentile(samples, [75, 25]))) / 1.34,
    )
    return max(0.9 * spread * n ** (-0.2), BANDWIDTH_FLOOR)


def kde_pdf(samples) -> np.ndarray:
    """Gaussian-kernel density estimate on the standard grid.

    Bandwidth is Silverman's rule h = 0.9*min(sigma, IQR/1.34)*n^(-1/5),
    floored at 1e-3 so degenerate score piles stay finite. The samples
    (scores in [0,1]) are linearly binned onto the grid, then convolved with
    the kernel sampled at every grid offset by FFT (Silverman 1982, AS 176).
    """
    samples = _as_scores(samples, "samples")
    if samples.size == 0:
        raise ValueError("kde_pdf requires a nonempty sample")
    h = _silverman_bandwidth(samples)
    pos = samples * (GRID_POINTS - 1)
    left = np.minimum(pos.astype(np.int64), GRID_POINTS - 2)
    weights = np.bincount(left, 1.0 - (pos - left), GRID_POINTS)
    weights += np.bincount(left + 1, pos - left, GRID_POINTS)
    # at least 2 * GRID_POINTS - 1, so the circular convolution wraps no
    # kernel offset onto the grid; 2^12 * 5 keeps the FFT fast
    size = 20_480
    offsets = np.minimum(np.arange(size), size - np.arange(size)) / ((GRID_POINTS - 1) * h)
    kernel = np.exp(-0.5 * offsets * offsets)
    out = np.fft.irfft(np.fft.rfft(weights, size) * np.fft.rfft(kernel), size)[:GRID_POINTS]
    # the FFT leaves rounding noise of either sign where the density is 0
    return np.maximum(out, 0.0) / (samples.size * h * np.sqrt(2.0 * np.pi))


def ecdf(samples) -> np.ndarray:
    """Empirical CDF on the standard grid: fraction of samples <= x (right-continuous)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("ecdf requires a nonempty sample")
    sorted_samples = np.sort(samples)
    return np.searchsorted(sorted_samples, _GRID, side="right") / samples.size


def trapezoid(values, grid) -> float:
    """Composite trapezoidal rule of ``values`` sampled at ``grid``."""
    values = np.asarray(values, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    if values.shape != grid.shape or values.ndim != 1:
        raise ValueError("values and grid must be 1-D and the same length")
    if grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    return float(np.trapezoid(values, grid))


def abpc(g: GroupedScores) -> float:
    """Area between the two groups' KDE probability density curves."""
    g.require_both("abpc")
    return trapezoid(np.abs(kde_pdf(g.s0) - kde_pdf(g.s1)), _GRID)


def abcc(g: GroupedScores) -> float:
    """Area between the two groups' empirical cumulative density curves,
    integrated exactly: the 1-D W1 distance between the group scores."""
    g.require_both("abcc")
    return exact_w1_1d(g.s0, g.s1)


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties 0.5.

    Rank-based Mann-Whitney form; agrees exactly with pairwise counting.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auc: both classes must be present")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # average 1-based ranks within each tie group
    edges = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1], True])
    group_sizes = np.diff(edges)
    avg = (edges[:-1] + 1 + edges[1:]) / 2.0
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(avg, group_sizes)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def f1_acc_at(scores, labels, t: float) -> tuple[float, float]:
    """(F1, accuracy) with positives predicted at score > ``t``.

    F1 is 0 when its denominator is 0 (no predicted and no real positives).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("threshold must be in [0,1]")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores > t
    actual = labels == 1
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    tn = int(np.sum(~pred & ~actual))
    denom = 2 * tp + fp + fn
    f1 = 2 * tp / denom if denom else 0.0
    accuracy = (tp + tn) / scores.size
    return f1, accuracy


def optimal_threshold(scores, labels) -> float:
    """Smallest threshold maximizing F1 over candidates = unique scores + {0,1}."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("optimal_threshold: both classes must be present")
    candidates = np.unique(np.concatenate([scores, [0.0, 1.0]]))
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_pos = (labels[order] == 1).astype(np.int64)
    pos_upto = np.concatenate([[0], np.cumsum(sorted_pos)])
    below = np.searchsorted(sorted_scores, candidates, side="right")
    tp = n_pos - pos_upto[below]
    fp = (scores.size - below) - tp
    fn = pos_upto[below]
    denom = 2 * tp + fp + fn
    f1 = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)
    return float(candidates[int(np.argmax(f1))])


def density_curve(g: GroupedScores) -> DensityCurve:
    """Both groups' PDFs and CDFs on the standard grid, for export/plotting."""
    g.require_both("density_curve")
    return DensityCurve(
        grid=make_grid(),
        f0=kde_pdf(g.s0),
        f1=kde_pdf(g.s1),
        F0=ecdf(g.s0),
        F1=ecdf(g.s1),
    )


def eval_report(scores, labels, sensitive, opt_threshold_value: float) -> EvalReport:
    """Assemble the full metric panel; the opt threshold is supplied by the
    caller (tuned on validation scores, not on this set)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    grouped = GroupedScores.from_scores(scores, sensitive)
    grouped.require_both("eval_report")
    f1_05, acc_05 = f1_acc_at(scores, labels, 0.5)
    f1_opt, acc_opt = f1_acc_at(scores, labels, opt_threshold_value)
    return EvalReport(
        auc=auc(scores, labels),
        f1_at_0_5=f1_05,
        f1_at_opt=f1_opt,
        acc_at_0_5=acc_05,
        acc_at_opt=acc_opt,
        opt_threshold=float(opt_threshold_value),
        ddp_b_0_5=delta_dp_b(grouped, 0.5),
        ddp_b_opt=delta_dp_b(grouped, opt_threshold_value),
        ddp_c=delta_dp_c(grouped),
        abpc=abpc(grouped),
        abcc=abcc(grouped),
    )
