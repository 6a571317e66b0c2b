"""Training orchestration: single runs, grid search, lambda sweeps, Pareto
fronts and test evaluation. Grid cells and sweep points run as isolated
tasks: one that raises is recorded as its ``Type: message`` error, and the
others still run.

A training run shuffles mini-batches per epoch (per-epoch seed derived from
the run seed and epoch index), optimizes with AdamW under a plateau LR
schedule, early-stops on validation loss and returns the best-validation
snapshot; a non-finite validation loss ends the run with no snapshot.
The snapshot's validation AUC and its F1-optimal operating threshold are
tuned once, on the validation set, and stored in the checkpoint, so
evaluation never touches training or validation data again. When the
fairness term is active (lambda > 0) the batch size is forced to 512.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .autodiff import Tape
from .encoding import EncoderSpec, PackedDataset
from .metrics import EvalReport, auc, eval_report, optimal_threshold
from .nn import (
    AdamWState,
    CompositeLossConfig,
    EarlyStopper,
    Hyper,
    ModelParams,
    PlateauScheduler,
    adamw_step,
    backward,
    composite_loss,
    forward,
    init_params,
    predict,
)
from .records import from_fields, json_payload, write_json

__all__ = [
    "IPM_BATCH",
    "TrainConfig",
    "TrainingError",
    "Checkpoint",
    "GridCell",
    "GridResult",
    "SweepPoint",
    "GRID_AXES",
    "default_grid",
    "default_lambdas",
    "sweep_losses",
    "select_best",
    "train_model",
    "grid_search",
    "lambda_sweep",
    "pareto_front",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
]

IPM_BATCH = 512  # batch size forced whenever the transport term is active

CHECKPOINT_VERSION = 6  # 6: the tuned threshold and validation AUC, not the scores


class TrainingError(RuntimeError):
    """Orchestration-level failure (empty data, a non-finite validation
    loss, all grid cells failed)."""


@dataclass(frozen=True)
class TrainConfig:
    """Epoch budget and early-stopping patience; defaults are the
    main-experiment values. The optimizer and the learning-rate schedule
    are fixed: the ``nn`` constants ``ADAM_BETAS`` through ``LR_MARGIN``."""

    max_epochs: int = 300
    patience: int = 50

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class Checkpoint:
    """Best-validation model plus everything evaluate/reruns need."""

    params: ModelParams
    seed: int
    loss_cfg: CompositeLossConfig
    train_cfg: TrainConfig
    effective_batch: int
    best_val_loss: float
    best_epoch: int
    epochs_run: int
    valid_auc: float
    opt_threshold: float
    group_empty_batches: int
    encoder_ref: dict | None = None

    def __post_init__(self):
        for key in ("valid_auc", "opt_threshold"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ValueError(f"{key} {getattr(self, key)!r} must lie in [0,1]")


def _epoch_rng(seed: int, epoch: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, epoch, stream])


def _validation_loss(
    params: ModelParams, valid: PackedDataset, loss_cfg: CompositeLossConfig, batch: int
) -> float:
    """Mean composite loss over the validation batches, on eval-mode scores."""
    scores = predict(params, valid, chunk=batch)
    losses = []
    for start in range(0, len(valid), batch):
        part = np.s_[start : start + batch]
        propensities = Tape().constant(scores[part])
        loss = composite_loss(propensities, valid.y[part], valid.s[part], loss_cfg).loss
        losses.append(float(loss.value))
    return float(np.mean(losses))


def train_model(
    train: PackedDataset,
    valid: PackedDataset,
    encoder: EncoderSpec,
    hyper: Hyper,
    loss_cfg: CompositeLossConfig,
    seed: int,
    cfg: TrainConfig | None = None,
) -> Checkpoint:
    """Full training loop returning the best-validation snapshot, with the
    snapshot's validation AUC and F1-optimal threshold; a validation set
    with one outcome class raises UndefinedMetricError."""
    cfg = cfg or TrainConfig()
    if len(train) == 0 or len(valid) == 0:
        raise TrainingError("training and validation sets must be nonempty")
    effective_batch = IPM_BATCH if loss_cfg.lam > 0 else hyper.batch

    params = init_params(hyper, encoder, seed)
    adam = AdamWState()
    scheduler = PlateauScheduler(hyper.lr)
    stopper = EarlyStopper(cfg.patience)

    group_empty = 0
    n = len(train)
    for epoch in range(1, cfg.max_epochs + 1):
        perm = _epoch_rng(seed, epoch, 0).permutation(n)
        dropout_rng = _epoch_rng(seed, epoch, 1)
        for start in range(0, n, effective_batch):
            batch = train.subset(perm[start : start + effective_batch])
            result = forward(params, batch, training=True, rng=dropout_rng)
            closs = composite_loss(result.propensities, batch.y, batch.s, loss_cfg)
            if closs.group_empty:
                group_empty += 1
            grads = backward(result.propensities.tape, closs.loss, result.leaves)
            adamw_step(params, grads, adam, scheduler.lr)
        val_loss = _validation_loss(params, valid, loss_cfg, effective_batch)
        if not math.isfinite(val_loss):
            raise TrainingError(f"validation loss is {val_loss} at epoch {epoch}")
        scheduler.step(val_loss)
        if stopper.update(val_loss, params):
            break

    best = stopper.best_params
    valid_scores = predict(best, valid)
    return Checkpoint(
        params=best,
        seed=seed,
        loss_cfg=loss_cfg,
        train_cfg=cfg,
        effective_batch=effective_batch,
        best_val_loss=float(stopper.best),
        best_epoch=stopper.best_epoch,
        epochs_run=stopper.epoch,
        valid_auc=auc(valid_scores, valid.y),
        opt_threshold=optimal_threshold(valid_scores, valid.y),
        group_empty_batches=group_empty,
    )


# ---------------------------------------------------------------------------
# grid search


# axes in loop order, outermost first; the cells of grid.json follow it
GRID_AXES = {
    "layers": (1, 2),
    "bidirectional": (False, True),
    "hidden": (16, 32, 64),
    "batch": (128, 256, 512),
    "lr": (1e-4, 1e-3),
    "dropout": (0.2, 0.4),
}


def default_grid(axes: dict | None = None) -> list:
    """The cartesian hyperparameter grid over ``GRID_AXES`` (144 cells), with
    any axis replaced by the values ``axes`` gives for it."""
    table = {**GRID_AXES, **(axes or {})}
    cells = itertools.product(*table.values())
    return [from_fields(Hyper, dict(zip(table, cell))) for cell in cells]


@dataclass
class GridCell:
    hyper: Hyper
    valid_auc: float | None
    error: str | None = None


@dataclass
class GridResult:
    best: Hyper
    cells: list


def select_best(cells: list) -> Hyper:
    """Argmax of validation AUC over (hyper, auc) pairs; ties prefer the
    smaller model: fewer layers, then smaller hidden, then lower lr (then
    unidirectional, smaller batch, lower dropout to stay total)."""
    if not cells:
        raise TrainingError("no grid cells to select from")

    def key(cell):
        hyper, val_auc = cell
        return (
            -val_auc,
            hyper.layers,
            hyper.hidden,
            hyper.lr,
            hyper.bidirectional,
            hyper.batch,
            hyper.dropout,
        )

    return min(cells, key=key)[0]


def grid_search(
    train: PackedDataset,
    valid: PackedDataset,
    encoder: EncoderSpec,
    seed: int,
    grid: list | None = None,
    cfg: TrainConfig | None = None,
    jobs: int = 1,
) -> GridResult:
    """Train every cell with BCE only (patience 20) and pick by validation
    AUC. Per-cell failures are recorded; only a fully failed grid raises."""
    grid = grid if grid is not None else default_grid()
    cfg = replace(cfg or TrainConfig(), patience=20)
    task = functools.partial(_grid_cell_task, train, valid, encoder, seed, cfg)
    outcomes = _run_tasks(task, grid, jobs)

    cells = []
    scored = []
    for hyper, outcome in zip(grid, outcomes):
        if isinstance(outcome, str):
            cells.append(GridCell(hyper, None, error=outcome))
        else:
            cells.append(GridCell(hyper, outcome))
            scored.append((hyper, outcome))
    if not scored:
        raise TrainingError(f"every grid cell failed to train; the first: {outcomes[0]}")
    return GridResult(best=select_best(scored), cells=cells)


def _grid_cell_task(train, valid, encoder, seed, cfg, hyper):
    ckpt = train_model(train, valid, encoder, hyper, CompositeLossConfig(lam=0.0), seed, cfg)
    return ckpt.valid_auc


def _isolated(fn, task):
    """``fn(task)``, or the ``Type: message`` string of what it raised."""
    try:
        return fn(task)
    except Exception as exc:  # noqa: BLE001 - one failed task must not end the others
        return f"{type(exc).__name__}: {exc}"


def _run_tasks(fn, tasks, jobs):
    """``fn`` over ``tasks`` in order; ``_isolated`` runs in the worker, so
    the pool never raises."""
    isolated = functools.partial(_isolated, fn)
    if jobs <= 1 or len(tasks) <= 1:
        return list(map(isolated, tasks))
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(isolated, tasks))


# ---------------------------------------------------------------------------
# lambda sweep and Pareto front


def default_lambdas() -> list:
    return [round(0.05 * i, 2) for i in range(11)]


def sweep_losses(lambdas: list) -> list:
    """One ``CompositeLossConfig`` per lambda in ascending order; ValueError
    for an empty list, a repeated lambda or one outside [0,1]."""
    if not lambdas:
        raise ValueError("lists no lambda")
    for i, lam in enumerate(lambdas):
        if lam in lambdas[:i]:
            raise ValueError(f"lists lambda {lam} twice")
    return [CompositeLossConfig(lam=float(lam)) for lam in sorted(lambdas)]


@dataclass(frozen=True)
class SweepPoint:
    lam: float
    auc: float
    abpc: float
    abcc: float
    seed: int
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or math.isnan(self.auc)


def lambda_sweep(
    train: PackedDataset,
    valid: PackedDataset,
    test: PackedDataset,
    encoder: EncoderSpec,
    hyper: Hyper,
    lambdas: list | None = None,
    seed: int = 0,
    cfg: TrainConfig | None = None,
    jobs: int = 1,
) -> list:
    """One train + test evaluation per lambda (``sweep_losses`` checks the
    list), same seed per point, in ascending lambda order; failed points
    are recorded with NaN metrics instead of aborting the sweep."""
    lambdas = default_lambdas() if lambdas is None else list(lambdas)
    loss_cfgs = sweep_losses(lambdas)
    task = functools.partial(_sweep_point_task, train, valid, test, encoder, hyper, seed, cfg)
    points = []
    for loss_cfg, outcome in zip(loss_cfgs, _run_tasks(task, loss_cfgs, jobs)):
        if isinstance(outcome, str):
            nan = float("nan")
            outcome = SweepPoint(loss_cfg.lam, nan, nan, nan, seed, error=outcome)
        points.append(outcome)
    return points


def _sweep_point_task(train, valid, test, encoder, hyper, seed, cfg, loss_cfg) -> SweepPoint:
    report = evaluate(train_model(train, valid, encoder, hyper, loss_cfg, seed, cfg), test)
    return SweepPoint(loss_cfg.lam, report.auc, report.abpc, report.abcc, seed)


def pareto_front(points: list, fairness_key: str) -> tuple:
    """Non-dominated points under (maximize AUC, minimize ``fairness_key``).

    Exact metric duplicates keep the lowest lambda; failed points are
    excluded. A sweep in (-AUC, fairness, lambda) order, the front's own
    order, keeps each point whose fairness is below every kept one's.
    """
    if fairness_key not in ("abpc", "abcc"):
        raise ValueError("fairness_key must be 'abpc' or 'abcc'")
    if not points:
        raise ValueError("points must be nonempty")

    def fair(p):
        return getattr(p, fairness_key)

    front = []
    for p in sorted((p for p in points if not p.failed), key=lambda p: (-p.auc, fair(p), p.lam)):
        if not front or fair(p) < fair(front[-1]):
            front.append(p)
    return tuple(front)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(
    checkpoint: Checkpoint, test: PackedDataset, scores: np.ndarray | None = None
) -> EvalReport:
    """All metrics on a test set, at the operating threshold the checkpoint
    stores (tuned on validation scores at training time). ``scores`` are the
    checkpoint's test-set predictions when the caller already has them."""
    if scores is None:
        scores = predict(checkpoint.params, test)
    return eval_report(scores, test.y, test.s, checkpoint.opt_threshold)


# ---------------------------------------------------------------------------
# serialization


def save_checkpoint(ckpt: Checkpoint, path, provenance: dict | None = None) -> None:
    write_json(path, {"format_version": CHECKPOINT_VERSION, **asdict(ckpt)}, provenance)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        payload = json_payload(fh.read())
    found = payload.get("format_version")
    if found != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format_version {found!r}, expected {CHECKPOINT_VERSION}: "
            "rerun `train` to write a current checkpoint"
        )
    del payload["format_version"]
    return from_fields(Checkpoint, payload)
