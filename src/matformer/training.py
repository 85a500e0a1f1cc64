"""Desk-scale optimization: Adam with decoupled decay, one-cycle schedule,
MSE objective, MAE and error-within-threshold evaluation."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import Tensor
from .featurize import PreparedGraph, batch_prepared
from .model import Matformer


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    lr_max: float = 1e-3
    epochs: int = 500
    batch_size: int = 64
    weight_decay: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.lr_max < 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("lr/epochs/batch must be positive")


_GRAD_LIMIT = math.sqrt(np.finfo(float).max)


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def create(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p.values) for k, p in params.items()},
            v={k: np.zeros_like(p.values) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    lr: float,
    grads: dict[str, np.ndarray],
    weight_decay: float = 1e-5,
) -> None:
    """One bias-corrected Adam update (betas 0.9 and 0.999, eps 1e-8), in
    place, with one gradient in ``grads`` per name in ``params``.

    Weight decay is decoupled: ``w <- w - lr*wd*w`` before the Adam delta.
    A step is rejected wholesale, with ``ValueError`` naming the parameter,
    if any gradient is not finite or reaches sqrt(float max), where its
    square could overflow the second moment.
    """
    for name, g in grads.items():
        largest = np.abs(g).max(initial=0.0)
        if not largest < _GRAD_LIMIT:  # also catches NaN
            raise ValueError(f"non-finite gradient for parameter {name!r}, or one whose square would "
                             f"overflow Adam's second moment (max |g| = {largest:.3g}); step rejected")
    b1, b2, eps = 0.9, 0.999, 1e-8
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        # two scratch buffers per parameter; every line keeps the operand
        # order of  w -= lr*wd*w;  m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
        # w -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)
        step = np.empty_like(p.values)
        if weight_decay:
            p.values -= np.multiply(lr * weight_decay, p.values, out=step)
        m *= b1
        m += np.multiply(1.0 - b1, g, out=step)
        v *= b2
        sq = np.multiply(1.0 - b2, g, out=step)
        sq *= g
        v += sq
        denom = np.divide(v, 1.0 - b2**t, out=np.empty_like(v))
        np.sqrt(denom, out=denom)
        denom += eps
        np.divide(m, 1.0 - b1**t, out=step)
        step *= lr
        step /= denom
        p.values -= step


def one_cycle_lr(step: int, total_steps: int, lr_max: float) -> float:
    """Cosine warmup over the first 30% of the steps from lr_max/25 to lr_max,
    then cosine decay to lr_max/1e4."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    ramp = 0.3 * total_steps
    if step <= ramp:
        start = lr_max / 25.0
        frac = step / ramp if ramp > 0 else 1.0
        return start + (lr_max - start) * (1.0 - math.cos(math.pi * frac)) / 2.0
    end = lr_max / 1e4
    frac = (step - ramp) / (total_steps - ramp)
    return end + (lr_max - end) * (1.0 + math.cos(math.pi * frac)) / 2.0


def mae(preds, targets) -> float:
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if preds.size == 0 or preds.shape != targets.shape:
        raise ValueError("predictions and targets must be equal-length and non-empty")
    return float(np.abs(preds - targets).mean())


def ewt(preds, targets, threshold: float) -> float:
    """Fraction of predictions with absolute error strictly below threshold."""
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if preds.size == 0 or preds.shape != targets.shape:
        raise ValueError("predictions and targets must be equal-length and non-empty")
    return float(np.count_nonzero(np.abs(preds - targets) < threshold)) / preds.size


@dataclass
class TrainResult:
    log: list[dict]
    best_model: Matformer          # the weights of the best validation epoch
    best_checkpoint: dict          # best_model.to_checkpoint() plus target_scale
    best_val_mae: float


def _epoch_batches(order: np.ndarray, atoms: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """One epoch's minibatches, in order.

    Batch norm in training mode needs at least two atoms per batch, so a
    trailing batch of a single one-atom crystal joins the batch before it.
    """
    batches = [order[lo : lo + batch_size] for lo in range(0, len(order), batch_size)]
    if len(batches) > 1 and atoms[batches[-1]].sum() < 2:
        batches[-2:] = [np.concatenate(batches[-2:])]
    return batches


def _take_grads(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Move each parameter's gradient out of its ``.grad`` (zeros where none
    arrived), so the update holds the only reference and frees them all."""
    grads = {}
    for k, p in params.items():
        grads[k] = p.grad if p.grad is not None else np.zeros_like(p.values)
        p.grad = None
    return grads


def evaluate(model: Matformer, prepared: list[PreparedGraph]) -> np.ndarray:
    """Eval-mode predictions for prepared graphs, 64 per batch, computed without a tape."""
    preds = []
    with engine.no_grad():
        for lo in range(0, len(prepared), 64):
            batch = batch_prepared(prepared[lo : lo + 64])
            preds.append(model.forward(batch, training=False).values[:, 0])
    return np.concatenate(preds)


def train(
    model: Matformer,
    train_records: list,
    val_records: list,
    config: TrainConfig,
) -> TrainResult:
    """MSE training with per-epoch MAE/EwT validation.

    Records carry ``.crystal`` and ``.target``.  Targets are standardized on
    the training split (metrics are reported in original units).  The best
    model by validation MAE is returned with its checkpoint, from one copy of
    the model per improving epoch; the model itself ends with the last
    epoch's weights and no parameter holds a ``.grad``: each step's gradients
    are freed once Adam has applied them.  A trailing minibatch of a single
    one-atom crystal is trained together with the batch before it (see
    ``_epoch_batches``).  Training targets whose mean or standard deviation
    is not finite raise ``ValueError`` before the first step.  A non-finite
    training or validation forward or validation MAE, or a gradient
    ``adam_step`` rejects, raises ``TrainingDivergedError``, naming the epoch
    (and the step and the parameter for a rejected gradient).
    Fully deterministic for a fixed config seed and model.
    """
    if not val_records:
        raise ValueError("the validation set is empty; best-checkpoint selection needs at least one crystal")
    atoms = np.array([r.crystal.n_atoms for r in train_records], dtype=int)
    if atoms.sum() < 2:
        raise ValueError(
            f"the training set has {atoms.sum()} atom(s); batch norm needs at least 2 per minibatch"
        )
    if config.batch_size == 1 and atoms.min() < 2:
        raise ValueError("batch_size=1 with a one-atom crystal: batch norm needs at least 2 atoms per minibatch")
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    state = AdamState.create(params)

    train_graphs = [model.prepare(r.crystal) for r in train_records]
    val_graphs = [model.prepare(r.crystal) for r in val_records]
    train_targets = np.array([r.target for r in train_records], dtype=float)
    val_targets = np.array([r.target for r in val_records], dtype=float)

    with np.errstate(over="ignore", invalid="ignore"):  # a scale past the float range is rejected below
        t_mean = float(train_targets.mean())
        t_std = float(train_targets.std())
    if not (math.isfinite(t_mean) and math.isfinite(t_std)):
        raise ValueError(f"the training targets' mean ({t_mean:.3g}) or standard deviation ({t_std:.3g}) "
                         "is not finite: rescale the targets")
    if t_std == 0.0:
        t_std = 1.0
    scaled_targets = (train_targets - t_mean) / t_std

    n_train = len(train_records)
    steps_per_epoch = math.ceil(n_train / config.batch_size)
    total_steps = config.epochs * steps_per_epoch

    log: list[dict] = []
    best_val = math.inf
    model.zero_grad()  # backward accumulates; each step's _take_grads leaves no .grad behind

    for epoch in range(config.epochs):
        order = rng.permutation(n_train)
        epoch_losses = []
        lr = 0.0
        for b, idx in enumerate(_epoch_batches(order, atoms, config.batch_size)):
            # a folded remnant leaves its schedule slot unused, so every epoch
            # spans the same stretch of the one-cycle schedule
            global_step = epoch * steps_per_epoch + b
            batch = batch_prepared([train_graphs[i] for i in idx])
            target = Tensor(scaled_targets[idx][:, None])
            lr = one_cycle_lr(global_step, total_steps, config.lr_max)
            try:
                pred = model.forward(batch, training=True)
                diff = engine.sub(pred, target)
                loss = engine.mean(engine.mul(diff, diff))
            except FloatingPointError as err:
                raise TrainingDivergedError(
                    f"non-finite forward at epoch {epoch} step {global_step}: {err}"
                ) from err
            loss.backward()
            try:
                adam_step(params, state, lr, _take_grads(params), weight_decay=config.weight_decay)
            except ValueError as err:
                raise TrainingDivergedError(f"epoch {epoch} step {global_step}: {err}") from err
            epoch_losses.append(float(loss.values))  # finite: the ops above check their outputs

        try:
            val_preds = evaluate(model, val_graphs)
        except FloatingPointError as err:
            raise TrainingDivergedError(f"non-finite validation forward at epoch {epoch}: {err}") from err
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite MAE is rejected below
            val_preds = val_preds * t_std + t_mean
            val_mae = mae(val_preds, val_targets)
        if not math.isfinite(val_mae):
            raise TrainingDivergedError(f"non-finite validation MAE ({val_mae}) at epoch {epoch}")
        row = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": float(np.mean(epoch_losses)),
            "val_mae": val_mae,
            "ewt_0.01": ewt(val_preds, val_targets, 0.01),
            "ewt_0.02": ewt(val_preds, val_targets, 0.02),
        }
        log.append(row)
        if val_mae < best_val:  # always at epoch 0: the MAE is finite
            best_val = val_mae
            best = copy.deepcopy(model)

    best_checkpoint = best.to_checkpoint()
    best_checkpoint["target_scale"] = {"mean": t_mean, "std": t_std}
    return TrainResult(log=log, best_model=best, best_checkpoint=best_checkpoint, best_val_mae=best_val)
