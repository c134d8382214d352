"""Desk-scale training loop with per-batch smoothing and per-epoch teacher refresh.

The loop is single-threaded and deterministic given the root seed. Model
parameters are float32; losses, smoothing weights, and metrics accumulate
in float64. For the self-distillation methods, epoch 1 falls back to plain
cross entropy (no checkpoint exists yet) and every later epoch re-selects
its teacher from the registry before the first batch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .data import (
    ClassificationData,
    DataSplits,
    SequenceData,
    batch_indices,
    make_copy_substitution,
    make_gaussian_mixture,
)
from .losses import (
    confidence_penalty_rows,
    linear_alpha_schedule,
    mixture_loss_rows,
    unigram_prior,
)
from .models import build_model
from .probs import PROB_FLOOR, alpha_rows, softmax_rows
from .registry import CheckpointRegistry, TeacherHandle, evaluate_g

METHODS = (
    "base_ce",
    "uniform_ls",
    "unigram_ls",
    "conf_penalty",
    "adaptive_skd",
    "fixed_alpha_skd",
    "adaptive_alpha_uniform",
    "linear_alpha_skd",
)

#: methods that distill from a past checkpoint of the same model
SKD_METHODS = frozenset({"adaptive_skd", "fixed_alpha_skd", "linear_alpha_skd"})


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, batch_index: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch_index}")
        self.epoch = epoch
        self.batch_index = batch_index


class MissingTeacherError(RuntimeError):
    """A self-distillation step past the fallback epoch has no teacher."""


@dataclass(frozen=True)
class ModelConfig:
    task: str = "classification"
    n_classes: int = 10
    input_dim: int = 16
    hidden: int = 64
    vocab: int = 12
    embed: int = 8

    def __post_init__(self):
        if self.task not in ("classification", "seq_transduction"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if min(self.input_dim, self.hidden, self.vocab, self.embed) < 1:
            raise ValueError("layer sizes must be positive")


@dataclass(frozen=True)
class TrainConfig:
    method: str
    g_kind: str = "accuracy"
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.35
    warmup_steps: int = 300
    momentum: float = 0.9
    seed: int = 0
    fixed_alpha: float = 0.1
    beta: float = 0.78
    max_alpha: float = 0.7
    max_epoch: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not (0.0 <= self.fixed_alpha <= 1.0 and 0.0 <= self.max_alpha <= 1.0):
            raise ValueError("alpha values must lie in [0, 1]")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


@dataclass(frozen=True)
class EpochDiagnostics:
    """Per-epoch training series behind the smoothing and gradient plots."""

    epoch: int
    loss_mode: str
    teacher_epoch: int | None
    mean_alpha: float
    alpha_std: float
    mean_grad_norm: float
    train_loss: float
    val_score: float


@dataclass(frozen=True)
class BatchStats:
    loss: float
    alphas: np.ndarray  # smoothing weight actually used, per non-pad position
    grad: np.ndarray    # flat parameter gradient
    loss_mode: str


@dataclass
class TrainResult:
    params: np.ndarray
    diagnostics: list[EpochDiagnostics]
    registry: CheckpointRegistry
    model: object = field(repr=False, default=None)


def _flatten_batch(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray | None):
    """Collapse (n, C) or (n, T, C) logits to masked (m, C) rows."""
    c = logits.shape[-1]
    flat_logits = logits.reshape(-1, c)
    flat_targets = np.asarray(targets).reshape(-1)
    if mask is None:
        keep = np.ones(flat_targets.shape, dtype=bool)
    else:
        keep = np.asarray(mask, dtype=bool).reshape(-1)
    return flat_logits, flat_targets, keep


def forward_backward(
    model,
    params: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    method: str,
    epoch: int,
    cfg: TrainConfig,
    mask: np.ndarray | None = None,
    teacher: TeacherHandle | None = None,
    prior_probs: np.ndarray | None = None,
    alpha_override: np.ndarray | None = None,
) -> BatchStats:
    """One batch: dispatch to the configured loss and backprop to parameters.

    The analytic logit gradient of the loss is composed with the model's
    layerwise chain rule; the batch reduction is the mean over non-pad
    positions. ``alpha_override`` substitutes recorded per-position
    smoothing weights for the adaptive computation (used to verify that
    the weights act as constants in the update).
    """
    logits, cache = model.forward(params, inputs)
    flat_logits, flat_targets, keep = _flatten_batch(logits, targets, mask)
    n_kept = int(keep.sum())
    if n_kept == 0:
        raise ValueError("batch has no non-pad positions")
    probs = softmax_rows(flat_logits[keep])
    y = flat_targets[keep]
    n_classes = probs.shape[-1]

    loss_mode = method
    if method in SKD_METHODS and teacher is None:
        if epoch == 1:
            loss_mode = "base_ce"
        else:
            raise MissingTeacherError(
                f"method {method!r} needs a teacher past epoch 1 (at epoch {epoch})")

    if loss_mode == "conf_penalty":
        totals, grad_rows = confidence_penalty_rows(probs, y, cfg.beta)
        alphas = np.zeros(n_kept)
    else:
        if loss_mode in SKD_METHODS:
            flat_teacher = teacher.logits(inputs).reshape(-1, n_classes)[keep]
            prior_rows = softmax_rows(flat_teacher)
        elif loss_mode == "unigram_ls":
            if prior_probs is None:
                raise ValueError("unigram smoothing needs the estimated prior")
            prior_rows = prior_probs
        else:
            prior_rows = np.full(n_classes, 1.0 / n_classes)

        if alpha_override is not None:
            alphas = np.asarray(alpha_override, dtype=np.float64)
        elif loss_mode in ("adaptive_skd", "adaptive_alpha_uniform"):
            alphas = alpha_rows(probs)
        elif loss_mode in ("uniform_ls", "unigram_ls", "fixed_alpha_skd"):
            alphas = np.full(n_kept, cfg.fixed_alpha)
        elif loss_mode == "linear_alpha_skd":
            max_epoch = cfg.max_epoch if cfg.max_epoch is not None else cfg.epochs
            alphas = np.full(n_kept, linear_alpha_schedule(epoch, cfg.max_alpha, max_epoch))
        else:  # base_ce (including the epoch-1 fallback)
            alphas = np.zeros(n_kept)
        _, _, totals, grad_rows = mixture_loss_rows(probs, y, prior_rows, alphas)

    loss = float(totals.mean())
    dlogits = np.zeros_like(flat_logits)
    dlogits[keep] = grad_rows / n_kept
    flat_grad = model.backward(params, cache, dlogits.reshape(logits.shape))
    return BatchStats(loss=loss, alphas=alphas, grad=flat_grad, loss_mode=loss_mode)


def learning_rate_at(step: int, base: float, warmup_steps: int) -> float:
    """Quadratic warmup to ``base`` followed by inverse-square-root decay.

    The quadratic ramp keeps the first epochs nearly inert (so early
    predictions stay high-entropy) while still reaching full rate at
    ``warmup_steps`` and decaying afterwards.
    """
    if warmup_steps <= 0:
        return base
    return base * min((step / warmup_steps) ** 2, math.sqrt(warmup_steps / step))


def _dataset_arrays(dataset):
    if isinstance(dataset, ClassificationData):
        return dataset.x, dataset.y, None
    if isinstance(dataset, SequenceData):
        return dataset.inputs, dataset.targets, dataset.mask
    raise TypeError(f"unsupported dataset type {type(dataset).__name__}")


def train(model_cfg: ModelConfig, cfg: TrainConfig, splits: DataSplits,
          registry_dir) -> TrainResult:
    """Run the full training loop and return parameters, diagnostics, registry.

    Deterministic given the config seed. Every epoch's parameters are
    checkpointed with their validation score, so later epochs of the
    self-distillation methods can select the best-generalizing teacher.
    """
    model = build_model(
        model_cfg.task,
        input_dim=model_cfg.input_dim,
        hidden=model_cfg.hidden,
        n_classes=model_cfg.n_classes,
        vocab=model_cfg.vocab,
        embed=model_cfg.embed,
    )
    params = model.init_params(cfg.seed)
    batch_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))

    def forward_fn(p, x):
        return model.forward(p, x)[0]

    registry = CheckpointRegistry(
        registry_dir, forward_fn=forward_fn, expected_param_count=model.n_params)

    inputs, targets, mask = _dataset_arrays(splits.train)
    n = len(splits.train)

    prior_probs = None
    if cfg.method == "unigram_ls":
        labels = targets if mask is None else targets[mask]
        prior_probs = unigram_prior(labels, model.n_classes).probs

    velocity = np.zeros_like(params)
    step = 0
    diagnostics: list[EpochDiagnostics] = []

    for epoch in range(1, cfg.epochs + 1):
        teacher = None
        if cfg.method in SKD_METHODS and epoch > 1:
            teacher = registry.select_teacher(epoch)

        losses = []
        grad_norms = []
        alpha_chunks = []
        loss_mode = cfg.method
        for batch_index, idx in enumerate(batch_indices(n, cfg.batch_size, batch_rng)):
            stats = forward_backward(
                model, params, inputs[idx], targets[idx],
                method=cfg.method, epoch=epoch, cfg=cfg,
                mask=None if mask is None else mask[idx],
                teacher=teacher,
                prior_probs=prior_probs,
            )
            if not math.isfinite(stats.loss):
                raise DivergenceError(epoch, batch_index)
            step += 1
            lr = learning_rate_at(step, cfg.learning_rate, cfg.warmup_steps)
            velocity = cfg.momentum * velocity - lr * stats.grad
            params = params + velocity
            losses.append(stats.loss)
            grad_norms.append(float(np.linalg.norm(stats.grad.astype(np.float64))))
            alpha_chunks.append(stats.alphas)
            loss_mode = stats.loss_mode

        val_score = evaluate_g(forward_fn, params, splits.val, cfg.g_kind)
        registry.store(params.copy(), epoch, val_score, cfg.g_kind)

        alphas = np.concatenate(alpha_chunks)
        diagnostics.append(EpochDiagnostics(
            epoch=epoch,
            loss_mode=loss_mode,
            teacher_epoch=None if teacher is None else teacher.epoch,
            mean_alpha=float(alphas.mean()),
            alpha_std=float(alphas.std()),
            mean_grad_norm=float(np.mean(grad_norms)),
            train_loss=float(np.mean(losses)),
            val_score=float(val_score),
        ))

    return TrainResult(params=params, diagnostics=diagnostics, registry=registry,
                       model=model)


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    mean_nll: float
    confidences: np.ndarray  # max predictive probability per position
    corrects: np.ndarray     # bool per position

    @property
    def pairs(self) -> np.ndarray:
        """(confidence, correct) rows for the calibration report."""
        return np.column_stack([self.confidences, self.corrects.astype(np.float64)])


def evaluate(model, params: np.ndarray, dataset) -> EvalResult:
    """Accuracy, mean NLL, and per-position (confidence, correct) pairs."""
    inputs, targets, mask = _dataset_arrays(dataset)
    logits = model.forward(params, inputs)[0]
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_targets = np.asarray(targets).reshape(-1)
    keep = (np.ones(flat_targets.shape, dtype=bool) if mask is None
            else np.asarray(mask, dtype=bool).reshape(-1))
    probs = softmax_rows(flat_logits[keep])
    y = flat_targets[keep]
    pred = probs.argmax(axis=-1)
    picked = probs[np.arange(y.size), y]
    return EvalResult(
        accuracy=float((pred == y).mean()),
        mean_nll=float(-np.log(np.maximum(picked, PROB_FLOOR)).mean()),
        confidences=probs.max(axis=-1),
        corrects=pred == y,
    )


DIAGNOSTICS_COLUMNS = ("epoch", "loss_mode", "teacher_epoch", "mean_alpha",
                       "alpha_std", "mean_grad_norm", "train_loss", "val_score")


def write_diagnostics_csv(diagnostics: list[EpochDiagnostics], path) -> None:
    """One CSV row per epoch; absent teacher renders as an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DIAGNOSTICS_COLUMNS)
        for d in diagnostics:
            writer.writerow([
                d.epoch, d.loss_mode,
                "" if d.teacher_epoch is None else d.teacher_epoch,
                repr(d.mean_alpha), repr(d.alpha_std), repr(d.mean_grad_norm),
                repr(d.train_loss), repr(d.val_score),
            ])


def make_task_data(model_cfg: ModelConfig, *, train_size: int, val_size: int,
                   test_size: int, label_noise: float, seed: int,
                   separation: float = 0.6, min_len: int = 4,
                   max_len: int = 9) -> DataSplits:
    """Generate the synthetic dataset matching a model configuration."""
    if model_cfg.task == "classification":
        return make_gaussian_mixture(
            n_classes=model_cfg.n_classes, input_dim=model_cfg.input_dim,
            n_train=train_size, n_val=val_size, n_test=test_size,
            label_noise=label_noise, seed=seed, separation=separation)
    return make_copy_substitution(
        vocab=model_cfg.vocab, n_train=train_size, n_val=val_size,
        n_test=test_size, min_len=min_len, max_len=max_len,
        label_noise=label_noise, seed=seed)
