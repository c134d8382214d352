"""Desk-scale training loop with per-batch smoothing and per-epoch teacher refresh.

The loop is single-threaded and deterministic given the root seed. Model
parameters are float32; losses, smoothing weights, and metrics accumulate
in float64. For the self-distillation methods, epoch 1 falls back to plain
cross entropy (no checkpoint exists yet) and every later epoch re-selects
its teacher from the registry before the first batch.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .artifacts import write_csv
from .data import (
    DataSplits,
    batch_indices,
    dataset_arrays,
    flat_positions,
    make_copy_substitution,
    make_gaussian_mixture,
)
from .losses import (
    confidence_penalty_rows,
    linear_alpha_schedule,
    mixture_loss_rows,
    unigram_prior,
)
from .metrics import accuracy_score, mean_nll
from .models import build_model
from .probs import alpha_rows, floored_log, softmax_rows
from .registry import CheckpointRegistry, TeacherHandle, evaluate_g

class Method(NamedTuple):
    """Cross entropy against ``(1-alpha) * onehot + alpha * prior``, as data.

    ``prior``: ``uniform``, ``unigram``, ``teacher`` (a past checkpoint of
    the same model) or None (the confidence penalty, which has no mixture).
    ``alpha``: ``zero``, ``fixed``, ``adaptive`` (per position) or ``linear``.
    """

    prior: str | None
    alpha: str


METHODS = {
    "base_ce": Method("uniform", "zero"),
    "uniform_ls": Method("uniform", "fixed"),
    "unigram_ls": Method("unigram", "fixed"),
    "conf_penalty": Method(None, "zero"),
    "adaptive_skd": Method("teacher", "adaptive"),
    "fixed_alpha_skd": Method("teacher", "fixed"),
    "adaptive_alpha_uniform": Method("uniform", "adaptive"),
    "linear_alpha_skd": Method("teacher", "linear"),
}


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

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {tuple(METHODS)}")
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
) -> BatchStats:
    """One batch: dispatch to the configured loss and backprop to parameters.

    The analytic logit gradient of the loss is composed with the model's
    layerwise chain rule; the batch reduction is the mean over non-pad positions.
    """
    logits, cache = model.forward(params, inputs)
    rows, y, keep = flat_positions(logits, targets, mask)
    n_kept = y.size
    if n_kept == 0:
        raise ValueError("batch has no non-pad positions")
    probs = softmax_rows(rows)
    logs = floored_log(probs)

    loss_mode = method
    if METHODS[method].prior == "teacher" and teacher is None:
        if epoch == 1:
            loss_mode = "base_ce"
        else:
            raise MissingTeacherError(
                f"method {method!r} needs a teacher past epoch 1 (at epoch {epoch})")
    prior, alpha_rule = METHODS[loss_mode]
    if alpha_rule == "adaptive":
        alphas = alpha_rows(probs, logs)
    elif alpha_rule == "fixed":
        alphas = np.full(n_kept, cfg.fixed_alpha)
    elif alpha_rule == "linear":
        alphas = np.full(n_kept, linear_alpha_schedule(epoch, cfg.max_alpha, cfg.epochs))
    else:
        alphas = np.zeros(n_kept)

    if prior is None:
        totals, grad_rows = confidence_penalty_rows(probs, logs, y, cfg.beta)
    else:
        if prior == "teacher":
            prior_rows = softmax_rows(flat_positions(teacher.logits(inputs), targets, mask)[0])
        elif prior == "unigram":
            if prior_probs is None:
                raise ValueError("unigram smoothing needs the estimated prior")
            prior_rows = prior_probs
        else:
            prior_rows = np.full(model.n_classes, 1.0 / model.n_classes)
        _, _, totals, grad_rows = mixture_loss_rows(probs, logs, y, prior_rows, alphas)

    dlogits = grad_rows / n_kept
    if keep is not None:  # pad positions get zero gradient
        dlogits, kept = np.zeros_like(logits), dlogits
        dlogits.reshape(keep.size, -1)[keep] = kept
    flat_grad = model.backward(params, cache, dlogits.reshape(logits.shape))
    return BatchStats(float(totals.mean()), alphas, flat_grad, loss_mode)


def learning_rate_at(step: int, base: float, warmup_steps: int) -> float:
    """Quadratic warmup to ``base`` followed by inverse-square-root decay.

    The quadratic ramp keeps the first epochs nearly inert (so early
    predictions stay high-entropy) while still reaching full rate at
    ``warmup_steps`` and decaying afterwards.
    """
    if warmup_steps <= 0:
        return base
    return base * min((step / warmup_steps) ** 2, math.sqrt(warmup_steps / step))


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

    inputs, targets, mask = dataset_arrays(splits.train)

    prior_probs = None
    if METHODS[cfg.method].prior == "unigram":
        labels = targets if mask is None else targets[mask]
        prior_probs = unigram_prior(labels, model.n_classes).probs

    velocity = np.zeros_like(params)
    step = 0
    diagnostics: list[EpochDiagnostics] = []

    try:
        for epoch in range(1, cfg.epochs + 1):
            teacher = None
            if METHODS[cfg.method].prior == "teacher" and epoch > 1:
                teacher = registry.select_teacher(epoch)

            losses = []
            grad_norms = []
            alpha_chunks = []
            loss_mode = cfg.method
            for batch_index, idx in enumerate(batch_indices(len(inputs), cfg.batch_size, batch_rng)):
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
                velocity *= cfg.momentum
                velocity -= lr * stats.grad
                params = params + velocity
                losses.append(stats.loss)
                g64 = stats.grad.astype(np.float64)
                grad_norms.append(math.sqrt(g64.dot(g64)))
                alpha_chunks.append(stats.alphas)
                loss_mode = stats.loss_mode

            val_score = evaluate_g(forward_fn, params, splits.val, cfg.g_kind)
            registry.store(params, epoch, val_score, cfg.g_kind)

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
    except BaseException:
        with contextlib.suppress(OSError):  # the error that stopped training is the one raised
            registry.write_index()
        raise
    registry.write_index()

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
    inputs, targets, mask = dataset_arrays(dataset)
    rows, y, _ = flat_positions(model.forward(params, inputs)[0], targets, mask)
    probs = softmax_rows(rows)
    pred = probs.argmax(axis=-1)
    return EvalResult(
        accuracy=accuracy_score(pred, y),
        mean_nll=mean_nll(probs, y),
        confidences=probs.max(axis=-1),
        corrects=pred == y,
    )


DIAGNOSTICS_COLUMNS = ("epoch", "loss_mode", "teacher_epoch", "mean_alpha",
                       "alpha_std", "mean_grad_norm", "train_loss", "val_score")


def write_diagnostics_csv(diagnostics: list[EpochDiagnostics], path) -> None:
    """One CSV row per epoch; absent teacher renders as an empty field."""
    write_csv(path, {name: [getattr(d, name) for d in diagnostics]
                     for name in DIAGNOSTICS_COLUMNS})


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
