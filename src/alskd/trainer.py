"""Desk-scale training loop with per-batch smoothing and per-epoch teacher refresh.

``TrainState.start`` builds a run, ``advance`` trains it one epoch, and
``train`` loops it. Each epoch resolves its loss once, as data:
``epoch_loss`` turns the method's row of ``config.METHODS`` into an ``EpochLoss``
that ``forward_backward`` applies to every batch. For the self-distillation
methods, epoch 1 falls back to plain cross entropy (no checkpoint exists
yet) and every later epoch learns from the best earlier checkpoint. That
teacher runs once per selection, not once per batch: its softmax at every
training position fills a ``TeacherTable``, from which ``advance`` gathers
each batch's prior rows. ``evaluate`` scores every split, validation and test.

The loop is single-threaded and deterministic given the root seed. Model
parameters are float32; losses, smoothing weights, and metrics accumulate
in float64.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .artifacts import write_csv
from .config import METHODS, DataConfig, ModelConfig, TrainConfig, check_g_kind
from .data import (
    DataSplits,
    Split,
    batch_indices,
    copy_substitution,
    flat_positions,
    gaussian_mixture,
)
from .losses import (
    confidence_penalty_rows,
    linear_alpha_schedule,
    mixture_loss_rows,
    uniform_prior,
    unigram_prior,
)
from .metrics import accuracy_score, corpus_bleu, mean_nll
from .models import build_model
from .probs import alpha_rows, floored_log, softmax_rows
from .registry import CheckpointRecord, CheckpointRegistry


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, batch_index: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch_index}")
        self.epoch = epoch
        self.batch_index = batch_index



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


@dataclass(frozen=True)
class TeacherHandle:
    """A stored checkpoint and the model that runs it; it only ever runs forward passes."""

    checkpoint: CheckpointRecord
    model: object = field(repr=False)

    def logits(self, inputs) -> np.ndarray:
        return self.model.forward(self.checkpoint.params, inputs)[0]

    def probs_table(self, inputs, batch_size: int) -> TeacherTable:
        """The teacher's softmax at every position of ``inputs``, shaped like its logits.

        Index-order chunks of ``batch_size`` rows, each softmaxed into its slice
        of one table, have the training batches' row counts, so every row gets
        the bits its batch's forward would (the row rule in ``models``).
        """
        probs = None
        for start in range(0, len(inputs), batch_size):
            logits = self.logits(inputs[start:start + batch_size])
            if probs is None:
                probs = np.empty((len(inputs), *logits.shape[1:]))
            probs[start:start + len(logits)] = softmax_rows(
                logits.reshape(-1, logits.shape[-1])).reshape(logits.shape)
        return TeacherTable(self.checkpoint.epoch, probs)


class TeacherTable(NamedTuple):
    """One teacher selection, run once: its softmax at every training position."""

    epoch: int         # the teacher's checkpoint epoch
    probs: np.ndarray  # float64, (n, C) or (n, T, C) like the logits of the training split

    def rows(self, idx, mask) -> np.ndarray:
        """The prior rows of the batch of examples ``idx``, in ``flat_positions`` order."""
        rows = self.probs[idx]
        return rows if mask is None else rows[mask]


class EpochLoss(NamedTuple):
    """One epoch's ``Method``, resolved before its first batch."""

    mode: str                                # the method trained; base_ce on a fallback epoch
    prior: np.ndarray | TeacherTable | None  # shared vector or batch rows, a teacher, or None
    alpha: float | None                      # None: the adaptive, per-position weight
    beta: float                              # the confidence penalty's weight


def epoch_loss(cfg: TrainConfig, epoch: int, n_classes: int, select_teacher,
               labels) -> EpochLoss:
    """Resolve ``cfg.method`` at ``epoch`` into the loss of all the epoch's batches.

    ``select_teacher(epoch)`` gives the teacher's prior and ``labels`` are the training
    labels of the unigram prior; only the methods that need them use them. The
    teacher methods need ``select_teacher`` after epoch 1.
    """
    mode = cfg.method
    if METHODS[mode].prior == "teacher" and epoch == 1:  # no checkpoint exists yet
        mode = "base_ce"
    kind, rule = METHODS[mode]
    prior = None  # the confidence penalty has no mixture prior
    if kind == "teacher":
        prior = select_teacher(epoch)
    elif kind == "unigram":
        prior = unigram_prior(labels, n_classes)
    elif kind == "uniform":
        prior = uniform_prior(n_classes)
    if rule == "linear":
        alpha = linear_alpha_schedule(epoch, cfg.max_alpha, cfg.epochs)
    else:
        alpha = {"zero": 0.0, "fixed": cfg.fixed_alpha, "adaptive": None}[rule]
    return EpochLoss(mode, prior, alpha, cfg.beta)


def forward_backward(model, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray,
                     loss: EpochLoss, mask: np.ndarray | None = None) -> BatchStats:
    """One batch: the epoch's loss and its backprop to parameters.

    ``loss.prior`` is a vector shared by every row, the batch's prior rows in
    ``flat_positions`` order (``TeacherTable.rows``), or None: the penalty. The
    analytic logit gradient of the loss is composed with the model's layerwise
    chain rule; the batch reduction is the mean over non-pad positions.
    """
    logits, cache = model.forward(params, inputs)
    rows, y, keep = flat_positions(logits, targets, mask)
    n_kept = y.size
    if n_kept == 0:
        raise ValueError("batch has no non-pad positions")
    probs = softmax_rows(rows)
    logs = floored_log(probs)

    alphas = alpha_rows(probs, logs) if loss.alpha is None else np.full(n_kept, loss.alpha)
    if loss.prior is None:
        totals, grad_rows = confidence_penalty_rows(probs, logs, y, loss.beta)
    else:
        _, _, totals, grad_rows = mixture_loss_rows(probs, logs, y, loss.prior, alphas)

    dlogits = grad_rows / n_kept
    if keep is not None:  # pad positions get zero gradient
        dlogits, kept = np.zeros_like(logits), dlogits
        dlogits.reshape(keep.size, -1)[keep] = kept
    flat_grad = model.backward(params, cache, dlogits.reshape(logits.shape))
    return BatchStats(float(totals.sum() / n_kept), alphas, flat_grad)


def learning_rate_at(step: int, base: float, warmup_steps: int) -> float:
    """Quadratic warmup to ``base`` followed by inverse-square-root decay.

    The quadratic ramp keeps the first epochs nearly inert (so early
    predictions stay high-entropy) while still reaching full rate at
    ``warmup_steps`` and decaying afterwards.
    """
    if warmup_steps <= 0:
        return base
    return base * min((step / warmup_steps) ** 2, math.sqrt(warmup_steps / step))


@dataclass
class TrainState:
    """A run between two epochs: everything the next epoch reads and advances."""

    model: object = field(repr=False)
    registry: CheckpointRegistry
    params: np.ndarray
    velocity: np.ndarray  # momentum buffer
    step: int             # optimizer steps taken, which set the learning rate
    batch_rng: np.random.Generator
    diagnostics: list[EpochDiagnostics] = field(default_factory=list)
    teacher: TeacherTable | None = None  # the last teacher selected, kept while it stays selected

    @property
    def epoch(self) -> int:
        """The last epoch completed, 0 before the first."""
        return len(self.diagnostics)

    @classmethod
    def start(cls, model_cfg: ModelConfig, cfg: TrainConfig, registry_dir) -> TrainState:
        """A fresh run; refuses a registry directory that already holds epochs."""
        check_g_kind(model_cfg, cfg)
        model = build_model(model_cfg)
        registry = CheckpointRegistry(registry_dir)
        if len(registry):
            raise FileExistsError(f"{registry.root} already holds epochs {registry.epochs()}; "
                                  "a run starts in a directory without checkpoints")
        params = model.init_params(cfg.seed)
        return cls(model, registry, params, np.zeros_like(params), 0,
                   np.random.default_rng(np.random.SeedSequence([cfg.seed, 1])))

    def _teacher_table(self, epoch: int, inputs, batch_size: int) -> TeacherTable:
        """The table of the teacher selected for ``epoch``, built only when the selection changes."""
        record = self.registry.select_teacher(epoch)
        if self.teacher is None or self.teacher.epoch != record.epoch:
            self.teacher = None  # the old table is freed before the new one is filled
            self.teacher = TeacherHandle(record, self.model).probs_table(inputs, batch_size)
        return self.teacher

    def advance(self, cfg: TrainConfig, splits: DataSplits) -> None:
        """Train one epoch, then validate it and checkpoint it for later teacher selection."""
        epoch = self.epoch + 1
        inputs, targets, mask = splits.train.inputs, splits.train.targets, splits.train.mask
        loss = epoch_loss(cfg, epoch, self.model.n_classes,
                          lambda e: self._teacher_table(e, inputs, cfg.batch_size),
                          targets if mask is None else targets[mask])
        table = loss.prior if isinstance(loss.prior, TeacherTable) else None
        losses, grad_norms, alpha_chunks = [], [], []
        for batch_index, idx in enumerate(batch_indices(len(inputs), cfg.batch_size,
                                                        self.batch_rng)):
            batch_mask = None if mask is None else mask[idx]
            batch_loss = loss if table is None else loss._replace(prior=table.rows(idx, batch_mask))
            stats = forward_backward(self.model, self.params, inputs[idx], targets[idx],
                                     batch_loss, batch_mask)
            if not math.isfinite(stats.loss):
                raise DivergenceError(epoch, batch_index)
            self.step += 1
            lr = learning_rate_at(self.step, cfg.learning_rate, cfg.warmup_steps)
            self.velocity *= cfg.momentum
            self.velocity -= lr * stats.grad
            self.params = self.params + self.velocity
            losses.append(stats.loss)
            g64 = stats.grad.astype(np.float64)
            grad_norms.append(math.sqrt(g64.dot(g64)))
            alpha_chunks.append(stats.alphas)

        val_score = getattr(evaluate(self.model, self.params, splits.val), cfg.g_kind)
        self.registry.store(self.params, epoch, val_score, cfg.g_kind)

        alphas = np.concatenate(alpha_chunks)
        self.diagnostics.append(EpochDiagnostics(
            epoch=epoch,
            loss_mode=loss.mode,
            teacher_epoch=None if table is None else table.epoch,
            mean_alpha=float(alphas.mean()),
            alpha_std=float(alphas.std()),
            mean_grad_norm=float(np.mean(grad_norms)),
            train_loss=float(np.mean(losses)),
            val_score=float(val_score),
        ))


def train(model_cfg: ModelConfig, cfg: TrainConfig, splits: DataSplits,
          registry_dir) -> TrainState:
    """Start a run and advance it ``cfg.epochs`` epochs; deterministic given the seed.

    The registry's ``index.csv`` is written when the run returns or raises.
    """
    state = TrainState.start(model_cfg, cfg, registry_dir)
    try:
        while state.epoch < cfg.epochs:
            state.advance(cfg, splits)
    except BaseException:
        with contextlib.suppress(OSError):  # the error that stopped training is the one raised
            state.registry.write_index()
        raise
    state.registry.write_index()
    return state


@dataclass(frozen=True)
class EvalResult:
    """One split's scores; the first three are the ``G_KINDS`` that rank checkpoints."""

    accuracy: float
    nll: float
    mini_bleu: float | None  # None on a split without a mask
    confidences: np.ndarray  # max predictive probability per position
    corrects: np.ndarray     # bool per position

    @property
    def pairs(self) -> np.ndarray:
        """(confidence, correct) rows for the calibration report."""
        return np.column_stack([self.confidences, self.corrects.astype(np.float64)])


def evaluate(model, params: np.ndarray, split: Split) -> EvalResult:
    """Accuracy, mean NLL, corpus BLEU of the greedy decode, and per-position
    (confidence, correct) pairs of one split, which must not be empty."""
    mask = split.mask
    rows, y, _ = flat_positions(model.forward(params, split.inputs)[0], split.targets, mask)
    probs = softmax_rows(rows)
    pred = rows.argmax(axis=-1)  # the greedy decode of every real position, in order
    return EvalResult(
        accuracy=accuracy_score(pred, y),
        nll=mean_nll(probs, y),
        mini_bleu=None if mask is None else corpus_bleu(np.concatenate([pred, y]),
                                                        np.tile(mask.sum(axis=1), 2)),
        confidences=np.maximum.reduce(probs.T.copy(), axis=0),  # row max, as softmax_rows takes it
        corrects=pred == y,
    )


def write_diagnostics_csv(diagnostics: list[EpochDiagnostics], path) -> None:
    """One CSV row per epoch and one column per field of ``EpochDiagnostics``;
    an absent teacher renders as an empty field."""
    write_csv(path, {f.name: [getattr(d, f.name) for d in diagnostics]
                     for f in fields(EpochDiagnostics)})


def make_task_data(model_cfg: ModelConfig, data: DataConfig, seed: int) -> DataSplits:
    """Generate the synthetic dataset matching a model configuration.

    One generator seeded with ``seed`` draws the task, then the train,
    validation and test splits, in that order; only training gets label noise.
    """
    rng = np.random.default_rng(seed)
    if model_cfg.task == "classification":
        draw = gaussian_mixture(model_cfg.n_classes, model_cfg.input_dim, data.separation, rng)
    else:
        draw = copy_substitution(model_cfg.vocab, data.min_len, data.max_len, rng)
    return DataSplits(draw(data.train_size, data.label_noise), draw(data.val_size, 0.0),
                      draw(data.test_size, 0.0))
