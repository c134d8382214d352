"""Desk-scale training loop with per-batch smoothing and per-epoch teacher refresh.

``TrainState.start`` builds a run, ``advance`` trains it one epoch, and
``train`` loops it. Each epoch resolves its loss once, as data:
``epoch_loss`` turns the method's row of ``METHODS`` into an ``EpochLoss``
that ``forward_backward`` applies to every batch. For the self-distillation
methods, epoch 1 falls back to plain cross entropy (no checkpoint exists
yet) and every later epoch runs a ``TeacherHandle``: the model on the best
earlier checkpoint. ``evaluate`` scores every split, validation and test.

The loop is single-threaded and deterministic given the root seed. Model
parameters are float32; losses, smoothing weights, and metrics accumulate
in float64.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import MISSING, dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .artifacts import write_csv
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
from .registry import G_KINDS, CheckpointRecord, CheckpointRegistry

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


class ConfigError(ValueError):
    """An invalid or unknown configuration value, with the offending field."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.message = message
        self.field = field


def _check(cfg, rule: str, ok, *names: str) -> None:
    """Refuse the first field of ``names`` whose value fails ``ok``, naming that field."""
    for name in names:
        value = getattr(cfg, name)
        if not ok(value):
            raise ConfigError(f"{rule}, got {value!r}", field=name)


def _ini(path: str, default=MISSING):
    """A field read from the INI key ``path`` ("section.key"), not ``SECTION.<field>``."""
    return field(default=default, metadata={"ini": path})


@dataclass(frozen=True)
class ModelConfig:
    SECTION: ClassVar[str] = "model"

    task: str = "classification"
    n_classes: int = _ini("model.classes", 10)
    input_dim: int = 16
    hidden: int = 64
    vocab: int = 12
    embed: int = 8

    def __post_init__(self):
        _check(self, "must be classification or seq_transduction",
               lambda task: task in ("classification", "seq_transduction"), "task")
        _check(self, "must be >= 2", lambda n: n >= 2, "n_classes")
        _check(self, "must be positive", lambda n: n >= 1, "input_dim", "hidden", "vocab", "embed")


@dataclass(frozen=True)
class DataConfig:
    """The synthetic dataset that ``make_task_data`` draws for a model."""

    SECTION: ClassVar[str] = "model"

    train_size: int = 1500
    val_size: int = 500
    test_size: int = 2000
    label_noise: float = 0.15
    separation: float = 0.6
    min_len: int = 4
    max_len: int = 9

    def __post_init__(self):
        _check(self, "label_noise must lie in [0, 1)", lambda p: 0.0 <= p < 1.0, "label_noise")


@dataclass(frozen=True)
class TrainConfig:
    SECTION: ClassVar[str] = "training"

    method: str = _ini("method.name")
    g_kind: str = _ini("method.g_kind", "accuracy")
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.35
    warmup_steps: int = 300
    momentum: float = 0.9
    seed: int = 0
    fixed_alpha: float = _ini("method.fixed_alpha", 0.1)
    beta: float = _ini("method.beta", 0.78)
    max_alpha: float = _ini("method.max_alpha", 0.7)

    def __post_init__(self):
        _check(self, f"must be one of {tuple(METHODS)}", METHODS.__contains__, "method")
        _check(self, f"must be one of {G_KINDS}", G_KINDS.__contains__, "g_kind")
        _check(self, "must be positive", lambda n: n >= 1, "epochs", "batch_size")
        _check(self, "must lie in [0, 1]", lambda a: 0.0 <= a <= 1.0, "fixed_alpha", "max_alpha")
        _check(self, "must be non-negative", lambda b: b >= 0, "beta")


def check_g_kind(model_cfg: ModelConfig, cfg: TrainConfig) -> None:
    """Refuse a validation metric that the task cannot score."""
    if cfg.g_kind == "mini_bleu" and model_cfg.task != "seq_transduction":
        raise ConfigError("mini_bleu requires a sequence task", field="g_kind")


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


class EpochLoss(NamedTuple):
    """One epoch's ``Method``, resolved before its first batch."""

    mode: str                                 # the method trained; base_ce on a fallback epoch
    prior: np.ndarray | TeacherHandle | None  # shared vector, a teacher, or None: the penalty
    alpha: float | None                       # None: the adaptive, per-position weight
    beta: float                               # the confidence penalty's weight


def epoch_loss(cfg: TrainConfig, epoch: int, n_classes: int, select_teacher,
               labels) -> EpochLoss:
    """Resolve ``cfg.method`` at ``epoch`` into the loss of all the epoch's batches.

    ``select_teacher(epoch)`` gives the teacher and ``labels`` are the training
    labels of the unigram prior; only the methods that need them use them.
    """
    mode = cfg.method
    if METHODS[mode].prior == "teacher" and epoch == 1:  # no checkpoint exists yet
        mode = "base_ce"
    kind, rule = METHODS[mode]
    prior = None  # the confidence penalty has no mixture prior
    if kind == "teacher":
        if select_teacher is None:
            raise MissingTeacherError(
                f"method {mode!r} needs a teacher past epoch 1 (at epoch {epoch})")
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

    alphas = alpha_rows(probs, logs) if loss.alpha is None else np.full(n_kept, loss.alpha)
    prior = loss.prior
    if prior is None:
        totals, grad_rows = confidence_penalty_rows(probs, logs, y, loss.beta)
    else:
        if isinstance(prior, TeacherHandle):
            prior = softmax_rows(flat_positions(prior.logits(inputs), targets, mask)[0])
        _, _, totals, grad_rows = mixture_loss_rows(probs, logs, y, prior, alphas)

    dlogits = grad_rows / n_kept
    if keep is not None:  # pad positions get zero gradient
        dlogits, kept = np.zeros_like(logits), dlogits
        dlogits.reshape(keep.size, -1)[keep] = kept
    flat_grad = model.backward(params, cache, dlogits.reshape(logits.shape))
    return BatchStats(float(totals.mean()), alphas, flat_grad)


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

    @property
    def epoch(self) -> int:
        """The last epoch completed, 0 before the first."""
        return len(self.diagnostics)

    @classmethod
    def start(cls, model_cfg: ModelConfig, cfg: TrainConfig, registry_dir) -> TrainState:
        """A fresh run; refuses a registry directory that already holds epochs."""
        check_g_kind(model_cfg, cfg)
        model = build_model(**vars(model_cfg))
        registry = CheckpointRegistry(registry_dir, expected_param_count=model.n_params)
        if len(registry):
            raise FileExistsError(f"{registry.root} already holds epochs {registry.epochs()}; "
                                  "a run starts in a directory without checkpoints")
        params = model.init_params(cfg.seed)
        return cls(model, registry, params, np.zeros_like(params), 0,
                   np.random.default_rng(np.random.SeedSequence([cfg.seed, 1])))

    def advance(self, cfg: TrainConfig, splits: DataSplits) -> None:
        """Train one epoch, then validate it and checkpoint it for later teacher selection."""
        epoch = self.epoch + 1
        inputs, targets, mask = splits.train.inputs, splits.train.targets, splits.train.mask
        loss = epoch_loss(cfg, epoch, self.model.n_classes,
                          lambda e: TeacherHandle(self.registry.select_teacher(e), self.model),
                          targets if mask is None else targets[mask])
        losses, grad_norms, alpha_chunks = [], [], []
        for batch_index, idx in enumerate(batch_indices(len(inputs), cfg.batch_size,
                                                        self.batch_rng)):
            stats = forward_backward(self.model, self.params, inputs[idx], targets[idx], loss,
                                     None if mask is None else mask[idx])
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
            teacher_epoch=(loss.prior.checkpoint.epoch if isinstance(loss.prior, TeacherHandle)
                           else None),
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
        confidences=probs.max(axis=-1),
        corrects=pred == y,
    )


DIAGNOSTICS_COLUMNS = ("epoch", "loss_mode", "teacher_epoch", "mean_alpha",
                       "alpha_std", "mean_grad_norm", "train_loss", "val_score")


def write_diagnostics_csv(diagnostics: list[EpochDiagnostics], path) -> None:
    """One CSV row per epoch; absent teacher renders as an empty field."""
    write_csv(path, {name: [getattr(d, name) for d in diagnostics]
                     for name in DIAGNOSTICS_COLUMNS})


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
