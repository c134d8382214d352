"""Smoothed-target losses with analytic logit gradients.

Every loss returns a ``(LossBreakdown, grad)`` pair where ``grad`` is the
exact gradient of the total loss with respect to the student logits. The
hard and teacher components are stored unweighted, so the breakdown always
reconstructs as ``total == (1 - alpha) * hard_term + alpha * teacher_term``.

The adaptive self-distillation loss computes its smoothing weight from the
student's own predictive entropy; that weight is a detached scalar and the
analytic gradient deliberately treats it as a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probs import adaptive_alpha, check_prob_dist, entropy_rows, floored_log, softmax

PRIOR_KINDS = ("uniform", "unigram")


@dataclass(frozen=True)
class PriorDistribution:
    """A fixed prior label distribution used to soften one-hot targets."""

    kind: str
    probs: np.ndarray

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise ValueError(f"unknown prior kind {self.kind!r}, expected one of {PRIOR_KINDS}")
        object.__setattr__(self, "probs", check_prob_dist(self.probs))


def uniform_prior(n_classes: int) -> PriorDistribution:
    """Uniform prior over ``n_classes`` labels."""
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    return PriorDistribution("uniform", np.full(n_classes, 1.0 / n_classes))


def unigram_prior(labels, n_classes: int) -> PriorDistribution:
    """Unigram prior estimated from training labels with add-one smoothing.

    Add-one smoothing keeps the prior strictly positive on classes that
    never occur in the training set.
    """
    y = np.asarray(labels, dtype=np.int64).ravel()
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError("labels out of range for the declared class count")
    counts = np.bincount(y, minlength=n_classes).astype(np.float64) + 1.0
    return PriorDistribution("unigram", counts / counts.sum())


@dataclass(frozen=True)
class LossBreakdown:
    """Total loss (nats) plus its unweighted components and the mixture weight.

    Invariant: ``total == (1 - alpha_used) * hard_term + alpha_used * teacher_term``.
    For losses without a teacher mixture (plain cross entropy, confidence
    penalty) ``alpha_used`` is 0, ``teacher_term`` is 0 and ``hard_term``
    carries the whole loss.
    """

    total: float
    hard_term: float
    teacher_term: float
    alpha_used: float


def _check_label(y: int, n_classes: int) -> int:
    idx = int(y)
    if idx != y or not (0 <= idx < n_classes):
        raise ValueError(f"target label {y!r} out of range [0, {n_classes})")
    return idx


def _mixture_row(z, y, prior: np.ndarray | None, alpha: float | None = None
                 ) -> tuple[LossBreakdown, np.ndarray]:
    """One sample through ``mixture_loss_rows``, as a breakdown and gradient.

    Validates the logits ``z``, the label ``y`` and the weight. A None
    ``prior`` is all zeros; a None ``alpha`` is ``adaptive_alpha`` of the student.
    """
    p = softmax(z)
    idx = _check_label(y, p.size)
    q = np.zeros(p.size) if prior is None else prior
    if q.size != p.size:
        raise ValueError("prior length does not match the class count")
    if alpha is not None and not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    a = adaptive_alpha(p) if alpha is None else alpha
    row = p[np.newaxis]
    hard, teacher, total, grad = mixture_loss_rows(row, floored_log(row), [idx], q, a)
    breakdown = LossBreakdown(total=float(total[0]), hard_term=float(hard[0]),
                              teacher_term=float(teacher[0]), alpha_used=float(a))
    return breakdown, grad[0]


def ce_loss(z, y) -> tuple[LossBreakdown, np.ndarray]:
    """Hard-target cross entropy ``-ln P(y)`` and its logit gradient ``P - y``:
    the mixture with weight 0 and an all-zero prior, so ``teacher_term`` is 0."""
    return _mixture_row(z, y, None, 0.0)


def label_smoothing_loss(z, y, prior: PriorDistribution, alpha: float) -> tuple[LossBreakdown, np.ndarray]:
    """Cross entropy against the smoothed target ``(1-alpha) * onehot + alpha * q``."""
    return _mixture_row(z, y, prior.probs, alpha)


def kd_loss(z_student, z_teacher, y, alpha: float) -> tuple[LossBreakdown, np.ndarray]:
    """Distillation loss mixing hard cross entropy with a teacher cross entropy.

    The teacher term is the cross entropy between the teacher and student
    distributions. Teacher logits are treated as constants (no gradient
    flows to them), so the gradient is ``P - (1-alpha) * onehot - alpha * P_teacher``.
    """
    return _mixture_row(z_student, y, softmax(z_teacher), alpha)


def adaptive_skd_loss(z_student, z_teacher, y) -> tuple[LossBreakdown, np.ndarray]:
    """Self-distillation loss whose mixture weight adapts to prediction entropy.

    The weight is ``adaptive_alpha`` of the student's own probabilities,
    ``1 - H(P) / ln|C|``, recorded in ``alpha_used``. It is a detached
    scalar: the returned gradient is exact for the loss with that weight
    held constant, which is the training-time contract.
    """
    if z_teacher is None:
        raise ValueError("adaptive self-distillation requires teacher logits")
    return _mixture_row(z_student, y, softmax(z_teacher))


def confidence_penalty_loss(z, y, beta: float = 0.78) -> tuple[LossBreakdown, np.ndarray]:
    """Cross entropy minus ``beta`` times the prediction entropy.

    The entropy bonus discourages peaked outputs. There is no teacher
    mixture here, so the whole value is reported as the hard term with
    ``alpha_used = 0``. One row of ``confidence_penalty_rows``.
    """
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta!r}")
    row = softmax(z)[np.newaxis]
    total, grad = confidence_penalty_rows(row, floored_log(row), [_check_label(y, row.size)], beta)
    value = float(total[0])
    return LossBreakdown(total=value, hard_term=value, teacher_term=0.0, alpha_used=0.0), grad[0]


def linear_alpha_schedule(epoch: int, max_alpha: float, epochs: int) -> float:
    """Linear ramp from 0 to ``max_alpha`` over ``epochs`` epochs, then flat."""
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch!r}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs!r}")
    if not (0.0 <= max_alpha <= 1.0):
        raise ValueError(f"max_alpha must lie in [0, 1], got {max_alpha!r}")
    return float(min(max_alpha, max_alpha * epoch / epochs))


def mixture_loss_rows(
    probs: np.ndarray,
    logs: np.ndarray,
    targets: np.ndarray,
    prior_rows: np.ndarray,
    alphas,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized smoothed-target cross entropy over rows.

    The one loss kernel: the trainer calls it on whole batches, and the
    per-sample losses above are one-row views of it. ``prior_rows`` may
    be a single prior vector (shared across rows) or one row per sample;
    ``alphas`` a scalar or one weight per row; ``logs`` is ``floored_log(probs)``.

    Returns ``(hard, teacher, total, grad)`` where the first three are
    per-row values and ``grad`` holds per-row logit gradients
    ``P - (1-alpha) * onehot - alpha * prior``.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.int64)
    q = np.asarray(prior_rows, dtype=np.float64)  # (C,) shared, or (n, C)
    a = np.asarray(alphas, dtype=np.float64).reshape(-1)  # (1,) shared, or (n,)
    rows = np.arange(len(p))
    hard = -logs[rows, y]
    teacher = -(q * logs).sum(axis=1)
    total = (1.0 - a) * hard + a * teacher
    grad = p - a[:, None] * q
    grad[rows, y] -= 1.0 - a
    return hard, teacher, total, grad


def confidence_penalty_rows(
    probs: np.ndarray, logs: np.ndarray, targets: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized confidence penalty: per-row totals and logit gradients.

    The gradient of the penalty through the softmax is
    ``beta * P_i * (ln P_i + H(P))``, which vanishes at the uniform
    distribution. ``logs`` is ``floored_log(probs)``.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.int64)
    rows = np.arange(p.shape[0])
    h = entropy_rows(p, logs)
    total = -logs[rows, y] - beta * h
    grad = p + beta * p * (logs + h[:, None])
    grad[rows, y] -= 1.0
    return total, grad
