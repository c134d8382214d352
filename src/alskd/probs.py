"""Probability primitives shared by the losses, the gradient lab, and the trainer.

Distributions are plain 1-D numpy float64 arrays summing to one; smoothing
weights are plain floats in [0, 1]. Natural logarithms are used throughout,
so entropies (and the losses built on them) are reported in nats. The log
base cancels in the normalized-entropy smoothing weight, so this choice is
observationally irrelevant there.
"""

from __future__ import annotations

import math

import numpy as np

# Floor applied to probabilities before any log so that zero entries follow
# the 0 * log 0 = 0 convention instead of producing -inf.
PROB_FLOOR = 1e-12

# Tolerance on the sum-to-one invariant of a probability vector.
SUM_TOL = 1e-9


def check_prob_dist(p) -> np.ndarray:
    """Validate a probability vector and return it as a float64 array.

    Requires entries in [0, 1] and a total of 1 within ``SUM_TOL``.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"probability vector must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("probability vector must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("probability vector has non-finite entries")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("probability entries must lie in [0, 1]")
    total = arr.sum()
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"probabilities must sum to 1 within {SUM_TOL}, got {total!r}")
    return arr


def softmax(logits) -> np.ndarray:
    """Softmax of one vector of finite logits, length >= 2: row 0 of ``softmax_rows``."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size < 2:
        raise ValueError(f"logits must be a 1-D vector of length >= 2, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    return softmax_rows(z[np.newaxis])[0]


def entropy(p) -> float:
    """Shannon entropy -sum(p * ln p) in nats, with 0 * ln 0 = 0.

    The result lies in [0, ln(len(p))]; it is 0 for a one-hot vector and
    maximal for the uniform distribution. Terms are accumulated with an
    exactly-rounded sum, so the value is invariant under permutation of
    the entries, bit for bit.
    """
    arr = check_prob_dist(p)
    return float(exact_entropy_rows(arr[np.newaxis])[0])


def exact_entropy_rows(probs: np.ndarray) -> np.ndarray:
    """``entropy`` of each row of a 2-D array of distributions, unvalidated.

    Each row's terms are summed with ``math.fsum``, so every value is
    bit-identical to ``entropy`` of that row. For callers that built the
    rows themselves and need that identity (the gradient lab's sampler).
    """
    terms = probs * floored_log(probs)
    return np.array([-math.fsum(row) for row in terms.tolist()], dtype=np.float64)


def alpha_from_entropy(h, n_classes: int):
    """Smoothing weight ``1 - h / ln|C|`` of an entropy ``h`` (float or array), in [0, 1].

    Peaked predictions get a weight near 1, flat ones near 0; the clip only
    absorbs rounding overshoot. The weight is data: every analytic gradient
    in this package treats it as a constant.
    """
    return np.clip(1.0 - h / math.log(n_classes), 0.0, 1.0)


def adaptive_alpha(p) -> float:
    """``alpha_from_entropy`` of a validated distribution's ``entropy``."""
    arr = check_prob_dist(p)
    if arr.size < 2:
        raise ValueError("adaptive smoothing needs at least 2 classes (ln|C| = 0 otherwise)")
    return float(alpha_from_entropy(entropy(arr), arr.size))


# Row-wise variants used on already-valid softmax outputs (trainer hot path;
# no per-row validation).

def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of a 2-D float array."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def floored_log(probs: np.ndarray) -> np.ndarray:
    """``ln(max(p, PROB_FLOOR))`` elementwise: the logs every entropy and loss
    term uses. Batched callers compute them once and pass them on."""
    return np.log(np.maximum(np.asarray(probs, dtype=np.float64), PROB_FLOOR))


def entropy_rows(probs: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Entropy of each row of a 2-D probability array, given its ``floored_log``."""
    return -np.sum(probs * logs, axis=-1)


def alpha_rows(probs: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Adaptive smoothing weight of each row, given the rows' ``floored_log``."""
    return alpha_from_entropy(entropy_rows(probs, logs), probs.shape[-1])
