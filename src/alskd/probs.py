"""Probability primitives shared by the losses, the gradient lab, and the trainer.

Distributions are plain 1-D numpy float64 arrays summing to one; smoothing
weights are plain floats in [0, 1]. Natural logarithms are used throughout,
so entropies (and the losses built on them) are reported in nats. The log
base cancels in the normalized-entropy smoothing weight, so this choice is
observationally irrelevant there.

Every smoothing weight is the trainer's row weight ``alpha_rows``;
``adaptive_alpha`` is that weight for one validated row, and ``entropy`` is
the exactly rounded reference that the row entropies are tested against.
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
    the entries, bit for bit: the reference for ``entropy_rows``.
    """
    arr = check_prob_dist(p)
    return -math.fsum((arr * floored_log(arr)).tolist())


def alpha_from_entropy(h, n_classes: int):
    """Smoothing weight ``1 - h / ln|C|`` of an entropy ``h`` (float or array), in [0, 1].

    Peaked predictions get a weight near 1, flat ones near 0; the clip only
    absorbs rounding overshoot. The weight is data: every analytic gradient
    in this package treats it as a constant.
    """
    return np.clip(1.0 - h / math.log(n_classes), 0.0, 1.0)


def adaptive_alpha(p) -> float:
    """The trainer's weight ``alpha_rows`` of one validated distribution, as one row.

    It may differ by one ulp from ``alpha_from_entropy(entropy(p), len(p))``."""
    arr = check_prob_dist(p)
    if arr.size < 2:
        raise ValueError("adaptive smoothing needs at least 2 classes (ln|C| = 0 otherwise)")
    row = arr[np.newaxis]
    return float(alpha_rows(row, floored_log(row))[0])


# Row-wise variants used on already-valid softmax outputs (trainer hot path;
# no per-row validation).

def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of a 2-D float array.

    The row max reduces the transposed copy column-wise, which is several times
    faster for short rows than ``z.max(axis=-1)`` and exact in any order; a
    signed-zero pair may yield either zero, which ``z - m`` and ``exp`` absorb.
    The row sums stay ``np.sum``, whose pairwise order is not exact."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.maximum.reduce(z.T.copy(), axis=0)[:, np.newaxis]
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
