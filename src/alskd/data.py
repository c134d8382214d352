"""Synthetic desk-scale tasks with controllable overfitting pressure."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAD_ID = 0


@dataclass(frozen=True)
class ClassificationData:
    """Fixed-length feature vectors with integer labels."""

    x: np.ndarray  # (n, d) float32
    y: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class SequenceData:
    """Same-length token transduction pairs, right-padded with PAD_ID."""

    inputs: np.ndarray   # (n, T) int64
    targets: np.ndarray  # (n, T) int64
    lengths: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def mask(self) -> np.ndarray:
        """True at real (non-pad) positions."""
        t_max = self.inputs.shape[1]
        return np.arange(t_max)[None, :] < self.lengths[:, None]


@dataclass(frozen=True)
class DataSplits:
    train: ClassificationData | SequenceData
    val: ClassificationData | SequenceData
    test: ClassificationData | SequenceData


def dataset_arrays(dataset):
    """``(inputs, targets, mask)`` of a split; the mask is None for classification."""
    if isinstance(dataset, ClassificationData):
        return dataset.x, dataset.y, None
    if isinstance(dataset, SequenceData):
        return dataset.inputs, dataset.targets, dataset.mask
    raise TypeError(f"unsupported dataset type {type(dataset).__name__}")


def flat_positions(logits: np.ndarray, targets, mask=None):
    """Logit rows and targets of the non-pad positions of (n, C) or (n, T, C)
    logits, and the flat mask that picked them. Without a ``mask`` every
    position counts: the rows are a view and the returned mask is None."""
    rows, flat_targets = logits.reshape(-1, logits.shape[-1]), np.asarray(targets).reshape(-1)
    keep = None if mask is None else np.asarray(mask, bool).reshape(-1)
    return (rows, flat_targets, keep) if keep is None else (rows[keep], flat_targets[keep], keep)


def _flip_labels(y: np.ndarray, n_classes: int, noise: float, rng: np.random.Generator) -> np.ndarray:
    """Replace a ``noise`` fraction of labels with a different random class."""
    if noise <= 0.0:
        return y
    y = y.copy()
    flip = rng.random(y.shape) < noise
    # draw an offset in [1, n_classes) so the flipped label always changes
    offsets = rng.integers(1, n_classes, size=y.shape)
    y[flip] = (y[flip] + offsets[flip]) % n_classes
    return y


def make_gaussian_mixture(
    n_classes: int,
    input_dim: int,
    n_train: int,
    n_val: int,
    n_test: int,
    label_noise: float,
    seed: int,
    separation: float,
) -> DataSplits:
    """Gaussian-mixture classification with label noise on the training split.

    Class means are drawn once from a scaled normal; samples get unit
    isotropic noise. ``label_noise`` corrupts only training labels, which
    creates the overconfidence pressure the calibration experiments need;
    validation and test labels stay clean.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if not (0.0 <= label_noise < 1.0):
        raise ValueError(f"label_noise must lie in [0, 1), got {label_noise!r}")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, separation, size=(n_classes, input_dim))

    def draw(n: int, noise: float) -> ClassificationData:
        y = rng.integers(0, n_classes, size=n)
        x = means[y] + rng.normal(0.0, 1.0, size=(n, input_dim))
        y = _flip_labels(y, n_classes, noise, rng)
        return ClassificationData(x=x.astype(np.float32), y=y.astype(np.int64))

    return DataSplits(
        train=draw(n_train, label_noise),
        val=draw(n_val, 0.0),
        test=draw(n_test, 0.0),
    )


def make_copy_substitution(
    vocab: int,
    n_train: int,
    n_val: int,
    n_test: int,
    min_len: int,
    max_len: int,
    label_noise: float,
    seed: int,
) -> DataSplits:
    """Variable-length copy task through a fixed token substitution.

    Inputs are random tokens from [1, vocab); the target at each position
    is the input token mapped through a fixed random permutation of the
    non-pad vocabulary. Training targets optionally get per-token noise.
    Token 0 is reserved for padding.
    """
    if vocab < 3:
        raise ValueError("need vocab >= 3 (one pad id plus at least two symbols)")
    if not (1 <= min_len <= max_len):
        raise ValueError("need 1 <= min_len <= max_len")
    rng = np.random.default_rng(seed)
    # permutation over symbols 1..vocab-1; pad maps to pad
    mapping = np.concatenate(([PAD_ID], rng.permutation(np.arange(1, vocab))))

    def draw(n: int, noise: float) -> SequenceData:
        lengths = rng.integers(min_len, max_len + 1, size=n)
        inputs = np.zeros((n, max_len), dtype=np.int64)
        for i, length in enumerate(lengths):
            inputs[i, :length] = rng.integers(1, vocab, size=length)
        targets = mapping[inputs]
        if noise > 0.0:
            real = inputs != PAD_ID
            flip = (rng.random(inputs.shape) < noise) & real
            offsets = rng.integers(1, vocab - 1, size=inputs.shape)
            shifted = (targets - 1 + offsets) % (vocab - 1) + 1
            targets = np.where(flip, shifted, targets)
        return SequenceData(inputs=inputs, targets=targets, lengths=lengths.astype(np.int64))

    return DataSplits(
        train=draw(n_train, label_noise),
        val=draw(n_val, 0.0),
        test=draw(n_test, 0.0),
    )


def batch_indices(n: int, batch_size: int, rng: np.random.Generator):
    """Yield shuffled index batches covering 0..n-1 once."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]
