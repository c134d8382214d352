"""Synthetic desk-scale tasks with controllable overfitting pressure.

Every split of every task is one ``Split(inputs, targets, mask)``. A
classification split has no mask: every example counts. A sequence split
is right-padded with ``PAD_ID`` and its mask is ``inputs != PAD_ID``, built
once when the split is drawn; losses, metrics and the smoothing weight see
only the masked positions. ``gaussian_mixture`` and ``copy_substitution``
return the samplers of the two tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAD_ID = 0


@dataclass(frozen=True)
class Split:
    """One split of a task: inputs, integer targets and the mask of real positions.

    Classification: (n, d) float32 inputs, (n,) int64 labels, mask None.
    Sequence: (n, T) int64 inputs and targets, (n, T) bool mask.
    """

    inputs: np.ndarray
    targets: np.ndarray
    mask: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class DataSplits:
    train: Split
    val: Split
    test: Split


def flat_positions(logits: np.ndarray, targets, mask=None):
    """Logit rows and targets of the non-pad positions of (n, C) or (n, T, C)
    logits, and the flat mask that picked them. Without a ``mask`` every
    position counts: the rows are a view and the returned mask is None."""
    rows, flat_targets = logits.reshape(-1, logits.shape[-1]), np.asarray(targets).reshape(-1)
    keep = None if mask is None else np.asarray(mask, bool).reshape(-1)
    return (rows, flat_targets, keep) if keep is None else (rows[keep], flat_targets[keep], keep)


def gaussian_mixture(n_classes: int, input_dim: int, separation: float,
                     rng: np.random.Generator):
    """Sampler ``draw(n, label_noise)`` of Gaussian-mixture classification splits.

    Class means are drawn once, here, from a scaled normal; samples get unit
    isotropic noise. ``label_noise`` in [0, 1) replaces that fraction of the
    labels with a different random class; given to the training split only,
    it creates the overconfidence pressure the calibration experiments need.
    """
    means = rng.normal(0.0, separation, size=(n_classes, input_dim))

    def draw(n: int, noise: float) -> Split:
        y = rng.integers(0, n_classes, size=n)
        x = means[y] + rng.normal(0.0, 1.0, size=(n, input_dim))
        if noise > 0.0:
            flip = rng.random(y.shape) < noise
            # an offset in [1, n_classes) so the flipped label always changes
            offsets = rng.integers(1, n_classes, size=y.shape)
            y[flip] = (y[flip] + offsets[flip]) % n_classes
        return Split(x.astype(np.float32), y.astype(np.int64))

    return draw


def copy_substitution(vocab: int, min_len: int, max_len: int, rng: np.random.Generator):
    """Sampler ``draw(n, label_noise)`` of variable-length copy-task splits.

    Inputs are random tokens from [1, vocab); the target at each position
    is the input token mapped through a fixed random permutation of the
    non-pad vocabulary, drawn once, here. ``label_noise`` is the chance that
    a real target token is replaced by another symbol. Token 0 is reserved
    for padding. ``ModelConfig`` and ``DataConfig`` check the arguments.
    """
    # permutation over symbols 1..vocab-1; pad maps to pad
    mapping = np.concatenate(([PAD_ID], rng.permutation(np.arange(1, vocab))))

    def draw(n: int, noise: float) -> Split:
        lengths = rng.integers(min_len, max_len + 1, size=n)
        inputs = np.zeros((n, max_len), dtype=np.int64)
        for i, length in enumerate(lengths):
            inputs[i, :length] = rng.integers(1, vocab, size=length)
        targets = mapping[inputs]
        real = inputs != PAD_ID
        if noise > 0.0:
            flip = (rng.random(inputs.shape) < noise) & real
            offsets = rng.integers(1, vocab - 1, size=inputs.shape)
            shifted = (targets - 1 + offsets) % (vocab - 1) + 1
            targets = np.where(flip, shifted, targets)
        return Split(inputs, targets, real)

    return draw


def batch_indices(n: int, batch_size: int, rng: np.random.Generator):
    """Yield shuffled index batches covering 0..n-1 once."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]
