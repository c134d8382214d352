"""Small models with hand-written backpropagation over a flat parameter array.

Parameters live in one flat array (float32 in training) with a shape
manifest, which keeps optimizer code, checkpoint serialization, and
finite-difference checks trivial. ``forward`` returns float64 logits plus a
cache; ``backward`` consumes per-position logit gradients and returns a
flat parameter gradient in the parameter dtype. Internals follow the
parameter dtype, so tests may run the whole path in float64.
"""

from __future__ import annotations

import math

import numpy as np


# readout weights start small so initial predictions are near-uniform
_READOUT_INIT_SCALE = 0.1


class _FlatParamModel:
    """Shared flat-parameter bookkeeping: shapes, init, views.

    The layout, each parameter's (name, slice of the flat array, shape), and
    the parameter count ``n_params`` are fixed at construction; ``views``
    and ``init_params`` only read them.
    """

    def __init__(self, param_shapes, readout_names: tuple[str, ...]):
        #: (name, shape) pairs, fixed per architecture
        self.param_shapes = tuple(param_shapes)
        #: names of the logit-producing weights, given the smaller init scale
        self.readout_names = readout_names
        layout = []
        offset = 0
        for name, shape in self.param_shapes:
            size = math.prod(shape)
            layout.append((name, slice(offset, offset + size), shape))
            offset += size
        self._layout = tuple(layout)
        self.n_params = offset

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named reshaped views into the flat array (no copies)."""
        if flat.size != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {flat.size}")
        return {name: flat[span].reshape(shape) for name, span, shape in self._layout}

    def init_params(self, seed: int, dtype=np.float32) -> np.ndarray:
        """Zero biases, 1/sqrt(fan_in) weights, down-scaled readout."""
        rng = np.random.default_rng(seed)
        flat = np.empty(self.n_params, dtype=np.float64)
        for name, span, shape in self._layout:
            if len(shape) == 1:
                flat[span] = 0.0
            else:
                scale = 1.0 / np.sqrt(shape[-1])
                if name in self.readout_names:
                    scale *= _READOUT_INIT_SCALE
                flat[span] = rng.normal(0.0, scale, span.stop - span.start)
        return flat.astype(dtype)


class MLPClassifier(_FlatParamModel):
    """One-hidden-layer tanh classifier for fixed-length feature vectors."""

    def __init__(self, input_dim: int, hidden: int, n_classes: int):
        if min(input_dim, hidden) < 1 or n_classes < 2:
            raise ValueError("layer sizes must be positive and n_classes >= 2")
        self.input_dim = input_dim
        self.hidden = hidden
        self.n_classes = n_classes
        super().__init__([
            ("w1", (hidden, input_dim)),
            ("b1", (hidden,)),
            ("w2", (n_classes, hidden)),
            ("b2", (n_classes,)),
        ], readout_names=("w2",))

    def forward(self, params: np.ndarray, x: np.ndarray):
        """Logits of shape (n, C) in float64, plus the backward cache."""
        v = self.views(params)
        xb = np.asarray(x, dtype=params.dtype)
        h = np.tanh(xb @ v["w1"].T + v["b1"])
        logits = h @ v["w2"].T + v["b2"]
        return logits.astype(np.float64), (xb, h)

    def backward(self, params: np.ndarray, cache, dlogits: np.ndarray) -> np.ndarray:
        xb, h = cache
        v = self.views(params)
        dl = np.asarray(dlogits, dtype=np.float64)
        h64 = h.astype(np.float64)
        grad = np.empty(self.n_params, dtype=np.float64)
        g = self.views(grad)
        g["w2"][:] = dl.T @ h64
        g["b2"][:] = dl.sum(axis=0)
        dh = dl @ v["w2"].astype(np.float64)
        dz1 = dh * (1.0 - h64 * h64)
        g["w1"][:] = dz1.T @ xb.astype(np.float64)
        g["b1"][:] = dz1.sum(axis=0)
        return grad.astype(params.dtype)


class RecurrentTransducer(_FlatParamModel):
    """Single-layer tanh RNN emitting one class distribution per time step.

    Reads an embedded token sequence and predicts an output token at every
    position; suited to same-length transduction. Padded positions take
    part in the forward recurrence but receive zero logit gradients from
    the loss, so they contribute nothing to parameter updates.
    """

    def __init__(self, vocab: int, embed: int, hidden: int):
        if vocab < 2 or min(embed, hidden) < 1:
            raise ValueError("vocab must be >= 2 and sizes positive")
        self.vocab = vocab
        self.embed = embed
        self.hidden = hidden
        self.n_classes = vocab
        super().__init__([
            ("emb", (vocab, embed)),
            ("wx", (hidden, embed)),
            ("wh", (hidden, hidden)),
            ("bh", (hidden,)),
            ("wo", (vocab, hidden)),
            ("bo", (vocab,)),
        ], readout_names=("wo",))

    def forward(self, params: np.ndarray, tokens: np.ndarray):
        """Logits of shape (n, T, vocab) in float64, plus the backward cache."""
        v = self.views(params)
        tok = np.asarray(tokens, dtype=np.int64)
        n, t_max = tok.shape
        emb = v["emb"][tok]  # (n, T, embed)
        hs = np.zeros((n, t_max, self.hidden), dtype=params.dtype)
        h = np.zeros((n, self.hidden), dtype=params.dtype)
        for t in range(t_max):
            h = np.tanh(emb[:, t] @ v["wx"].T + h @ v["wh"].T + v["bh"])
            hs[:, t] = h
        logits = hs @ v["wo"].T + v["bo"]
        return logits.astype(np.float64), (tok, emb, hs)

    def backward(self, params: np.ndarray, cache, dlogits: np.ndarray) -> np.ndarray:
        tok, emb, hs = cache
        v = self.views(params)
        n, t_max, _ = hs.shape
        dl = np.asarray(dlogits, dtype=np.float64)
        hs64 = hs.astype(np.float64)
        wo = v["wo"].astype(np.float64)
        wh = v["wh"].astype(np.float64)
        wx = v["wx"].astype(np.float64)

        grad = np.zeros(self.n_params, dtype=np.float64)
        g = self.views(grad)
        g["wo"][:] = np.einsum("ntc,nth->ch", dl, hs64)
        g["bo"][:] = dl.sum(axis=(0, 1))

        dh_next = np.zeros((n, self.hidden), dtype=np.float64)
        demb = np.zeros((n, t_max, self.embed), dtype=np.float64)
        for t in range(t_max - 1, -1, -1):
            dh = dl[:, t] @ wo + dh_next
            dz = dh * (1.0 - hs64[:, t] * hs64[:, t])
            g["wx"] += dz.T @ emb[:, t].astype(np.float64)
            h_prev = hs64[:, t - 1] if t > 0 else np.zeros((n, self.hidden))
            g["wh"] += dz.T @ h_prev
            g["bh"] += dz.sum(axis=0)
            demb[:, t] = dz @ wx
            dh_next = dz @ wh
        np.add.at(g["emb"], tok, demb)
        return grad.astype(params.dtype)


def build_model(task: str, *, input_dim: int = 0, hidden: int = 0,
                n_classes: int = 0, vocab: int = 0, embed: int = 0):
    """Construct the model matching a task name."""
    if task == "classification":
        return MLPClassifier(input_dim=input_dim, hidden=hidden, n_classes=n_classes)
    if task == "seq_transduction":
        return RecurrentTransducer(vocab=vocab, embed=embed, hidden=hidden)
    raise ValueError(f"unknown task {task!r}")
