"""Generalization metrics used to score self-teacher candidates."""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .probs import floored_log


def mini_bleu(hypotheses: Sequence[Sequence], references: Sequence[Sequence], max_n: int = 4) -> float:
    """Corpus-level BLEU: clipped n-gram precisions, geometric mean, brevity penalty.

    Single reference per hypothesis, no smoothing. The geometric mean runs
    over the n-gram orders the hypotheses actually realize (a corpus of
    only short sequences simply has no high-order terms); any realized
    order with zero matches collapses the score to 0. Tokens can be any
    hashable values.

    N-grams are counted as packed integer keys. Tokens get dense ids from
    one dict pass over the corpus, and each sentence pair a dense rank.
    An order-n key is ``rank * n_ids + id`` of the n-gram's last token,
    where ``rank`` is the dense rank (from ``np.unique``) of its order-(n-1)
    prefix key, and the order-0 key is the pair rank; n-grams that would
    cross a sentence boundary are dropped. Keys are thus equal exactly when
    the pair and every token agree, so the per-pair clipped counts are the
    same integers a per-sentence n-gram counter gives, and the score is
    exact, not approximate. Ranks are below the corpus token count
    ``n_tokens`` and ids below ``n_ids <= n_tokens``, so every key is
    below ``n_tokens * n_ids``: int64 holds it for any corpus of fewer
    than 3e9 tokens.
    """
    if len(hypotheses) != len(references):
        raise ValueError("need one reference per hypothesis")
    if not hypotheses:
        raise ValueError("need at least one hypothesis")
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n!r}")

    # hypotheses first, then references; each sentence is one segment
    sentences = [list(s) for s in (*hypotheses, *references)]
    ids: dict = {}
    tokens = np.array([ids.setdefault(t, len(ids)) for s in sentences for t in s], dtype=np.int64)
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    hyp_len = int(lengths[: len(hypotheses)].sum())
    segment_end = np.repeat(np.cumsum(lengths), lengths)
    pair = np.repeat(np.arange(len(sentences)) % len(hypotheses), lengths)

    matched = np.zeros(max_n)
    total = np.zeros(max_n)
    starts = np.arange(tokens.size)
    prefix = np.unique(pair, return_inverse=True)[1]
    for n in range(1, max_n + 1):
        whole = starts + n <= segment_end[starts]
        starts, prefix = starts[whole], prefix[whole]
        keys = prefix * len(ids) + tokens[starts + n - 1]
        unique, prefix = np.unique(keys, return_inverse=True)
        n_hyp = int(np.searchsorted(starts, hyp_len))
        hyp_counts = np.bincount(prefix[:n_hyp], minlength=unique.size)
        ref_counts = np.bincount(prefix[n_hyp:], minlength=unique.size)
        matched[n - 1] = np.minimum(hyp_counts, ref_counts).sum()
        total[n - 1] = n_hyp

    realized = total > 0
    if not realized.any() or np.any(matched[realized] == 0):
        return 0.0
    log_precisions = np.log(matched[realized] / total[realized])
    ref_len = tokens.size - hyp_len
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    return float(bp * math.exp(log_precisions.mean()))


def accuracy_score(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of correct predictions."""
    correct = np.asarray(predictions) == np.asarray(targets)
    if correct.size == 0:
        raise ValueError("no predictions to score")
    return float(correct.mean())


def mean_nll(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean negative log likelihood in nats of the target under each row."""
    y = np.asarray(targets, dtype=np.int64).ravel()
    p = np.asarray(probs).reshape(y.size, -1)
    return float(-floored_log(p[np.arange(y.size), y]).mean())
