"""Generalization metrics used to score self-teacher candidates."""

from __future__ import annotations

import math

import numpy as np

from .probs import floored_log


def corpus_bleu(tokens: np.ndarray, lengths: np.ndarray, max_n: int = 4) -> float:
    """The ``mini_bleu`` metric: corpus BLEU of non-negative integer token ids, where
    ``tokens`` holds the n hypotheses, then their n references, and ``lengths``
    the 2n sentence lengths.

    Clipped n-gram precisions, their geometric mean and the brevity penalty, with
    one reference per hypothesis and no smoothing. The mean runs over the n-gram
    orders the hypotheses realize (a corpus of only short sequences has no
    high-order terms); any realized order with zero matches makes the score 0.

    N-grams are counted as packed integer keys. An order-n key is
    ``rank * n_ids + id`` of its last token (every id is below ``n_ids``),
    where ``rank`` is the dense rank (from ``np.unique``) of its order-(n-1)
    prefix key, and the order-0 key is the sentence pair; n-grams that would
    cross a sentence boundary are dropped. Keys are thus equal exactly when
    the pair and every token agree, so the clipped counts are the integers a
    per-sentence n-gram counter gives, whatever distinct ids the tokens get.
    Ranks are below the token count, so int64 holds every key for fewer than
    3e9 tokens with ids below that count.
    """
    n_pairs = len(lengths) // 2
    if not n_pairs:
        raise ValueError("need at least one hypothesis")
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n!r}")

    n_ids = int(tokens.max(initial=0)) + 1
    hyp_len = int(lengths[:n_pairs].sum())
    segment_end = np.repeat(np.cumsum(lengths), lengths)
    pair = np.repeat(np.arange(len(lengths)) % n_pairs, lengths)

    matched = np.zeros(max_n)
    total = np.zeros(max_n)
    starts = np.arange(tokens.size)
    prefix = np.unique(pair, return_inverse=True)[1]
    for n in range(1, max_n + 1):
        whole = starts + n <= segment_end[starts]
        starts, prefix = starts[whole], prefix[whole]
        keys = prefix * n_ids + tokens[starts + n - 1]
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
