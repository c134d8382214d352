import math

import numpy as np
import pytest
from conftest import bleu_of, counter_bleu
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alskd.metrics import accuracy_score, corpus_bleu, mean_nll


@st.composite
def corpora(draw):
    """Sentence pairs over a small int or str alphabet, so n-grams repeat and get clipped."""
    token = draw(st.sampled_from([st.integers(-1, 3), st.sampled_from(["a", "b", "c", "ab"])]))
    sentence = st.lists(token, max_size=8)
    pairs = draw(st.lists(st.tuples(sentence, sentence), min_size=1, max_size=12))
    return [h for h, _ in pairs], [r for _, r in pairs]


class TestMiniBleu:
    def test_identical_sequences_score_one(self):
        seqs = [[1, 2, 3, 4], [5, 6], [7, 8, 9]]
        assert bleu_of(seqs, seqs) == pytest.approx(1.0)

    def test_hand_counted_example(self):
        # hyp "a b c d" vs ref "a b c e": unigram 3/4, bigram 2/3,
        # equal lengths so no brevity penalty
        hyp = [["a", "b", "c", "d"]]
        ref = [["a", "b", "c", "e"]]
        assert bleu_of(hyp, ref, max_n=2) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_zero_when_any_precision_empty(self):
        # no 4-gram of the hypothesis appears in the reference
        assert bleu_of([[1, 2, 3, 4]], [[4, 3, 2, 1]], max_n=4) == 0.0

    def test_brevity_penalty(self):
        # hyp "a b" vs ref "a b c": p1 = 1, p2 = 1, BP = exp(1 - 3/2)
        score = bleu_of([["a", "b"]], [["a", "b", "c"]], max_n=2)
        assert score == pytest.approx(math.exp(1 - 3 / 2), abs=1e-12)

    def test_no_penalty_when_longer(self):
        # hyp "a b c x" vs ref "a b c": p1 = 3/4, p2 = 2/3; no penalty
        score = bleu_of([["a", "b", "c", "x"]], [["a", "b", "c"]], max_n=2)
        assert score == pytest.approx(math.sqrt(0.75 * 2 / 3), abs=1e-12)

    def test_clipping_counts_repeats(self):
        # "the the the" vs "the cat": clipped unigram matches = 1
        score = bleu_of([["the", "the", "the"]], [["the", "cat"]], max_n=1)
        assert score == pytest.approx(1 / 3, abs=1e-12)

    def test_corpus_pools_counts(self):
        hyps = [["a", "b"], ["c", "d"]]
        refs = [["a", "x"], ["c", "d"]]
        # pooled unigrams: 3 matches of 4; pooled bigrams: 1 of 2
        assert bleu_of(hyps, refs, max_n=2) == pytest.approx(
            math.sqrt(0.75 * 0.5), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(corpora(), st.integers(1, 6))
    @example(([[]], [[]]), 4)
    @example(([[], [1, 2]], [[1, 2], []]), 2)
    @example(([["the", "the", "the", "the"]], [["the", "the", "cat"]]), 2)
    @example(([[1, 2, 1, 2, 1]], [[2, 1, 2]]), 6)
    def test_equals_counter_oracle(self, corpus, max_n):
        hyps, refs = corpus
        assert bleu_of(hyps, refs, max_n=max_n) == counter_bleu(hyps, refs, max_n=max_n)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            corpus_bleu(np.zeros(0, np.int64), np.zeros(0, np.int64))
        with pytest.raises(ValueError):
            corpus_bleu(np.array([1, 1]), np.array([1, 1]), max_n=0)


class TestScalarMetrics:
    def test_accuracy(self):
        assert accuracy_score(np.array([1, 2, 3]), np.array([1, 2, 0])) == pytest.approx(2 / 3)

    def test_mean_nll(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1]])
        targets = np.array([0, 1])
        expected = -(math.log(0.5) + math.log(0.1)) / 2
        assert mean_nll(probs, targets) == pytest.approx(expected, abs=1e-12)
