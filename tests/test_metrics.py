"""ROUGE scoring vs. exhaustive and hand-enumerated oracles."""

from itertools import chain, combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longspan import metrics
from longspan.errors import DomainError


def brute_force_matches(candidate, reference, n):
    """Independent clipped-overlap count by explicit list walking:
    (matched, candidate n-grams, reference n-grams)."""
    ref_grams = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
    cand_grams = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
    matched = 0
    pool = list(ref_grams)
    for gram in cand_grams:
        if gram in pool:
            pool.remove(gram)
            matched += 1
    return matched, len(cand_grams), len(ref_grams)


def brute_force_ngram_recall(candidate, reference, n):
    matched, _, ref_total = brute_force_matches(candidate, reference, n)
    return matched / ref_total if ref_total else 0.0


def brute_force_ngram_precision(candidate, reference, n):
    matched, cand_total, _ = brute_force_matches(candidate, reference, n)
    return matched / cand_total if cand_total else 0.0


def dp_lcs(a, b):
    """Longest common subsequence length by the O(|a|·|b|) dynamic program."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def brute_force_lcs(a, b):
    """Longest common subsequence by enumerating all subsequences of the shorter side."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    best = 0
    for r in range(len(short), 0, -1):
        for keep in combinations(range(len(short)), r):
            sub = [short[i] for i in keep]
            it = iter(long_)
            if all(tok in it for tok in sub):
                best = r
                break
        if best:
            break
    return best


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert metrics.tokenize("Hello, World! it's 42.") == ["hello", "world", "it", "s", "42"]

    def test_empty(self):
        assert metrics.tokenize("  ...  ") == []


class TestNgramRecall:
    def test_identical_sequences(self):
        seq = ["a", "b", "c", "d"]
        assert metrics.ngram_recall(seq, seq, 2) == 1.0

    def test_disjoint_vocabularies(self):
        assert metrics.ngram_recall(["a", "b"], ["x", "y"], 1) == 0.0

    def test_hand_enumerated_bigram_case(self):
        # ref bigrams {ab, bd}; candidate matches only ab
        assert metrics.ngram_recall("a b c".split(), "a b d".split(), 2) == 0.5

    def test_short_reference_convention(self):
        assert metrics.ngram_recall(["a", "b"], ["a"], 2) == 0.0

    def test_zero_n_rejected(self):
        with pytest.raises(DomainError):
            metrics.ngram_recall(["a"], ["a"], 0)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(11)
        alphabet = ["a", "b", "c"]
        for _ in range(300):
            cand = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(1, 9))]
            ref = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(1, 9))]
            for n in (1, 2, 3):
                assert metrics.ngram_recall(cand, ref, n) == pytest.approx(
                    brute_force_ngram_recall(cand, ref, n)
                )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), alphabet=st.integers(1, 6), n=st.integers(1, 3))
    def test_exactly_brute_force_across_calls(self, data, alphabet, n):
        # one reference list scored against several candidates, then mutated
        # in place and scored again: a memo keyed by identity would go stale
        tokens = st.lists(st.integers(0, alphabet - 1).map(str), max_size=24)
        reference = data.draw(tokens)
        for _ in range(data.draw(st.integers(1, 4))):
            for candidate in data.draw(st.lists(tokens, min_size=1, max_size=4)):
                recall = brute_force_ngram_recall(candidate, reference, n)
                precision = brute_force_ngram_precision(candidate, reference, n)
                assert metrics.ngram_recall(candidate, reference, n) == recall
                assert metrics.rouge_n(candidate, reference, n) == \
                    metrics.RougeScore.from_pr(precision, recall)
            reference[:] = data.draw(tokens)

    def test_clipping_symmetry(self):
        rng = np.random.default_rng(12)
        alphabet = ["a", "b", "c"]
        for _ in range(200):
            x = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(2, 9))]
            y = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(2, 9))]
            for n in (1, 2):
                assert metrics.rouge_n(x, y, n).precision == pytest.approx(
                    metrics.rouge_n(y, x, n).recall
                )


class TestRougeL:
    def test_identical(self):
        s = metrics.rouge_l(["x", "y", "z"], ["x", "y", "z"])
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_empty_candidate(self):
        s = metrics.rouge_l([], ["a", "b"])
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_hand_case(self):
        s = metrics.rouge_l("a c e".split(), "a b c d e".split())
        assert s.precision == 1.0
        assert s.recall == pytest.approx(3 / 5)
        assert metrics.lcs_length("a c e".split(), "a b c d e".split()) == brute_force_lcs(
            "a c e".split(), "a b c d e".split()
        )

    def test_exhaustive_short_pairs(self):
        # every pair over a 3-symbol alphabet with lengths <= 3
        alphabet = ["a", "b", "c"]
        seqs = [list(p) for ln in range(1, 4) for p in product(alphabet, repeat=ln)]
        for x in seqs:
            for y in seqs:
                assert metrics.lcs_length(x, y) == brute_force_lcs(x, y)

    def test_recall_bounded_below_by_ordered_overlap(self):
        # the shared tokens "a .. c .. e" appear in the same relative order,
        # so the subsequence length is at least that overlap count
        cand = "a x c y e".split()
        ref = "a b c d e f".split()
        assert metrics.rouge_l(cand, ref).recall >= 3 / len(ref)
        cand2 = "q a r c".split()
        ref2 = "a c".split()
        assert metrics.rouge_l(cand2, ref2).recall >= 2 / len(ref2)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), alphabet=st.integers(1, 30))
    def test_bit_parallel_equals_dynamic_program(self, data, alphabet):
        # lengths up to 300 cross several 64-bit word boundaries of the bit vector
        def seq():
            size = data.draw(st.integers(0, 300))
            return data.draw(st.lists(st.integers(0, alphabet - 1).map(str),
                                      min_size=size, max_size=size))

        a, b = seq(), seq()
        want = dp_lcs(a, b)
        assert metrics.lcs_length(a, b) == want
        assert metrics.lcs_length(b, a) == want

    def test_random_pairs_up_to_len_8(self):
        rng = np.random.default_rng(13)
        alphabet = ["a", "b", "c"]
        for _ in range(400):
            x = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(1, 9))]
            y = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(1, 9))]
            assert metrics.lcs_length(x, y) == brute_force_lcs(x, y)


class TestRougeSuite:
    def test_identical_texts(self):
        toks = metrics.tokenize("the quick brown fox jumps")
        suite = metrics.rouge_suite(toks, toks)
        assert all(s.f1 == 1.0 and s.recall == 1.0 for s in suite.values())

    def test_disjoint_texts(self):
        suite = metrics.rouge_suite(["a", "b"], ["x", "y"])
        assert all(s.f1 == 0.0 for s in suite.values())

    def test_fixed_pair_matches_oracles(self):
        cand = "w1 w2 w3 w4 w5 w6 w7 w8 w9 w0".split()
        ref = "w1 w2 x w4 x w6 w7 x w9 w0".split()
        suite = metrics.rouge_suite(cand, ref)
        assert suite["r1"].recall == pytest.approx(brute_force_ngram_recall(cand, ref, 1))
        assert suite["r2"].recall == pytest.approx(brute_force_ngram_recall(cand, ref, 2))
        assert suite["rl"].recall == pytest.approx(brute_force_lcs(cand, ref) / len(ref))

    def test_scores_within_unit_interval_and_f1_bounds(self):
        rng = np.random.default_rng(14)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(200):
            cand = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 10))]
            ref = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 10))]
            for score in metrics.rouge_suite(cand, ref).values():
                for v in (score.precision, score.recall, score.f1):
                    assert 0.0 <= v <= 1.0
                if score.f1 > 0:
                    eps = 1e-12
                    assert min(score.precision, score.recall) - eps <= score.f1
                    assert score.f1 <= max(score.precision, score.recall) + eps
