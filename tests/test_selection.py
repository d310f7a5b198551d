"""Ranking families, budget walks, padding, and corpus-level statistics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longspan import mcs, metrics
from longspan import selection as sel
from longspan.corpus import Document, Example, make_synthetic_corpus
from longspan.errors import DomainError, InputError, ScorerError
from longspan.metrics import ngram_recall

from test_metrics import brute_force_ngram_recall


def doc_from_words(*sentences):
    return Document([list(s.split()) for s in sentences], id="t")


class TestRankTrc:
    def test_three_sentences(self):
        doc = doc_from_words("a b", "c d", "e f")
        assert sel.rank_trc(doc).indices == [0, 1, 2]

    def test_single_sentence(self):
        assert sel.rank_trc(doc_from_words("a b")).indices == [0]

    def test_full_budget_reproduces_document(self):
        doc = doc_from_words("a b c", "d e", "f g h i")
        total = sum(map(len, doc.sentences))
        selection = sel.truncate_and_sort(doc, sel.rank_trc(doc), total)
        assert selection.indices == [0, 1, 2]
        assert selection.words_used == total
        assert selection.first_sentence_cut is None


class TestRankOracle:
    def test_identical_sentence_ranks_first(self):
        ref = "x y z".split()
        doc = doc_from_words("a b c", "x y z", "q r")
        ranking = sel.rank_oracle(doc, ref)
        assert ranking.indices[0] == 1
        assert sel.oracle_similarities(doc, ref)[1] == 1.0

    def test_no_overlap_gives_empty_ranking(self):
        doc = doc_from_words("a b c", "d e f")
        ranking = sel.rank_oracle(doc, "x y z".split())
        assert ranking.indices == []

    def test_planted_overlaps_rank_descending(self):
        # designed bigram recalls: s0 > s3 > s1 > 0, s2 = 0
        ref = "p q r s t u v w x y".split()  # 9 reference bigrams
        doc = Document([
            "p q r s t u n1 n2".split(),   # 5 matching bigrams
            "t u n3 n4".split(),           # 1 matching bigram
            "z1 z2 z3".split(),            # 0
            "v w x n5".split(),            # 2 matching bigrams
        ])
        sims = [ngram_recall(s, ref, 2) for s in doc.sentences]
        assert sims[0] > sims[3] > sims[1] > 0 and sims[2] == 0
        ranking = sel.rank_oracle(doc, ref)
        assert ranking.indices == [0, 3, 1]

    def test_tie_breaks_toward_smaller_index(self):
        doc = doc_from_words("a b z1", "a b z2", "c d")
        ranking = sel.rank_oracle(doc, "a b".split())
        assert ranking.indices == [0, 1]

    def test_empty_reference_rejected(self):
        with pytest.raises(InputError):
            sel.rank_oracle(doc_from_words("a b"), [])


class TestOraclePass:
    """One pass per document scores every sentence as the per-sentence form would."""

    # three tokens, so bigrams repeat within a sentence and within the reference
    tokens = st.sampled_from(["a", "b", "c"])

    @settings(max_examples=200, deadline=None)
    @given(sentences=st.lists(st.lists(tokens, min_size=1, max_size=8), min_size=1, max_size=6),
           reference=st.lists(tokens, max_size=10), n=st.integers(1, 3))
    @example(sentences=[["a"], ["a", "b"]], reference=[], n=2)
    @example(sentences=[["a"], ["a", "a"]], reference=["a"], n=2)
    @example(sentences=[["a", "b", "a", "b", "a", "b"], ["b"], ["b", "a"]],
             reference=["a", "b"], n=2)
    @example(sentences=[["a", "b", "a", "b"], ["c"], ["a", "b", "c", "a", "b"]],
             reference=["a", "b", "c", "a", "b", "a", "b"], n=2)
    def test_similarities_equal_brute_force(self, sentences, reference, n):
        want = [brute_force_ngram_recall(s, reference, n) for s in sentences]
        assert metrics.ngram_recalls(sentences, reference, n) == want
        assert [metrics.ngram_recall(s, reference, n) for s in sentences] == want
        if n != 2 or not reference:
            return
        doc = Document(sentences)
        assert sel.oracle_similarities(doc, reference) == want
        assert sel.positive_indices(want) == [i for i, w in enumerate(want) if w > 0]
        assert mcs.make_labels(doc, reference).tolist() == [1.0 if w > 0 else 0.0 for w in want]

    def test_empty_candidate_list_still_checks_n(self):
        assert metrics.ngram_recalls([], ["a", "b"], 2) == []
        with pytest.raises(DomainError):
            metrics.ngram_recalls([], ["a", "b"], 0)


class TestRankModel:
    def test_constant_scorer_identity_order(self):
        doc = doc_from_words("a", "b", "c")
        ranking = sel.rank_model(doc, lambda d: [0.5] * d.n_sentences)
        assert ranking.indices == [0, 1, 2]

    def test_index_scorers_order_by_score(self):
        doc = doc_from_words("a", "b", "c")
        by_position = sel.rank_model(doc, lambda d: list(range(d.n_sentences)))
        assert by_position.indices == [2, 1, 0]  # highest score first
        negated = sel.rank_model(doc, lambda d: [-i for i in range(d.n_sentences)])
        assert negated.indices == [0, 1, 2]

    def test_matches_independent_sort(self):
        rng = np.random.default_rng(3)
        doc = Document([[f"w{i}"] for i in range(8)])
        scores = rng.normal(size=8).tolist()
        ranking = sel.rank_model(doc, lambda d: scores)
        expected = sorted(range(8), key=lambda i: (-scores[i], i))
        assert ranking.indices == expected

    def test_non_finite_rejected(self):
        with pytest.raises(ScorerError):
            sel.rank_model(doc_from_words("a", "b"), lambda d: [1.0, float("nan")])


class TestTruncateAndSort:
    def test_greedy_walk_by_hand(self):
        doc = doc_from_words("a b c d e", "f g h i j", "k l m n o")
        selection = sel.truncate_and_sort(doc, sel.rank_trc(doc), 12)
        assert selection.indices == [0, 1]
        assert selection.words_used == 10

    def test_oversized_first_sentence_is_cut(self):
        doc = Document([[f"w{i}" for i in range(20)]])
        selection = sel.truncate_and_sort(doc, sel.rank_trc(doc), 8)
        assert selection.indices == [0]
        assert selection.words_used == 8
        assert selection.first_sentence_cut == 8

    def test_stop_at_first_overflow_no_skip_ahead(self):
        doc = doc_from_words("a b c", "d e f g h i j k", "l m")
        selection = sel.truncate_and_sort(doc, sel.rank_trc(doc), 6)
        # sentence 1 overflows; sentence 2 would fit but the walk stops
        assert selection.indices == [0]

    def test_restores_original_order(self):
        doc = doc_from_words("a b", "c d", "e f")
        ranking = sel.Ranking([2, 0, 1])
        selection = sel.truncate_and_sort(doc, ranking, 4)
        assert selection.indices == [0, 2]

    def test_empty_ranking_is_valid_empty_selection(self):
        doc = doc_from_words("a b")
        selection = sel.truncate_and_sort(doc, sel.Ranking([]), 5)
        assert selection.indices == [] and selection.words_used == 0

    def test_bad_budget(self):
        with pytest.raises(DomainError):
            sel.truncate_and_sort(doc_from_words("a"), sel.rank_trc(doc_from_words("a")), 0)


class TestPadSelection:
    def test_full_core_unchanged(self):
        doc = doc_from_words("a b", "c d", "e f")
        core = sel.Selection([1], 2)
        padded = sel.pad_selection(core, doc, "lead", 2)
        assert padded.indices == [1] and padded.words_used == 2

    def test_lead_padding_takes_leading_unselected(self):
        doc = doc_from_words("a b", "c d", "e f")
        core = sel.Selection([2], 2)
        padded = sel.pad_selection(core, doc, "lead", 6)
        assert padded.indices == [0, 1, 2]

    def test_rand_padding_seeded_deterministic(self):
        doc = Document([[f"w{i}", "x"] for i in range(10)])
        core = sel.Selection([4], 2)
        a = sel.pad_selection(core, doc, "rand", 8, seed=17)
        b = sel.pad_selection(core, doc, "rand", 8, seed=17)
        assert a.indices == b.indices
        assert set(a.indices) >= {4}

    def test_superset_property(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            n = int(rng.integers(2, 10))
            doc = Document([[f"w{i}{j}" for j in range(int(rng.integers(1, 6)))]
                            for i in range(n)])
            core_size = int(rng.integers(0, n))
            order = rng.permutation(n)[:core_size]
            core_idx = sorted(int(i) for i in order)
            words = sum(len(doc.sentences[i]) for i in core_idx)
            budget = max(words, int(rng.integers(1, sum(map(len, doc.sentences)) + 3)))
            core = sel.Selection(core_idx, words)
            for mode in ("lead", "rand"):
                padded = sel.pad_selection(core, doc, mode, budget, seed=trial)
                assert set(padded.indices) >= set(core.indices)
                assert padded.words_used <= budget

    def test_oversized_core_passes_through(self):
        doc = Document([[f"w{i}" for i in range(20)], ["a", "b"]])
        core = sel.truncate_and_sort(doc, sel.rank_trc(doc), 8)
        padded = sel.pad_selection(core, doc, "lead", 8)
        assert padded.indices == [0] and padded.first_sentence_cut == 8


class TestSelectPipeline:
    def test_trc_equals_leading_word_truncation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            doc = Document([[f"w{i}{j}" for j in range(int(rng.integers(1, 7)))]
                            for i in range(n)])
            budget = int(rng.integers(1, sum(map(len, doc.sentences)) + 4))
            selection = sel.select(doc, sel.METHOD_TRC, budget)
            # oracle: walk sentences in order, stop at the last whole one fitting
            expected, used = [], 0
            for i, sentence in enumerate(doc.sentences):
                if used + len(sentence) > budget:
                    break
                expected.append(i)
                used += len(sentence)
            if expected:
                assert selection.indices == expected
            else:
                assert selection.first_sentence_cut == budget

    def test_orc_pad_rand_deterministic(self):
        examples = make_synthetic_corpus(5, seed=3)
        for ex in examples:
            a = sel.select(ex.doc, sel.METHOD_ORC_PAD_RAND, 20, reference=ex.reference, seed=9)
            b = sel.select(ex.doc, sel.METHOD_ORC_PAD_RAND, 20, reference=ex.reference, seed=9)
            assert a.indices == b.indices and a.words_used == b.words_used

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            sel.select(doc_from_words("a"), "bogus", 5)


class TestAggressiveFraction:
    def test_no_overlap_corpus_is_fully_aggressive(self):
        examples = [Example(doc_from_words("a b c", "d e"), ["x", "y", "z"])
                    for _ in range(4)]
        assert sel.aggressive_fraction(examples, 4) == 1.0

    def test_overfull_positive_set_is_never_aggressive(self):
        # every sentence overlaps; selections fill the budget exactly
        ref = "a b".split()
        doc = Document([["a", "b"] for _ in range(6)])
        examples = [Example(doc, ref)]
        assert sel.aggressive_fraction(examples, 4) == 0.0

    def test_matches_per_document_enumeration(self):
        examples = make_synthetic_corpus(10, seed=11)
        budget = 12
        expected = 0
        for ex in examples:
            selection = sel.truncate_and_sort(
                ex.doc, sel.rank_oracle(ex.doc, ex.reference), budget
            )
            if selection.words_used < budget:
                expected += 1
        assert sel.aggressive_fraction(examples, budget) == expected / len(examples)

    def test_missing_references_skipped(self, caplog):
        examples = [
            Example(doc_from_words("a b"), None),
            Example(doc_from_words("a b"), ["a", "b"]),
        ]
        frac = sel.aggressive_fraction(examples, 10)
        assert 0.0 <= frac <= 1.0

    def test_all_missing_raises(self):
        with pytest.raises(InputError):
            sel.aggressive_fraction([Example(doc_from_words("a"), None)], 5)


class TestRandomizedProperties:
    """Order, budget, and determinism over randomized documents."""

    def test_thousand_documents(self):
        rng = np.random.default_rng(23)
        vocab = [f"v{i}" for i in range(12)]
        for trial in range(1000):
            n = int(rng.integers(1, 9))
            doc = Document([
                [vocab[k] for k in rng.integers(0, len(vocab), size=rng.integers(1, 7))]
                for _ in range(n)
            ])
            ref = [vocab[k] for k in rng.integers(0, len(vocab), size=rng.integers(2, 8))]
            budget = int(rng.integers(1, 30))
            method = [sel.METHOD_TRC, sel.METHOD_ORC_NO_PAD, sel.METHOD_ORC_PAD_LEAD,
                      sel.METHOD_ORC_PAD_RAND][trial % 4]
            selection = sel.select(doc, method, budget, reference=ref, seed=trial)
            again = sel.select(doc, method, budget, reference=ref, seed=trial)
            assert selection.indices == again.indices  # determinism
            assert all(b > a for a, b in zip(selection.indices, selection.indices[1:]))
            if selection.first_sentence_cut is None:
                assert selection.words_used <= budget
                assert selection.words_used == sum(
                    len(doc.sentences[i]) for i in selection.indices
                )
            else:
                assert selection.words_used == budget
            if method in (sel.METHOD_ORC_PAD_LEAD, sel.METHOD_ORC_PAD_RAND):
                core = sel.select(doc, sel.METHOD_ORC_NO_PAD, budget, reference=ref)
                assert set(selection.indices) >= set(core.indices)
