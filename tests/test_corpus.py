"""Document construction, JSONL round-trips, vocab, synthetic generator."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from longspan import corpus
from longspan.errors import FormatError, InputError
from longspan.metrics import ngram_recall


class TestDocument:
    def test_empty_rejected(self):
        with pytest.raises(InputError):
            corpus.Document([])
        with pytest.raises(InputError):
            corpus.Document([["a"], []])


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        examples = corpus.make_synthetic_corpus(5, seed=1)
        corpus.write_corpus(path, examples)
        loaded = corpus.load_corpus(path)
        assert len(loaded) == 5
        for a, b in zip(examples, loaded):
            assert a.doc.id == b.doc.id
            assert a.doc.sentences == b.doc.sentences
            assert a.reference == b.reference

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(st.fixed_dictionaries({
        "id": st.text(),
        "sentences": st.lists(st.lists(st.text(min_size=1), min_size=1), min_size=1),
    }), max_size=4))
    @example(records=[{"id": "naïve", "sentences": [["café", "日本語"], ["\u2028", "ünï"]]}])
    def test_write_jsonl_round_trips_non_ascii(self, tmp_path, records):
        path = tmp_path / "w.jsonl"
        corpus.write_jsonl(path, records)
        assert [record for _, record in corpus.iter_jsonl(path)] == records
        # one line per record, non-ASCII characters written as they are
        assert path.read_text(encoding="utf-8") == "".join(
            json.dumps(record, ensure_ascii=False) + "\n" for record in records)

    def test_string_sentences_accepted(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({
            "id": "x", "sentences": ["First one.", ["pre", "split"]],
            "reference": "a summary",
        }) + "\n")
        examples = corpus.load_corpus(path)
        assert examples[0].doc.sentences == [["first", "one"], ["pre", "split"]]
        assert examples[0].reference == ["a", "summary"]

    def test_missing_sentences_rejected(self):
        with pytest.raises(FormatError, match="sentences"):
            corpus.example_from_record({"id": "x"}, line_no=3)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "sentences": [["x"]]}\nnot json\n')
        with pytest.raises(FormatError, match="line 2"):
            corpus.load_corpus(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('\n{"id": "a", "sentences": [["x"]]}\n\n')
        assert len(corpus.load_corpus(path)) == 1


class TestVocab:
    def test_specials_and_lookup(self):
        vocab = corpus.Vocab(["beta", "alpha"])
        assert vocab.encode(["alpha", "unknown"]) == [vocab.index["alpha"], corpus.Vocab.UNK]
        assert vocab.tokens[corpus.Vocab.BOS] == "<bos>"

    def test_build_is_deterministic(self):
        examples = corpus.make_synthetic_corpus(4, seed=2)
        a = corpus.Vocab.build(examples)
        b = corpus.Vocab.build(list(examples))
        assert a.tokens == b.tokens

    def test_round_trip_through_list(self):
        vocab = corpus.Vocab(["x", "y"])
        again = corpus.Vocab(vocab.to_list())
        assert again.tokens == vocab.tokens


class TestSyntheticCorpus:
    def test_seeded_determinism(self):
        a = corpus.make_synthetic_corpus(6, seed=5)
        b = corpus.make_synthetic_corpus(6, seed=5)
        for x, y in zip(a, b):
            assert x.doc.sentences == y.doc.sentences
            assert x.reference == y.reference

    def test_planted_overlap_structure(self):
        examples = corpus.make_synthetic_corpus(10, seed=6)
        for ex in examples:
            overlaps = [ngram_recall(s, ex.reference, 2) for s in ex.doc.sentences]
            positive = [i for i, d in enumerate(overlaps) if d > 0]
            assert positive, "every document plants at least one relevant sentence"
            for i, sentence in enumerate(ex.doc.sentences):
                has_topic = any(tok.startswith("topic") for tok in sentence)
                assert (overlaps[i] > 0) == has_topic
