"""Hierarchical selector: encoding, losses, beam decode, fusion, training."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longspan import autodiff as ad
from longspan import mcs
from longspan.corpus import Document, Example, Vocab, make_synthetic_corpus
from longspan.errors import DomainError, InputError, TrainingDivergedError
from longspan.metrics import ngram_recall
from longspan import selection as sel

from test_autodiff import check_grad_fd
from test_recurrence import banned_next


def tiny_vocab(extra=()):
    base = [f"w{i}" for i in range(12)] + list(extra)
    return Vocab(sorted(set(base)))


def tiny_model(vocab=None, seed=0, **overrides):
    vocab = vocab or tiny_vocab()
    defaults = dict(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                    word_layers=1, sent_layers=1, dropout=0.0,
                    max_sentences=8, max_words=6, max_target=8)
    defaults.update(overrides)
    config = mcs.McsConfig(**defaults)
    return mcs.McsModel.init(config, vocab, seed=seed)


def doc_of(*sentences):
    return Document([s.split() for s in sentences], id="d")


def beam_search(model, doc, **search):
    """Top hypothesis of ``doc`` alone; ``search`` overrides the beam's defaults."""
    with ad.no_grad():
        return model._beam_from_encoded(model.encode(doc), **search)[0]


def seq2seq_loss(model, doc, target):
    """The generation term alone: the mixed loss at gamma 0 reads no labels."""
    return model.mcs_loss(doc, target, None, gamma=0.0)


def label_loss(model, doc, labels):
    """The labelling term alone: the mixed loss at gamma 1 reads no target."""
    return model.mcs_loss(doc, None, labels, gamma=1.0)


class TestEncode:
    def test_sentence_state_count(self):
        model = tiny_model()
        doc = doc_of("w1 w2 w3", "w4 w5", "w6 w7 w8 w9")
        enc = model.encode(doc)
        assert enc.sent_states.shape == (3, model.config.hidden_dim)
        assert enc.sent_mask.tolist() == [[True, True, True]]
        assert enc.slot_words.shape == (1, 3 * 4, model.config.hidden_dim)
        assert enc.slot_word_mask.sum() == 9

    def test_clipping_warns_and_limits(self, caplog):
        model = tiny_model()
        doc = Document([["w1", "w2"]] * 12)
        with caplog.at_level("WARNING"):
            enc = model.encode(doc)
        assert enc.sent_mask.sum() == model.config.max_sentences
        assert "clipped" in caplog.text

    def test_permuting_sentences_permutes_word_states(self):
        model = tiny_model()
        doc = doc_of("w1 w2 w3", "w4 w5 w6", "w7 w8 w9")
        permuted = Document([doc.sentences[2], doc.sentences[0], doc.sentences[1]])
        a, b = (model.encode(d).slot_words.data.reshape(3, 3, -1) for d in (doc, permuted))
        np.testing.assert_array_equal(a[0], b[1])
        np.testing.assert_array_equal(a[1], b[2])
        np.testing.assert_array_equal(a[2], b[0])

    def test_probe_gradient_on_sentence_state(self):
        model = tiny_model(seed=3)
        doc = doc_of("w1 w2", "w3 w4 w5")
        probe = np.random.default_rng(0).normal(size=(2, model.config.hidden_dim))

        def f():
            enc = model.encode(doc)
            return ad.tsum(ad.mul(enc.sent_states, ad.Tensor(probe)))

        params = model.parameters()
        subset = [params["embed"], params["word.0.f.wx"], params["word.0.b.wh"],
                  params["sent.0.f.wx"], params["sent.0.b.wh"]]
        check_grad_fd(f, subset, max_coords=3)

    def test_empty_document_rejected(self):
        with pytest.raises(InputError):
            Document([])


class TestMakeLabels:
    def test_shared_bigram_is_positive(self):
        doc = doc_of("w1 w2 w3", "w4 w5")
        labels = mcs.make_labels(doc, "w1 w2".split())
        np.testing.assert_array_equal(labels, [1.0, 0.0])

    def test_planted_doc_matches_metric_oracle(self):
        rng = np.random.default_rng(4)
        vocab = [f"w{i}" for i in range(10)]
        doc = Document([
            [vocab[k] for k in rng.integers(0, 10, size=5)] for _ in range(5)
        ])
        ref = [vocab[k] for k in rng.integers(0, 10, size=6)]
        labels = mcs.make_labels(doc, ref)
        for i, sentence in enumerate(doc.sentences):
            assert labels[i] == (1.0 if ngram_recall(sentence, ref, 2) > 0 else 0.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(InputError):
            mcs.make_labels(doc_of("w1 w2"), [])


class TestSeq2SeqLoss:
    def test_uniform_logits_give_m_log_vocab(self):
        model = tiny_model()
        model.params["dec.out.w"].data[:] = 0.0
        model.params["dec.out.b"].data[:] = 0.0
        doc = doc_of("w1 w2 w3", "w4 w5")
        target = ["w1", "w4", "w2"]
        loss = seq2seq_loss(model, doc, target)
        assert abs(loss.item() - 3 * math.log(len(model.vocab))) < 1e-10

    def test_gradient_matches_finite_differences(self):
        model = tiny_model(seed=5)
        doc = doc_of("w1 w2", "w3 w4")
        target = ["w2", "w3"]
        params = model.parameters()
        subset = [params["embed"], params["dec.gru.wx"], params["dec.att_sent.w"],
                  params["dec.att_word.w"], params["dec.comb.w"], params["dec.out.w"],
                  params["word.0.f.wh"], params["sent.0.b.wx"]]
        check_grad_fd(lambda: seq2seq_loss(model, doc, target), subset, max_coords=3)

    def test_overfit_single_pair_strictly_decreases(self):
        model = tiny_model(seed=6)
        doc = doc_of("w1 w2 w3", "w4 w5 w6")
        example = Example(doc, ["w2", "w5", "w6"])
        settings = mcs.TrainSettings(steps=50, batch_size=1, warmup=25,
                                     lr_scale=0.01, seed=1, val_fraction=0.0)
        result = mcs.train(model, [example], gamma=0.0, settings=settings)
        losses = [h["train_loss"] for h in result.history]
        assert len(losses) == 50
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_overlong_target_rejected(self):
        model = tiny_model()
        with pytest.raises(InputError):
            seq2seq_loss(model, doc_of("w1 w2"), ["w1"] * 99)

    def test_bad_target_id_rejected(self):
        model = tiny_model()
        with pytest.raises(InputError):
            seq2seq_loss(model, doc_of("w1 w2"), [10**6])

    def test_single_string_target_rejected(self):
        model = tiny_model()
        with pytest.raises(InputError):
            seq2seq_loss(model, doc_of("w1 w2"), "w1 w2")

    @settings(max_examples=60, deadline=None)
    @given(target=st.lists(st.one_of(st.sampled_from(["w1", "w2", "unseen"]),
                                     st.integers(0, 11), st.booleans(),
                                     st.floats(0.0, 11.0), st.just(np.int64(3))),
                           min_size=1, max_size=8))
    def test_target_is_all_strings_or_all_integer_ids(self, target):
        model = tiny_model()
        strings = all(isinstance(t, str) for t in target)
        ids = all(isinstance(t, (int, np.integer)) and not isinstance(t, bool) for t in target)
        if strings or ids:
            want = model.vocab.encode(target) if strings else [int(t) for t in target]
            assert (seq2seq_loss(model, doc_of("w1 w2"), target).item()
                    == seq2seq_loss(model, doc_of("w1 w2"), want).item())
        else:
            with pytest.raises(InputError):
                seq2seq_loss(model, doc_of("w1 w2"), target)


class TestLabelLoss:
    def test_indifferent_classifier_gives_n_log_two(self):
        model = tiny_model()
        model.params["cls.w"].data[:] = 0.0
        model.params["cls.b"].data[()] = 0.0
        doc = doc_of("w1 w2", "w3 w4", "w5 w6")
        loss = label_loss(model, doc, np.array([1.0, 0.0, 1.0]))
        assert abs(loss.item() - 3 * math.log(2)) < 1e-12

    def test_confident_correct_predictions_near_zero(self):
        model = tiny_model()
        model.params["cls.w"].data[:] = 0.0
        model.params["cls.b"].data[()] = 30.0  # z_hat ~ 1 everywhere
        doc = doc_of("w1 w2", "w3 w4")
        loss = label_loss(model, doc, np.array([1.0, 1.0]))
        assert loss.item() < 1e-9

    def test_matches_scalar_recomputation(self):
        model = tiny_model(seed=7)
        doc = doc_of("w1 w2 w3", "w4 w5", "w6 w7")
        labels = np.array([1.0, 0.0, 1.0])
        with ad.no_grad():
            enc = model.encode(doc)
            z = model.classifier_scores(enc.sent_states).data
        z = np.clip(z, 1e-12, 1 - 1e-12)
        expected = -sum(
            labels[i] * math.log(z[i]) + (1 - labels[i]) * math.log(1 - z[i])
            for i in range(3)
        )
        assert abs(label_loss(model, doc, labels).item() - expected) < 1e-12

    def test_gradient(self):
        model = tiny_model(seed=8)
        doc = doc_of("w1 w2", "w3 w4")
        labels = np.array([1.0, 0.0])
        params = model.parameters()
        subset = [params["cls.w"], params["cls.b"], params["embed"],
                  params["sent.0.f.wh"]]
        check_grad_fd(lambda: label_loss(model, doc, labels), subset, max_coords=4)

    def test_wrong_label_length(self):
        model = tiny_model()
        with pytest.raises(InputError):
            label_loss(model, doc_of("w1 w2"), np.array([1.0, 0.0, 1.0]))

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(-700.0, 700.0),
           labels=st.lists(st.integers(0, 1), min_size=1, max_size=4),
           dtype=st.sampled_from([bool, int, float]))
    @example(x=28.0, labels=[0, 0], dtype=float)
    @example(x=-60.0, labels=[1], dtype=bool)
    @example(x=40.0, labels=[1, 1], dtype=int)
    @example(x=-33.25, labels=[0], dtype=float)
    @example(x=700.0, labels=[1, 0], dtype=float)
    @example(x=-700.0, labels=[0, 0, 1], dtype=int)
    def test_matches_high_precision_oracle_at_any_logit(self, x, labels, dtype):
        """With every logit x, the loss is sum log(1 + e^(+-x)) and d loss / d b is
        sum sigmoid(x) - y.  Both are within a few ulps of mpmath, relative (the
        gradient to the sum of its terms' sizes), so a confident, correct row keeps
        its precision: at x = 40 the label-1 loss is 4.2e-18, not 0."""
        import mpmath

        mpmath.mp.dps = 50
        model = tiny_model()
        model.params["cls.w"].data[:] = 0.0
        model.params["cls.b"].data[()] = x
        with ad.Tape() as tape:
            loss = label_loss(model, doc_of(*["w1 w2"] * len(labels)),
                              np.array(labels, dtype=dtype))
            tape.backward(loss)
        exact = sum(mpmath.log1p(mpmath.exp(-x if y else x)) for y in labels)
        terms = [-1 / (1 + mpmath.exp(x)) if y else 1 / (1 + mpmath.exp(-x)) for y in labels]
        ulps = 4 * 2.0**-52
        assert abs(loss.item() - exact) <= ulps * exact
        assert abs(model.params["cls.b"].grad - sum(terms)) <= ulps * sum(abs(t) for t in terms)
        tape.zero_grads()

    @settings(max_examples=60, deadline=None)
    @given(labels=st.lists(st.integers(0, 1), min_size=1, max_size=4),
           data=st.data(),
           gamma=st.sampled_from([0.37, 1.0]))
    def test_non_binary_label_raises(self, labels, data, gamma):
        bad = data.draw(st.floats(allow_nan=True).filter(lambda v: v not in (0.0, 1.0)))
        labels = np.array(labels, dtype=float)
        labels[data.draw(st.integers(0, len(labels) - 1))] = bad
        doc = doc_of(*["w1 w2"] * len(labels))
        with pytest.raises(InputError, match="0 or 1"):
            tiny_model().mcs_loss(doc, ["w1"], labels, gamma=gamma)


class TestMixedLoss:
    def setup_method(self):
        self.model = tiny_model(seed=9)
        self.doc = doc_of("w1 w2 w3", "w4 w5")
        self.target = ["w1", "w5"]
        self.labels = np.array([1.0, 0.0])

    def test_endpoints(self):
        label_only = self.model.mcs_loss(self.doc, self.target, self.labels, gamma=1.0)
        seq_only = self.model.mcs_loss(self.doc, self.target, self.labels, gamma=0.0)
        other_target, other_labels = ["w2", "w3", "w4"], np.array([0.0, 1.0])
        assert label_only.item() == label_loss(self.model, self.doc, self.labels).item()
        assert label_only.item() == self.model.mcs_loss(self.doc, other_target, self.labels,
                                                        gamma=1.0).item()
        assert seq_only.item() == seq2seq_loss(self.model, self.doc, self.target).item()
        assert seq_only.item() == self.model.mcs_loss(self.doc, self.target, other_labels,
                                                      gamma=0.0).item()
        assert label_only.item() != seq_only.item()

    def test_convex_combination(self):
        mixed = self.model.mcs_loss(self.doc, self.target, self.labels, gamma=0.2)
        expected = (
            0.2 * label_loss(self.model, self.doc, self.labels).item()
            + 0.8 * seq2seq_loss(self.model, self.doc, self.target).item()
        )
        assert abs(mixed.item() - expected) < 1e-9

    def test_gamma_domain(self):
        with pytest.raises(DomainError):
            self.model.mcs_loss(self.doc, self.target, self.labels, gamma=1.5)

    @pytest.mark.parametrize("gamma", [0.0, 0.2, 1.0])
    def test_gradients_at_gammas(self, gamma):
        params = self.model.parameters()
        subset = [params["embed"], params["cls.w"], params["dec.out.w"],
                  params["word.0.f.wx"], params["dec.comb.w"]]
        check_grad_fd(
            lambda: self.model.mcs_loss(self.doc, self.target, self.labels, gamma=gamma),
            subset, max_coords=3,
        )

    def test_gamma_zero_leaves_classifier_head_untouched(self):
        with ad.Tape() as tape:
            loss = self.model.mcs_loss(self.doc, self.target, self.labels, gamma=0.0)
            tape.backward(loss)
        assert self.model.params["cls.w"].grad is None
        assert self.model.params["dec.out.w"].grad is not None
        tape.zero_grads()

    def test_gamma_one_leaves_decoder_untouched(self):
        with ad.Tape() as tape:
            loss = self.model.mcs_loss(self.doc, self.target, self.labels, gamma=1.0)
            tape.backward(loss)
        assert self.model.params["dec.out.w"].grad is None
        for name in ad.GruParams.FIELDS:
            assert self.model.params[f"dec.gru.{name}"].grad is None
        assert self.model.params["cls.w"].grad is not None
        tape.zero_grads()


class TestBeamSearch:
    def test_width_one_equals_greedy(self):
        model = tiny_model(seed=10)
        doc = doc_of("w1 w2 w3", "w4 w5 w6")
        beam = beam_search(model, doc, width=1, length_penalty=1.0, min_len=1,
                           max_len=5, no_repeat_ngram=0)
        # greedy oracle: argmax step by step
        with ad.no_grad():
            enc = model.encode(doc)
            state, memory = model._decoder_start(enc)
            prev = Vocab.BOS
            expected = []
            for _ in range(5):
                state, logits, _ = model._decode_step([prev], state, memory)
                token = int(np.argmax(logits.data[0]))
                expected.append(token)
                if token == Vocab.EOS:
                    break
                prev = token
        assert beam.tokens == expected

    def test_no_repeat_ngram_banning(self):
        banned = banned_next([4, 5, 4], 2)
        assert banned == {5}  # (4, 5) exists, prefix is (4,)
        assert banned_next([4, 5, 4], 3) == set()
        assert banned_next([4, 5, 6, 4, 5], 3) == {6}
        assert banned_next([1, 2, 3], 1) == {1, 2, 3}

    def test_no_repeated_ngram_in_output(self):
        model = tiny_model(seed=12)
        doc = doc_of("w1 w2 w3", "w4 w5 w6")
        beam = beam_search(model, doc, width=2, min_len=8, max_len=8, no_repeat_ngram=2)
        grams = [tuple(beam.tokens[i : i + 2]) for i in range(len(beam.tokens) - 1)]
        assert len(grams) == len(set(grams))

    def test_min_len_suppresses_end_token(self):
        model = tiny_model(seed=13)
        doc = doc_of("w1 w2", "w3 w4")
        beam = beam_search(model, doc, width=2, min_len=6, max_len=8)
        assert len(beam.tokens) >= 6

    def test_zero_width_rejected(self):
        model = tiny_model()
        with pytest.raises(DomainError):
            beam_search(model, doc_of("w1 w2"), width=0)

    def test_overfit_then_decode_copies_target(self):
        vocab = tiny_vocab()
        model = tiny_model(vocab=vocab, seed=14)
        doc = doc_of("w1 w2 w3", "w4 w5 w6")
        target = ["w3", "w4", "w1"]
        example = Example(doc, target)
        settings = mcs.TrainSettings(steps=150, batch_size=1, warmup=20,
                                     lr_scale=0.05, seed=2, val_fraction=0.0)
        mcs.train(model, [example], gamma=0.0, settings=settings)
        beam = beam_search(model, doc, width=4, min_len=1, max_len=6)
        assert beam.tokens[:3] == vocab.encode(target)


class TestRankFusion:
    def test_rank_normalize_hand_case(self):
        # channel ranks (2,1,4,3) and (1,2,3,4) over four sentences
        label_scores = np.array([0.7, 0.9, 0.1, 0.4])
        attn_scores = np.array([4.0, 3.0, 2.0, 1.0])
        nl = mcs.rank_normalize(label_scores)
        ns = mcs.rank_normalize(attn_scores)
        np.testing.assert_allclose(nl, [2 / 3, 1.0, 0.0, 1 / 3])
        np.testing.assert_allclose(ns, [1.0, 2 / 3, 1 / 3, 0.0])
        fused = nl + ns
        np.testing.assert_allclose(fused, [5 / 3, 5 / 3, 1 / 3, 1 / 3])
        order = sorted(range(4), key=lambda i: (-fused[i], i))
        assert order == [0, 1, 2, 3]  # tie between 0 and 1 broken toward 0

    def test_single_sentence_scores_two(self):
        model = tiny_model(seed=15)
        doc = doc_of("w1 w2 w3")
        assert model.inference_scores(doc)[0].fused.tolist() == [2.0]
        assert sel.rank_model(doc, model.fused_scores).indices == [0]

    def test_endpoints(self):
        nl = mcs.rank_normalize(np.array([3.0, 2.0, 1.0]))
        assert nl[0] == 1.0 and nl[-1] == 0.0

    def test_rank_invariance_under_monotone_transforms(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            fused = mcs.rank_normalize(a) + mcs.rank_normalize(b)
            transformed = mcs.rank_normalize(np.exp(a)) + mcs.rank_normalize(3 * b + 7)
            np.testing.assert_allclose(fused, transformed)

    def test_fused_range_and_unique_top(self):
        rng = np.random.default_rng(17)
        a, b = rng.normal(size=8), rng.normal(size=8)
        nl, ns = mcs.rank_normalize(a), mcs.rank_normalize(b)
        assert ((nl + ns) <= 2.0).all() and ((nl + ns) >= 0.0).all()
        assert (nl == 1.0).sum() == 1 and (ns == 1.0).sum() == 1

    def test_inference_scores_match_ranking(self):
        model = tiny_model(seed=18)
        doc = doc_of("w1 w2 w3", "w4 w5", "w6 w7", "w8 w9")
        [scores] = model.inference_scores(doc)
        ranking = sel.rank_model(doc, model.fused_scores)
        expected = sorted(range(4), key=lambda i: (-scores.fused[i], i))
        assert ranking.indices == expected
        assert (scores.attn_mass >= 0).all()

    def test_clipped_sentences_are_scored_and_ranked_last(self):
        model = tiny_model(seed=19, max_sentences=3)
        doc = doc_of("w1 w2", "w3 w4", "w5 w6", "w7 w8", "w9 w10")
        [scores] = model.inference_scores(doc)
        ranking = sel.rank_model(doc, model.fused_scores)
        assert len(scores.fused) == len(scores.z_hat) == len(scores.attn_mass) == 5
        assert (scores.z_hat[3:] == 0.0).all() and (scores.attn_mass[3:] == 0.0).all()
        assert (scores.z_hat[:3] > 0.0).all() and (scores.attn_mass[:3] > 0.0).all()
        assert ranking.indices[3:] == [3, 4]
        expected = sorted(range(5), key=lambda i: (-scores.fused[i], i))
        assert ranking.indices == expected
        assert len(scores.to_records(doc.id)) == 5


class TestLossFiniteness:
    def test_all_losses_finite_on_random_inputs(self):
        rng = np.random.default_rng(77)
        vocab = tiny_vocab()
        for seed in range(10):
            model = tiny_model(vocab=vocab, seed=seed)
            # exaggerate the classifier to force saturated probabilities
            model.params["cls.b"].data[()] = float(rng.choice([-60.0, 60.0]))
            n = int(rng.integers(1, 5))
            doc = Document([
                [f"w{k}" for k in rng.integers(0, 12, size=rng.integers(1, 6))]
                for _ in range(n)
            ])
            target = [f"w{k}" for k in rng.integers(0, 12, size=rng.integers(1, 6))]
            labels = rng.integers(0, 2, size=n).astype(float)
            for gamma in (0.0, 0.37, 1.0):
                loss = model.mcs_loss(doc, target, labels, gamma=gamma)
                assert math.isfinite(loss.item())


class TestRecallRate:
    def test_full_selection_is_total_recall(self):
        examples = make_synthetic_corpus(4, seed=20)
        selections = [
            sel.Selection(list(range(ex.doc.n_sentences)), ex.doc.total_words)
            for ex in examples
        ]
        rate = mcs.recall_rate(selections,
                               [ex.doc for ex in examples],
                               [ex.reference for ex in examples])
        assert rate == 100.0

    def test_disjoint_selection_is_zero(self):
        doc = doc_of("w1 w2", "w3 w4")
        ref = "w1 w2".split()
        selections = [sel.Selection([1], 2)]
        assert mcs.recall_rate(selections, [doc], [ref]) == 0.0

    def test_docs_without_positive_sentences_excluded(self):
        doc_pos = doc_of("w1 w2", "w3 w4")
        doc_neg = doc_of("w5 w6")
        ref = "w1 w2".split()
        selections = [sel.Selection([0], 2), sel.Selection([0], 2)]
        rate = mcs.recall_rate(selections, [doc_pos, doc_neg], [ref, ref])
        assert rate == 100.0

    def test_random_baseline_tracks_budget_fraction(self):
        examples = make_synthetic_corpus(12, seed=21, n_sentences=(8, 8),
                                         words_per_sentence=(5, 5))
        budget = 20  # four of eight sentences fit
        rate = mcs.random_selection_recall(examples, budget, trials=40, seed=3)
        assert 30.0 < rate < 70.0  # around the 50% sentence fraction


class TestSchedule:
    def test_continuity_at_warmup_exact(self):
        for warmup in (4, 10, 100, 777, 10000, 20000):
            rising = mcs.lr_schedule(warmup, warmup)
            # decay arm evaluated directly
            decay = 0.002 * warmup**-0.5
            assert rising == decay

    def test_shape(self):
        assert mcs.lr_schedule(1, 100) < mcs.lr_schedule(100, 100)
        assert mcs.lr_schedule(400, 100) < mcs.lr_schedule(100, 100)

    def test_domain(self):
        with pytest.raises(DomainError):
            mcs.lr_schedule(0, 100)


class TestTraining:
    def test_loss_halves_on_synthetic_corpus(self):
        examples = make_synthetic_corpus(20, seed=22, n_sentences=(4, 6),
                                         words_per_sentence=(3, 5))
        vocab = Vocab.build(examples)
        config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                               word_layers=1, sent_layers=1, dropout=0.0,
                               max_sentences=8, max_words=6, max_target=10)
        model = mcs.McsModel.init(config, vocab, seed=23)
        settings = mcs.TrainSettings(steps=500, batch_size=2, warmup=30,
                                     lr_scale=0.05, seed=4, val_fraction=0.1,
                                     val_every=200, patience=10)
        result = mcs.train(model, examples, gamma=0.2, settings=settings)
        first = np.mean([h["train_loss"] for h in result.history[:10]])
        last = np.mean([h["train_loss"] for h in result.history[-10:]])
        assert last <= 0.5 * first

    def test_clipped_documents_train_and_warn_once_each(self, caplog):
        examples = make_synthetic_corpus(4, seed=25, n_sentences=(6, 7),
                                         words_per_sentence=(3, 5))
        model = tiny_model(Vocab.build(examples), seed=26, max_sentences=4, max_words=4)
        settings = mcs.TrainSettings(steps=6, batch_size=2, warmup=2, lr_scale=0.05,
                                     seed=5, val_fraction=0.25, val_every=2)
        with caplog.at_level("WARNING", logger="longspan.mcs"):
            result = mcs.train(model, examples, gamma=0.5, settings=settings)
        assert result.steps_run == 6
        clipped = [r for r in caplog.records if "clipped" in r.getMessage()]
        assert len(clipped) == len(examples)
        assert {r.args[0] for r in clipped} == {ex.doc.id for ex in examples}

    def test_deterministic_under_seed(self):
        examples = make_synthetic_corpus(6, seed=24, n_sentences=(3, 4),
                                         words_per_sentence=(3, 4))
        vocab = Vocab.build(examples)

        def run():
            config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                                   word_layers=1, sent_layers=1, dropout=0.1,
                                   max_sentences=6, max_words=5, max_target=8)
            model = mcs.McsModel.init(config, vocab, seed=25)
            settings = mcs.TrainSettings(steps=30, batch_size=2, warmup=10,
                                         lr_scale=0.02, seed=5, val_fraction=0.2,
                                         val_every=10)
            result = mcs.train(model, examples, gamma=0.2, settings=settings)
            return result.history, model.params["dec.out.w"].data.copy()

        hist_a, w_a = run()
        hist_b, w_b = run()
        assert hist_a == hist_b
        np.testing.assert_array_equal(w_a, w_b)

    def test_gamma_zero_keeps_classifier_at_init(self):
        examples = make_synthetic_corpus(4, seed=26, n_sentences=(3, 4),
                                         words_per_sentence=(3, 4))
        vocab = Vocab.build(examples)
        config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                               word_layers=1, sent_layers=1, dropout=0.0,
                               max_sentences=6, max_words=5, max_target=8)
        model = mcs.McsModel.init(config, vocab, seed=27)
        w0 = model.params["cls.w"].data.copy()
        dec0 = model.params["dec.out.w"].data.copy()
        settings = mcs.TrainSettings(steps=20, batch_size=1, warmup=5,
                                     lr_scale=0.02, seed=6, val_fraction=0.0)
        mcs.train(model, examples, gamma=0.0, settings=settings)
        np.testing.assert_array_equal(model.params["cls.w"].data, w0)
        assert not np.array_equal(model.params["dec.out.w"].data, dec0)

    def test_gamma_one_keeps_decoder_at_init(self):
        examples = make_synthetic_corpus(4, seed=28, n_sentences=(3, 4),
                                         words_per_sentence=(3, 4))
        vocab = Vocab.build(examples)
        config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                               word_layers=1, sent_layers=1, dropout=0.0,
                               max_sentences=6, max_words=5, max_target=8)
        model = mcs.McsModel.init(config, vocab, seed=29)
        dec0 = model.params["dec.out.w"].data.copy()
        cls0 = model.params["cls.w"].data.copy()
        settings = mcs.TrainSettings(steps=20, batch_size=1, warmup=5,
                                     lr_scale=0.02, seed=7, val_fraction=0.0)
        mcs.train(model, examples, gamma=1.0, settings=settings)
        np.testing.assert_array_equal(model.params["dec.out.w"].data, dec0)
        assert not np.array_equal(model.params["cls.w"].data, cls0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        examples = make_synthetic_corpus(4, seed=30, n_sentences=(3, 4),
                                         words_per_sentence=(3, 4))
        vocab = Vocab.build(examples)
        config = mcs.McsConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                               word_layers=1, sent_layers=1, dropout=0.0,
                               max_sentences=6, max_words=5, max_target=8)
        model = mcs.McsModel.init(config, vocab, seed=31)
        # an absurd learning rate overflows the output projection within a
        # few steps, driving the logits to inf and the loss to nan
        settings = mcs.TrainSettings(steps=50, batch_size=1, warmup=1,
                                     lr_scale=1e307, seed=8, val_fraction=0.0)
        with pytest.raises(TrainingDivergedError, match="step"):
            mcs.train(model, examples, gamma=0.0, settings=settings)

    def test_missing_reference_rejected(self):
        model = tiny_model()
        with pytest.raises(InputError):
            mcs.train(model, [Example(doc_of("w1 w2"), None)])


COUNTS = ("steps", "batch_size", "warmup", "val_every", "patience")
VALID_SETTINGS = {
    **{name: st.integers(1, 10**6) for name in COUNTS},
    "seed": st.integers(0, 2**63),
    "lr_scale": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "val_fraction": st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
}
INVALID_SETTINGS = {
    **{name: st.integers(max_value=0) for name in COUNTS},
    "seed": st.integers(max_value=-1),
    "lr_scale": st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan])),
    "val_fraction": st.one_of(st.floats(max_value=-1e-300), st.floats(min_value=1.0),
                              st.just(math.nan)),
}


class TestTrainSettings:
    @settings(max_examples=200, deadline=None)
    @given(fields=st.fixed_dictionaries(VALID_SETTINGS),
           broken=st.sampled_from([None, *INVALID_SETTINGS]), data=st.data())
    def test_each_out_of_range_field_raises_domain_error(self, fields, broken, data):
        if broken is None:
            assert dataclasses.asdict(mcs.TrainSettings(**fields)) == fields
            return
        fields[broken] = data.draw(INVALID_SETTINGS[broken], label=broken)
        with pytest.raises(DomainError, match=f"^{broken} must be"):
            mcs.TrainSettings(**fields)


class TestCheckpoint:
    def test_round_trip_preserves_behavior(self, tmp_path):
        model = tiny_model(seed=32)
        doc = doc_of("w1 w2 w3", "w4 w5")
        [scores_before] = model.inference_scores(doc)
        path = tmp_path / "mcs.lsnt"
        model.save(path)
        loaded = mcs.McsModel.load(path)
        np.testing.assert_array_equal(scores_before.fused, loaded.inference_scores(doc)[0].fused)
        assert (sel.rank_model(doc, model.fused_scores).indices
                == sel.rank_model(doc, loaded.fused_scores).indices)

    def test_wrong_kind_rejected(self, tmp_path):
        from longspan.checkpoint import save_tensors

        path = tmp_path / "other.lsnt"
        save_tensors(path, {"x": np.ones(2)}, {"kind": "toy_seq2seq"})
        with pytest.raises(Exception, match="kind"):
            mcs.McsModel.load(path)
